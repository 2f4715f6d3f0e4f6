package engine

import (
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// SequentialStep returns the next one-count after a single sequential
// activation from count x: one non-source agent chosen uniformly at random
// resamples and updates. The count moves by at most one, which is why the
// sequential process is a birth–death chain for every protocol — the
// structural fact behind the Ω(n) lower bound of [14].
func SequentialStep(r *protocol.Rule, n int64, z int, x int64, g *rng.RNG) int64 {
	p := float64(x) / float64(n)
	m1 := float64(x - int64(z))       // non-source agents holding 1
	m0 := float64(n - x - int64(1-z)) // non-source agents holding 0
	nonSource := float64(n - 1)

	u := g.Float64()
	// The activated agent holds 1 with probability m1/(n-1); it then drops
	// to 0 with probability 1-P₁(p). Otherwise it holds 0 and rises with
	// probability P₀(p).
	pDown := (m1 / nonSource) * (1 - r.AdoptProb(1, p))
	pUp := (m0 / nonSource) * r.AdoptProb(0, p)
	switch {
	case u < pDown:
		return x - 1
	case u < pDown+pUp:
		return x + 1
	default:
		return x
	}
}

// RunSequential simulates the sequential setting. The round cap of cfg is
// interpreted in parallel rounds: one parallel round is n activations, so
// the engine performs up to maxRounds·n activations. Result.Rounds reports
// parallel rounds (rounded up) for apples-to-apples comparison with the
// parallel engine, per the paper's convention. Fault boundaries fire every
// n activations — the sequential image of a parallel round boundary.
func RunSequential(cfg Config, g *rng.RNG) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	absorbing := cfg.Rule.CheckProp3() == nil
	target := consensusTarget(cfg.N, cfg.Z)
	trap := wrongTrap(cfg.N, cfg.Z)
	maxActivations := cfg.maxRounds() * cfg.N
	faults := cfg.perturber()
	horizon := faultHorizon(faults)

	x := cfg.X0
	src := cfg.Z
	res := Result{FinalCount: x}
	if x == target && absorbing && horizon == 0 {
		res.Converged = true
		return res, nil
	}
	var roundSampled int64
	for a := int64(1); a <= maxActivations; a++ {
		t := (a-1)/cfg.N + 1 // current parallel round
		if a%cfg.N == 1 {
			roundSampled = 0
			if cfg.Halt != nil && cfg.Halt() {
				res.Interrupted = true
				res.Rounds = t - 1 // the rounds completed, as the parallel engines report
				return res, nil
			}
			if faults != nil {
				x, src = faultBoundaryCount(faults, t, cfg.N, cfg.Z, src, x, g)
			}
		}
		if faults != nil {
			var did bool
			x, did = sequentialStepFaulty(cfg.Rule, faults, t, cfg.N, src, x, g)
			if did {
				res.Activations++
				roundSampled++
			}
		} else {
			x = SequentialStep(cfg.Rule, cfg.N, cfg.Z, x, g)
			res.Activations++
			roundSampled++
		}
		res.FinalCount = x
		if x == trap {
			res.HitWrongConsensus = true
		}
		if a%cfg.N == 0 {
			probeRound(cfg.Probe, faults, t, cfg.Z, src, x, roundSampled)
		}
		if x == target && absorbing && t >= horizon {
			res.Converged = true
			res.Rounds = (a + cfg.N - 1) / cfg.N
			if a%cfg.N != 0 {
				// Mid-round convergence: the run stops before the n-th
				// activation, so the boundary hook above would never see the
				// terminal count. Emit the partial round so trajectory taps
				// end at consensus instead of one round early.
				probeRound(cfg.Probe, faults, t, cfg.Z, src, x, roundSampled)
			}
			return res, nil
		}
	}
	res.Rounds = cfg.maxRounds()
	return res, nil
}
