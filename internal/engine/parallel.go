package engine

import (
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// StepCount advances the exact count-level chain one parallel round:
// given x agents with opinion 1 (source included), it returns the next
// round's one-count, distributed exactly as in the agent-level model.
//
// Derivation: each non-source agent's ℓ samples are i.i.d. Bernoulli(x/n)
// (sampling is uniform with replacement over all n agents), so conditioned
// on X_t = x each of the m₁ one-holders independently keeps/adopts 1 with
// probability P₁(x/n) and each of the m₀ zero-holders adopts 1 with
// probability P₀(x/n) (Eq. 4). The source contributes z.
func StepCount(r *protocol.Rule, n int64, z int, x int64, g *rng.RNG) int64 {
	p := float64(x) / float64(n)
	p1 := r.AdoptProb(1, p)
	p0 := r.AdoptProb(0, p)
	m1 := x - int64(z)
	m0 := (n - x) - int64(1-z)
	return int64(z) + g.Binomial(m1, p1) + g.Binomial(m0, p0)
}

// RunParallel simulates the parallel-setting process with the exact
// count-level engine until the correct consensus is hit or the round cap
// expires. The generator g must not be shared across concurrent runs.
// With cfg.Faults set, scheduled perturbations are applied at round
// boundaries and consensus only counts once the schedule's horizon has
// passed; with cfg.Halt set, the run stops early when it fires.
func RunParallel(cfg Config, g *rng.RNG) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	absorbing := cfg.Rule.CheckProp3() == nil
	target := consensusTarget(cfg.N, cfg.Z)
	trap := wrongTrap(cfg.N, cfg.Z)
	roundCap := cfg.maxRounds()
	faults := cfg.perturber()
	horizon := faultHorizon(faults)

	x := cfg.X0
	src := cfg.Z
	res := Result{FinalCount: x}
	if x == target && absorbing && horizon == 0 {
		res.Converged = true
		return res, nil
	}
	for t := int64(1); t <= roundCap; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			res.Interrupted = true
			return res, nil
		}
		sampled := cfg.N - 1
		if faults != nil {
			x, src = faultBoundaryCount(faults, t, cfg.N, cfg.Z, src, x, g)
			x, sampled = stepCountFaulty(cfg.Rule, nil, faults, t, cfg.N, src, x, g)
		} else {
			x = StepCount(cfg.Rule, cfg.N, cfg.Z, x, g)
		}
		res.Activations += sampled
		res.Rounds = t
		res.FinalCount = x
		if x == trap {
			res.HitWrongConsensus = true
		}
		probeRound(cfg.Probe, faults, t, cfg.Z, src, x, sampled)
		if x == target && absorbing && t >= horizon {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}
