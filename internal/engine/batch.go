package engine

import (
	"fmt"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// StepCountBatch advances R replicas of the same instance one parallel
// round each: xs[i] is replaced by the next one-count of replica i, drawn
// from gs[i]. Both Eq. 4 evaluations are routed through the shared
// AdoptCache, so the O(ℓ) pmf sum is paid once per distinct count ever
// visited by the batch instead of once per replica-round.
//
// Each replica's update is identical — in value and in stream consumption —
// to StepCount(c.Rule(), c.N(), z, xs[i], gs[i]): the cache is exact, so
// batched and unbatched trajectories coincide realization-by-realization
// for the same generators. It panics if len(xs) != len(gs).
func StepCountBatch(c *protocol.AdoptCache, z int, xs []int64, gs []*rng.RNG) {
	if len(xs) != len(gs) {
		panic(fmt.Sprintf("engine: StepCountBatch with %d counts but %d generators", len(xs), len(gs)))
	}
	n := c.N()
	for i, x := range xs {
		p0, p1 := c.Probs(x)
		m1 := x - int64(z)
		m0 := (n - x) - int64(1-z)
		xs[i] = int64(z) + gs[i].Binomial(m1, p1) + gs[i].Binomial(m0, p0)
	}
}

// RunParallelReplicas runs one count-level replica per seed, advancing all
// of them in lockstep so every P₀/P₁ evaluation is served by one shared
// per-rule AdoptCache. Replica i's Result is bit-identical to
// RunParallel(cfg, rng.New(seeds[i])): the batching is a pure evaluation-
// sharing transform, not a statistical approximation. Converged replicas
// drop out of the batch; the round loop ends when none remain active or
// the cap expires.
//
// cfg.Probe is shared by every replica, so it must be an aggregator that
// does not need to tell replicas apart: each active replica fires
// FaultApplied (when the round is perturbed) and then RoundDone, exactly
// as its own RunParallel would, so probe totals do not depend on how
// replicas are batched.
func RunParallelReplicas(cfg Config, seeds []uint64) ([]Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	absorbing := cfg.Rule.CheckProp3() == nil
	target := consensusTarget(cfg.N, cfg.Z)
	trap := wrongTrap(cfg.N, cfg.Z)
	roundCap := cfg.maxRounds()
	faults := cfg.perturber()
	horizon := faultHorizon(faults)

	results := make([]Result, len(seeds))
	xs := make([]int64, len(seeds))
	gs := make([]*rng.RNG, len(seeds))
	active := make([]int, 0, len(seeds))
	for i, seed := range seeds {
		results[i] = Result{FinalCount: cfg.X0}
		if cfg.X0 == target && absorbing && horizon == 0 {
			results[i].Converged = true
			continue
		}
		xs[i] = cfg.X0
		gs[i] = rng.New(seed)
		active = append(active, i)
	}
	if len(active) == 0 {
		return results, nil
	}

	cache := protocol.NewAdoptCache(cfg.Rule, cfg.N)
	srcPrev := cfg.Z
	for t := int64(1); t <= roundCap && len(active) > 0; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			for _, i := range active {
				results[i].Interrupted = true
			}
			return results, nil
		}
		src := cfg.Z
		if faults != nil {
			// The source opinion is a pure function of the round, so the
			// boundary flip is shared; the event randomness is per-replica.
			src = faults.SourceOpinion(t, cfg.Z)
		}
		live := active[:0]
		for _, i := range active {
			var x int64
			sampled := cfg.N - 1
			if faults != nil {
				x = xs[i]
				if src != srcPrev {
					x += int64(src - srcPrev)
				}
				if faults.BoundaryAt(t) {
					x = faults.PerturbCount(t, cfg.N, src, x, gs[i])
				}
				x, sampled = stepCountFaulty(nil, cache, faults, t, cfg.N, src, x, gs[i])
			} else {
				p0, p1 := cache.Probs(xs[i])
				m1 := xs[i] - int64(cfg.Z)
				m0 := (cfg.N - xs[i]) - int64(1-cfg.Z)
				x = int64(cfg.Z) + gs[i].Binomial(m1, p1) + gs[i].Binomial(m0, p0)
			}
			xs[i] = x

			res := &results[i]
			res.Rounds = t
			res.Activations += sampled
			res.FinalCount = x
			if x == trap {
				res.HitWrongConsensus = true
			}
			probeRound(cfg.Probe, faults, t, cfg.Z, src, x, sampled)
			if x == target && absorbing && t >= horizon {
				res.Converged = true
				continue // retire this replica
			}
			live = append(live, i)
		}
		active = live
		srcPrev = src
	}
	return results, nil
}
