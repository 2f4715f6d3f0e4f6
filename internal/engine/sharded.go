package engine

import (
	"sync"

	"bitspread/internal/rng"
)

// agentShard is one worker of the sharded agent engine: a fixed contiguous
// range of non-source agents driven by its own random stream.
type agentShard struct {
	lo, hi  int // agent index range [lo, hi)
	g       *rng.RNG
	sampler *distinctSampler
	count   int64 // ones written in the last round
	sampled int64 // agents that drew samples in the last round
}

// runAgentsSharded is the multi-core body of RunAgents for shards >= 2.
//
// Determinism contract: the initial configuration is drawn from g exactly
// as in the serial engine (so a given seed yields the same starting layout
// at every shard count), then each shard receives its own generator via
// shards successive g.Split() calls and owns a fixed range of agents.
// Because no stream is ever shared across goroutines and per-round
// aggregation is a fixed-order reduction, the full trajectory depends only
// on (seed, shards) — never on GOMAXPROCS or scheduling.
//
// The inner loop is allocation-free: uniform indices come from a
// fixed-bound Lemire sampler and the g^[b](k) coin flips compare raw
// uint64 draws against thresholds precomputed once per rule table entry.
func runAgentsSharded(cfg Config, opts AgentOptions, shards int, g *rng.RNG) (Result, error) {
	absorbing := cfg.Rule.CheckProp3() == nil
	target := consensusTarget(cfg.N, cfg.Z)
	trap := wrongTrap(cfg.N, cfg.Z)
	roundCap := cfg.maxRounds()
	ell := cfg.Rule.SampleSize()
	n := int(cfg.N)
	faults := cfg.perturber()
	horizon := faultHorizon(faults)

	cur := initialOpinions(cfg, g)
	next := make([]uint8, n)
	x := cfg.X0

	res := Result{FinalCount: x, Shards: shards}
	if x == target && absorbing && horizon == 0 {
		res.Converged = true
		return res, nil
	}

	// Precomputed 64-bit acceptance thresholds for g^[b](k), indexed by k.
	g0, g1 := cfg.Rule.Tables()
	thr0 := make([]uint64, ell+1)
	thr1 := make([]uint64, ell+1)
	for k := 0; k <= ell; k++ {
		thr0[k] = rng.BernoulliThreshold(g0[k])
		thr1[k] = rng.BernoulliThreshold(g1[k])
	}
	bounded := rng.NewBounded(n)
	withoutReplacement := opts.WithoutReplacement && ell <= n

	workers := make([]*agentShard, shards)
	for s := range workers {
		lo := 1 + s*(n-1)/shards
		hi := 1 + (s+1)*(n-1)/shards
		w := &agentShard{lo: lo, hi: hi, g: g.Split()}
		if withoutReplacement {
			w.sampler = newDistinctSampler(n, ell)
		}
		workers[s] = w
	}

	var wg sync.WaitGroup
	for t := int64(1); t <= roundCap; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			res.Interrupted = true
			return res, nil
		}
		src := cfg.Z
		var omitThr uint64
		pinnedEnd := 1
		if faults != nil {
			// Boundary events run serially on the main stream, so the
			// trajectory stays a function of (seed, shards) alone.
			src = faultBoundaryAgents(faults, t, cfg.Z, cur, g)
			if q := faults.OmitProb(t); q > 0 {
				omitThr = rng.BernoulliThreshold(q)
			}
			s1, s0 := faults.Stubborn(t, cfg.N)
			pinnedEnd = 1 + int(s1) + int(s0)
		}
		next[0] = uint8(src)
		for _, w := range workers {
			wg.Add(1)
			go func(w *agentShard) {
				defer wg.Done()
				w.step(cur, next, ell, bounded, thr0, thr1, omitThr, pinnedEnd)
			}(w)
		}
		wg.Wait()

		count := int64(next[0])
		for _, w := range workers {
			count += w.count
		}
		cur, next = next, cur
		x = count
		res.Rounds = t
		var roundSampled int64
		for _, w := range workers {
			roundSampled += w.sampled
		}
		res.Activations += roundSampled
		res.FinalCount = x
		if x == trap {
			res.HitWrongConsensus = true
		}
		if cfg.Probe != nil {
			for s, w := range workers {
				cfg.Probe.ShardRound(s, w.sampled)
			}
		}
		probeRound(cfg.Probe, faults, t, cfg.Z, src, x, roundSampled)
		if x == target && absorbing && t >= horizon {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

// step advances the shard's agent range one round, writing new opinions
// into next[lo:hi] and recording the ones written. Agents below pinnedEnd
// are stubborn and keep their opinion; when omitThr is non-zero each
// remaining agent first flips the omission coin and on success keeps its
// opinion without sampling.
func (w *agentShard) step(cur, next []uint8, ell int, bounded rng.Bounded, thr0, thr1 []uint64, omitThr uint64, pinnedEnd int) {
	g := w.g
	var count, sampled int64
	for i := w.lo; i < w.hi; i++ {
		if i < pinnedEnd {
			next[i] = cur[i]
			count += int64(cur[i])
			continue
		}
		if omitThr != 0 && g.BernoulliT(omitThr) {
			next[i] = cur[i]
			count += int64(cur[i])
			continue
		}
		k := 0
		if w.sampler != nil {
			for _, j := range w.sampler.sample(g) {
				k += int(cur[j])
			}
		} else {
			for s := 0; s < ell; s++ {
				k += int(cur[bounded.Next(g)])
			}
		}
		sampled++
		thr := thr0
		if cur[i] == 1 {
			thr = thr1
		}
		if g.BernoulliT(thr[k]) {
			next[i] = 1
			count++
		} else {
			next[i] = 0
		}
	}
	w.count = count
	w.sampled = sampled
}
