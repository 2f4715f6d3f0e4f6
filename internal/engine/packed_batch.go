package engine

import "bitspread/internal/rng"

// RunAgentsReplicas runs one packed agent-level replica per seed, advancing
// all of them in lockstep so the deterministic-regime adoption thresholds —
// the inverse-CDF table kThr, a pure function of the round's one-count —
// are computed once per distinct count ever visited by the batch instead of
// once per replica-round. Replica i's Result is bit-identical to
// RunAgents(cfg, opts, rng.New(seeds[i])): the memoization is a pure
// evaluation-sharing transform, exactly like RunParallelReplicas at the
// count level. Converged replicas drop out of the batch; the round loop
// ends when none remain active or the cap expires.
//
// Configurations the packed engine does not serve (Unpacked,
// without-replacement sampling, Chunked or n ≥ 2³²) fall back to
// independent RunAgents calls, one per seed — same results, no threshold
// sharing. cfg.Probe is shared by every replica, so it must be an
// aggregator that does not tell replicas apart, as for
// RunParallelReplicas.
func RunAgentsReplicas(cfg Config, opts AgentOptions, seeds []uint64) ([]Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ell := cfg.Rule.SampleSize()
	withoutReplacement := opts.WithoutReplacement && ell <= int(cfg.N)
	if opts.Unpacked || withoutReplacement || opts.Chunked || cfg.N >= packedMaxN {
		results := make([]Result, len(seeds))
		for i, seed := range seeds {
			res, err := RunAgents(cfg, opts, rng.New(seed))
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}

	p := newPackedParams(cfg, opts.Shards)
	results := make([]Result, len(seeds))
	states := make([]*packedState, len(seeds))
	active := make([]int, 0, len(seeds))
	for i, seed := range seeds {
		st := p.newState(rng.New(seed))
		if st.res.Converged {
			results[i] = st.res
			continue
		}
		states[i] = st
		active = append(active, i)
	}

	// kThr memo, keyed by the one-count the round's agents sample from.
	// Lookup-only access (no map iteration) keeps the batch deterministic;
	// the table is copied out of the state scratch on first computation so
	// later rounds of other replicas can't alias it.
	memo := make(map[int64][]uint64)
	thresholds := func(st *packedState, x int64) []uint64 {
		if kThr, ok := memo[x]; ok {
			return kThr
		}
		kThr := append([]uint64(nil), p.stateKThr(st, x)...)
		memo[x] = kThr
		return kThr
	}

	for t := int64(1); t <= p.roundCap && len(active) > 0; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			for _, i := range active {
				states[i].res.Interrupted = true
				results[i] = states[i].res
			}
			return results, nil
		}
		live := active[:0]
		for _, i := range active {
			if p.round(states[i], t, thresholds) {
				results[i] = states[i].res
				states[i] = nil
				continue // retire this replica
			}
			live = append(live, i)
		}
		active = live
	}
	for _, i := range active {
		results[i] = states[i].res
	}
	return results, nil
}
