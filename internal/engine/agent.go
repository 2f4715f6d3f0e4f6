package engine

import (
	"bitspread/internal/rng"
)

// AgentOptions tunes the literal agent-level simulator.
type AgentOptions struct {
	// WithoutReplacement makes each agent draw its ℓ samples as distinct
	// agents (an ablation; the paper's model samples with replacement).
	WithoutReplacement bool
	// Shards splits the per-round inner loop over that many goroutines,
	// each consuming its own Split-derived random stream over a fixed
	// contiguous range of agents. Results are bit-reproducible given
	// (seed, Shards) regardless of GOMAXPROCS or scheduling; values <= 1
	// select the serial engine, which reproduces the historical
	// single-stream sequence exactly.
	Shards int
	// Unpacked forces the historical byte-per-opinion engine body instead
	// of the bit-packed fast path (see packed.go). The two sample from
	// the same per-round distribution — the packed path draws sample
	// indices as 32-bit Lemire rejections, so realizations for a given
	// seed differ — and each is deterministic in (seed, Config, Shards).
	// The flag exists for benchmarks and equivalence tests, and for
	// callers that need the historical realization for a fixed seed.
	Unpacked bool
	// Chunked forces the streaming chunked-bitset body (see chunked.go),
	// which samples indices with 64-bit Lemire rejection and therefore has
	// no n < 2³² ceiling. Populations at or above that ceiling take the
	// chunked body automatically; the flag exists to exercise it (and its
	// realization) at small n. Ignored when Unpacked or without-replacement
	// sampling already forces the historical body.
	Chunked bool
}

// effectiveShards resolves the shard count for a population of n agents:
// at most one shard per non-source agent, and never less than 1.
func (o AgentOptions) effectiveShards(n int64) int {
	s := o.Shards
	if int64(s) > n-1 {
		s = int(n - 1)
	}
	if s < 1 {
		s = 1
	}
	return s
}

// RunAgents simulates the parallel setting literally, agent by agent, per
// the model definition in Section 1.1: in every round each non-source
// agent i draws a vector of ℓ agent indices uniformly at random (with
// replacement, unless opts says otherwise), counts the ones among the
// sampled opinions, and redraws its opinion from g^[b](k). Agent 0 is the
// source and always holds z.
//
// Cost is O(n·ℓ) per round, split across opts.Shards goroutines when
// sharding is requested; the engine exists to cross-validate the exact
// count-level engine and to host per-agent extensions. Opinions are kept
// in a bit-packed layout by default (same per-round distribution as the
// historical byte-per-opinion body, which opts.Unpacked forces and
// without-replacement sampling or n ≥ 2³² fall back to; see packed.go).
func RunAgents(cfg Config, opts AgentOptions, g *rng.RNG) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	ell := cfg.Rule.SampleSize()
	withoutReplacement := opts.WithoutReplacement && ell <= int(cfg.N)
	if !opts.Unpacked && !withoutReplacement {
		// The packed bodies resolve the shard count themselves (a shard
		// must own at least one whole bitset word; Result.Shards reports
		// the resolved value).
		if opts.Chunked || cfg.N >= packedMaxN {
			return runAgentsChunked(cfg, opts.Shards, g)
		}
		return runAgentsPacked(cfg, opts.Shards, g)
	}
	shards := opts.effectiveShards(cfg.N)
	if shards > 1 {
		return runAgentsSharded(cfg, opts, shards, g)
	}
	absorbing := cfg.Rule.CheckProp3() == nil
	target := consensusTarget(cfg.N, cfg.Z)
	trap := wrongTrap(cfg.N, cfg.Z)
	roundCap := cfg.maxRounds()
	n := int(cfg.N)
	faults := cfg.perturber()
	horizon := faultHorizon(faults)

	cur := initialOpinions(cfg, g)
	next := make([]uint8, n)
	x := cfg.X0

	res := Result{FinalCount: x, Shards: 1}
	if x == target && absorbing && horizon == 0 {
		res.Converged = true
		return res, nil
	}

	var sampler *distinctSampler
	if withoutReplacement {
		sampler = newDistinctSampler(n, ell)
	}
	for t := int64(1); t <= roundCap; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			res.Interrupted = true
			return res, nil
		}
		src := cfg.Z
		var omitQ float64
		pinnedEnd := 1
		if faults != nil {
			src = faultBoundaryAgents(faults, t, cfg.Z, cur, g)
			omitQ = faults.OmitProb(t)
			s1, s0 := faults.Stubborn(t, cfg.N)
			pinnedEnd = 1 + int(s1) + int(s0)
		}
		next[0] = uint8(src)
		var count int64 = int64(next[0])
		var sampled int64
		for i := 1; i < pinnedEnd; i++ {
			// Stubborn agents keep the opinion the boundary pinned them at.
			next[i] = cur[i]
			count += int64(cur[i])
		}
		for i := pinnedEnd; i < n; i++ {
			if omitQ > 0 && g.Bernoulli(omitQ) {
				next[i] = cur[i]
				count += int64(cur[i])
				continue
			}
			k := 0
			if sampler != nil {
				for _, j := range sampler.sample(g) {
					k += int(cur[j])
				}
			} else {
				for s := 0; s < ell; s++ {
					k += int(cur[g.Intn(n)])
				}
			}
			sampled++
			if g.Bernoulli(cfg.Rule.G(int(cur[i]), k)) {
				next[i] = 1
				count++
			} else {
				next[i] = 0
			}
		}
		cur, next = next, cur
		x = count
		res.Rounds = t
		res.Activations += sampled
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

// initialOpinions lays out a configuration with X0 ones: the source (index
// 0) holds z and the remaining ones are assigned to a uniformly random set
// of non-source agents. Which agents start with which opinion is
// irrelevant to the count process (agents are anonymous), but randomizing
// keeps the agent engine honest for per-agent extensions.
//
// The ones are placed by Floyd's subset-sampling algorithm, which draws
// exactly onesToPlace variates and uses the opinion array itself as the
// membership set — O(X0) work instead of a full n-permutation.
func initialOpinions(cfg Config, g *rng.RNG) []uint8 {
	n := int(cfg.N)
	ops := make([]uint8, n)
	ops[0] = uint8(cfg.Z)
	onesToPlace := int(cfg.X0) - cfg.Z
	m := n - 1 // candidate non-source slots, ops[1..n-1]
	for j := m - onesToPlace; j < m; j++ {
		t := g.Intn(j + 1)
		if ops[1+t] == 1 {
			ops[1+j] = 1
		} else {
			ops[1+t] = 1
		}
	}
	return ops
}

// smallSampleCut is the ℓ at or below which a linear duplicate scan beats
// map bookkeeping for without-replacement draws.
const smallSampleCut = 16

// distinctSampler draws ℓ distinct uniform indices from [0, n) repeatedly
// without allocating per call. Strategy by regime:
//
//   - ℓ ≤ smallSampleCut: rejection with a linear duplicate scan (the
//     historical path, fastest while the scan fits in a cache line);
//   - ℓ ≤ n/2: rejection with a hash-set duplicate check, expected O(ℓ)
//     per call instead of the linear scan's O(ℓ²);
//   - ℓ > n/2: partial Fisher–Yates over a persistent index permutation,
//     O(ℓ) swaps with no rejection at all (the permutation stays valid
//     between calls, so no re-initialization is needed).
type distinctSampler struct {
	n, ell int
	buf    []int
	seen   map[int]struct{} // map-rejection path
	perm   []int            // partial-shuffle path
}

func newDistinctSampler(n, ell int) *distinctSampler {
	s := &distinctSampler{n: n, ell: ell}
	switch {
	case ell <= smallSampleCut:
		s.buf = make([]int, 0, ell)
	case ell <= n/2:
		s.buf = make([]int, 0, ell)
		s.seen = make(map[int]struct{}, ell)
	default:
		s.perm = make([]int, n)
		for i := range s.perm {
			s.perm[i] = i
		}
	}
	return s
}

// sample returns ℓ distinct indices; the slice is valid until the next
// call.
func (s *distinctSampler) sample(g *rng.RNG) []int {
	switch {
	case s.perm != nil:
		// Partial Fisher–Yates: any permutation prefix of length ℓ is a
		// uniform ordered sample without replacement.
		for i := 0; i < s.ell; i++ {
			j := i + g.Intn(s.n-i)
			s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		}
		return s.perm[:s.ell]
	case s.seen != nil:
		clear(s.seen)
		dst := s.buf[:0]
		for len(dst) < s.ell {
			v := g.Intn(s.n)
			if _, dup := s.seen[v]; dup {
				continue
			}
			s.seen[v] = struct{}{}
			dst = append(dst, v)
		}
		s.buf = dst
		return dst
	default:
		dst := s.buf[:0]
		for len(dst) < s.ell {
			v := g.Intn(s.n)
			dup := false
			for _, u := range dst {
				if u == v {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, v)
			}
		}
		s.buf = dst
		return dst
	}
}
