package engine

import (
	"math"
	"math/bits"
	"sync"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// This file is the bit-packed fast path of the literal agent engine:
// opinions live in a []uint64 bitset (one bit per agent, 8× less memory
// traffic than the historical []uint8 layout, so the whole population
// stays cache-resident far longer), and randomness is consumed as a
// stream of 32-bit halves cut from block-generated xoshiro words
// (rng.FillUint64 keeps the generator state in registers for thousands
// of outputs). Two round bodies share that stream:
//
//   - stepDet, for deterministic 0/1 rule tables in fault-free rounds,
//     applies the aggregation insight per agent: conditioned on the
//     current one-count x, every agent's observed one-count k is iid
//     Binomial(ℓ, x/n), so one uniform word and an inverse-CDF
//     threshold scan replace the ℓ random bitset lookups entirely, and
//     a bitmask select replaces the (mispredicting) adoption branch.
//
//   - step, the general body (noisy tables, omission coins, pinned
//     stubborn prefixes), samples indices literally: one half per index
//     via Lemire's multiply-shift with rejection — exact for any bound
//     below 2³², which is why the packed path is gated on n < 2³² —
//     while coins splice two halves into a full word and compare it
//     against a precomputed rng.BernoulliThreshold (0/1 sentinel
//     entries consume nothing, like rng.Bernoulli's shortcuts).
//
// Both bodies draw each round's transition from the same law as the
// historical byte-per-opinion engine, at the 53-bit granularity at
// which rng.Bernoulli/rng.Binomial resolve probabilities everywhere in
// the repo; the initial configuration is laid out by the same Floyd
// subset-sampling walk. Realizations for a given seed differ from the
// unpacked body's — spending less randomness per agent is the point —
// so runs are reproducible per engine (same seed, Config, Shards ⇒
// same Result) but not across the packed/unpacked pair; the χ²
// equivalence suite (equivalence_chi_test.go) pins the distributional
// agreement, under every fault family. AgentOptions.Unpacked forces
// the historical body; without-replacement sampling and n ≥ 2³² fall
// back to it on their own.
const packedBufferWords = 1024

// packedBufferHalves is the stream length in 32-bit units.
const packedBufferHalves = 2 * packedBufferWords

// packedMaxN is the exclusive population bound of the packed fast path:
// Lemire-32 rejection is exact only for bounds that fit in 32 bits.
const packedMaxN = int64(math.MaxUint32)

// packedWords returns the number of 64-bit words holding n opinion bits.
func packedWords(n int) int { return (n + 63) / 64 }

// packedCount returns the number of one-bits in the opinion bitset.
func packedCount(bs []uint64) int64 {
	var c int
	for _, w := range bs {
		c += bits.OnesCount64(w)
	}
	return int64(c)
}

// packedGet returns opinion bit i.
func packedGet(bs []uint64, i int) uint64 {
	return (bs[i>>6] >> (uint(i) & 63)) & 1
}

// packedSet stores opinion bit i.
func packedSet(bs []uint64, i int, bit uint64) {
	mask := uint64(1) << (uint(i) & 63)
	if bit != 0 {
		bs[i>>6] |= mask
	} else {
		bs[i>>6] &^= mask
	}
}

// halfStream carries a generator's output as a block of raw words plus a
// cursor in 32-bit halves (buf[pos>>1] >> 32·(pos&1)), refilled through
// rng.FillUint64. The consumers — initialization, the round loops —
// inline the cursor accesses directly; the struct only threads the
// stream state between them.
type halfStream struct {
	g   *rng.RNG
	buf [packedBufferWords]uint64
	pos int // next 32-bit half
}

func newHalfStream(g *rng.RNG) *halfStream {
	return &halfStream{g: g, pos: packedBufferHalves}
}

// packedInitialOpinions is initialOpinions on the packed layout: the
// same Floyd subset-sampling walk, with the variates drawn from the
// half stream. The draw loop is inlined (one lazy Lemire-32 per
// accepted variate, like the round loop) because at X0 = n/2 the
// initialization is a visible fraction of a short run.
func packedInitialOpinions(cfg Config, s *halfStream) []uint64 {
	n := int(cfg.N)
	bs := make([]uint64, packedWords(n))
	packedSet(bs, 0, uint64(cfg.Z))
	onesToPlace := int(cfg.X0) - cfg.Z
	m := n - 1 // candidate non-source slots, bits 1..n-1
	buf := &s.buf
	pos := s.pos
	g := s.g
	for j := m - onesToPlace; j < m; j++ {
		bound := uint64(j + 1)
		if pos == packedBufferHalves {
			g.FillUint64(buf[:])
			pos = 0
		}
		h := uint32(buf[pos>>1] >> uint((pos&1)<<5))
		pos++
		mm := uint64(h) * bound
		if uint32(mm) < uint32(bound) {
			rej := uint32(-uint32(bound)) % uint32(bound)
			for uint32(mm) < rej {
				if pos == packedBufferHalves {
					g.FillUint64(buf[:])
					pos = 0
				}
				h = uint32(buf[pos>>1] >> uint((pos&1)<<5))
				pos++
				mm = uint64(h) * bound
			}
		}
		t := int(mm >> 32)
		// Select j when slot t is already a member, t otherwise, without
		// a branch: the membership bit is unpredictable (≈X0/n of the
		// walk hits a member), so a data-dependent branch mispredicts
		// its way through the whole initialization.
		b := (bs[(1+t)>>6] >> (uint(1+t) & 63)) & 1
		sel := 1 + (t ^ ((t ^ j) & -int(b)))
		bs[sel>>6] |= 1 << (uint(sel) & 63)
	}
	s.pos = pos
	return bs
}

// packedBoundary applies the round-t fault boundary to the packed state:
// the source bit takes its scheduled opinion, and boundary events rewrite
// non-source opinions through an unpack → PerturbAgents → repack
// round-trip. Boundary events are point events (rare rounds), so the O(n)
// copy is paid only when opinions are actually rewritten; the scratch
// slice is grown lazily on the first such round and reused after.
func packedBoundary(f Perturber, t int64, z int, cur []uint64, n int, scratch []uint8, g *rng.RNG) (int, []uint8) {
	src := f.SourceOpinion(t, z)
	packedSet(cur, 0, uint64(src))
	if f.BoundaryAt(t) {
		if scratch == nil {
			scratch = make([]uint8, n)
		}
		for i := 0; i < n; i++ {
			scratch[i] = uint8(packedGet(cur, i))
		}
		f.PerturbAgents(t, scratch, g)
		for w := range cur {
			cur[w] = 0
		}
		for i := 0; i < n; i++ {
			if scratch[i] != 0 {
				cur[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return src, scratch
}

// lineWords is the cache-line granularity of shard ownership: 8 words of
// 64 opinions each, so one shard's round flips never dirty a cache line
// another shard writes (false-sharing-free by construction, not by luck).
const lineWords = 8

// packedWordBounds partitions nWords bitset words into shards contiguous
// ranges: bounds[s] is the first word of shard s and bounds[shards] ==
// nWords. Ranges are aligned to cache-line (8-word) multiples whenever
// shards ≤ lines, so concurrent round flips are false-sharing-free; with
// more shards than lines the split degrades to word granularity (still
// write-exclusive per word, never per bit). Callers must clamp shards to
// [1, nWords] first (packedEffectiveShards), which guarantees every
// shard at least one whole word.
func packedWordBounds(nWords, shards int) []int {
	bounds := make([]int, shards+1)
	lines := (nWords + lineWords - 1) / lineWords
	if shards <= lines {
		for s := 1; s < shards; s++ {
			bounds[s] = (s * lines / shards) * lineWords
		}
	} else {
		for s := 1; s < shards; s++ {
			bounds[s] = s * nWords / shards
		}
	}
	bounds[shards] = nWords
	return bounds
}

// MaxPackedShards returns the largest usable shard count of the packed
// engines (bit-packed and chunked) for a population of n agents: one shard
// per 64-opinion bitset word, because a shard must own at least one whole
// word to keep round flips write-exclusive. Requests above it are clamped —
// Result.Shards reports the resolved value — and front-ends may prefer to
// reject them outright (bitsim does).
func MaxPackedShards(n int64) int { return int((n + 63) >> 6) }

// packedEffectiveShards clamps a requested shard count to [1, nWords]: a
// packed shard owns whole 64-opinion words, so there can be no more
// shards than words. Result.Shards reports this resolved value.
func packedEffectiveShards(requested, nWords int) int {
	if requested > nWords {
		requested = nWords
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// packedWorker is one agent range of the packed engine: the serial engine
// is a single worker spanning [1, n) on the main stream; the sharded
// engine runs one per shard on Split-derived streams over word-aligned
// ranges (packedWordBounds), so every bitset word has exactly one writer
// and rounds need no partial-word merge. The trailing pad keeps the
// per-round count/sampled stores of adjacent workers on distinct cache
// lines (the workers are small heap objects that would otherwise share
// one).
type packedWorker struct {
	lo, hi  int // agent index range [lo, hi)
	s       *halfStream
	count   int64
	sampled int64
	_       [11]uint64 // pad to 128 B: no false sharing between workers
}

// stepDet advances the worker's agent range one packed round in the
// fully deterministic-rule, fault-free regime: no omission coins, no
// pinned agents in range, and 0/1 adoption tables packed into
// per-opinion bitmasks (bit k of det0/det1 is g^[0](k)/g^[1](k)).
//
// It applies the aggregation insight per agent: conditioned on the
// current one-count x, each agent's observed one-count k is iid
// Binomial(ℓ, x/n) — uniform sampling with replacement depends on the
// configuration only through x — so instead of ℓ random bitset lookups
// the round draws k directly by inverse CDF. kThr[m] holds the 53-bit
// BernoulliThreshold of P(K ≤ m), so k = #{m : u ≥ kThr[m]} for one
// uniform word u; the count comes out at the same Float64 granularity
// at which rng.Bernoulli and rng.Binomial resolve their probabilities
// everywhere else in the repo. The body is branchless past the buffer
// refill: the borrow of a 64-bit subtract accumulates k, and a mask
// select replaces the adoption branch on a random k, which mispredicts
// half the time for minority-style rules.
func (w *packedWorker) stepDet(cur, next []uint64, det0, det1 uint64, kThr []uint64) {
	s := w.s
	buf := &s.buf
	pos := s.pos
	g := s.g
	if pos&1 == 1 {
		pos++ // align to a word boundary; one unused half is discarded
	}
	var count int64
	acc := uint64(0)
	wordIdx := w.lo >> 6
	xorMask := det0 ^ det1
	if len(kThr) == 3 {
		// ℓ = 3 is the canonical sample size of the repo's minority
		// experiments; unrolling the threshold scan into three
		// independent borrows removes the inner loop entirely. The walk
		// is blocked per 64-agent word so the current-opinion word is
		// loaded once per block (shifted out bit by bit) and the
		// one-count is taken as one popcount per flushed word instead
		// of a per-agent add.
		t0, t1, t2 := kThr[0], kThr[1], kThr[2]
		// pos stays even here (one whole word per agent), so a word
		// cursor replaces the half cursor inside the loop.
		wpos := pos >> 1
		for i := w.lo; i < w.hi; {
			blockEnd := (i | 63) + 1
			if blockEnd > w.hi {
				blockEnd = w.hi
			}
			// Refill per block, not per agent: if fewer words remain
			// than the block needs, refresh the whole buffer and
			// discard the unconsumed tail (≤ 63 fresh uniform words
			// that no draw ever observed — the stream stays iid and
			// the run stays deterministic, it just skips ahead).
			if packedBufferWords-wpos < blockEnd-i {
				g.FillUint64(buf[:])
				wpos = 0
			}
			o := uint(i) & 63
			cw := cur[wordIdx] >> o
			for ; i < blockEnd; i++ {
				u := buf[wpos]
				wpos++
				_, b0 := bits.Sub64(u, t0, 0)
				_, b1 := bits.Sub64(u, t1, 0)
				_, b2 := bits.Sub64(u, t2, 0)
				k := uint(3 - (b0 + b1 + b2))
				b := cw & 1
				cw >>= 1
				bit := ((det0 ^ (xorMask & (-b))) >> k) & 1
				acc |= bit << o
				o++
			}
			next[wordIdx] = acc
			count += int64(bits.OnesCount64(acc))
			acc = 0
			wordIdx++
		}
		pos = wpos << 1
	} else {
		for i := w.lo; i < w.hi; i++ {
			if pos == packedBufferHalves {
				g.FillUint64(buf[:])
				pos = 0
			}
			u := buf[pos>>1]
			pos += 2
			k := uint(0)
			for _, t := range kThr {
				_, borrow := bits.Sub64(u, t, 0)
				k += uint(1 - borrow)
			}
			b := (cur[i>>6] >> (uint(i) & 63)) & 1
			// Select det1 when b == 1, det0 otherwise, without a branch.
			bit := ((det0 ^ (xorMask & (-b))) >> k) & 1
			acc |= bit << (uint(i) & 63)
			count += int64(bit)
			if i&63 == 63 || i == w.hi-1 {
				next[wordIdx] = acc
				acc = 0
				wordIdx++
			}
		}
	}
	s.pos = pos
	w.count = count
	w.sampled = int64(w.hi - w.lo)
}

// detMasks packs 0/1 threshold tables into the stepDet bitmasks; ok is
// false when any entry is probabilistic (noisy rules) or ℓ ≥ 64.
func detMasks(thr0, thr1 []uint64) (det0, det1 uint64, ok bool) {
	if len(thr0) > 64 {
		return 0, 0, false
	}
	for k := range thr0 {
		switch thr0[k] {
		case 0:
		case rng.BernoulliAlways:
			det0 |= 1 << uint(k)
		default:
			return 0, 0, false
		}
		switch thr1[k] {
		case 0:
		case rng.BernoulliAlways:
			det1 |= 1 << uint(k)
		default:
			return 0, 0, false
		}
	}
	return det0, det1, true
}

// step advances the worker's agent range one packed round. The draw path
// is free of function calls: halves come straight out of the local block
// (refilled in bulk), indices from inline Lemire-32 rejection, and coins
// from inline threshold compares with the non-consuming 0 /
// BernoulliAlways sentinels short-circuited.
func (w *packedWorker) step(cur, next []uint64, n, ell int, thr0, thr1 []uint64, omitThr uint64, pinnedEnd int) {
	bound := uint64(n)
	rej := uint32(-uint32(n)) % uint32(n)
	s := w.s
	buf := &s.buf
	pos := s.pos
	g := s.g
	var count, sampled int64
	acc := uint64(0)
	wordIdx := w.lo >> 6
	for i := w.lo; i < w.hi; i++ {
		var bit uint64
		if i >= pinnedEnd {
			omitted := false
			if omitThr != 0 {
				if omitThr == rng.BernoulliAlways {
					omitted = true
				} else {
					if pos == packedBufferHalves {
						g.FillUint64(buf[:])
						pos = 0
					}
					h := uint32(buf[pos>>1] >> uint((pos&1)<<5))
					pos++
					if pos == packedBufferHalves {
						g.FillUint64(buf[:])
						pos = 0
					}
					h2 := uint32(buf[pos>>1] >> uint((pos&1)<<5))
					pos++
					omitted = uint64(h)|uint64(h2)<<32 < omitThr
				}
			}
			if !omitted {
				k := 0
				for sc := 0; sc < ell; sc++ {
					if pos == packedBufferHalves {
						g.FillUint64(buf[:])
						pos = 0
					}
					h := uint32(buf[pos>>1] >> uint((pos&1)<<5))
					pos++
					m := uint64(h) * bound
					for uint32(m) < rej {
						if pos == packedBufferHalves {
							g.FillUint64(buf[:])
							pos = 0
						}
						h = uint32(buf[pos>>1] >> uint((pos&1)<<5))
						pos++
						m = uint64(h) * bound
					}
					j := int(m >> 32)
					k += int((cur[j>>6] >> (uint(j) & 63)) & 1)
				}
				sampled++
				thr := thr0[k]
				if (cur[i>>6]>>(uint(i)&63))&1 == 1 {
					thr = thr1[k]
				}
				switch thr {
				case 0:
					// bit stays 0 without consuming randomness.
				case rng.BernoulliAlways:
					bit = 1
				default:
					if pos == packedBufferHalves {
						g.FillUint64(buf[:])
						pos = 0
					}
					h := uint32(buf[pos>>1] >> uint((pos&1)<<5))
					pos++
					if pos == packedBufferHalves {
						g.FillUint64(buf[:])
						pos = 0
					}
					h2 := uint32(buf[pos>>1] >> uint((pos&1)<<5))
					pos++
					if uint64(h)|uint64(h2)<<32 < thr {
						bit = 1
					}
				}
				goto store
			}
		}
		// Stubborn or omitted: the agent keeps its opinion.
		bit = (cur[i>>6] >> (uint(i) & 63)) & 1
	store:
		acc |= bit << (uint(i) & 63)
		count += int64(bit)
		if i&63 == 63 || i == w.hi-1 {
			next[wordIdx] = acc
			acc = 0
			wordIdx++
		}
	}
	s.pos = pos
	w.count = count
	w.sampled = sampled
}

// packedParams is the per-Config immutable context of the packed engine:
// everything derived from (Config, shards) without consuming randomness.
// One packedParams can drive many replicas (RunAgentsReplicas), each with
// its own packedState.
type packedParams struct {
	cfg        Config
	n          int
	ell        int
	shards     int // resolved shard count (packedEffectiveShards)
	absorbing  bool
	target     int64
	trap       int64
	roundCap   int64
	horizon    int64
	faults     Perturber
	thr0, thr1 []uint64
	det0, det1 uint64
	detOK      bool
}

func newPackedParams(cfg Config, requestedShards int) *packedParams {
	p := &packedParams{
		cfg:       cfg,
		n:         int(cfg.N),
		ell:       cfg.Rule.SampleSize(),
		absorbing: cfg.Rule.CheckProp3() == nil,
		target:    consensusTarget(cfg.N, cfg.Z),
		trap:      wrongTrap(cfg.N, cfg.Z),
		roundCap:  cfg.maxRounds(),
		faults:    cfg.perturber(),
	}
	p.shards = packedEffectiveShards(requestedShards, packedWords(p.n))
	p.horizon = faultHorizon(p.faults)
	g0, g1 := cfg.Rule.Tables()
	p.thr0 = make([]uint64, p.ell+1)
	p.thr1 = make([]uint64, p.ell+1)
	for k := 0; k <= p.ell; k++ {
		p.thr0[k] = rng.BernoulliThreshold(g0[k])
		p.thr1[k] = rng.BernoulliThreshold(g1[k])
	}
	p.det0, p.det1, p.detOK = detMasks(p.thr0, p.thr1)
	return p
}

// packedState is one replica of the packed engine: its generator, bitsets,
// workers and partial Result.
type packedState struct {
	g         *rng.RNG
	cur, next []uint64
	x         int64
	scratch   []uint8
	workers   []*packedWorker
	pmf       []float64
	kThr      []uint64
	wg        sync.WaitGroup
	res       Result
}

// newState draws a replica's initial configuration from g and lays out its
// workers. The main half stream serves initialization and, in the serial
// case, the round loop itself. Its block pre-draws words, so the generator
// may end up advanced past the variates actually consumed; chained runs on
// one generator should Split it per run. Shard streams are derived after
// initialization (SplitN on the same generator), so a given seed yields
// the same starting layout at every shard count.
func (p *packedParams) newState(g *rng.RNG) *packedState {
	main := newHalfStream(g)
	st := &packedState{g: g, cur: packedInitialOpinions(p.cfg, main), x: p.cfg.X0}
	st.next = make([]uint64, len(st.cur))
	st.res = Result{FinalCount: st.x, Shards: p.shards}
	if st.x == p.target && p.absorbing && p.horizon == 0 {
		st.res.Converged = true
		return st
	}
	if p.detOK {
		st.pmf = make([]float64, p.ell+1)
		st.kThr = make([]uint64, p.ell)
	}
	st.workers = make([]*packedWorker, p.shards)
	if p.shards == 1 {
		st.workers[0] = &packedWorker{lo: 1, hi: p.n, s: main}
	} else {
		// Word-aligned, cache-line-padded agent ranges: every bitset word
		// has exactly one writer and shard ranges start on 64-byte
		// boundaries. Each shard consumes its own Split-derived stream;
		// boundary draws stay on the main generator, so rounds are
		// reproducible for a given (seed, Shards) regardless of
		// GOMAXPROCS or scheduling.
		bounds := packedWordBounds(len(st.cur), p.shards)
		streams := g.SplitN(p.shards)
		for s := range st.workers {
			lo := bounds[s] << 6
			if lo == 0 {
				lo = 1 // bit 0 is the coordinator-owned source bit
			}
			hi := bounds[s+1] << 6
			if hi > p.n {
				hi = p.n
			}
			st.workers[s] = &packedWorker{lo: lo, hi: hi, s: newHalfStream(streams[s])}
		}
	}
	return st
}

// stateKThr fills the replica-local inverse-CDF threshold table for
// one-count x; the solo runner's kThrFunc.
func (p *packedParams) stateKThr(st *packedState, x int64) []uint64 {
	protocol.SampleCountPMF(p.ell, float64(x)/float64(p.cfg.N), st.pmf)
	cdf := 0.0
	for m := 0; m < p.ell; m++ {
		cdf += st.pmf[m]
		st.kThr[m] = rng.BernoulliThreshold(cdf)
	}
	return st.kThr
}

// kThrFunc supplies the deterministic-regime threshold table for a given
// one-count. The solo runner computes it in place (stateKThr); the
// replica-batched runner memoizes it per distinct count, which is exact —
// the table is a pure function of x — so batched and solo trajectories
// coincide realization-by-realization.
type kThrFunc func(st *packedState, x int64) []uint64

// round advances one replica a single parallel round and reports whether
// the run is finished (converged). The caller owns the Halt poll.
func (p *packedParams) round(st *packedState, t int64, thresholds kThrFunc) (done bool) {
	cfg := &p.cfg
	src := cfg.Z
	var omitThr uint64
	pinnedEnd := 1
	if p.faults != nil {
		src, st.scratch = packedBoundary(p.faults, t, cfg.Z, st.cur, p.n, st.scratch, st.g)
		if q := p.faults.OmitProb(t); q > 0 {
			omitThr = rng.BernoulliThreshold(q)
		}
		s1, s0 := p.faults.Stubborn(t, cfg.N)
		pinnedEnd = 1 + int(s1) + int(s0)
	}
	det := p.detOK && omitThr == 0 && pinnedEnd == 1
	var kThr []uint64
	if det {
		// The inverse-CDF thresholds condition on the one-count the
		// agents actually sample from; a fault boundary may just have
		// rewritten the bitset, so recount it then.
		xs := st.x
		if p.faults != nil {
			xs = packedCount(st.cur)
		}
		kThr = thresholds(st, xs)
	}
	if p.shards == 1 {
		if det {
			st.workers[0].stepDet(st.cur, st.next, p.det0, p.det1, kThr)
		} else {
			st.workers[0].step(st.cur, st.next, p.n, p.ell, p.thr0, p.thr1, omitThr, pinnedEnd)
		}
	} else {
		for _, w := range st.workers {
			st.wg.Add(1)
			go func(w *packedWorker) {
				defer st.wg.Done()
				if det {
					w.stepDet(st.cur, st.next, p.det0, p.det1, kThr)
				} else {
					w.step(st.cur, st.next, p.n, p.ell, p.thr0, p.thr1, omitThr, pinnedEnd)
				}
			}(w)
		}
		st.wg.Wait()
	}

	// Fixed-order reduction of the per-shard counts, then the
	// coordinator-owned source bit.
	count := int64(0)
	var roundSampled int64
	for _, w := range st.workers {
		count += w.count
		roundSampled += w.sampled
	}
	st.res.Activations += roundSampled
	st.next[0] = st.next[0]&^1 | uint64(src)
	count += int64(src)

	st.cur, st.next = st.next, st.cur
	st.x = count
	st.res.Rounds = t
	st.res.FinalCount = st.x
	if st.x == p.trap {
		st.res.HitWrongConsensus = true
	}
	if cfg.Probe != nil {
		if p.shards > 1 {
			for s, w := range st.workers {
				cfg.Probe.ShardRound(s, w.sampled)
			}
		}
		probeRound(cfg.Probe, p.faults, t, cfg.Z, src, st.x, roundSampled)
	}
	if st.x == p.target && p.absorbing && t >= p.horizon {
		st.res.Converged = true
		return true
	}
	return false
}

// runAgentsPacked is the bit-packed body of RunAgents, serial for resolved
// shards == 1 and sharded otherwise. Both are deterministic in
// (seed, Config, Shards) and draw from the same per-round distribution
// as the unpacked bodies.
func runAgentsPacked(cfg Config, requestedShards int, g *rng.RNG) (Result, error) {
	p := newPackedParams(cfg, requestedShards)
	st := p.newState(g)
	if st.res.Converged {
		return st.res, nil
	}
	for t := int64(1); t <= p.roundCap; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			st.res.Interrupted = true
			return st.res, nil
		}
		if p.round(st, t, p.stateKThr) {
			break
		}
	}
	return st.res, nil
}
