package engine

import (
	"math/bits"
	"sync"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// This file is the huge-n body of the literal agent engine: the same
// bit-packed opinion layout as packed.go, but split into 2^chunkShift-agent
// chunks and sampled with 64-bit Lemire rejection, so nothing in it assumes
// the population fits a 32-bit index. The packed fast path is gated at
// n < 2³² because its per-index draws are 32-bit halves; here every index
// draw is a full word multiplied out through bits.Mul64, exact for any
// bound below 2⁶⁴ and just as free of divisions. The deterministic-rule
// fast regime needs no index sampling at all (k is drawn by inverse CDF
// from one word — see stepDet), so the chunked engine reuses the packed
// worker per chunk segment there and only pays the chunked addressing in
// the general body.
//
// Like the packed engine, realizations differ from every other body —
// the chunked engine spends a whole word where the packed one spends a
// half — so runs are reproducible per engine (same seed, Config, Shards ⇒
// same Result) and the χ² suite pins the distributional agreement.

// chunkShift is the log₂ capacity, in agents, of one bitset chunk. The
// default keeps chunks at the packed engine's exact ceiling (2³² opinions,
// 512 MiB per bitset chunk); tests shrink it to exercise multi-chunk runs
// at testing-sized n. It is package state only for that override — every
// run reads it once at state construction.
var chunkShift uint = 32

// chunkedBits holds n opinion bits as fixed-capacity chunks of
// 2^chunkShift bits. Word w of the population lives at
// chunks[w>>(chunkShift-6)][w&(chunkWords-1)]: every chunk except the last
// holds exactly chunkWords words, so global word addressing never scans.
type chunkedBits struct {
	n      int64
	shift  uint // copy of chunkShift at construction
	chunks [][]uint64
}

func newChunkedBits(n int64) *chunkedBits {
	shift := chunkShift
	size := int64(1) << shift
	cb := &chunkedBits{n: n, shift: shift, chunks: make([][]uint64, (n+size-1)>>shift)}
	for c := range cb.chunks {
		hi := size
		if rem := n - int64(c)<<shift; rem < hi {
			hi = rem
		}
		cb.chunks[c] = make([]uint64, int((hi+63)>>6))
	}
	return cb
}

// get returns opinion bit i.
func (cb *chunkedBits) get(i int64) uint64 {
	c := cb.chunks[i>>cb.shift]
	j := i & (int64(1)<<cb.shift - 1)
	return (c[j>>6] >> (uint(j) & 63)) & 1
}

// set stores opinion bit i.
func (cb *chunkedBits) set(i int64, bit uint64) {
	c := cb.chunks[i>>cb.shift]
	j := i & (int64(1)<<cb.shift - 1)
	mask := uint64(1) << (uint(j) & 63)
	if bit != 0 {
		c[j>>6] |= mask
	} else {
		c[j>>6] &^= mask
	}
}

// setWord stores the 64-bit word holding agents [w<<6, w<<6+64).
func (cb *chunkedBits) setWord(w int64, v uint64) {
	cb.chunks[w>>(cb.shift-6)][w&(int64(1)<<(cb.shift-6)-1)] = v
}

// count returns the number of one-bits across all chunks.
func (cb *chunkedBits) count() int64 {
	var c int
	for _, chunk := range cb.chunks {
		for _, w := range chunk {
			c += bits.OnesCount64(w)
		}
	}
	return int64(c)
}

// chunkedInitialOpinions is packedInitialOpinions on the chunked layout:
// the same Floyd subset-sampling walk with 64-bit Lemire draws (whole
// words, one per accepted variate) instead of 32-bit halves.
func chunkedInitialOpinions(cfg Config, s *halfStream) *chunkedBits {
	cb := newChunkedBits(cfg.N)
	cb.set(0, uint64(cfg.Z))
	onesToPlace := cfg.X0 - int64(cfg.Z)
	m := cfg.N - 1 // candidate non-source slots, bits 1..n-1
	buf := &s.buf
	g := s.g
	wpos := (s.pos + 1) >> 1 // consume whole words; drop a straggling half
	for j := m - onesToPlace; j < m; j++ {
		bound := uint64(j + 1)
		if wpos == packedBufferWords {
			g.FillUint64(buf[:])
			wpos = 0
		}
		hi, lo := bits.Mul64(buf[wpos], bound)
		wpos++
		if lo < bound {
			rej := -bound % bound
			for lo < rej {
				if wpos == packedBufferWords {
					g.FillUint64(buf[:])
					wpos = 0
				}
				hi, lo = bits.Mul64(buf[wpos], bound)
				wpos++
			}
		}
		t := int64(hi)
		// Branchless membership select, as in the packed walk: slot j when
		// slot t is already a member, t otherwise.
		b := int64(cb.get(1 + t))
		cb.set(1+(t^((t^j)&-b)), 1)
	}
	s.pos = wpos << 1
	return cb
}

// chunkedBoundary is packedBoundary on the chunked layout: the source bit
// takes its scheduled opinion and boundary events rewrite non-source
// opinions through an unpack → PerturbAgents → repack round-trip. The O(n)
// scratch slice is paid only on boundary rounds (point events) and reused.
func chunkedBoundary(f Perturber, t int64, z int, cur *chunkedBits, scratch []uint8, g *rng.RNG) (int, []uint8) {
	src := f.SourceOpinion(t, z)
	cur.set(0, uint64(src))
	if f.BoundaryAt(t) {
		if scratch == nil {
			scratch = make([]uint8, cur.n)
		}
		for i := int64(0); i < cur.n; i++ {
			scratch[i] = uint8(cur.get(i))
		}
		f.PerturbAgents(t, scratch, g)
		for _, c := range cur.chunks {
			clear(c)
		}
		for i := int64(0); i < cur.n; i++ {
			if scratch[i] != 0 {
				cur.set(i, 1)
			}
		}
	}
	return src, scratch
}

// chunkedWorker is one agent range of the chunked engine. The embedded
// packedWorker carries the half stream and serves the deterministic-rule
// regime chunk segment by chunk segment; the general body walks global
// indices directly. Workers own word-aligned global ranges
// (packedWordBounds on the global word count), so every bitset word — in
// whichever chunk — has exactly one writer.
type chunkedWorker struct {
	lo, hi  int64 // global agent index range [lo, hi)
	pw      packedWorker
	count   int64
	sampled int64
	_       [6]uint64 // pad: adjacent workers on distinct cache lines
}

// stepDet advances the worker's range one round in the deterministic-rule
// fault-free regime by delegating each chunk segment to the packed
// stepDet: the regime draws no indices, so chunk-local addressing is
// exact. Counts accumulate across segments on one stream.
func (w *chunkedWorker) stepDet(cur, next *chunkedBits, det0, det1 uint64, kThr []uint64) {
	w.count, w.sampled = 0, 0
	size := int64(1) << cur.shift
	for i := w.lo; i < w.hi; {
		c := i >> cur.shift
		base := int64(c) << cur.shift
		segEnd := base + size
		if segEnd > w.hi {
			segEnd = w.hi
		}
		w.pw.lo = int(i - base)
		w.pw.hi = int(segEnd - base)
		w.pw.stepDet(cur.chunks[c], next.chunks[c], det0, det1, kThr)
		w.count += w.pw.count
		w.sampled += w.pw.sampled
		i = segEnd
	}
}

// step advances the worker's range one general round (noisy tables,
// omission coins, pinned stubborn prefixes). Index draws are 64-bit
// Lemire rejections over the full population — chunk boundaries are
// invisible to the sampler; only the bit lookup routes through the chunk
// table. Coins compare whole words against precomputed thresholds with
// the non-consuming sentinels short-circuited.
func (w *chunkedWorker) step(cur, next *chunkedBits, ell int, thr0, thr1 []uint64, omitThr uint64, pinnedEnd int64) {
	n := cur.n
	bound := uint64(n)
	rej := -bound % bound
	s := w.pw.s
	buf := &s.buf
	g := s.g
	wpos := (s.pos + 1) >> 1 // whole words, as in the chunked init
	word := func() uint64 {
		if wpos == packedBufferWords {
			g.FillUint64(buf[:])
			wpos = 0
		}
		u := buf[wpos]
		wpos++
		return u
	}
	var count, sampled int64
	acc := uint64(0)
	for i := w.lo; i < w.hi; i++ {
		var bit uint64
		if i >= pinnedEnd {
			omitted := false
			if omitThr != 0 {
				if omitThr == rng.BernoulliAlways {
					omitted = true
				} else {
					omitted = word() < omitThr
				}
			}
			if !omitted {
				k := 0
				for sc := 0; sc < ell; sc++ {
					hi, lo := bits.Mul64(word(), bound)
					for lo < rej {
						hi, lo = bits.Mul64(word(), bound)
					}
					k += int(cur.get(int64(hi)))
				}
				sampled++
				thr := thr0[k]
				if cur.get(i) == 1 {
					thr = thr1[k]
				}
				switch thr {
				case 0:
					// bit stays 0 without consuming randomness.
				case rng.BernoulliAlways:
					bit = 1
				default:
					if word() < thr {
						bit = 1
					}
				}
				goto store
			}
		}
		// Stubborn or omitted: the agent keeps its opinion.
		bit = cur.get(i)
	store:
		acc |= bit << (uint(i) & 63)
		count += int64(bit)
		if i&63 == 63 || i == w.hi-1 {
			next.setWord(i>>6, acc)
			acc = 0
		}
	}
	s.pos = wpos << 1
	w.count = count
	w.sampled = sampled
}

// runAgentsChunked is the chunked-bitset body of RunAgents: the packed
// engine's structure — deterministic-rule fast regime, word-aligned
// shard ranges, fixed-order reduction — over the chunked layout, with no
// population ceiling. Deterministic in (seed, Config, Shards), like every
// agent engine.
func runAgentsChunked(cfg Config, requestedShards int, g *rng.RNG) (Result, error) {
	absorbing := cfg.Rule.CheckProp3() == nil
	target := consensusTarget(cfg.N, cfg.Z)
	trap := wrongTrap(cfg.N, cfg.Z)
	roundCap := cfg.maxRounds()
	ell := cfg.Rule.SampleSize()
	faults := cfg.perturber()
	horizon := faultHorizon(faults)

	totalWords := int((cfg.N + 63) >> 6)
	shards := packedEffectiveShards(requestedShards, totalWords)

	main := newHalfStream(g)
	cur := chunkedInitialOpinions(cfg, main)
	next := newChunkedBits(cfg.N)
	x := cfg.X0

	res := Result{FinalCount: x, Shards: shards}
	if x == target && absorbing && horizon == 0 {
		res.Converged = true
		return res, nil
	}

	g0, g1 := cfg.Rule.Tables()
	thr0 := make([]uint64, ell+1)
	thr1 := make([]uint64, ell+1)
	for k := 0; k <= ell; k++ {
		thr0[k] = rng.BernoulliThreshold(g0[k])
		thr1[k] = rng.BernoulliThreshold(g1[k])
	}
	det0, det1, detOK := detMasks(thr0, thr1)
	var pmf []float64
	var kThr []uint64
	if detOK {
		pmf = make([]float64, ell+1)
		kThr = make([]uint64, ell)
	}

	// Word-aligned, cache-line-padded global shard ranges, exactly as in
	// the packed engine; chunk boundaries fall on word boundaries by
	// construction, so the two alignments compose.
	workers := make([]*chunkedWorker, shards)
	if shards == 1 {
		workers[0] = &chunkedWorker{lo: 1, hi: cfg.N}
		workers[0].pw.s = main
	} else {
		bounds := packedWordBounds(totalWords, shards)
		streams := g.SplitN(shards)
		for s := range workers {
			lo := int64(bounds[s]) << 6
			if lo == 0 {
				lo = 1 // bit 0 is the coordinator-owned source bit
			}
			hi := int64(bounds[s+1]) << 6
			if hi > cfg.N {
				hi = cfg.N
			}
			workers[s] = &chunkedWorker{lo: lo, hi: hi}
			workers[s].pw.s = newHalfStream(streams[s])
		}
	}

	var scratch []uint8
	var wg sync.WaitGroup
	for t := int64(1); t <= roundCap; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			res.Interrupted = true
			return res, nil
		}
		src := cfg.Z
		var omitThr uint64
		pinnedEnd := int64(1)
		if faults != nil {
			src, scratch = chunkedBoundary(faults, t, cfg.Z, cur, scratch, g)
			if q := faults.OmitProb(t); q > 0 {
				omitThr = rng.BernoulliThreshold(q)
			}
			s1, s0 := faults.Stubborn(t, cfg.N)
			pinnedEnd = 1 + s1 + s0
		}
		det := detOK && omitThr == 0 && pinnedEnd == 1
		if det {
			// Thresholds condition on the one-count agents sample from; a
			// fault boundary may just have rewritten the bitset.
			xs := x
			if faults != nil {
				xs = cur.count()
			}
			protocol.SampleCountPMF(ell, float64(xs)/float64(cfg.N), pmf)
			cdf := 0.0
			for m := 0; m < ell; m++ {
				cdf += pmf[m]
				kThr[m] = rng.BernoulliThreshold(cdf)
			}
		}
		if shards == 1 {
			if det {
				workers[0].stepDet(cur, next, det0, det1, kThr)
			} else {
				workers[0].step(cur, next, ell, thr0, thr1, omitThr, pinnedEnd)
			}
		} else {
			for _, w := range workers {
				wg.Add(1)
				go func(w *chunkedWorker) {
					defer wg.Done()
					if det {
						w.stepDet(cur, next, det0, det1, kThr)
					} else {
						w.step(cur, next, ell, thr0, thr1, omitThr, pinnedEnd)
					}
				}(w)
			}
			wg.Wait()
		}

		count := int64(0)
		var roundSampled int64
		for _, w := range workers {
			count += w.count
			roundSampled += w.sampled
		}
		res.Activations += roundSampled
		next.chunks[0][0] = next.chunks[0][0]&^1 | uint64(src)
		count += int64(src)

		cur, next = next, cur
		x = count
		res.Rounds = t
		res.FinalCount = x
		if x == trap {
			res.HitWrongConsensus = true
		}
		if cfg.Probe != nil {
			if shards > 1 {
				for s, w := range workers {
					cfg.Probe.ShardRound(s, w.sampled)
				}
			}
			probeRound(cfg.Probe, faults, t, cfg.Z, src, x, roundSampled)
		}
		if x == target && absorbing && t >= horizon {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}
