package obs

// Metrics is the standard engine probe: it folds the structured
// per-round events of the engines — one-count, activation counts, fault
// applications, per-shard load — into registry metrics. It satisfies the
// engine Probe contract (bitspread/internal/engine.Probe) without
// importing it, so obs stays dependency-free.
//
// All methods are atomic-counter updates with no allocation and no
// locking, so one Metrics value is safe to share across goroutines. A
// single run (bitsim, bitbench) calls it directly. A sim task does not:
// sim gives each worker goroutine a private accumulator from Local,
// folded into these counters when a replica or batch finishes, so
// replicas on different workers never write the same cache lines per
// round. A nil *Metrics is a valid no-op probe (but prefer leaving
// Config.Probe nil: a nil interface skips even the method call).
//
// Under sim the totals count the replicas that returned a Result,
// cancelled ones with their partial rounds included: a failed or
// panicking attempt's accumulator is discarded, so after a run
// Rounds = Σ Result.Rounds and Activations = Σ Result.Activations. (The
// one exception: blocks of localFlushRounds rounds that a failing
// attempt's accumulator already flushed itself stay counted.)
type Metrics struct {
	// Rounds counts parallel rounds executed across all instrumented runs.
	Rounds *Counter
	// Activations counts agent updates actually performed (the per-round
	// slices of Result.Activations).
	Activations *Counter
	// FaultRounds counts rounds in which the fault schedule actively
	// perturbed the run (boundary event or source deviation), once per
	// perturbed replica-round however the replicas are batched.
	FaultRounds *Counter
	// Ones is the one-count after the most recently completed round. It
	// is meaningful only for a single-run probe: under sim it is the
	// last-flushed value of whichever replica flushed last.
	Ones *Gauge
	// RoundLoad is the distribution of per-round activation counts;
	// omission bursts and stubborn windows show up as mass in the low
	// buckets.
	RoundLoad *Histogram
	// ShardLoad is the distribution of per-shard, per-round activation
	// counts in the sharded agent engines — the shard-balance signal.
	ShardLoad *Histogram
}

// LoadBuckets are the default upper bounds of the activation-count
// histograms: powers of 16 spanning one agent to a full 2³² population.
var LoadBuckets = []float64{0, 1 << 4, 1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24, 1 << 28, 1 << 32}

// NewMetrics registers the standard engine metrics (bitspread_*) in reg
// and returns the probe. A nil registry yields an all-no-op probe.
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		Rounds:      reg.Counter("bitspread_rounds_total"),
		Activations: reg.Counter("bitspread_activations_total"),
		FaultRounds: reg.Counter("bitspread_fault_rounds_total"),
		Ones:        reg.Gauge("bitspread_one_count"),
		RoundLoad:   reg.Histogram("bitspread_round_activations", LoadBuckets),
		ShardLoad:   reg.Histogram("bitspread_shard_activations", LoadBuckets),
	}
}

// RoundDone implements the engine Probe contract: one parallel round
// finished with the given one-count and sampled-agent count.
func (m *Metrics) RoundDone(round, ones, sampled int64) {
	if m == nil {
		return
	}
	m.Rounds.Inc()
	m.Activations.Add(sampled)
	m.Ones.Set(ones)
	m.RoundLoad.Observe(sampled)
}

// FaultApplied implements the engine Probe contract: the fault schedule
// actively perturbed round round.
func (m *Metrics) FaultApplied(round int64) {
	if m == nil {
		return
	}
	m.FaultRounds.Inc()
}

// ShardRound implements the engine Probe contract: one shard of a
// sharded agent engine finished a round having sampled that many agents.
func (m *Metrics) ShardRound(shard int, sampled int64) {
	if m == nil {
		return
	}
	m.ShardLoad.Observe(sampled)
}

// localFlushRounds is how many RoundDone calls a Local accumulator
// absorbs before it flushes itself, so the shared totals stay live while
// a long replica runs: a snapshot lags each worker by fewer rounds than
// this.
const localFlushRounds = 4096

// Local returns a private, non-atomic accumulator for one goroutine. It
// implements the engine Probe contract and buckets activation counts
// exactly as RoundLoad and ShardLoad do, and Flush adds everything it
// holds into m's shared metrics and resets it. It also flushes itself
// after every localFlushRounds RoundDone calls. Whatever is not flushed
// is never published, which is how sim discards a failed attempt. The
// accumulator must not be shared between goroutines. The return type is
// spelled out so that it is identical to engine.LocalProbe without obs
// importing engine.
func (m *Metrics) Local() interface {
	RoundDone(round, ones, sampled int64)
	FaultApplied(round int64)
	ShardRound(shard int, sampled int64)
	Flush()
} {
	if m == nil {
		m = &Metrics{}
	}
	return &localMetrics{
		m:         m,
		roundLoad: newLocalHist(m.RoundLoad),
		shardLoad: newLocalHist(m.ShardLoad),
	}
}

// localMetrics is the accumulator behind Metrics.Local.
type localMetrics struct {
	m                    *Metrics
	rounds, acts, faults int64
	ones                 int64
	roundLoad, shardLoad localHist
}

func (l *localMetrics) RoundDone(round, ones, sampled int64) {
	l.rounds++
	l.acts += sampled
	l.ones = ones
	l.roundLoad.observe(sampled)
	if l.rounds >= localFlushRounds {
		l.Flush()
	}
}

func (l *localMetrics) FaultApplied(round int64) { l.faults++ }

func (l *localMetrics) ShardRound(shard int, sampled int64) { l.shardLoad.observe(sampled) }

// Flush publishes the accumulated totals into the shared metrics and
// resets the accumulator.
func (l *localMetrics) Flush() {
	if l.rounds != 0 {
		l.m.Rounds.Add(l.rounds)
		l.m.Activations.Add(l.acts)
		l.m.Ones.Set(l.ones)
	}
	if l.faults != 0 {
		l.m.FaultRounds.Add(l.faults)
	}
	l.roundLoad.flush()
	l.shardLoad.flush()
	l.rounds, l.acts, l.faults = 0, 0, 0
}

// localHist is a histogram's private per-bucket tally. Without a
// histogram it keeps a single bucket that flush drops.
type localHist struct {
	h      *Histogram
	bounds []float64
	counts []int64
	sum    int64
}

func newLocalHist(h *Histogram) localHist {
	if h == nil {
		return localHist{counts: make([]int64, 1)}
	}
	return localHist{h: h, bounds: h.bounds, counts: make([]int64, len(h.counts))}
}

func (l *localHist) observe(v int64) {
	l.counts[bucket(l.bounds, v)]++
	l.sum += v
}

func (l *localHist) flush() {
	l.h.fold(l.counts, l.sum)
	clear(l.counts)
	l.sum = 0
}
