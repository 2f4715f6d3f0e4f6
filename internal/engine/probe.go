package engine

// Probe receives structured per-round events from the engines and is
// their only observation hook: a Probe sees the one-count trajectory X_t
// together with activation counts, fault applications and per-shard
// load, which a bare (round, count) closure could not carry.
//
// Every engine body calls its probe from one goroutine — the sharded
// engines from the coordinator, after the shard barrier — so a probe
// owned by a single run needs no locking (trace.Recorder is one). A
// probe shared across replicas, by sim tasks or the replica-batched
// engines, must be safe for concurrent use (internal/obs.Metrics is the
// standard atomic implementation). A shared probe that also implements
// Localizer is not called per round by sim at all: each worker goroutine
// runs its replicas against a private LocalProbe instead.
//
// Probes are observers, never participants: implementations must not
// consume randomness, block, or mutate anything the engines read. The
// engines guarantee byte-identical Results with and without a probe
// attached (the determinism regression suite runs with one).
//
// Within one run, rounds are 1-based and consecutive, matching
// Result.Rounds, and the last RoundDone carries Result.FinalCount.
type Probe interface {
	// RoundDone fires after every parallel round with the one-count and
	// the number of agents that actually drew samples. The sequential
	// engine fires it after every n activations, plus once more for the
	// final partial round when convergence lands mid-round, so the
	// trajectory always ends at the terminal count.
	RoundDone(round, ones, sampled int64)
	// FaultApplied fires at most once per round, when the fault schedule
	// actively perturbed it: a boundary event rewrote opinions or the
	// source deviated from the true opinion.
	FaultApplied(round int64)
	// ShardRound fires once per shard per round in the sharded agent
	// engines with the shard's sampled-agent count; single-stream engines
	// never call it.
	ShardRound(shard int, sampled int64)
}

// probeRound emits the per-round probe events shared by every engine:
// FaultApplied when the schedule actively touched round t (a boundary
// event fired or the source deviated from z), then RoundDone. No-op on a
// nil probe so call sites stay one guarded line.
func probeRound(p Probe, faults Perturber, t int64, z, src int, ones, sampled int64) {
	if p == nil {
		return
	}
	if faults != nil && (src != z || faults.BoundaryAt(t)) {
		p.FaultApplied(t)
	}
	p.RoundDone(t, ones, sampled)
}

// LocalProbe is a probe private to one goroutine that buffers what a
// shared probe would publish. Flush publishes the buffer; whatever is
// never flushed is dropped.
type LocalProbe = interface {
	Probe
	Flush()
}

// Localizer is implemented by a shared probe that can hand each worker
// goroutine its own LocalProbe (internal/obs.Metrics does). sim detects
// it by method set: every worker runs its replicas against its own
// Local(), flushes it when a replica or batch returns Results and
// discards it when the attempt fails, so the shared probe sees the same
// totals without a per-round write to memory other workers touch.
type Localizer interface {
	Local() LocalProbe
}

// Tee is a probe that forwards every event to both of its legs, A first.
// Both legs must be non-nil; the tee honours the probe contract because
// each leg does. A Tee is a Localizer: Local localizes each leg that is
// one and forwards to the others unchanged, so a leg without Local (a
// stream hub, say) still sees every event as it happens.
type Tee struct {
	A, B Probe
}

func (t Tee) RoundDone(round, ones, sampled int64) {
	t.A.RoundDone(round, ones, sampled)
	t.B.RoundDone(round, ones, sampled)
}

func (t Tee) FaultApplied(round int64) {
	t.A.FaultApplied(round)
	t.B.FaultApplied(round)
}

func (t Tee) ShardRound(shard int, sampled int64) {
	t.A.ShardRound(shard, sampled)
	t.B.ShardRound(shard, sampled)
}

// Local implements Localizer.
func (t Tee) Local() LocalProbe {
	a, b := localize(t.A), localize(t.B)
	return localTee{Tee{a, b}, a, b}
}

// localize returns p's private accumulator when p is a Localizer, and p
// itself with a no-op Flush otherwise.
func localize(p Probe) LocalProbe {
	if l, ok := p.(Localizer); ok {
		return l.Local()
	}
	return passThrough{p}
}

// passThrough is a probe leg that publishes as it goes, so there is
// nothing to flush.
type passThrough struct{ Probe }

func (passThrough) Flush() {}

// localTee is a Tee over localized legs a and b; Flush flushes both.
type localTee struct {
	Tee
	a, b LocalProbe
}

func (t localTee) Flush() {
	t.a.Flush()
	t.b.Flush()
}
