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
// standard atomic implementation).
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

// Tee is a probe that forwards every event to both of its legs, A first.
// Both legs must be non-nil; the tee honours the probe contract because
// each leg does.
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
