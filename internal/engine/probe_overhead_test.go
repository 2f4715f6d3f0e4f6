package engine_test

// Overhead guard for the probe hook: an uninstrumented engine must not
// allocate on account of the probe plumbing, and attaching the standard
// atomic obs probe must not add per-round allocations either — sweeps
// run millions of rounds, so even one escape per round would swamp the
// allocator.

import (
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/obs"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func TestProbePathAllocationFree(t *testing.T) {
	cfg := engine.Config{
		N:         1 << 12,
		Rule:      protocol.Voter(3),
		Z:         1,
		X0:        1 << 11,
		MaxRounds: 64,
	}
	g := rng.New(5)
	plain := testing.AllocsPerRun(20, func() {
		if _, err := engine.RunParallel(cfg, g); err != nil {
			t.Fatal(err)
		}
	})

	probed := cfg
	probed.Probe = obs.NewMetrics(obs.NewRegistry())
	g2 := rng.New(5)
	instrumented := testing.AllocsPerRun(20, func() {
		if _, err := engine.RunParallel(probed, g2); err != nil {
			t.Fatal(err)
		}
	})

	// The runs execute up to 64 rounds each; a single per-round escape in
	// the probe path would show up as tens of extra allocations.
	if instrumented > plain {
		t.Errorf("attaching a probe added allocations: plain=%.1f instrumented=%.1f per run",
			plain, instrumented)
	}
}

// The packed sharded path emits ShardRound events from the coordinator
// after the per-round barrier; the emission sites must stay nil-guarded
// and allocation-free, like every probe call site.
func TestShardRoundProbeAllocationFree(t *testing.T) {
	cfg := engine.Config{
		N:         1 << 12,
		Rule:      protocol.Voter(3),
		Z:         1,
		X0:        1 << 11,
		MaxRounds: 64,
	}
	opts := engine.AgentOptions{Shards: 4}
	g := rng.New(5)
	plain := testing.AllocsPerRun(10, func() {
		if _, err := engine.RunAgents(cfg, opts, g); err != nil {
			t.Fatal(err)
		}
	})

	probed := cfg
	probed.Probe = obs.NewMetrics(obs.NewRegistry())
	g2 := rng.New(5)
	instrumented := testing.AllocsPerRun(10, func() {
		if _, err := engine.RunAgents(probed, opts, g2); err != nil {
			t.Fatal(err)
		}
	})

	if instrumented > plain {
		t.Errorf("ShardRound probe path added allocations: plain=%.1f instrumented=%.1f per run",
			plain, instrumented)
	}
}

// The per-worker accumulator sim attaches in place of a shared
// obs.Metrics must be as allocation-free per round as the atomic probe,
// both on its own and localized through a Tee with a pass-through leg
// (bitspreadd's shape). The accumulators are built outside the measured
// runs, as sim builds one per worker, not per round.
func TestLocalProbePathAllocationFree(t *testing.T) {
	cfg := engine.Config{
		N:         1 << 12,
		Rule:      protocol.Voter(3),
		Z:         1,
		X0:        1 << 11,
		MaxRounds: 64,
	}
	g := rng.New(5)
	plain := testing.AllocsPerRun(20, func() {
		if _, err := engine.RunParallel(cfg, g); err != nil {
			t.Fatal(err)
		}
	})

	m := obs.NewMetrics(obs.NewRegistry())
	for _, tc := range []struct {
		name  string
		local engine.LocalProbe
	}{
		{"metrics", m.Local()},
		{"tee", engine.Tee{A: m, B: nopProbe{}}.Local()},
	} {
		probed := cfg
		probed.Probe = tc.local
		g2 := rng.New(5)
		instrumented := testing.AllocsPerRun(20, func() {
			if _, err := engine.RunParallel(probed, g2); err != nil {
				t.Fatal(err)
			}
			tc.local.Flush()
		})
		if instrumented > plain {
			t.Errorf("%s: attaching a local probe added allocations: plain=%.1f instrumented=%.1f per run",
				tc.name, plain, instrumented)
		}
	}
}

// nopProbe is a probe leg with no Local method, like a stream hub.
type nopProbe struct{}

func (nopProbe) RoundDone(round, ones, sampled int64) {}
func (nopProbe) FaultApplied(round int64)             {}
func (nopProbe) ShardRound(shard int, sampled int64)  {}

// Tee.Local localizes the legs that can be: the obs.Metrics leg buffers
// until Flush, while a leg without Local sees every event at once.
func TestTeeLocalizesLegs(t *testing.T) {
	m := obs.NewMetrics(obs.NewRegistry())
	var seen int
	l := engine.Tee{A: m, B: roundCounter{&seen}}.Local()
	l.RoundDone(1, 3, 7)
	if m.Rounds.Value() != 0 || seen != 1 {
		t.Fatalf("before Flush: metrics rounds = %d (want 0), pass-through leg saw %d (want 1)", m.Rounds.Value(), seen)
	}
	l.Flush()
	if m.Rounds.Value() != 1 || m.Activations.Value() != 7 {
		t.Errorf("after Flush: rounds = %d, activations = %d; want 1, 7", m.Rounds.Value(), m.Activations.Value())
	}
}

type roundCounter struct{ n *int }

func (c roundCounter) RoundDone(round, ones, sampled int64) { *c.n++ }
func (roundCounter) FaultApplied(round int64)               {}
func (roundCounter) ShardRound(shard int, sampled int64)    {}
