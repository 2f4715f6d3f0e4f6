package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/obs"
	"bitspread/internal/protocol"
)

// The standard obs implementations must satisfy the contracts they were
// written against, without either package importing the other.
var (
	_ Observer         = (*obs.RunObserver)(nil)
	_ engine.Probe     = (*obs.Metrics)(nil)
	_ engine.Localizer = (*obs.Metrics)(nil)
	_ engine.Localizer = engine.Tee{}
)

// TestInstrumentedRunUnderFaults drives a Probe-instrumented, Observer-
// instrumented Run across the batched Parallel path and the Aggregated
// path under a fault schedule. Meant to run under -race: the probe and
// observer are shared by every worker goroutine of the pool, which is
// exactly the concurrent contract they promise.
func TestInstrumentedRunUnderFaults(t *testing.T) {
	sched := fault.Must(
		fault.ResetAt(3, 0.5, 0),
		fault.OmissionFor(5, 4, 0.3),
		fault.SourceCrashFor(2, 2),
	)
	for _, mode := range []Mode{Parallel, Aggregated} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			probe := obs.NewMetrics(reg)
			var spans strings.Builder
			sw := obs.NewSpanWriter(&spans)
			task := Task{
				Name: "instrumented-" + mode.String(),
				Config: engine.Config{
					N:      256,
					Rule:   protocol.Minority(3),
					Z:      1,
					X0:     128,
					Faults: sched,
					Probe:  probe,
				},
				Mode:     mode,
				Replicas: 24,
				Seed:     99,
				Observer: obs.NewRunObserver(sw, reg),
			}
			out, err := Run(task, 8)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if c, f, _, _ := out.Counts(); f > 0 || c != task.Replicas {
				t.Fatalf("counts = %d completed, %d failed", c, f)
			}
			if err := sw.Close(); err != nil {
				t.Fatalf("spans: %v", err)
			}

			var wantRounds int64
			for _, r := range out.Results {
				wantRounds += r.Rounds
			}
			if got := probe.Rounds.Value(); got != wantRounds {
				t.Errorf("probe rounds = %d, want sum of Result.Rounds %d", got, wantRounds)
			}
			var wantActs int64
			for _, r := range out.Results {
				wantActs += r.Activations
			}
			if got := probe.Activations.Value(); got != wantActs {
				t.Errorf("probe activations = %d, want %d", got, wantActs)
			}
			if probe.FaultRounds.Value() == 0 {
				t.Error("no fault rounds observed despite an active schedule")
			}
			if got := reg.Counter("bitspread_replicas_total").Value(); got != int64(task.Replicas) {
				t.Errorf("observer replicas = %d, want %d", got, task.Replicas)
			}
			recoveries := reg.Counter("bitspread_recoveries_total").Value()
			if conv := int64(out.ConvergedCount()); recoveries != conv {
				t.Errorf("recoveries = %d, want converged count %d", recoveries, conv)
			}
			if n := strings.Count(spans.String(), `"ev":"replica_done"`); n != task.Replicas {
				t.Errorf("span file has %d replica_done lines, want %d", n, task.Replicas)
			}
		})
	}
}

// TestProbeDoesNotChangeResults pins the observer-neutrality contract at
// the sim level: the same task with and without instrumentation yields
// identical Results slices.
func TestProbeDoesNotChangeResults(t *testing.T) {
	base := Task{
		Name: "neutrality",
		Config: engine.Config{
			N:    512,
			Rule: protocol.Minority(3),
			Z:    1,
			X0:   256,
			Faults: fault.Must(
				fault.ResetAt(2, 0.25, 0),
			),
		},
		Mode:     Parallel,
		Replicas: 16,
		Seed:     7,
	}
	plain, err := Run(base, 4)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	instr := base
	instr.Config.Probe = obs.NewMetrics(reg)
	instr.Observer = obs.NewRunObserver(nil, reg)
	probed, err := Run(instr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Results {
		if plain.Results[i] != probed.Results[i] {
			t.Fatalf("replica %d differs: plain=%+v probed=%+v",
				i, plain.Results[i], probed.Results[i])
		}
	}
}

// checkTotals asserts the exact-totals contract of a localizable probe
// under sim: the shared counters equal the sums over the returned
// Results.
func checkTotals(t *testing.T, probe *obs.Metrics, out Outcome) {
	t.Helper()
	var rounds, acts int64
	for _, r := range out.Results {
		rounds += r.Rounds
		acts += r.Activations
	}
	if rounds == 0 {
		t.Fatal("no rounds ran; the check is vacuous")
	}
	if got := probe.Rounds.Value(); got != rounds {
		t.Errorf("bitspread_rounds_total = %d, want Σ Result.Rounds = %d", got, rounds)
	}
	if got := probe.Activations.Value(); got != acts {
		t.Errorf("bitspread_activations_total = %d, want Σ Result.Activations = %d", got, acts)
	}
	if got := probe.RoundLoad.Count(); got != rounds {
		t.Errorf("round histogram count = %d, want Σ Result.Rounds = %d", got, rounds)
	}
	if got := probe.RoundLoad.Sum(); got != acts {
		t.Errorf("round histogram sum = %d, want Σ Result.Activations = %d", got, acts)
	}
}

// TestProbeTotalsMatchResults checks the exact-totals contract on every
// sim path: all four modes, with and without faults, on one worker and
// on four, teed with a pass-through probe as bitspreadd attaches it.
func TestProbeTotalsMatchResults(t *testing.T) {
	sched := fault.Must(
		fault.ResetAt(3, 0.5, 0),
		fault.OmissionFor(5, 4, 0.3),
		fault.SourceCrashFor(2, 2),
	)
	for _, mode := range []Mode{Parallel, Sequential, AgentLevel, Aggregated} {
		for _, faulty := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/faults=%v/workers=%d", mode, faulty, workers), func(t *testing.T) {
					probe := obs.NewMetrics(obs.NewRegistry())
					var tap countingProbe
					task := Task{
						Name: "totals",
						Config: engine.Config{
							N:         128,
							Rule:      protocol.Voter(3),
							Z:         1,
							X0:        64,
							MaxRounds: 300,
							Probe:     engine.Tee{A: probe, B: &tap},
						},
						Mode:     mode,
						Replicas: 12,
						Seed:     17,
					}
					if faulty {
						task.Config.Faults = sched
					}
					out, err := Run(task, workers)
					if err != nil {
						t.Fatal(err)
					}
					checkTotals(t, probe, out)
					if tap.rounds != probe.Rounds.Value() {
						t.Errorf("pass-through leg saw %d rounds, metrics %d", tap.rounds, probe.Rounds.Value())
					}
				})
			}
		}
	}
}

// countingProbe is a pass-through (non-localizable) probe leg. It is
// written from every worker, so it locks.
type countingProbe struct {
	mu     sync.Mutex
	rounds int64
}

func (c *countingProbe) RoundDone(round, ones, sampled int64) {
	c.mu.Lock()
	c.rounds++
	c.mu.Unlock()
}
func (c *countingProbe) FaultApplied(round int64)            {}
func (c *countingProbe) ShardRound(shard int, sampled int64) {}

// TestProbeTotalsMatchCancelledResults cancels a long run mid-way: the
// partial Results count, so the totals still equal their sums.
func TestProbeTotalsMatchCancelledResults(t *testing.T) {
	for _, mode := range []Mode{Parallel, Sequential, AgentLevel, Aggregated} {
		t.Run(mode.String(), func(t *testing.T) {
			probe := obs.NewMetrics(obs.NewRegistry())
			task := Task{
				Name: "cancelled",
				Config: engine.Config{
					N:         1024,
					Rule:      protocol.Majority(3),
					Z:         1,
					X0:        1,
					MaxRounds: 1 << 40,
					Probe:     probe,
				},
				Mode:     mode,
				Replicas: 4,
				Seed:     5,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			out, err := RunContext(ctx, task, 2, nil)
			if err == nil {
				t.Fatal("a run that cannot converge finished before its deadline")
			}
			checkTotals(t, probe, out)
		})
	}
}

// TestFaultRoundsIndependentOfBatching pins bitspread_fault_rounds_total
// to one count per perturbed replica-round: the batched Parallel engine
// used to fire FaultApplied once per batch-round, so the total depended
// on how many workers split the batch.
func TestFaultRoundsIndependentOfBatching(t *testing.T) {
	sched := fault.Must(fault.ResetAt(3, 0.5, 0), fault.SourceCrashFor(2, 2))
	var want int64 = -1
	for _, mode := range []Mode{Parallel, Aggregated, AgentLevel} {
		for _, workers := range []int{1, 2, 4} {
			probe := obs.NewMetrics(obs.NewRegistry())
			task := Task{
				Name: "fault-rounds",
				Config: engine.Config{
					N:         256,
					Rule:      protocol.Minority(3),
					Z:         1,
					X0:        128,
					MaxRounds: 50,
					Faults:    sched,
					Probe:     probe,
				},
				Mode:     mode,
				Replicas: 8,
				Seed:     3,
			}
			if _, err := Run(task, workers); err != nil {
				t.Fatal(err)
			}
			got := probe.FaultRounds.Value()
			if want < 0 {
				want = got
				if want == 0 {
					t.Fatal("no fault rounds observed despite an active schedule")
				}
			}
			if got != want {
				t.Errorf("%v, %d workers: bitspread_fault_rounds_total = %d, want %d", mode, workers, got, want)
			}
		}
	}
}

// TestLocalizedRunAllocationSlope is the deterministic cost gate of the
// per-worker accumulators: a probed RunContext allocates per worker and
// per replica, never per round, so what the probe adds over a plain run
// is the same at 1024 rounds as at 64. (The batched agent engine's
// threshold memo allocates per distinct one-count visited, probe or not,
// so the gate compares against the plain run rather than zero.)
func TestLocalizedRunAllocationSlope(t *testing.T) {
	for _, mode := range []Mode{Parallel, Sequential, AgentLevel, Aggregated} {
		t.Run(mode.String(), func(t *testing.T) {
			metrics := obs.NewMetrics(obs.NewRegistry())
			overhead := func(rounds int64) float64 {
				task := Task{
					Name: "slope",
					Config: engine.Config{
						N:         64,
						Rule:      protocol.Minority(3),
						Z:         1,
						X0:        32,
						MaxRounds: rounds,
					},
					Mode:     mode,
					Replicas: 2,
					Seed:     23,
				}
				var ran int64
				run := func(task Task) float64 {
					return testing.AllocsPerRun(5, func() {
						out, err := RunContext(context.Background(), task, 2, nil)
						if err != nil {
							t.Fatal(err)
						}
						ran = out.Results[0].Rounds
					})
				}
				plain := run(task)
				task.Config.Probe = engine.Tee{A: metrics, B: &countingProbe{}}
				probed := run(task)
				if ran != rounds {
					t.Fatalf("replica 0 ran %d of %d rounds; the gate needs runs that hit the cap", ran, rounds)
				}
				return probed - plain
			}
			short, long := overhead(64), overhead(1024)
			if long != short {
				t.Errorf("probe allocations grow with rounds: +%.1f over plain at 64 rounds, +%.1f at 1024", short, long)
			}
		})
	}
}

// flushCheck is an Observer that, at every ReplicaDone, checks that the
// probe already counts the finished replica's rounds.
type flushCheck struct {
	t     *testing.T
	probe *obs.Metrics
	done  int64 // Σ rounds of the replicas finished so far
}

func (f *flushCheck) ReplicaStart(task string, replica int)           {}
func (f *flushCheck) Checkpoint(task string, replica int)             {}
func (f *flushCheck) Recovery(task string, replica int, rounds int64) {}
func (f *flushCheck) ReplicaDone(task string, replica int, rounds int64, converged bool, state string) {
	f.done += rounds
	if got := f.probe.Rounds.Value(); got < f.done {
		f.t.Errorf("replica %d done with %d rounds counted, want at least %d", replica, got, f.done)
	}
}

// The worker flushes before it classifies, so whoever sees ReplicaDone
// (bitspreadd's job_done comes after the last one) sees the totals.
func TestProbeFlushedBeforeReplicaDone(t *testing.T) {
	for _, mode := range []Mode{Parallel, Sequential, AgentLevel, Aggregated} {
		t.Run(mode.String(), func(t *testing.T) {
			probe := obs.NewMetrics(obs.NewRegistry())
			task := Task{
				Name: "flush-order",
				Config: engine.Config{
					N:         128,
					Rule:      protocol.Voter(3),
					Z:         1,
					X0:        64,
					MaxRounds: 300,
					Probe:     probe,
				},
				Mode:     mode,
				Replicas: 6,
				Seed:     29,
			}
			task.Observer = &flushCheck{t: t, probe: probe}
			if _, err := Run(task, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}
