package trace

import (
	"reflect"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// *Recorder must satisfy the engine probe contract: it is how a single
// run's trajectory is tapped.
var _ engine.Probe = (*Recorder)(nil)

// TestRecorderAsEngineProbe runs a seeded instance with a full-resolution
// and a downsampled recorder teed onto Config.Probe, and once without a
// probe. The Results must be identical, and the downsampled trajectory
// must be every 4th point of the full one plus the terminal point.
func TestRecorderAsEngineProbe(t *testing.T) {
	rule := protocol.Minority(3)
	base := engine.Config{N: 512, Rule: rule, Z: 1, X0: 256}

	res, err := engine.RunParallel(base, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}

	full, every4 := NewRecorder(base.N, 1), NewRecorder(base.N, 4)
	cfg := base
	cfg.Probe = engine.Tee{A: full, B: every4}
	resP, err := engine.RunParallel(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}

	if res != resP {
		t.Errorf("probe changed the Result: plain=%+v probe=%+v", res, resP)
	}
	fr, fc := full.Points()
	if int64(len(fr)) != resP.Rounds {
		t.Fatalf("full recorder kept %d points over %d rounds", len(fr), resP.Rounds)
	}
	var wantR, wantC []int64
	for i, r := range fr {
		if r%4 == 0 || i == len(fr)-1 {
			wantR, wantC = append(wantR, r), append(wantC, fc[i])
		}
	}
	r4, c4 := every4.Points()
	if !reflect.DeepEqual(r4, wantR) || !reflect.DeepEqual(c4, wantC) {
		t.Errorf("downsampled trajectory differs:\ngot  %v %v\nwant %v %v", r4, c4, wantR, wantC)
	}
	if every4.Len() == 0 {
		t.Fatal("probe recorded nothing")
	}
	last := c4[len(c4)-1]
	if resP.Converged && last != base.N {
		t.Errorf("terminal point = %d, want consensus %d", last, base.N)
	}
}

// TestSequentialTerminalPoint pins the sequential engine's terminal
// emission: mid-round convergence must surface the final count to the
// probe instead of stopping one partial round short.
func TestSequentialTerminalPoint(t *testing.T) {
	rule := protocol.Voter(1)
	rec := NewRecorder(64, 1)
	cfg := engine.Config{N: 64, Rule: rule, Z: 1, X0: 32, Probe: rec}
	res, err := engine.RunSequential(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Skip("run did not converge under the cap; nothing to pin")
	}
	_, counts := rec.Points()
	if len(counts) == 0 {
		t.Fatal("no points recorded")
	}
	if got := counts[len(counts)-1]; got != res.FinalCount {
		t.Errorf("terminal recorded count = %d, want FinalCount %d", got, res.FinalCount)
	}
}
