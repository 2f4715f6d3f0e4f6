package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The benchmark's small-size self-test: every workload, untraced and
// traced, at a tiny job list (and the reduced fabric sweep), must pass
// its own correctness gate and report every metric BENCHMARK.json lists.
// Run it from this directory with `go test ./...`.

// runSmall runs one workload at self-test size and decodes its last line.
func runSmall(t *testing.T, name string, seed uint64, trace bool) (final, *report) {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := config{seed: seed, seconds: 0.01, trace: trace, quick: true}
	var out bytes.Buffer
	code := run(w, cfg, t.TempDir(), &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var f final
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &f); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, out.String())
	}
	var rep struct {
		Report *report `json:"report"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("%s: report line: %v", name, err)
	}
	if code != 0 || !f.Correct || f.Failed != 0 || f.Attempted < 1 {
		t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", name, trace, code, f, out.String())
	}
	want := endToEndMetrics
	if trace {
		want = perLayerMetrics
	}
	if len(f.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(f.Metrics), len(want))
	}
	for _, m := range want {
		if _, ok := f.Metrics[m]; !ok {
			t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
		}
	}
	return f, rep.Report
}

func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			runSmall(t, w.name, 7, false)
			runSmall(t, w.name, 7, true)
		})
	}
}

// TestCountsRepeat checks the work-identity counts repeat exactly on one
// seed, and the spec digest with them.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"jobs-churn", "fabric-sweep"} {
		a, ra := runSmall(t, name, 3, true)
		b, rb := runSmall(t, name, 3, true)
		if ra.SpecDigest != rb.SpecDigest {
			t.Errorf("%s: spec digests differ: %s vs %s", name, ra.SpecDigest, rb.SpecDigest)
		}
		for _, m := range []string{"engine.rounds_total", "sim.checkpoints"} {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s differs between runs on one seed: %v vs %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		if name == "fabric-sweep" {
			ja, _ := ra.lookup("fabric.journal_bytes")
			jb, _ := rb.lookup("fabric.journal_bytes")
			if ja.Value != jb.Value || ja.Value == 0 {
				t.Errorf("fabric.journal_bytes differs between runs on one seed: %v vs %v", ja.Value, jb.Value)
			}
		}
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	a, da := churn.generate(5, 1)
	b, db := churn.generate(5, 1)
	_, dc := churn.generate(6, 1)
	if da != db || len(a) != len(b) {
		t.Fatalf("same seed, different specs: %s vs %s", da, db)
	}
	if da == dc {
		t.Fatalf("different seeds, same digest %s", da)
	}
	seen := map[uint64]bool{}
	repeats := 0
	for _, sp := range a {
		if seen[sp.Seed] {
			repeats++
		}
		seen[sp.Seed] = true
	}
	if share := float64(repeats) / float64(len(a)); share < 0.2 || share > 0.35 {
		t.Errorf("repeat share %.2f, want about 0.3", share)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7", got)
	}
}
