// Command e2ebench is bitspread's end-to-end benchmark. For one seeded
// workload it brings up an in-process bitspreadd daemon (serve.New with a
// fresh on-disk DataDir and server defaults), drives it over real HTTP
// from two closed-loop clients, checks every output it can against a
// direct simulation, and prints the end-to-end metrics. With -trace 1 it
// instead records client-side spans and replays the workload's specs up a
// ladder of public entry points (engine, sim, obs, journal, daemon) to
// attribute time to layers.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload voter-long --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable table and a "report" JSON line with the environment,
// the spec digest, per-phase accounting and every metric measured. The
// exit code is non-zero when any correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed; the daemon only ever sees the specs it generates")
		seconds = flag.Float64("seconds", 20, "measurement budget; sizes the fixed job list of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
		workdir = flag.String("workdir", ".bench_build/e2ebench-work", "scratch root for data directories and span files")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	os.Exit(run(w, cfg, *workdir, os.Stdout))
}

// config is one invocation's parameters.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// quick shrinks the fabric sweep to its reduced experiment sizes; the
	// self-test uses it, benchmark runs never do.
	quick bool
	// dir is the run's private scratch directory.
	dir string
}

// run executes one workload and prints its result; it returns the exit
// code.
func run(w workload, cfg config, workdir string, out io.Writer) int {
	root, err := filepath.Abs(workdir)
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err == nil {
		cfg.dir, err = os.MkdirTemp(root, "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: scratch dir: %v\n", err)
		return 1
	}
	defer func() {
		os.RemoveAll(cfg.dir)
		flushDisk() // leave the disk quiet for whatever runs next
	}()
	flushDisk()

	rep := newReport(w.name, cfg)
	rep.Env = environment(cfg.dir)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if err := w.run(ctx, cfg, rep); err != nil {
		rep.op("run", err)
	}
	if cfg.trace {
		path := filepath.Join(root, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := rep.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing spans: %v\n", err)
		} else {
			rep.SpanFile = path
		}
	}
	rep.print(out)
	if !rep.correct() {
		return 1
	}
	return 0
}

// runDeadline bounds a whole invocation well inside the 180 s a run may
// take, so a wedged daemon fails the run instead of hanging it.
const runDeadline = 170 * time.Second

// final is the last stdout line.
type final struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "# e2ebench workload=%s seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(out, "# env go=%s gomaxprocs=%d numcpu=%d datadir_fs=%s\n", r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.DataDirFS)
	fmt.Fprintf(out, "# spec_sha256=%s jobs=%d\n", r.SpecDigest, r.Jobs)
	for _, name := range phaseOrder {
		if p := r.Phases[name]; p != nil {
			fmt.Fprintf(out, "# phase %-8s attempted=%d ok=%d failed=%d\n", name, p.Attempted, p.OK, p.Failed)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "# FAIL %s\n", f)
	}
	attempted, failed := r.totals()
	rate := 0.0
	if attempted > 0 {
		rate = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(out, "%-34s %14.6g %s\n", "error_rate", rate, "ratio")
	for _, m := range r.E2E {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.Layers {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(struct {
		Report *report `json:"report"`
	}{r})
	fmt.Fprintf(out, "%s\n", line)

	f := final{Correct: r.correct(), Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	want := endToEndMetrics
	if r.Traced {
		want = perLayerMetrics
	}
	for _, name := range want {
		if m, ok := r.lookup(name); ok {
			f.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	if f.Attempted < 1 {
		f.Attempted = 1
		f.Failed = 1
		f.Correct = false
	}
	line, _ = json.Marshal(f)
	fmt.Fprintf(out, "%s\n", line)
}
