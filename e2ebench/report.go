package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// endToEndMetrics are the untraced run's gated metrics, in BENCHMARK.json
// order; every workload reports every one of them. job_latency_p99_ms is
// printed but not gated: only jobs-churn, itself not gated, has the ten
// samples beyond the 99th percentile that it needs.
var endToEndMetrics = []string{
	"setup_s", "jobs_per_s", "job_latency_p50_ms",
	"replica_rounds_per_s", "agent_rounds_per_s", "sweep_s", "restart_s", "heap_peak_mb",
}

// perLayerMetrics are the traced run's metrics in BENCHMARK.json: the
// per-layer figures every workload measures. Layer figures only some
// workloads reach (the serve client phases, the ladder rungs, the fabric
// board) are printed and kept in the report line; DESIGN.md maps each to
// the end-to-end metric it should move.
var perLayerMetrics = []string{
	"serve.result_ms.p50",
	"sim.checkpoints", "sim.journal_bytes_per_entry",
	"engine.rounds_total",
	"go.allocs_per_job", "go.gc_cpu_fraction",
	"trace.overhead_ratio",
}

// phaseOrder lists the accounting phases in print order.
var phaseOrder = []string{"setup", "submit", "wait", "result", "lease", "metrics", "check", "restart", "run"}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name,omitempty"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or median (0: not a
	// sampled statistic).
	N int `json:"n,omitempty"`
}

// phase counts one phase's operations.
type phase struct {
	Attempted int64 `json:"attempted"`
	OK        int64 `json:"ok"`
	Failed    int64 `json:"failed"`
}

// env names the machine a result was measured on.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	DataDirFS  string `json:"datadir_fs"`
}

// report accumulates one run's results. Phase accounting and failures
// are safe for concurrent use by the client goroutines.
type report struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	Env        env      `json:"env"`
	SpecDigest string   `json:"spec_sha256"`
	Jobs       int      `json:"jobs"`
	Truncated  bool     `json:"truncated,omitempty"`
	E2E        []metric `json:"end_to_end"`
	Layers     []metric `json:"per_layer,omitempty"`
	SpanFile   string   `json:"span_file,omitempty"`

	mu       sync.Mutex
	Phases   map[string]*phase `json:"phases"`
	Failures []string          `json:"failures,omitempty"`

	spans *tracer
}

func newReport(workload string, cfg config) *report {
	r := &report{Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Phases: map[string]*phase{}}
	if cfg.trace {
		r.spans = newTracer()
	}
	return r
}

// maxFailures bounds the failure messages kept; the counts stay exact.
const maxFailures = 20

// op records one operation of a phase; a non-nil err counts it failed.
func (r *report) op(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.Phases[name]
	if p == nil {
		p = &phase{}
		r.Phases[name] = p
	}
	p.Attempted++
	if err == nil {
		p.OK++
		return
	}
	p.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// check records one correctness check: ok, or a failure described by
// format and args.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op("check", nil)
		return
	}
	r.op("check", fmt.Errorf(format, args...))
}

func (r *report) totals() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// correct reports whether every operation and check succeeded and every
// reported metric was measured.
func (r *report) correct() bool {
	attempted, failed := r.totals()
	if attempted == 0 || failed > 0 {
		return false
	}
	want := endToEndMetrics
	if r.Traced {
		want = perLayerMetrics
	}
	for _, name := range want {
		if _, ok := r.lookup(name); !ok {
			return false
		}
	}
	return true
}

func (r *report) e2e(name string, value float64, unit string, n int) {
	r.E2E = append(r.E2E, metric{Name: name, Value: value, Unit: unit, N: n})
}

func (r *report) layer(name string, value float64, unit string, n int) {
	r.Layers = append(r.Layers, metric{Name: name, Value: value, Unit: unit, N: n})
}

func (r *report) lookup(name string) (metric, bool) {
	for _, list := range [][]metric{r.E2E, r.Layers} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// environment records the runtime and the filesystem backing dir: tmpfs
// and disk differ by orders of magnitude in fsync cost, which dominates
// the jobs-churn workload.
func environment(dir string) env {
	return env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		DataDirFS:  filesystemOf(dir),
	}
}

// filesystemOf returns the type of the mount holding path, read from
// /proc/self/mountinfo ("unknown" where that file does not exist).
func filesystemOf(path string) string {
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// Fields: id parent major:minor root mountpoint opts... - fstype source superopts
		pre, post, ok := strings.Cut(line, " - ")
		if !ok {
			continue
		}
		f, g := strings.Fields(pre), strings.Fields(post)
		if len(f) < 5 || len(g) < 1 {
			continue
		}
		mnt := f[4]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, fs = len(mnt), g[0]
		}
	}
	return fs
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianSeconds is the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	return quantile(millis(ds), 0.5) / 1e3
}
