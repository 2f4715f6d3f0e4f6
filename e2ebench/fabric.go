package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bitspread/internal/engine"
	"bitspread/internal/fabric"
	"bitspread/internal/serve"
	"bitspread/internal/sim"
)

// The fabric-sweep workload: a coordinator daemon over fabricPartitions
// partitions of a journaled {T1, X2, X12} sweep, drained by two
// serve.RunPullWorker goroutines. Its one job is the sweep.
var fabricExps = []string{"T1", "X2", "X12"}

const (
	fabricPartitions = 4
	pullWorkers      = 2
	fabricSweeps     = 3
	// statusPoll is how often the client asks the coordinator whether
	// the sweep drained: small next to the seconds a sweep takes.
	statusPoll = 10 * time.Millisecond
)

func runFabric(ctx context.Context, cfg config, rep *report) error {
	spec := fabric.SweepSpec{Exps: fabricExps, Seed: cfg.seed, Quick: cfg.quick, SimWorkers: 1}
	line, _ := json.Marshal(spec)
	sum := sha256.Sum256(line)
	opts := func() *serve.FabricOptions {
		return &serve.FabricOptions{Exps: spec.Exps, Seed: spec.Seed, Quick: spec.Quick, Partitions: fabricPartitions, SimWorkers: spec.SimWorkers}
	}
	// Untraced, the timed phase is fabricSweeps sweeps, each on a fresh
	// coordinator; times and rates are their medians and the heap is the
	// peak over all of them. Traced, it is one untraced sweep and then one
	// traced sweep, for the overhead ratio.
	n := fabricSweeps
	if cfg.trace {
		n = 2
	}
	rep.SpecDigest, rep.Jobs = hex.EncodeToString(sum[:]), n

	hc := newHTTPClient(nil)
	defer hc.CloseIdleConnections()
	d, dataDir, err := setUp(ctx, hc, rep, cfg.dir, opts)
	if err != nil {
		return err
	}
	var sweeps []sweepResult
	for i := 0; i < n; i++ {
		if i > 0 {
			d, _, err = startDaemon(ctx, hc, filepath.Join(cfg.dir, fmt.Sprintf("sweep-%d", i)), opts())
			rep.op("setup", err)
			if err != nil {
				return err
			}
		}
		var tr *tracer
		if cfg.trace && i == n-1 {
			tr = rep.spans
		}
		res, err := runSweep(ctx, hc, d, filepath.Join(cfg.dir, fmt.Sprintf("workers-%d", i)), rep, tr)
		d.stop()
		if err != nil {
			return err
		}
		sweeps = append(sweeps, res)
	}

	var walls, rates, updates []float64
	peak := 0.0
	for _, s := range sweeps {
		secs := s.wall.Seconds()
		walls = append(walls, secs)
		rates = append(rates, float64(s.rounds)/secs)
		updates = append(updates, float64(s.updates)/secs)
		peak = max(peak, s.probe.peakMB())
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	rep.e2e("jobs_per_s", float64(len(walls))/total, "1/s", len(walls))
	rep.e2e("job_latency_p50_ms", quantile(walls, 0.5)*1e3, "ms", len(walls))
	rep.e2e("job_latency_p99_ms", quantile(walls, 0.99)*1e3, "ms", len(walls))
	rep.e2e("replica_rounds_per_s", quantile(rates, 0.5), "1/s", len(rates))
	rep.e2e("agent_rounds_per_s", quantile(updates, 0.5), "1/s", len(updates))
	rep.e2e("sweep_s", quantile(walls, 0.5), "s", len(walls))
	rep.e2e("heap_peak_mb", peak, "MB", 0)

	last := sweeps[len(sweeps)-1]
	if cfg.trace {
		b := last.status.Board
		rep.layer("fabric.leases", float64(last.status.Partitions+b.Reissues+b.Steals), "count", 0)
		rep.layer("fabric.reissues", float64(b.Reissues), "count", 0)
		rep.layer("fabric.steals", float64(b.Steals), "count", 0)
		rep.layer("fabric.journal_bytes", float64(len(last.journal)), "B", 0)
		lease := rep.spans.durations("worker.lease")
		rep.layer("fabric.lease_ms.p50", quantile(millis(lease), 0.5), "ms", len(lease))
		rep.layer("fabric.status_polls", float64(last.polls), "count", 0)
		rep.layer("serve.result_ms.p50", float64(last.fetch)/float64(time.Millisecond), "ms", 1)
		rep.layer("engine.rounds_total", float64(last.rounds), "count", 0)
		rep.layer("sim.checkpoints", float64(last.entries), "count", 0)
		rep.layer("sim.journal_bytes_per_entry", float64(len(last.journal))/float64(max(last.entries, 1)), "B", 0)
		rep.layer("go.allocs_per_job", last.probe.allocs, "count", 0)
		rep.layer("go.gc_cpu_fraction", last.probe.gcCPU, "ratio", 0)
		rep.layer("trace.overhead_ratio", last.wall.Seconds()/sweeps[0].wall.Seconds(), "ratio", 0)
	}

	// Correctness gate: every served merge equals a single-process run.
	ref, err := referenceJournal(ctx, cfg, rep, spec)
	for i, s := range sweeps {
		rep.check(err == nil && bytes.Equal(ref, s.journal),
			"sweep %d: served merged journal (%d bytes) differs from a single-process fabric.RunShard merge (%d bytes, err %v)", i, len(s.journal), len(ref), err)
	}

	restart(ctx, hc, rep, dataDir, opts(), func(d *daemon) {
		var got []byte
		c := &client{hc: hc, base: d.url, rep: rep}
		code, err := c.call(ctx, http.MethodGet, "/v1/fabric/journal", nil, nil, &got)
		rep.check(err == nil && code == http.StatusOK && bytes.Equal(got, sweeps[0].journal),
			"merged journal after restart differs (status %d, err %v)", code, err)
	})
	return nil
}

// sweepResult is one served sweep as the client saw it.
type sweepResult struct {
	wall    time.Duration // first lease request until the merged journal verified
	fetch   time.Duration // GET /v1/fabric/journal
	journal []byte
	status  serve.FabricStatus
	polls   int
	probe   *runtimeProbe
	// Totals over the merged journal.
	entries         int
	rounds, updates int64
}

// runSweep starts the pull workers against d, waits for the board to
// drain, fetches and verifies the merged journal, then stops the workers
// (a worker still running a stolen duplicate is cancelled).
func runSweep(ctx context.Context, hc *http.Client, d *daemon, dir string, rep *report, tr *tracer) (sweepResult, error) {
	var res sweepResult
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, pullWorkers)
	var wg sync.WaitGroup
	res.probe = startRuntimeProbe()
	t0 := time.Now()
	root := tr.reserve("sweep", "sweep", 0, t0)
	for w := 0; w < pullWorkers; w++ {
		name := fmt.Sprintf("worker-%d", w)
		var rt http.RoundTripper
		if tr != nil {
			rt = &spanTransport{tr: tr, trace: name, parent: root, next: http.DefaultTransport}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = serve.RunPullWorker(wctx, serve.PullWorkerOptions{
				URL: d.url, Name: name, ShardDir: filepath.Join(dir, name), Client: newHTTPClient(rt),
			})
		}(w)
	}

	c := &client{hc: hc, base: d.url, rep: rep}
	err := func() error {
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(statusPoll):
			}
			code, err := c.call(ctx, http.MethodGet, "/v1/fabric/status", nil, &res.status, nil)
			res.polls++
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("GET /v1/fabric/status: status %d", code)
			}
			if res.status.Drained {
				return nil
			}
		}
	}()
	if err == nil {
		fs := time.Now()
		var code int
		code, err = c.call(ctx, http.MethodGet, "/v1/fabric/journal", nil, nil, &res.journal)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /v1/fabric/journal: status %d", code)
		}
		if err == nil {
			_, err = sim.MergeJournals(io.Discard, []sim.MergeSource{{Name: "served", Data: res.journal}})
		}
		if err == nil {
			res.entries, res.rounds, res.updates, err = journalTotals(res.journal)
		}
		res.fetch = time.Since(fs)
		tr.add("result", "sweep", root, fs, time.Now())
	}
	res.wall = time.Since(t0)
	res.probe.finish()
	tr.finish(root, time.Now())
	rep.op("result", err)

	cancel()
	wg.Wait()
	for _, werr := range errs {
		if errors.Is(werr, context.Canceled) {
			werr = nil
		}
		rep.op("lease", werr)
	}
	return res, err
}

// referenceJournal computes the sweep in this process and merges it:
// untraced as one fabric.RunShard over partition 0/1, traced as the
// coordinator's partitions run two at a time, timing each shard and the
// merge.
func referenceJournal(ctx context.Context, cfg config, rep *report, spec fabric.SweepSpec) ([]byte, error) {
	dir := filepath.Join(cfg.dir, "reference")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dst := filepath.Join(dir, "merged.jsonl")
	if !cfg.trace {
		spec.SimWorkers = 0 // every core: the partition's bytes do not depend on it
		path := filepath.Join(dir, "shard.jsonl")
		_, err := fabric.RunShard(ctx, spec, fabric.Shard{Index: 0, Count: 1}, path, false, nil)
		rep.op("run", err)
		if err != nil {
			return nil, err
		}
		if _, err := sim.MergeJournalFiles(dst, path); err != nil {
			return nil, err
		}
		return os.ReadFile(dst)
	}

	paths := make([]string, fabricPartitions)
	errs := make([]error, fabricPartitions)
	var wg sync.WaitGroup
	sem := make(chan struct{}, pullWorkers)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := time.Now()
			_, errs[i] = fabric.RunShard(ctx, spec, fabric.Shard{Index: i, Count: fabricPartitions}, paths[i], false, nil)
			rep.spans.add("fabric.shard_run", fmt.Sprintf("shard-%d", i), 0, s, time.Now())
		}(i)
	}
	wg.Wait()
	err := errors.Join(errs...)
	rep.op("run", err)
	if err != nil {
		return nil, err
	}
	s := time.Now()
	_, err = sim.MergeJournalFiles(dst, paths...)
	merge := time.Since(s)
	if err != nil {
		return nil, err
	}
	shards := rep.spans.durations("fabric.shard_run")
	rep.layer("fabric.shard_run_ms.p50", quantile(millis(shards), 0.5), "ms", len(shards))
	rep.layer("fabric.merge_ms", float64(merge)/float64(time.Millisecond), "ms", 1)
	return os.ReadFile(dst)
}

// journalTotals counts a merged journal's entries and sums their
// Results' rounds and agent updates.
func journalTotals(data []byte) (entries int, rounds, updates int64, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			Result engine.Result `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return entries, rounds, updates, err
		}
		entries++
		rounds += line.Result.Rounds
		updates += line.Result.Activations
	}
	return entries, rounds, updates, sc.Err()
}

// spanTransport records a span around each HTTP call a pull worker makes
// to the coordinator, named by the call's last path element.
type spanTransport struct {
	tr     *tracer
	trace  string
	parent int64
	next   http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := time.Now()
	resp, err := t.next.RoundTrip(req)
	name := req.URL.Path[strings.LastIndex(req.URL.Path, "/")+1:]
	t.tr.add("worker."+name, t.trace, t.parent, s, time.Now())
	return resp, err
}
