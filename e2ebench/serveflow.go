package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bitspread/internal/cli"
	"bitspread/internal/engine"
	"bitspread/internal/serve"
	"bitspread/internal/sim"
)

// driveDeadline bounds the timed phase at this multiple of -seconds (and
// at least driveFloor): a much slower program still finishes its run,
// reporting a truncated job list.
const (
	driveFactor = 4
	driveFloor  = 20 * time.Second
)

// run executes a serve workload: set-up, the timed closed-loop phase,
// the correctness gate, restart, and with tracing the layer ladder.
func (sw serveWorkload) run(ctx context.Context, cfg config, rep *report) error {
	specs, digest := sw.generate(cfg.seed, cfg.seconds)
	rep.SpecDigest, rep.Jobs = digest, len(specs)
	sample := sw.checkSample(cfg.seed, specs)

	hc := newHTTPClient(nil)
	defer hc.CloseIdleConnections()
	d, dataDir, err := setUp(ctx, hc, rep, cfg.dir, func() *serve.FabricOptions { return nil })
	if err != nil {
		return err
	}
	running := true
	defer func() {
		if running {
			d.stop()
		}
	}()

	c := &client{hc: hc, base: d.url, watch: sw.watch, rep: rep, tr: rep.spans}
	limit := time.Duration(cfg.seconds * driveFactor * float64(time.Second))
	if limit < driveFloor {
		limit = driveFloor
	}
	probe := startRuntimeProbe()
	recs, wall, truncated := c.drive(ctx, specs, func(i int) bool { return sample[i] }, time.Now().Add(limit))
	probe.finish()
	rep.Truncated = truncated

	var lat []time.Duration
	var done, polls, events int
	var rounds, updates, dropped int64
	seen := map[string]int{}
	for i, r := range recs {
		if !r.ok {
			continue
		}
		done++
		lat = append(lat, r.latency)
		polls += r.polls
		events += r.events
		dropped += r.dropped
		if _, dup := seen[r.id]; !dup {
			seen[r.id] = i
			rounds += r.rounds
			updates += r.updates
		}
	}
	secs := wall.Seconds()
	ms := millis(lat)
	rep.e2e("jobs_per_s", float64(done)/secs, "1/s", done)
	rep.e2e("job_latency_p50_ms", quantile(ms, 0.5), "ms", len(ms))
	rep.e2e("job_latency_p99_ms", quantile(ms, 0.99), "ms", len(ms))
	rep.e2e("replica_rounds_per_s", float64(rounds)/secs, "1/s", 0)
	rep.e2e("agent_rounds_per_s", float64(updates)/secs, "1/s", 0)
	rep.e2e("sweep_s", secs, "s", 0)
	rep.e2e("heap_peak_mb", probe.peakMB(), "MB", 0)

	if cfg.trace {
		m, err := scrapeMetrics(ctx, hc, d.url)
		rep.op("metrics", err)
		perJob := func(v float64) float64 { return v / float64(max(done, 1)) }
		for _, name := range []string{"submit", "queue_wait", "run", "publish", "result"} {
			ds := rep.spans.durations(name)
			rep.layer("serve."+name+"_ms.p50", quantile(millis(ds), 0.5), "ms", len(ds))
		}
		rep.layer("serve.events_per_job", perJob(float64(events)), "count", 0)
		rep.layer("serve.events_dropped", float64(dropped), "count", 0)
		rep.layer("serve.polls_per_job", perJob(float64(polls)), "count", 0)
		rep.layer("serve.dedup_hits", m["bitspreadd_jobs_deduped_total"], "count", 0)
		rep.layer("serve.cache_hits", m["bitspreadd_cache_hits_total"], "count", 0)
		rep.layer("engine.rounds_total", m["bitspread_rounds_total"], "count", 0)
		rep.layer("sim.checkpoints", m["bitspread_checkpoints_total"], "count", 0)
		rep.layer("serve.joblog_bytes_per_job", perJob(fileSize(filepath.Join(dataDir, "jobs.jsonl"))), "B", 0)
		rep.layer("serve.result_bytes_per_job", dirBytes(filepath.Join(dataDir, "cache"))/float64(max(len(seen), 1)), "B", 0)
		rep.layer("sim.journal_bytes_per_entry", fileSize(filepath.Join(dataDir, "replicas.jsonl"))/max(m["bitspread_checkpoints_total"], 1), "B", 0)
		rep.layer("go.allocs_per_job", perJob(probe.allocs), "count", 0)
		rep.layer("go.gc_cpu_fraction", probe.gcCPU, "ratio", 0)
	}

	d.stop()
	running = false

	// Correctness gate, outside the timed window.
	sw.checkRecords(ctx, rep, specs, recs, seen)
	restart(ctx, hc, rep, dataDir, nil, func(d *daemon) {
		// Results must survive the restart byte for byte.
		c := &client{hc: hc, base: d.url, rep: rep}
		checked := 0
		for _, r := range recs {
			if r.body == nil || checked == 3 {
				continue
			}
			checked++
			var payload []byte
			code, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+r.id+"/result", nil, nil, &payload)
			rep.check(err == nil && code == http.StatusOK && bytes.Equal(payload, r.body),
				"job %s: result after restart differs (status %d, err %v)", r.id, code, err)
		}
	})

	if cfg.trace {
		return sw.ladder(ctx, cfg, rep, specs)
	}
	return nil
}

// firstSeen returns the index of each spec's first occurrence. Specs are
// told apart by their 64-bit seeds, which repeats copy.
func firstSeen(specs []serve.JobSpec) []int {
	seen := map[uint64]bool{}
	var idx []int
	for i, sp := range specs {
		if !seen[sp.Seed] {
			seen[sp.Seed] = true
			idx = append(idx, i)
		}
	}
	return idx
}

// checkSample picks, from the seed alone, the distinct jobs whose
// Results the gate recomputes: a shuffled sample of checkJobs first
// occurrences.
func (sw serveWorkload) checkSample(seed uint64, specs []serve.JobSpec) []bool {
	fresh := firstSeen(specs)
	r := rand.New(rand.NewPCG(seed, 0xc4ec))
	r.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	if len(fresh) > sw.checkJobs {
		fresh = fresh[:sw.checkJobs]
	}
	keep := make([]bool, len(specs))
	for _, i := range fresh {
		keep[i] = true
	}
	return keep
}

// checkRecords is the correctness gate over the served jobs: every job
// completed; sampled jobs' Results equal a direct sim.RunContext of the
// same spec; a repeated spec's result bytes equal its first result's;
// Voter jobs converged on every replica.
func (sw serveWorkload) checkRecords(ctx context.Context, rep *report, specs []serve.JobSpec, recs []jobRecord, first map[string]int) {
	for i, r := range recs {
		if !r.ok {
			continue
		}
		if j := first[r.id]; j != i {
			rep.check(recs[j].hash == r.hash, "job %s: repeat %d's result bytes differ from job %d's", r.id, i, j)
		}
		if specs[i].Rule == "voter" {
			rep.check(r.converged == r.replicas && r.replicas == specs[i].Replicas,
				"job %s: voter converged %d of %d replicas", r.id, r.converged, r.replicas)
		}
		if r.body == nil {
			continue
		}
		var res serve.JobResult
		err := json.Unmarshal(r.body, &res)
		task, terr := buildTask(specs[i])
		if err == nil {
			err = terr
		}
		var out sim.Outcome
		if err == nil {
			out, err = sim.RunContext(ctx, task, 0, nil)
		}
		rep.check(err == nil && equalResults(out.Results, res.Results),
			"job %s: served Results differ from a direct sim.RunContext (err %v)", r.id, err)
	}
}

func equalResults(a, b []engine.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildTask turns a generated spec into the sim.Task the daemon runs.
// Generated specs set every field the daemon would otherwise default.
func buildTask(sp serve.JobSpec) (sim.Task, error) {
	rule, err := cli.BuildRule(sp.Rule, sp.Ell, sp.Delta, sp.Threshold)
	if err != nil {
		return sim.Task{}, err
	}
	var mode sim.Mode
	switch sp.Mode {
	case "parallel":
		mode = sim.Parallel
	case "agents":
		mode = sim.AgentLevel
	default:
		return sim.Task{}, fmt.Errorf("benchmark specs use parallel or agents mode, not %q", sp.Mode)
	}
	return sim.Task{
		Name:     sp.Name,
		Config:   engine.Config{N: sp.N, Rule: rule, Z: sp.Z, X0: *sp.X0, MaxRounds: sp.MaxRounds},
		Mode:     mode,
		Replicas: sp.Replicas,
		Seed:     sp.Seed,
	}, nil
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

func dirBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total float64
	for _, e := range entries {
		total += fileSize(filepath.Join(dir, e.Name()))
	}
	return total
}
