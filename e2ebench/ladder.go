package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bitspread/internal/engine"
	"bitspread/internal/obs"
	"bitspread/internal/rng"
	"bitspread/internal/serve"
	"bitspread/internal/sim"
)

// jobTimeout mirrors the daemon's default per-job budget, so rung 2 and
// up poll a cancellable context exactly as served jobs do.
const jobTimeout = 10 * time.Minute

// rungResult is one ladder rung's timing over the ladder's specs.
type rungResult struct {
	busy    time.Duration // summed per-call time
	wall    time.Duration
	rounds  int64 // Σ Result.Rounds
	updates int64 // Σ Result.Activations
}

// ladder replays the workload's distinct specs through successively
// larger public entry points, at the served run's two-way concurrency:
//
//  1. engine.RunParallelReplicas / engine.RunAgentsReplicas
//  2. sim.RunContext
//  3. rung 2 plus the shared obs.Metrics probe and obs.RunObserver
//  4. rung 3 plus a shared fsynced sim.Journal
//  5. the full daemon over HTTP, untraced and then traced
//
// Differences between rungs are the self time of the layer each adds.
func (sw serveWorkload) ladder(ctx context.Context, cfg config, rep *report, specs []serve.JobSpec) error {
	var tasks []sim.Task
	var input []serve.JobSpec
	prefix := specs[:max(len(specs)/sw.ladderDiv, minJobs)]
	for _, i := range firstSeen(prefix) {
		sp := prefix[i]
		t, err := buildTask(sp)
		if err != nil {
			return err
		}
		tasks = append(tasks, t)
		input = append(input, sp)
	}

	reg := obs.NewRegistry()
	probe, observer := obs.NewMetrics(reg), obs.NewRunObserver(nil, reg)
	journal, err := sim.OpenJournalOpts(filepath.Join(cfg.dir, "ladder-replicas.jsonl"), sim.JournalOptions{Fsync: true})
	if err != nil {
		return fmt.Errorf("ladder journal: %w", err)
	}
	defer journal.Close()

	simRung := func(hooks bool, j *sim.Journal) func(context.Context, sim.Task) ([]engine.Result, error) {
		return func(ctx context.Context, t sim.Task) ([]engine.Result, error) {
			if hooks {
				t.Config.Probe, t.Observer = probe, observer
			}
			jctx, cancel := context.WithTimeout(ctx, jobTimeout)
			defer cancel()
			out, err := sim.RunContext(jctx, t, 1, j)
			return out.Results, err
		}
	}
	rungs := []struct {
		name string
		call func(context.Context, sim.Task) ([]engine.Result, error)
	}{
		{"engine", engineRung},
		{"sim", simRung(false, nil)},
		{"obs", simRung(true, nil)},
		{"journal", simRung(true, journal)},
	}
	// res[k] is rung k+1.
	var res [5]rungResult
	for i, r := range rungs {
		res[i], err = replay(ctx, rep, "ladder."+r.name, tasks, r.call)
		if err != nil {
			return err
		}
	}
	res[4], err = sw.servedRung(ctx, cfg, rep, input, nil, "ladder-daemon")
	if err != nil {
		return err
	}
	traced, err := sw.servedRung(ctx, cfg, rep, input, newTracer(), "ladder-daemon-traced")
	if err != nil {
		return err
	}

	jobs := float64(len(tasks))
	selfMS := func(hi, lo int) float64 {
		return float64(res[hi-1].busy-res[lo-1].busy) / float64(time.Millisecond) / jobs
	}
	rep.layer("ladder.jobs", jobs, "count", 0)
	for i, name := range []string{"engine", "sim", "obs", "journal", "daemon"} {
		rep.layer("ladder."+name+"_busy_ms", float64(res[i].busy)/float64(time.Millisecond), "ms", len(tasks))
	}
	rep.layer("engine.ns_per_replica_round", float64(res[0].busy)/float64(max(res[0].rounds, 1)), "ns", 0)
	rep.layer("engine.ns_per_agent_round", float64(res[0].busy)/float64(max(res[0].updates, 1)), "ns", 0)
	rep.layer("sim.orchestration_self_ms", selfMS(2, 1), "ms", 0)
	rep.layer("obs.hooks_self_ms", selfMS(3, 2), "ms", 0)
	rep.layer("obs.hooks_ratio", float64(res[2].busy)/float64(res[1].busy), "ratio", 0)
	rep.layer("sim.journal_self_ms", selfMS(4, 3), "ms", 0)
	rep.layer("serve.daemon_self_ms", selfMS(5, 4), "ms", 0)
	rep.layer("trace.overhead_ratio", traced.wall.Seconds()/res[4].wall.Seconds(), "ratio", 0)
	return nil
}

// replica seeds are derived exactly as sim.RunContext derives them.
func replicaSeeds(t sim.Task) []uint64 {
	master := rng.New(t.Seed)
	seeds := make([]uint64, t.Replicas)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	return seeds
}

// engineRung is rung 1: the batched engine entry points sim.RunContext
// dispatches to for a single-worker job.
func engineRung(_ context.Context, t sim.Task) ([]engine.Result, error) {
	switch t.Mode {
	case sim.Parallel:
		return engine.RunParallelReplicas(t.Config, replicaSeeds(t))
	case sim.AgentLevel:
		return engine.RunAgentsReplicas(t.Config, engine.AgentOptions{}, replicaSeeds(t))
	}
	return nil, fmt.Errorf("ladder: no engine rung for mode %v", t.Mode)
}

// replay runs tasks through call from two goroutines sharing a cursor,
// recording a span per call.
func replay(ctx context.Context, rep *report, name string, tasks []sim.Task, call func(context.Context, sim.Task) ([]engine.Result, error)) (rungResult, error) {
	var (
		res    rungResult
		mu     sync.Mutex
		cursor atomic.Int64
		wg     sync.WaitGroup
		first  error
	)
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(tasks) || ctx.Err() != nil {
					return
				}
				s := time.Now()
				rs, err := call(ctx, tasks[i])
				e := time.Now()
				rep.spans.add(name, fmt.Sprintf("%s-%d", name, i), 0, s, e)
				var rounds, updates int64
				for _, r := range rs {
					rounds += r.Rounds
					updates += r.Activations
				}
				mu.Lock()
				res.busy += e.Sub(s)
				res.rounds += rounds
				res.updates += updates
				if err != nil && first == nil {
					first = fmt.Errorf("%s: task %s: %w", name, tasks[i].Name, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	rep.op("run", first)
	return res, first
}

// servedRung is rung 5: the ladder specs through a fresh daemon with the
// workload's own client behaviour, recording spans into tr (nil: none).
func (sw serveWorkload) servedRung(ctx context.Context, cfg config, rep *report, specs []serve.JobSpec, tr *tracer, name string) (rungResult, error) {
	hc := newHTTPClient(nil)
	defer hc.CloseIdleConnections()
	d, _, err := startDaemon(ctx, hc, filepath.Join(cfg.dir, name), nil)
	rep.op("setup", err)
	if err != nil {
		return rungResult{}, err
	}
	defer d.stop()
	c := &client{hc: hc, base: d.url, watch: sw.watch, rep: rep, tr: tr}
	recs, wall, _ := c.drive(ctx, specs, func(int) bool { return false }, time.Now().Add(time.Hour))
	res := rungResult{wall: wall}
	for _, r := range recs {
		res.busy += r.latency
		res.rounds += r.rounds
		res.updates += r.updates
	}
	return res, nil
}
