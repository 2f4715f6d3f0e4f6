// Command bitbench is the engine benchmark smoke runner: it times the hot
// paths of the simulation stack — the literal vs. bit-packed vs.
// aggregated agent engines, the serial vs. sharded agent engine and the
// cached vs. uncached batched count engine — and appends one JSON record
// per invocation to a trajectory file (default BENCH_engines.json), so
// performance across commits accumulates into a machine-readable history.
//
// Benchmarks run at -gomaxprocs (default NumCPU, recorded per run: earlier
// trajectory entries measured shard speedups at GOMAXPROCS=1, which
// undersold sharding). -cpuprofile/-memprofile write pprof profiles of the
// run, so engine hot paths can be profiled without a separate harness.
//
// SIGINT/SIGTERM stop the run at the next benchmark boundary and still
// flush a record with the measurements taken so far (flagged
// "interrupted"), so a cancelled session never loses its data.
//
// Examples:
//
//	bitbench                               # defaults, appends to BENCH_engines.json
//	bitbench -suite agents -n 1048576      # literal vs packed vs aggregated at n=2²⁰
//	bitbench -n 262144 -budget 500ms       # bigger instance, longer timing windows
//	bitbench -out - -budget 20ms           # quick look, write the record to stdout
//	bitbench -suite agents -cpuprofile cpu.pb.gz   # profile the agent engines
//	bitbench -suite packed-scale -scale-procs 1,2,4 -scale-shards 1,4
//	                                       # GOMAXPROCS × shards × n matrix
//	bitbench -suite fabric-scale -fabric-workers 1,2,4
//	                                       # distributed-sweep worker scaling
//	bitbench -suite probe-overhead -budget 20s
//	                                       # probed/plain ratio of served Voter jobs
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bitspread/internal/engine"
	"bitspread/internal/fabric"
	"bitspread/internal/obs"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bitbench:", err)
		os.Exit(1)
	}
}

// measurement is one timed benchmark in the output record.
type measurement struct {
	// NsPerOp is the wall time per operation; the operation is one full
	// engine run for the agent benchmarks and one replica-round for the
	// batch benchmarks.
	NsPerOp float64 `json:"ns_per_op"`
	// Ops is how many operations the timing window executed.
	Ops int64 `json:"ops"`
	// AgentRoundsPerSec is the throughput unit of the packed-scale suite:
	// agent-rounds (n × rounds executed) per wall-clock second. Zero for
	// benchmarks outside that suite.
	AgentRoundsPerSec float64 `json:"agent_rounds_per_sec,omitempty"`
	// TasksPerSec is the throughput unit of the fabric-scale suite:
	// merged (task, replica) checkpoints per wall-clock second of the
	// whole lease-compute-merge cycle. Zero outside that suite.
	TasksPerSec float64 `json:"tasks_per_sec,omitempty"`
	// Steals counts speculative lease duplications the fabric-scale
	// cell's idle workers performed (fabric.BoardStats.Steals).
	Steals int64 `json:"steals,omitempty"`
	// ProbeRatio is the probe-overhead cell's median of paired
	// probed/plain wall times; NsPerOp is then the plain run's time per
	// replica-round. Zero outside that suite.
	ProbeRatio float64 `json:"probe_ratio,omitempty"`
	// Pairs is how many plain/probed pairs the probe-overhead cell ran.
	Pairs int `json:"pairs,omitempty"`
}

// record is one line of the trajectory file.
type record struct {
	Timestamp  string                 `json:"timestamp"`
	GoVersion  string                 `json:"go_version"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu,omitempty"`
	N          int64                  `json:"n"`
	Shards     int                    `json:"shards"`
	Replicas   int                    `json:"replicas"`
	Benchmarks map[string]measurement `json:"benchmarks"`
	// ShardSpeedup is serial/sharded agent-engine time per run;
	// CacheSpeedup maps ℓ to uncached/cached time per replica-round.
	ShardSpeedup float64            `json:"shard_speedup,omitempty"`
	CacheSpeedup map[string]float64 `json:"cache_speedup"`
	// PackSpeedup is unpacked-literal/bit-packed time per run and
	// AggSpeedup is unpacked-literal/aggregated time per run, both from
	// the agents suite.
	PackSpeedup float64 `json:"pack_speedup,omitempty"`
	AggSpeedup  float64 `json:"agg_speedup,omitempty"`
	// Interrupted marks a record flushed after SIGINT/SIGTERM: the
	// benchmarks map holds only what finished before the signal.
	Interrupted bool `json:"interrupted,omitempty"`
}

func run(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("bitbench", flag.ContinueOnError)
	var prof obs.Profile
	prof.Register(fs)
	var (
		out         = fs.String("out", "BENCH_engines.json", "trajectory file to append the JSON record to (- for stdout)")
		n           = fs.Int64("n", 1<<16, "population size for the benchmarks")
		shards      = fs.Int("shards", runtime.NumCPU(), "shard count for the sharded agent benchmark")
		replicas    = fs.Int("replicas", 1024, "batch width for the count-level benchmarks")
		budget      = fs.Duration("budget", 200*time.Millisecond, "minimum timing window per benchmark")
		maxProcs    = fs.Int("gomaxprocs", runtime.NumCPU(), "GOMAXPROCS for the benchmark run (recorded in the output)")
		suite       = fs.String("suite", "all", "benchmark suite: engines (shard/cache), agents (literal vs packed vs aggregated), packed-scale (GOMAXPROCS × shards × n matrix), fabric-scale (distributed-sweep workers × partitions matrix), probe-overhead (probed/plain served Voter jobs), all (engines and agents)")
		fabWorkers  = fs.String("fabric-workers", "1,2,4", "fabric-scale worker counts, CSV")
		fabParts    = fs.Int("fabric-partitions", 4, "fabric-scale partitions per cell (more partitions than workers exercises the lease queue)")
		fabExps     = fs.String("fabric-exp", "T2", "fabric-scale experiment IDs, comma-separated")
		scaleProcs  = fs.String("scale-procs", "", "packed-scale GOMAXPROCS values, CSV (default: 1,2,4,… up to NumCPU)")
		scaleNs     = fs.String("scale-ns", "1048576,16777216", "packed-scale population sizes, CSV (n ≥ 2³² runs the chunked path only)")
		scaleShards = fs.String("scale-shards", "", "packed-scale shard counts, CSV (default: 1 and NumCPU)")
		metricsPath = fs.String("metrics", "", `attach the standard engine probe to the agent benchmarks and write a metrics snapshot at exit ("-": stdout); measures the instrumented hot path`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 4 {
		return fmt.Errorf("population %d too small", *n)
	}
	switch *suite {
	case "engines", "agents", "packed-scale", "fabric-scale", "probe-overhead", "all":
	default:
		return fmt.Errorf("unknown suite %q (want engines, agents, packed-scale, fabric-scale, probe-overhead or all)", *suite)
	}
	if *maxProcs > 0 {
		runtime.GOMAXPROCS(*maxProcs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	// A nil engine.Probe interface keeps the uninstrumented fast path; it
	// is only non-nil when -metrics asks for the instrumented measurement
	// (assigning a typed-nil *obs.Metrics here would re-enable the hook).
	var reg *obs.Registry
	var benchProbe engine.Probe
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		benchProbe = obs.NewMetrics(reg)
		defer func() {
			if merr := obs.WriteSnapshot(reg, *metricsPath, w); merr != nil && err == nil {
				err = merr
			}
		}()
	}

	rec := record{
		//bitlint:wallclock record timestamp is provenance metadata; no simulation state depends on it
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		N:            *n,
		Shards:       *shards,
		Replicas:     *replicas,
		Benchmarks:   map[string]measurement{},
		CacheSpeedup: map[string]float64{},
	}

	// The benchmarks run in a fixed order; a signal stops the sequence at
	// the next boundary and whatever finished is still flushed below.
	ells := []int{1, 3, protocol.SqrtNLogN(1).Of(*n)}
	var specs []benchSpec
	if *suite == "packed-scale" {
		specs, err = packedScaleSpecs(ctx, *scaleProcs, *scaleNs, *scaleShards, *budget)
		if err != nil {
			return err
		}
		// Each cell sets its own GOMAXPROCS; restore the flag value for
		// whatever runs after the matrix.
		defer runtime.GOMAXPROCS(*maxProcs)
	}
	if *suite == "fabric-scale" {
		specs, err = fabricScaleSpecs(ctx, *fabWorkers, *fabParts, *fabExps)
		if err != nil {
			return err
		}
	}
	if *suite == "probe-overhead" {
		for _, jobs := range []int{1, 2} {
			specs = append(specs, benchSpec{fmt.Sprintf("probe-overhead/jobs=%d", jobs), func() measurement {
				return benchProbeOverhead(ctx, voterLongN, voterLongReplicas, jobs, *budget)
			}})
		}
	}
	if *suite == "agents" || *suite == "all" {
		specs = append(specs,
			benchSpec{"agents/literal", func() measurement {
				return benchAgents(ctx, *n, engine.AgentOptions{Unpacked: true}, benchProbe, *budget)
			}},
			benchSpec{"agents/packed", func() measurement {
				return benchAgents(ctx, *n, engine.AgentOptions{}, benchProbe, *budget)
			}},
			benchSpec{"agents/aggregated", func() measurement {
				return benchAggregated(ctx, *n, benchProbe, *budget)
			}},
		)
	}
	if *suite == "engines" || *suite == "all" {
		specs = append(specs,
			benchSpec{"agents/serial", func() measurement {
				return benchAgents(ctx, *n, engine.AgentOptions{}, benchProbe, *budget)
			}},
			benchSpec{"agents/sharded", func() measurement {
				return benchAgents(ctx, *n, engine.AgentOptions{Shards: *shards}, benchProbe, *budget)
			}},
		)
		for _, ell := range ells {
			rule := protocol.Minority(ell)
			key := fmt.Sprintf("ell=%d", ell)
			specs = append(specs,
				benchSpec{"batch/uncached/" + key, func() measurement { return benchBatch(ctx, rule, *n, *replicas, false, *budget) }},
				benchSpec{"batch/cached/" + key, func() measurement { return benchBatch(ctx, rule, *n, *replicas, true, *budget) }},
			)
		}
	}
	for _, s := range specs {
		if ctx.Err() != nil {
			rec.Interrupted = true
			break
		}
		rec.Benchmarks[s.key] = s.bench()
	}

	// Derived ratios, from whichever pairs completed.
	if serial, ok := rec.Benchmarks["agents/serial"]; ok {
		if sharded, ok := rec.Benchmarks["agents/sharded"]; ok {
			rec.ShardSpeedup = serial.NsPerOp / sharded.NsPerOp
		}
	}
	if literal, ok := rec.Benchmarks["agents/literal"]; ok {
		if packed, ok := rec.Benchmarks["agents/packed"]; ok {
			rec.PackSpeedup = literal.NsPerOp / packed.NsPerOp
		}
		if agg, ok := rec.Benchmarks["agents/aggregated"]; ok {
			rec.AggSpeedup = literal.NsPerOp / agg.NsPerOp
		}
	}
	for _, ell := range ells {
		key := fmt.Sprintf("ell=%d", ell)
		uncached, okU := rec.Benchmarks["batch/uncached/"+key]
		cached, okC := rec.Benchmarks["batch/cached/"+key]
		if okU && okC {
			rec.CacheSpeedup[key] = uncached.NsPerOp / cached.NsPerOp
		}
	}

	if err := flushRecord(w, *out, rec, ells); err != nil {
		return err
	}
	if rec.Interrupted {
		return fmt.Errorf("interrupted after %d of %d benchmarks (partial record flushed): %w",
			len(rec.Benchmarks), len(specs), ctx.Err())
	}
	return nil
}

// benchSpec is one keyed benchmark in the run sequence.
type benchSpec struct {
	key   string
	bench func() measurement
}

// parseCSVInt64s splits a comma-separated list of positive integers.
func parseCSVInt64s(spec string) ([]int64, error) {
	var out []int64
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad list entry %q (want a positive integer)", field)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", spec)
	}
	return out, nil
}

// defaultScaleProcs is the GOMAXPROCS axis when -scale-procs is empty:
// powers of two up to NumCPU, plus NumCPU itself.
func defaultScaleProcs() []int64 {
	ncpu := int64(runtime.NumCPU())
	var out []int64
	for p := int64(1); p < ncpu; p *= 2 {
		out = append(out, p)
	}
	return append(out, ncpu)
}

// packedScaleSpecs builds the GOMAXPROCS × n × shards benchmark matrix of
// the packed-scale suite. Each cell pins GOMAXPROCS before timing (the
// recorded key carries the value, so one record can hold the whole sweep).
// Shard counts a population cannot satisfy (a shard must own at least one
// whole bitset word) are skipped, and populations at or above the packed
// engine's 2³² index-sampling gate run the chunked variant only — the
// packed variant would be silently routed there anyway.
func packedScaleSpecs(ctx context.Context, procsCSV, nsCSV, shardsCSV string, budget time.Duration) ([]benchSpec, error) {
	procs := defaultScaleProcs()
	if procsCSV != "" {
		var err error
		if procs, err = parseCSVInt64s(procsCSV); err != nil {
			return nil, fmt.Errorf("-scale-procs: %w", err)
		}
	}
	ns, err := parseCSVInt64s(nsCSV)
	if err != nil {
		return nil, fmt.Errorf("-scale-ns: %w", err)
	}
	for _, n := range ns {
		if n < 4 {
			return nil, fmt.Errorf("-scale-ns: population %d too small", n)
		}
	}
	shardAxis := []int64{1, int64(runtime.NumCPU())}
	if shardsCSV != "" {
		if shardAxis, err = parseCSVInt64s(shardsCSV); err != nil {
			return nil, fmt.Errorf("-scale-shards: %w", err)
		}
	}

	var specs []benchSpec
	for _, p := range procs {
		for _, n := range ns {
			variants := []struct {
				name string
				opts engine.AgentOptions
			}{
				{"packed", engine.AgentOptions{}},
				{"chunked", engine.AgentOptions{Chunked: true}},
			}
			if n > int64(math.MaxUint32) {
				variants = variants[1:]
			}
			for _, s := range shardAxis {
				if s > int64(engine.MaxPackedShards(n)) {
					continue
				}
				for _, v := range variants {
					p, n, s, opts := int(p), n, int(s), v.opts
					opts.Shards = s
					key := fmt.Sprintf("packed-scale/%s/p=%d/shards=%d/n=%d", v.name, p, s, n)
					specs = append(specs, benchSpec{key, func() measurement {
						runtime.GOMAXPROCS(p)
						return benchScaleCell(ctx, n, opts, budget)
					}})
				}
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("packed-scale matrix is empty (every shard count exceeds n/64 words?)")
	}
	return specs, nil
}

// benchScaleCell times one packed-scale matrix cell — the two-round
// Minority(3) instance of benchAgents — and derives the agent-rounds/sec
// throughput from it.
func benchScaleCell(ctx context.Context, n int64, opts engine.AgentOptions, budget time.Duration) measurement {
	cfg := engine.Config{
		N:         n,
		Rule:      protocol.Minority(3),
		Z:         1,
		X0:        n / 2,
		MaxRounds: 2,
	}
	g := rng.New(1)
	var rounds int64
	m := timeIt(ctx, budget, func(iters int) {
		for i := 0; i < iters; i++ {
			res, err := engine.RunAgents(cfg, opts, g)
			if err != nil {
				panic(err)
			}
			rounds = res.Rounds
		}
	})
	if m.NsPerOp > 0 {
		m.AgentRoundsPerSec = float64(n) * float64(rounds) / m.NsPerOp * 1e9
	}
	return m
}

// fabricScaleSpecs builds the workers × partitions matrix of the
// fabric-scale suite: each cell stands up an in-process lease board
// (the same fabric.Board the HTTP coordinator serves), lets W worker
// goroutines pull, compute and complete partitions of the sweep, and
// times the whole lease-compute-merge cycle. The first cell's merged
// bytes become the reference every later cell must match — the suite
// measures throughput only over runs it can prove correct.
func fabricScaleSpecs(ctx context.Context, workersCSV string, partitions int, expsCSV string) ([]benchSpec, error) {
	workerAxis, err := parseCSVInt64s(workersCSV)
	if err != nil {
		return nil, fmt.Errorf("-fabric-workers: %w", err)
	}
	if partitions < 1 {
		return nil, fmt.Errorf("-fabric-partitions: %d partitions", partitions)
	}
	spec := fabric.SweepSpec{Exps: strings.Split(expsCSV, ","), Seed: 2024, Quick: true, SimWorkers: 1}
	if _, err := spec.Experiments(); err != nil {
		return nil, fmt.Errorf("-fabric-exp: %w", err)
	}
	var refMerged []byte // cells run sequentially; the first one sets it
	var specs []benchSpec
	for _, w := range workerAxis {
		w := int(w)
		key := fmt.Sprintf("fabric-scale/workers=%d/parts=%d", w, partitions)
		specs = append(specs, benchSpec{key, func() measurement {
			m, merged := benchFabricCell(ctx, spec, w, partitions)
			if ctx.Err() != nil {
				return m
			}
			if refMerged == nil {
				refMerged = merged
			} else if !bytes.Equal(merged, refMerged) {
				panic(fmt.Sprintf("fabric-scale %s: merged journal differs from the first cell's — the fabric lost byte identity", key))
			}
			return m
		}})
	}
	return specs, nil
}

// benchFabricCell runs one distributed sweep with w worker goroutines
// over an in-process lease board and returns the timing plus the merged
// journal bytes. Long-TTL leases keep expiry re-issue out of the
// measurement; steals still happen whenever workers outnumber the
// remaining partitions, and are reported.
func benchFabricCell(ctx context.Context, spec fabric.SweepSpec, w, partitions int) (measurement, []byte) {
	board, err := fabric.NewBoard(partitions, time.Hour)
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "bitbench-fabric-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	var (
		mu      sync.Mutex // board and shard-path bookkeeping
		paths   []string
		wg      sync.WaitGroup
		workErr error
	)
	fail := func(err error) {
		mu.Lock()
		if workErr == nil {
			workErr = err
		}
		mu.Unlock()
	}
	start := time.Now() //bitlint:wallclock benchmark timing measures the host, not the simulation
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", i)
			for ctx.Err() == nil {
				mu.Lock()
				//bitlint:wallclock lease bookkeeping is bench harness state; simulation results never read it
				status, lease := board.Acquire(name, time.Now())
				mu.Unlock()
				switch status {
				case fabric.Granted:
					path := filepath.Join(dir, fmt.Sprintf("%s-shard-%d.jsonl", name, lease.Shard.Index))
					if _, err := fabric.RunShard(ctx, spec, lease.Shard, path, false, nil); err != nil {
						if ctx.Err() == nil {
							fail(fmt.Errorf("worker %s shard %s: %w", name, lease.Shard, err))
						}
						return
					}
					mu.Lock()
					paths = append(paths, path)
					_, _, cerr := board.Complete(lease.ID)
					mu.Unlock()
					if cerr != nil {
						fail(fmt.Errorf("worker %s complete %s: %w", name, lease.ID, cerr))
						return
					}
				case fabric.Wait:
					time.Sleep(time.Millisecond)
				default: // Drained
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if workErr != nil {
		panic(workErr)
	}
	if ctx.Err() != nil {
		return measurement{}, nil
	}

	srcs := make([]sim.MergeSource, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			panic(err)
		}
		srcs[i] = sim.MergeSource{Name: filepath.Base(p), Data: data}
	}
	var merged bytes.Buffer
	stats, err := sim.MergeJournals(&merged, srcs)
	if err != nil {
		panic(fmt.Errorf("fabric-scale merge: %w", err))
	}
	wall := time.Since(start) //bitlint:wallclock benchmark timing measures the host, not the simulation
	m := measurement{
		NsPerOp: float64(wall.Nanoseconds()) / float64(stats.Entries),
		Ops:     int64(stats.Entries),
		Steals:  int64(board.Stats().Steals),
	}
	if wall > 0 {
		m.TasksPerSec = float64(stats.Entries) / wall.Seconds()
	}
	return m, merged.Bytes()
}

// flushRecord appends the record to the trajectory file (or stdout) and
// prints the human summary.
func flushRecord(w io.Writer, out string, rec record, ells []int) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if out == "-" {
		fmt.Fprintln(w, string(line))
		return nil
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, string(line)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "appended %d benchmarks to %s (gomaxprocs %d", len(rec.Benchmarks), out, rec.GoMaxProcs)
	if rec.PackSpeedup > 0 {
		fmt.Fprintf(w, ", packed %.2fx", rec.PackSpeedup)
	}
	if rec.AggSpeedup > 0 {
		fmt.Fprintf(w, ", aggregated %.1fx", rec.AggSpeedup)
	}
	for _, jobs := range []int{1, 2} {
		if m, ok := rec.Benchmarks[fmt.Sprintf("probe-overhead/jobs=%d", jobs)]; ok {
			fmt.Fprintf(w, ", probed/plain at %d jobs %.3f", jobs, m.ProbeRatio)
		}
	}
	if rec.ShardSpeedup > 0 {
		fmt.Fprintf(w, ", shard %.2fx", rec.ShardSpeedup)
		for _, ell := range ells {
			key := fmt.Sprintf("ell=%d", ell)
			if v, ok := rec.CacheSpeedup[key]; ok {
				fmt.Fprintf(w, ", cache %s %.2fx", key, v)
			}
		}
	}
	fmt.Fprintln(w, ")")
	return nil
}

// timeIt runs f(iters) in growing batches until the cumulative wall time
// reaches the budget or ctx ends, then reports the amortized
// per-iteration cost. A cancelled window is shorter but still a valid
// amortized measurement.
func timeIt(ctx context.Context, budget time.Duration, f func(iters int)) measurement {
	var (
		total time.Duration
		ops   int64
		batch = 1
	)
	for total < budget {
		start := time.Now() //bitlint:wallclock benchmark timing measures the host, not the simulation
		f(batch)
		total += time.Since(start) //bitlint:wallclock benchmark timing measures the host, not the simulation
		ops += int64(batch)
		if ctx.Err() != nil {
			break
		}
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return measurement{NsPerOp: float64(total.Nanoseconds()) / float64(ops), Ops: ops}
}

// benchAgents times full two-round agent-engine runs at ℓ = 3, the
// configuration of the repo's BenchmarkRunAgents acceptance target. A
// non-nil probe measures the instrumented hot path (-metrics).
func benchAgents(ctx context.Context, n int64, opts engine.AgentOptions, probe engine.Probe, budget time.Duration) measurement {
	cfg := engine.Config{
		N:         n,
		Rule:      protocol.Minority(3),
		Z:         1,
		X0:        n / 2,
		MaxRounds: 2,
		Probe:     probe,
	}
	g := rng.New(1)
	return timeIt(ctx, budget, func(iters int) {
		for i := 0; i < iters; i++ {
			if _, err := engine.RunAgents(cfg, opts, g); err != nil {
				panic(err)
			}
		}
	})
}

// benchAggregated times the aggregated opinion-class engine on the same
// two-round instance as benchAgents, so agg_speedup is apples-to-apples
// against agents/literal.
func benchAggregated(ctx context.Context, n int64, probe engine.Probe, budget time.Duration) measurement {
	cfg := engine.Config{
		N:         n,
		Rule:      protocol.Minority(3),
		Z:         1,
		X0:        n / 2,
		MaxRounds: 2,
		Probe:     probe,
	}
	g := rng.New(1)
	return timeIt(ctx, budget, func(iters int) {
		for i := 0; i < iters; i++ {
			if _, err := engine.RunAggregated(cfg, g); err != nil {
				panic(err)
			}
		}
	})
}

// benchBatch times one replica-round of the count engine over a batch,
// with or without the adopt-probability cache. Replicas that absorb are
// re-seeded at n/2 so the batch stays in the band where Eq. 4 is
// evaluated.
func benchBatch(ctx context.Context, rule *protocol.Rule, n int64, replicas int, cached bool, budget time.Duration) measurement {
	const z = 1
	xs := make([]int64, replicas)
	gs := make([]*rng.RNG, replicas)
	master := rng.New(7)
	for i := range xs {
		xs[i] = n / 2
		gs[i] = rng.New(master.Uint64())
	}
	var cache *protocol.AdoptCache
	if cached {
		cache = protocol.NewAdoptCache(rule, n)
	}
	m := timeIt(ctx, budget, func(iters int) {
		for i := 0; i < iters; i++ {
			if cached {
				engine.StepCountBatch(cache, z, xs, gs)
			} else {
				for r := range xs {
					xs[r] = engine.StepCount(rule, n, z, xs[r], gs[r])
				}
			}
			for r := range xs {
				if xs[r] <= 1 || xs[r] >= n-1 {
					xs[r] = n / 2
				}
			}
		}
	})
	// Report per replica-round, matching BenchmarkStepCountBatch.
	m.NsPerOp /= float64(replicas)
	m.Ops *= int64(replicas)
	return m
}

// The probe-overhead suite's job is e2ebench's voter-long: Voter ℓ=1
// from one informed agent at n=4096, 100 replicas on one sim worker, as
// bitspreadd serves it.
const (
	voterLongN        = 4096
	voterLongReplicas = 100
	// minProbePairs is how many plain/probed pairs a probe-overhead cell
	// runs however small the budget.
	minProbePairs = 5
)

// benchProbeOverhead times `jobs` concurrent voter-long jobs through
// sim.RunContext with the probe off and on — the standard obs.Metrics,
// as bitspreadd, bitsweep and the e2ebench ladder attach it. Each pair
// runs the plain and the probed pass on the same seeds, in alternating
// order, and pairs repeat until the budget is spent (at least
// minProbePairs). The ratio is the median of the pairs' probed/plain
// wall times. It panics if a pair's Results differ or the probe's round
// total is not the probed pass's Σ Result.Rounds.
func benchProbeOverhead(ctx context.Context, n int64, replicas, jobs int, budget time.Duration) measurement {
	probe := obs.NewMetrics(obs.NewRegistry())
	master := rng.New(11)
	pass := func(seeds []uint64, p engine.Probe) (time.Duration, []engine.Result) {
		outs := make([][]engine.Result, len(seeds))
		var wg sync.WaitGroup
		start := time.Now() //bitlint:wallclock benchmark timing measures the host, not the simulation
		for j, seed := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				task := sim.Task{
					Name:     "voter-long",
					Config:   engine.Config{N: n, Rule: protocol.Voter(1), Z: 1, X0: 1, Probe: p},
					Mode:     sim.Parallel,
					Replicas: replicas,
					Seed:     seed,
				}
				out, err := sim.RunContext(ctx, task, 1, nil)
				if err != nil && ctx.Err() == nil {
					panic(err)
				}
				outs[j] = out.Results
			}()
		}
		wg.Wait()
		wall := time.Since(start) //bitlint:wallclock benchmark timing measures the host, not the simulation
		results := make([]engine.Result, 0, len(seeds)*replicas)
		for _, o := range outs {
			results = append(results, o...)
		}
		return wall, results
	}

	var (
		plainWall time.Duration
		rounds    int64
		ratios    []float64
		elapsed   time.Duration
	)
	for pair := 0; pair < minProbePairs || elapsed < budget; pair++ {
		seeds := make([]uint64, jobs)
		for j := range seeds {
			seeds[j] = master.Uint64()
		}
		before := probe.Rounds.Value()
		var tPlain, tProbed time.Duration
		var plain, probed []engine.Result
		if pair%2 == 0 {
			tPlain, plain = pass(seeds, nil)
			tProbed, probed = pass(seeds, probe)
		} else {
			tProbed, probed = pass(seeds, probe)
			tPlain, plain = pass(seeds, nil)
		}
		if ctx.Err() != nil {
			break
		}
		var sum int64
		for i := range plain {
			if plain[i] != probed[i] {
				panic(fmt.Sprintf("probe-overhead: replica %d differs with the probe attached: %+v vs %+v", i, plain[i], probed[i]))
			}
			sum += plain[i].Rounds
		}
		if got := probe.Rounds.Value() - before; got != sum {
			panic(fmt.Sprintf("probe-overhead: probe counted %d rounds, the Results %d", got, sum))
		}
		plainWall += tPlain
		rounds += sum
		ratios = append(ratios, tProbed.Seconds()/tPlain.Seconds())
		elapsed += tPlain + tProbed
	}
	if len(ratios) == 0 {
		return measurement{}
	}
	sort.Float64s(ratios)
	return measurement{
		NsPerOp:    float64(plainWall.Nanoseconds()) / float64(rounds),
		Ops:        rounds,
		ProbeRatio: median(ratios),
		Pairs:      len(ratios),
	}
}

// median of a sorted, non-empty slice.
func median(xs []float64) float64 {
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
