package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"

	"bitspread/internal/serve"
)

// workload is one benchmark input mix; BENCHMARK.json says why each
// exists.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, rep *report) error
}

var workloads = []workload{
	{"jobs-churn", churn.run},
	{"voter-long", voterLong.run},
	{"agents-packed", agentsPacked.run},
	{"fabric-sweep", runFabric},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// serveWorkload is a closed-loop job mix driven through the daemon's job
// API by two clients, each submitting its next job only after the
// previous one's result bytes arrived.
type serveWorkload struct {
	// rate is the mix's closed-loop throughput in jobs/s on a 2-vCPU
	// host. The timed phase runs a fixed list of rate×seconds jobs, so a
	// seed fixes the work and deterministic counts repeat exactly.
	rate float64
	// watch makes clients wait on the event stream; otherwise they poll
	// the job status every pollInterval.
	watch bool
	// checkJobs is how many distinct jobs (a seeded sample) have their
	// Results recomputed by a direct sim.RunContext.
	checkJobs int
	// ladderDiv selects the ladder's input: the distinct specs among the
	// first jobs/ladderDiv of the list.
	ladderDiv int
	// next generates the next spec given the ones before it.
	next func(r *rand.Rand, prev []serve.JobSpec) serve.JobSpec
}

// minJobs keeps a tiny -seconds meaningful: both clients get work.
const minJobs = 4

var churn = serveWorkload{
	rate:      650,
	watch:     true,
	checkJobs: 400,
	ladderDiv: 4,
	next: func(r *rand.Rand, prev []serve.JobSpec) serve.JobSpec {
		// Repeats reach back at least repeatGap submissions, so with two
		// closed-loop clients the original has usually finished and the
		// repeat exercises the read path (dedup, or the disk cache once
		// the original was evicted from memory).
		const repeatGap = 4
		if len(prev) > 2*repeatGap && r.Float64() < 0.3 {
			return prev[r.IntN(len(prev)-repeatGap)]
		}
		n := 32 + r.Int64N(225)
		sp := serve.JobSpec{Name: "churn", N: n, Z: 1, X0: ptr(int64(1)), Rule: "voter", Ell: 1,
			Mode: "parallel", Replicas: 1 + r.IntN(8), Seed: r.Uint64()}
		if r.Float64() < 0.25 {
			// Minority with ℓ in the fast-converging large-ℓ regime.
			sp.Rule, sp.Ell = "minority", 40+r.IntN(25)
		}
		return sp
	},
}

var voterLong = serveWorkload{
	rate:      3.5,
	checkJobs: 2,
	ladderDiv: 6,
	next: func(r *rand.Rand, _ []serve.JobSpec) serve.JobSpec {
		return serve.JobSpec{Name: "voter-long", N: 4096, Z: 1, X0: ptr(int64(1)), Rule: "voter", Ell: 1,
			Mode: "parallel", Replicas: 100, Seed: r.Uint64()}
	},
}

// agentsPacked uses ℓ=128: above ℓ≈90 Minority at n=2¹⁶ escapes the
// worst-case start in 3 rounds on every seed, while at ℓ=55 the rounds
// per replica range over 6–214 and a run's fixed job list varies in
// total work by more than the bounds allow.
var agentsPacked = serveWorkload{
	rate:      6.5,
	checkJobs: 2,
	ladderDiv: 10,
	next: func(r *rand.Rand, _ []serve.JobSpec) serve.JobSpec {
		return serve.JobSpec{Name: "agents-packed", N: 1 << 16, Z: 1, X0: ptr(int64(1)), Rule: "minority", Ell: 128,
			Mode: "agents", Replicas: 2, Seed: r.Uint64()}
	},
}

func ptr[T any](v T) *T { return &v }

// generate builds the timed phase's job list from the seed alone and
// returns it with its SHA-256 digest (over the specs' JSON lines), so two
// runs can prove they received the same input.
func (sw serveWorkload) generate(seed uint64, seconds float64) ([]serve.JobSpec, string) {
	k := int(math.Ceil(sw.rate * seconds))
	if k < minJobs {
		k = minJobs
	}
	r := rand.New(rand.NewPCG(seed, 0xe2eb))
	specs := make([]serve.JobSpec, 0, k)
	h := sha256.New()
	for len(specs) < k {
		sp := sw.next(r, specs)
		specs = append(specs, sp)
		line, _ := json.Marshal(sp)
		h.Write(append(line, '\n'))
	}
	return specs, hex.EncodeToString(h.Sum(nil))
}
