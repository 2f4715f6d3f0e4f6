package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bitspread_test_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("bitspread_test_total"); again != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("bitspread_test_gauge")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("whatever")
	g := r.Gauge("whatever")
	h := r.Histogram("whatever", LoadBuckets)
	c.Inc()
	c.Add(3)
	g.Set(9)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must observe nothing")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WriteText: %v", err)
	}

	m := NewMetrics(nil)
	m.RoundDone(1, 2, 3)
	m.FaultApplied(1)
	m.ShardRound(0, 4)
	var nilM *Metrics
	nilM.RoundDone(1, 2, 3)
	nilM.FaultApplied(1)
	nilM.ShardRound(0, 4)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bitspread_test_hist", []float64{1, 10, 100})
	for _, v := range []int64{0, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1024 {
		t.Errorf("sum = %d, want 1024", h.Sum())
	}
	want := []int64{2, 2, 1, 1} // le=1: {0,1}; le=10: {2,10}; le=100: {11}; +Inf: {1000}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("bitspread_b_total").Add(2)
	r.Counter("bitspread_a_total").Add(1)
	r.Gauge("bitspread_g").Set(5)
	h := r.Histogram("bitspread_h", []float64{1, 2})
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Counters are sorted, so a_total precedes b_total.
	if strings.Index(out, "bitspread_a_total 1") > strings.Index(out, "bitspread_b_total 2") {
		t.Errorf("counters not sorted:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE bitspread_a_total counter",
		"# TYPE bitspread_g gauge",
		"bitspread_g 5",
		"# TYPE bitspread_h histogram",
		`bitspread_h_bucket{le="1"} 1`,
		`bitspread_h_bucket{le="2"} 2`,
		`bitspread_h_bucket{le="+Inf"} 3`,
		"bitspread_h_sum 6",
		"bitspread_h_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestBadMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "with space", "7starts_with_digit", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestMetricsProbeFoldsEvents(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	m.RoundDone(1, 10, 100)
	m.RoundDone(2, 12, 90)
	m.FaultApplied(2)
	m.ShardRound(0, 45)
	m.ShardRound(1, 45)
	if m.Rounds.Value() != 2 {
		t.Errorf("rounds = %d", m.Rounds.Value())
	}
	if m.Activations.Value() != 190 {
		t.Errorf("activations = %d", m.Activations.Value())
	}
	if m.FaultRounds.Value() != 1 {
		t.Errorf("fault rounds = %d", m.FaultRounds.Value())
	}
	if m.Ones.Value() != 12 {
		t.Errorf("ones = %d", m.Ones.Value())
	}
	if m.ShardLoad.Count() != 2 || m.ShardLoad.Sum() != 90 {
		t.Errorf("shard load = %d/%d", m.ShardLoad.Count(), m.ShardLoad.Sum())
	}
}

// TestMetricsConcurrent exercises the atomic hot path under the race
// detector: one Metrics value shared by many goroutines, as sim shares
// it across replicas.
func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	var wg sync.WaitGroup
	const workers, rounds = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= rounds; i++ {
				m.RoundDone(i, i, 3)
				m.ShardRound(0, 3)
			}
		}()
	}
	wg.Wait()
	if m.Rounds.Value() != workers*rounds {
		t.Errorf("rounds = %d, want %d", m.Rounds.Value(), workers*rounds)
	}
	if m.Activations.Value() != workers*rounds*3 {
		t.Errorf("activations = %d", m.Activations.Value())
	}
}

// TestHotPathAllocationFree is the obs side of the overhead guard: the
// per-round probe path must not allocate, or sweeps with millions of
// rounds would thrash the GC.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	round := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		round++
		m.RoundDone(round, 42, 1000)
		m.FaultApplied(round)
		m.ShardRound(1, 500)
	})
	if allocs != 0 {
		t.Errorf("probe hot path allocates %.1f times per round, want 0", allocs)
	}
}

// A Local accumulator folded by Flush must leave the registry exactly as
// the same events sent straight to the shared Metrics do, bucket for
// bucket (the one-count gauge included: both end at the last round's).
func TestLocalFlushMatchesDirect(t *testing.T) {
	loads := []int64{0, 1, 16, 17, 255, 256, 4096, 1 << 20, 1<<32 - 1, 1 << 32, 1 << 40}
	feed := func(p interface {
		RoundDone(round, ones, sampled int64)
		FaultApplied(round int64)
		ShardRound(shard int, sampled int64)
	}) {
		for i, v := range loads {
			p.RoundDone(int64(i+1), v/2, v)
			if i%3 == 0 {
				p.FaultApplied(int64(i + 1))
			}
			p.ShardRound(i%2, v)
		}
	}
	direct, folded := NewRegistry(), NewRegistry()
	feed(NewMetrics(direct))
	l := NewMetrics(folded).Local()
	feed(l)
	var before strings.Builder
	if err := folded.WriteText(&before); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before.String(), "bitspread_rounds_total 0\n") {
		t.Fatalf("an unflushed accumulator published rounds:\n%s", before.String())
	}
	l.Flush()
	var want, got strings.Builder
	if err := direct.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if err := folded.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("flushed local differs from direct observation:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	// A second flush publishes nothing new.
	l.Flush()
	var again strings.Builder
	if err := folded.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != want.String() {
		t.Error("a repeated Flush published the same events twice")
	}
}

// A long replica keeps the shared totals live without any explicit
// Flush: every localFlushRounds rounds the accumulator flushes itself.
func TestLocalSelfFlushes(t *testing.T) {
	m := NewMetrics(NewRegistry())
	l := m.Local()
	for r := int64(1); r < localFlushRounds; r++ {
		l.RoundDone(r, 1, 3)
	}
	if got := m.Rounds.Value(); got != 0 {
		t.Fatalf("rounds = %d before the flush threshold, want 0", got)
	}
	l.RoundDone(localFlushRounds, 1, 3)
	if got := m.Rounds.Value(); got != localFlushRounds {
		t.Errorf("rounds = %d after %d RoundDone calls, want %d", got, localFlushRounds, localFlushRounds)
	}
	if got := m.Activations.Value(); got != 3*localFlushRounds {
		t.Errorf("activations = %d, want %d", got, 3*localFlushRounds)
	}
	if got := m.RoundLoad.Count(); got != localFlushRounds {
		t.Errorf("round histogram count = %d, want %d", got, localFlushRounds)
	}
}

func TestNilMetricsLocalIsNoOp(t *testing.T) {
	var m *Metrics
	l := m.Local()
	for r := int64(1); r <= localFlushRounds+1; r++ {
		l.RoundDone(r, 1, 2)
		l.FaultApplied(r)
		l.ShardRound(0, 2)
	}
	l.Flush()
}

func TestLocalHotPathAllocationFree(t *testing.T) {
	l := NewMetrics(NewRegistry()).Local()
	round := int64(0)
	allocs := testing.AllocsPerRun(10000, func() {
		round++
		l.RoundDone(round, 42, 1000)
		l.FaultApplied(round)
		l.ShardRound(1, 500)
	})
	if allocs != 0 {
		t.Errorf("local probe path allocates %.1f times per round, want 0", allocs)
	}
}
