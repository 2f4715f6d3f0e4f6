package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"bitspread/internal/serve"
)

// daemon is an in-process bitspreadd: serve.New behind a real loopback
// HTTP listener.
type daemon struct {
	srv  *serve.Server
	http *httptest.Server
	url  string
}

// startDaemon opens (or reopens) a daemon on dataDir with server
// defaults and returns once /readyz answers 200, with the time that took.
func startDaemon(ctx context.Context, hc *http.Client, dataDir string, fab *serve.FabricOptions) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Options{DataDir: dataDir, Fabric: fab})
	if err != nil {
		return nil, 0, fmt.Errorf("serve.New: %w", err)
	}
	d := &daemon{srv: srv, http: httptest.NewServer(srv.Handler())}
	d.url = d.http.URL
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if ctx.Err() != nil {
			d.stop()
			return nil, 0, fmt.Errorf("daemon never became ready: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener, then drains the pool and releases the
// daemon's files.
func (d *daemon) stop() {
	d.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx) // a drain cut short leaves resumable work, which no caller needs
}

// setupRounds is how many times a run brings a daemon up on a fresh
// DataDir; setup_s is their median.
const setupRounds = 31

// A run reopens the finished DataDir at least minRestarts times, and
// more while the reopens total under restartBudget (at most maxRestarts);
// restart_s is their median.
const (
	minRestarts   = 9
	maxRestarts   = 201
	restartBudget = 2 * time.Second
)

// setUp starts setupRounds daemons on fresh data directories, keeps the
// last one running and reports the median start-to-ready time.
func setUp(ctx context.Context, hc *http.Client, rep *report, dir string, fab func() *serve.FabricOptions) (*daemon, string, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		dataDir := fmt.Sprintf("%s/data-%d", dir, i)
		d, took, err := startDaemon(ctx, hc, dataDir, fab())
		rep.op("setup", err)
		if err != nil {
			return nil, "", err
		}
		times = append(times, took)
		if i == setupRounds-1 {
			rep.e2e("setup_s", medianSeconds(times), "s", len(times))
			return d, dataDir, nil
		}
		d.stop()
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, "", err
		}
	}
}

// restart reopens a stopped daemon's DataDir repeatedly — job log and
// journal replay, cache and shard reload — and reports the median time
// until the reopened daemon is ready and serveAgain has fetched (and
// checked) results it served before the restart.
func restart(ctx context.Context, hc *http.Client, rep *report, dataDir string, fab *serve.FabricOptions, serveAgain func(*daemon)) {
	var times []time.Duration
	var total time.Duration
	for len(times) < minRestarts || (total < restartBudget && len(times) < maxRestarts) {
		t0 := time.Now()
		d, _, err := startDaemon(ctx, hc, dataDir, fab)
		rep.op("restart", err)
		if err != nil {
			return
		}
		serveAgain(d)
		took := time.Since(t0)
		d.stop()
		times = append(times, took)
		total += took
	}
	rep.e2e("restart_s", medianSeconds(times), "s", len(times))
}

// scrapeMetrics reads the daemon's /metrics counters and gauges.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// newHTTPClient is the clients' transport: keep-alive connections for
// both client goroutines and any concurrent event stream.
func newHTTPClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
	}
	return &http.Client{Transport: rt, Timeout: 2 * time.Minute}
}

// runtimeProbe samples the Go runtime over the timed phase: the peak of
// the live heap (the bytes each collection marked reachable, which does
// not swing with collection timing as in-use bytes do), and allocation
// and GC-CPU deltas.
type runtimeProbe struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64

	allocs0, gc0, cpu0 float64
	allocs, gcCPU      float64
}

var runtimeSamples = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() (allocs, gc, cpu float64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// heapSamplePeriod is how often the probe reads the heap size.
const heapSamplePeriod = 10 * time.Millisecond

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{})}
	p.allocs0, p.gc0, p.cpu0 = readRuntime()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops sampling and fixes the deltas.
func (p *runtimeProbe) finish() {
	close(p.stop)
	p.done.Wait()
	allocs, gc, cpu := readRuntime()
	p.allocs = allocs - p.allocs0
	// The runtime refreshes its CPU-class estimates at each GC, so the
	// fraction is only as fine as the collections in the window.
	if d := cpu - p.cpu0; d > 0 {
		p.gcCPU = (gc - p.gc0) / d
	}
}

func (p *runtimeProbe) peakMB() float64 { return float64(p.peak) / (1 << 20) }
