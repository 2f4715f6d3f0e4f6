package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bitspread/internal/serve"
)

// pollInterval is the polled workloads' status period: small next to
// their hundreds-of-milliseconds jobs, large next to a status request.
const pollInterval = 10 * time.Millisecond

// clients is the closed-loop client count, matching the daemon's two
// workers.
const clients = 2

// roundEvent prefixes a per-round line of the NDJSON event stream.
var roundEvent = []byte(`{"type":"round"`)

// jobRecord is one submission's outcome as the client saw it.
type jobRecord struct {
	ok      bool
	id      string
	latency time.Duration
	hash    [32]byte
	// body is kept only for jobs the correctness gate recomputes.
	body      []byte
	replicas  int
	converged int
	rounds    int64
	updates   int64
	polls     int
	events    int
	dropped   int64
}

// client drives the job API.
type client struct {
	hc    *http.Client
	base  string
	watch bool
	rep   *report
	tr    *tracer // nil: untraced
}

// drive runs specs through the daemon from two closed-loop clients that
// share one cursor over the list, stopping early at deadline. keep says
// which jobs' result bytes to retain. It returns one record per spec (ok
// unset for a job that failed or never started), the wall time from the
// first submit to the last result, and whether the deadline cut the list
// short.
func (c *client) drive(ctx context.Context, specs []serve.JobSpec, keep func(int) bool, deadline time.Time) ([]jobRecord, time.Duration, bool) {
	recs := make([]jobRecord, len(specs))
	var cursor atomic.Int64
	var truncated atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(specs) || ctx.Err() != nil {
					return
				}
				if time.Now().After(deadline) {
					truncated.Store(true)
					return
				}
				recs[i] = c.job(ctx, i, specs[i], keep(i))
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(t0), truncated.Load()
}

// job submits one spec, waits for its end (event stream or polling) and
// fetches the result bytes. Every failure is counted in its phase.
func (c *client) job(ctx context.Context, i int, spec serve.JobSpec, keep bool) jobRecord {
	var rec jobRecord
	t0 := time.Now()
	trace := strconv.Itoa(i)
	root := c.tr.reserve("job", trace, 0, t0)
	defer func() { c.tr.finish(root, time.Now()) }()

	body, _ := json.Marshal(spec)
	var st serve.JobStatus
	code, err := c.call(ctx, http.MethodPost, "/v1/jobs", body, &st, nil)
	if err == nil && code != http.StatusAccepted && code != http.StatusOK {
		err = fmt.Errorf("POST /v1/jobs: status %d", code)
	}
	accepted := time.Now()
	c.tr.add("submit", trace, root, t0, accepted)
	c.rep.op("submit", err)
	if err != nil {
		return rec
	}
	rec.id = st.ID

	if st.State != "done" {
		ws := time.Now()
		wait := c.tr.reserve("wait", trace, root, ws)
		var state string
		if c.watch {
			state, err = c.watchEvents(ctx, st.ID, trace, wait, accepted, &rec)
		} else {
			state, err = c.poll(ctx, st.ID, &rec)
		}
		c.tr.finish(wait, time.Now())
		if err == nil && state != "done" {
			err = fmt.Errorf("job %s ended %s", st.ID, state)
		}
		c.rep.op("wait", err)
		if err != nil {
			return rec
		}
	}

	rs := time.Now()
	var payload []byte
	code, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, nil, &payload)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET result %s: status %d", st.ID, code)
	}
	var res serve.JobResult
	if err == nil {
		err = json.Unmarshal(payload, &res)
	}
	end := time.Now()
	c.tr.add("result", trace, root, rs, end)
	c.rep.op("result", err)
	if err != nil {
		return rec
	}
	rec.ok = true
	rec.latency = end.Sub(t0)
	rec.hash = sha256.Sum256(payload)
	if keep {
		rec.body = payload
	}
	rec.replicas, rec.converged = res.Replicas, res.Converged
	for _, r := range res.Results {
		rec.rounds += r.Rounds
		rec.updates += r.Activations
	}
	return rec
}

// watchEvents follows the job's NDJSON event stream to its job_done
// line. Traced, it turns event arrival times into job-phase spans: queue
// wait (202 until the first replica_start), run (until the last
// replica_done) and publish (until job_done). A job that started before
// the stream opened yields only the spans whose events arrived.
func (c *client) watchEvents(ctx context.Context, id, trace string, parent int64, accepted time.Time, rec *jobRecord) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET events %s: status %d", id, resp.StatusCode)
	}
	var firstStart, lastDone time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rec.events++
		if bytes.HasPrefix(sc.Bytes(), roundEvent) {
			// Round events are most of the stream and carry nothing the
			// client waits for; skipping their decode keeps the client's
			// share of the two cores small.
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("event stream %s: %w", id, err)
		}
		now := time.Now()
		switch ev.Type {
		case "replica_start":
			if firstStart.IsZero() {
				firstStart = now
			}
		case "replica_done":
			lastDone = now
		case "job_done":
			rec.dropped = ev.Dropped
			if !firstStart.IsZero() {
				c.tr.add("queue_wait", trace, parent, accepted, firstStart)
				if !lastDone.IsZero() {
					c.tr.add("run", trace, parent, firstStart, lastDone)
				}
			}
			if !lastDone.IsZero() {
				c.tr.add("publish", trace, parent, lastDone, now)
			}
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("event stream %s: %w", id, err)
	}
	return "", fmt.Errorf("event stream %s ended without job_done", id)
}

// poll reads the job status every pollInterval until it is terminal.
func (c *client) poll(ctx context.Context, id string, rec *jobRecord) (string, error) {
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-tick.C:
		}
		var st serve.JobStatus
		code, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st, nil)
		rec.polls++
		if err != nil {
			return "", err
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("GET status %s: %d", id, code)
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st.State, nil
		}
	}
}

// call performs one request, decoding a JSON body into out or copying
// the raw body into raw.
func (c *client) call(ctx context.Context, method, path string, body []byte, out any, raw *[]byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	if raw != nil {
		*raw = data
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, errors.Join(fmt.Errorf("%s %s: decoding", method, path), err)
		}
	}
	return resp.StatusCode, nil
}
