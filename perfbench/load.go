package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client talks to one viewserverd over at most conns keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 15 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON body into out (nil skips).
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		// A refusal (429), a server error (5xx) or a rejected request
		// (4xx): every one counts as failed.
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// liveHeapMB has the server collect garbage (the heap profile's gc=1) and
// returns its live heap, memstats.HeapAlloc from /debug/vars, in MB. It
// collects twice: what sync.Pools hold survives one collection.
func (c *client) liveHeapMB(ctx context.Context) (float64, error) {
	for range 2 {
		if err := c.do(ctx, http.MethodGet, "/debug/pprof/heap?gc=1", nil, nil); err != nil {
			return 0, err
		}
	}
	var v struct {
		Memstats struct{ HeapAlloc uint64 } `json:"memstats"`
	}
	if err := c.do(ctx, http.MethodGet, "/debug/vars", nil, &v); err != nil {
		return 0, err
	}
	return float64(v.Memstats.HeapAlloc) / (1 << 20), nil
}

type pair struct {
	Query string `json:"query"`
	View  string `json:"view"`
}

type estimateResp struct {
	Estimates    []float64 `json:"estimates"`
	Count        int       `json:"count"`
	ModelVersion int64     `json:"model_version"`
}

// estimate posts pairs to /v1/estimate and checks the response: one
// finite estimate per pair sent. Estimates are not checked for sign: the
// W-D output head is unclamped and the service promises no sign, so
// negative estimates are counted (negativeEstimates) rather than failed.
func (c *client) estimate(ctx context.Context, pairs []pair) (*estimateResp, error) {
	body, err := json.Marshal(map[string][]pair{"pairs": pairs})
	if err != nil {
		return nil, err
	}
	var r estimateResp
	if err := c.do(ctx, http.MethodPost, "/v1/estimate", body, &r); err != nil {
		return nil, err
	}
	if r.Count != len(pairs) || len(r.Estimates) != len(pairs) {
		return nil, fmt.Errorf("check: sent %d pairs, got count %d with %d estimates", len(pairs), r.Count, len(r.Estimates))
	}
	for i, v := range r.Estimates {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("check: estimate %d is %v, want finite", i, v)
		}
		if v < 0 {
			negativeEstimates.Add(1)
		}
	}
	estimatesSeen.Add(int64(len(r.Estimates)))
	return &r, nil
}

// estimatesSeen and negativeEstimates count the estimates a run received
// and how many of them were below zero.
var estimatesSeen, negativeEstimates atomic.Int64

type view struct {
	SQL string `json:"sql"`
}

type viewsResp struct {
	Version int64  `json:"version"`
	Views   []view `json:"views"`
}

func (c *client) views(ctx context.Context) (*viewsResp, error) {
	var r viewsResp
	if err := c.do(ctx, http.MethodGet, "/v1/views", nil, &r); err != nil {
		return nil, err
	}
	if len(r.Views) == 0 {
		return nil, fmt.Errorf("check: /v1/views lists no views")
	}
	return &r, nil
}

// versionGuard checks that the model versions one connection sees never
// go backwards.
type versionGuard struct{ last int64 }

func (g *versionGuard) see(v int64) error {
	if v < g.last {
		return fmt.Errorf("check: model_version went back from %d to %d", g.last, v)
	}
	g.last = v
	return nil
}

// opFunc performs operation i on connection worker and returns the work
// units it completed (pairs, queries).
type opFunc func(ctx context.Context, worker, i int) (units int, err error)

// tally counts operations attempted and failed, keeping the first few
// failure messages for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) merge(o *tally) {
	o.mu.Lock()
	a, f, errs := o.attempted, o.failed, append([]string(nil), o.errs...)
	o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += a
	t.failed += f
	for _, e := range errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

const closedWindow = 100 * time.Millisecond

// closedLoop runs conns workers that each issue op back to back for d,
// and returns the work units completed per second in each window of
// closedWindow, so a transient stall moves one window, not the result.
func closedLoop(ctx context.Context, conns int, d time.Duration, t *tally, op opFunc) []float64 {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	counts := make([]atomic.Int64, int(d/closedWindow))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				n, err := op(ctx, w, i)
				if ctx.Err() != nil && err != nil {
					return // cut by the end of the phase, not a failure
				}
				t.add(err)
				if win := int(time.Since(start) / closedWindow); err == nil && win < len(counts) {
					counts[win].Add(int64(n))
				}
			}
		}(w)
	}
	wg.Wait()
	rates := make([]float64, len(counts))
	for i := range counts {
		rates[i] = float64(counts[i].Load()) / closedWindow.Seconds()
	}
	return rates
}

// openResult is what an open-loop phase measured.
type openResult struct {
	latMs     []float64 // per request, from when it was due; +Inf if it failed
	lateMs    []float64 // how late the generator handed each request out
	backlog   int       // requests due but not yet started when the schedule ended
	scheduled int
}

// openLoop issues requests on a fixed-rate schedule for d over conns
// connections. Each latency is timed from the request's due time, so a
// stall also charges the requests that queued behind it.
func openLoop(ctx context.Context, rate float64, d time.Duration, conns int, t *tally, op opFunc) openResult {
	sched := newSchedule(time.Now(), rate, d)
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, sched.n) // sized to the schedule: the generator never blocks
	res := openResult{latMs: make([]float64, sched.n), lateMs: make([]float64, sched.n), scheduled: sched.n}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				_, err := op(ctx, w, j.i)
				t.add(err)
				if err != nil {
					res.latMs[j.i] = math.Inf(1)
					continue
				}
				res.latMs[j.i] = ms(time.Since(j.due))
			}
		}(w)
	}
	for i := 0; i < sched.n && ctx.Err() == nil; i++ {
		due := sched.due(i)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.lateMs[i] = ms(time.Since(due))
		jobs <- job{i: i, due: due}
	}
	res.backlog = len(jobs)
	close(jobs)
	wg.Wait()
	return res
}

// Generator honesty bounds: a run whose generator ran later than
// maxLateMs at p99, or whose backlog at the end of the schedule exceeds
// maxBacklogShare of the requests scheduled, measured the generator or
// an overload rather than the rate it claims, and is flagged.
const (
	maxLateMs       = 20.0
	maxBacklogShare = 0.01
)

// honest checks an open-loop result against the generator bounds.
func (r openResult) honest() error {
	late, _ := percentile(r.lateMs, 99)
	if late > maxLateMs {
		return fmt.Errorf("check: generator ran %.1f ms late at p99 (bound %.0f ms)", late, maxLateMs)
	}
	if bound := int(maxBacklogShare*float64(r.scheduled)) + 1; r.backlog > bound {
		return fmt.Errorf("check: backlog of %d requests at the end of the schedule (bound %d): the rate exceeds what the server sustains", r.backlog, bound)
	}
	return nil
}
