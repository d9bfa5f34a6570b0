package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoview/internal/workload"
)

// Fixed load settings. The open-loop rates are absolute (README.md says
// how they were chosen), so a faster server shows as lower latency at the
// same offered load rather than as a higher rate.
const (
	pairsPerRequest = 4
	hotClosedPairs  = 32     // pairs per request in estimate-hot's closed loop
	coldRate        = 1200.0 // /v1/estimate requests per second, estimate-cold
	hotRate         = 12000.0
	hotPoolSize     = 512 // pairs: 1/8 of the default 4096-entry cache
	hotZipfS        = 1.1
	setupRuns       = 3
	closedShare     = 0.4 // share of the measured seconds run closed loop
	// Closed-loop throughput is the upper quartile of the window rates:
	// interference from outside the benchmark only ever takes throughput
	// away.
	closedPercentile = 75.0
	replayRequests   = 1000 // estimate requests kept for the traced replay

	// advise-churn ingests one query per request, fast enough that the
	// window turns over once per advise cycle (churnCycle, measured under
	// this load), so every cycle advises on queries the last one never
	// saw. Estimates alternate with ingests at the same rate.
	queriesPerIngest = 1
	churnCycle       = 4.0 // seconds
	churnRate        = 2 * windowCap / churnCycle / queriesPerIngest
)

// named is one reported quantity with its unit and sample count.
type named struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	tally  tally
	checks []string

	setups     []float64 // seconds, one per setup
	throughput named
	lat        summary // ms
	latNote    string
	mem        named     // MB, gated memory: the server's live heap, or viewgen's resident set
	rss        []float64 // MB, resident-set samples of the measured process
	peakRSS    []float64 // MB, rusage peak of the measured server or each viewgen run
	details    []named   // the workload's own named metrics, printed only

	replay replayInputs
}

func (o *outcome) check(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// endToEnd returns the end-to-end metrics every workload reports.
func (o *outcome) endToEnd() []named {
	return []named{
		{name: "setup_s", unit: "s", value: median(o.setups), n: len(o.setups), note: "median of the run's setups"},
		{name: "throughput_per_s", unit: "1/s", value: o.throughput.value, n: o.throughput.n, note: o.throughput.note},
		{name: "latency_p50_ms", unit: "ms", value: o.lat.P50, n: o.lat.N, note: o.latNote},
		{name: "latency_tail_ms", unit: "ms", value: o.lat.Tail, n: o.lat.N, note: o.lat.TailAt + " of " + o.latNote},
		{name: "mem_mb", unit: "MB", value: o.mem.value, n: o.mem.n, note: o.mem.note},
	}
}

// liveHeap sets the gated memory of a server workload: its live heap at
// the end of the load. Its resident set is not gated: it holds whatever
// the collector has not yet returned from setup, which varied by half
// from run to run while the live heap held within 0.1% (README.md).
func (o *outcome) liveHeap(ctx context.Context, cl *client) {
	mb, err := cl.liveHeapMB(ctx)
	if err != nil {
		o.check("live heap: %v", err)
		mb = math.NaN()
	}
	o.mem = named{value: mb, n: 1, note: "live heap of the server after a forced collection at the end of the load (memstats.HeapAlloc, /debug/vars)"}
}

func (o *outcome) print() {
	mem := []named{
		{name: "rss_median_mb", unit: "MB", value: median(o.rss), n: len(o.rss), note: "resident set of the measured process, median of /proc samples every 100 ms over the load"},
		{name: "peak_rss_mb", unit: "MB", value: median(o.peakRSS), n: len(o.peakRSS), note: "peak RSS from rusage of the measured server, or median over the viewgen runs"},
	}
	for _, m := range append(append(o.endToEnd(), mem...), o.details...) {
		fmt.Printf("%-24s %14.4f %-5s n=%-6d %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
	if n := estimatesSeen.Load(); n > 0 {
		fmt.Printf("%-24s %14.6f %-5s n=%-6d %s\n", "negative_estimate_share", ratio{float64(negativeEstimates.Load()), float64(n)}.Value(), "1",
			n, "estimates below zero, over estimates received")
	}
}

// counts returns the operations attempted and failed. A failed check
// counts as one failed operation.
func (o *outcome) counts() (attempted, failed int) {
	return o.tally.attempted + len(o.checks), o.tally.failed + len(o.checks)
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"estimate-cold": runCold,
	"estimate-hot":  runHot,
	"advise-churn":  runChurn,
	"viewgen-job":   runJob,
}

func (c config) bin(name string) string { return filepath.Join(c.binDir, name) }

// setupServers starts viewserverd setupRuns times, timing each start to
// ready, and keeps the last one running for the measured phase.
func setupServers(ctx context.Context, c config, o *outcome, extra func(i int) []string) (*server, error) {
	var srv *server
	for i := 0; i < setupRuns; i++ {
		s, ready, err := startServer(ctx, c.bin("viewserverd"), extra(i), 10*time.Millisecond)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, ready.Seconds())
		if i == setupRuns-1 {
			srv = s
			break
		}
		s.kill()
	}
	return srv, nil
}

func viewSQL(vr *viewsResp) []string {
	out := make([]string, len(vr.Views))
	for i, v := range vr.Views {
		out[i] = v.SQL
	}
	return out
}

// estimatePhases runs the closed-loop phase, closedPairs pairs per
// request, then the open-loop phase, pairsPerRequest pairs per request,
// of an estimate workload, with mk building a request of n pairs and
// verify checking each response.
func estimatePhases(ctx context.Context, c config, o *outcome, cl *client, closedPairs int, rate float64,
	mk func(n int) []pair, verify func([]pair, *estimateResp) error) {
	guards := make([]versionGuard, c.conns)
	n := closedPairs
	op := func(ctx context.Context, w, _ int) (int, error) {
		ps := mk(n)
		r, err := cl.estimate(ctx, ps)
		if err != nil {
			return 0, err
		}
		if err := guards[w].see(r.ModelVersion); err != nil {
			return 0, err
		}
		if verify != nil {
			if err := verify(ps, r); err != nil {
				return 0, err
			}
		}
		return len(ps), nil
	}
	closed := time.Duration(closedShare * float64(c.seconds))
	rates := closedLoop(ctx, c.conns, closed, &o.tally, op)
	p75, ok := percentile(rates, closedPercentile)
	if !ok {
		p75 = math.NaN()
		o.check("%d closed-loop windows do not support p%g: run longer", len(rates), closedPercentile)
	}
	o.throughput = named{value: p75, n: len(rates),
		note: fmt.Sprintf("estimate pairs/s, closed loop, %d connections x %d pairs/request, p%g of %v windows", c.conns, closedPairs, closedPercentile, closedWindow)}
	n = pairsPerRequest
	open := openLoop(ctx, rate, c.seconds-closed, c.conns, &o.tally, op)
	o.lat = summarize(open.latMs)
	o.latNote = fmt.Sprintf("/v1/estimate latency from due time, open loop at %g req/s", rate)
	o.details = append(o.details, p99Line("estimate_p99_ms", open.latMs, o.latNote))
	o.details = append(o.details, genDetails(open)...)
	if err := open.honest(); err != nil {
		o.check("%v", err)
	}
}

// p99Line reports p99 of xs when the sample supports it, else nothing.
func p99Line(name string, xs []float64, of string) named {
	v, ok := percentile(xs, 99)
	note := "p99 of " + of
	if !ok {
		v, note = math.NaN(), "p99 unsupported by the sample of "+of
	}
	return named{name: name, unit: "ms", value: v, n: len(xs), note: note}
}

func genDetails(r openResult) []named {
	late, _ := percentile(r.lateMs, 99)
	return []named{
		{name: "generator_late_p99_ms", unit: "ms", value: late, n: len(r.lateMs), note: "how late the generator handed requests out"},
		{name: "backlog_end", unit: "count", value: float64(r.backlog), n: r.scheduled, note: "requests due but not started when the schedule ended"},
	}
}

// recorder keeps the first replayRequests request bodies for the replay.
type recorder struct {
	mu   sync.Mutex
	reqs [][]pair
}

func (r *recorder) add(ps []pair) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.reqs) < replayRequests {
		r.reqs = append(r.reqs, ps)
	}
}

// runCold: every pair's query is SQL the run never sent before.
func runCold(ctx context.Context, c config) (*outcome, error) {
	o := &outcome{}
	srv, err := setupServers(ctx, c, o, func(int) []string { return nil })
	if err != nil {
		return nil, err
	}
	defer srv.stop(30 * time.Second)
	cl := newClient(srv.base, c.conns)
	defer cl.close()
	vr, err := cl.views(ctx)
	if err != nil {
		return nil, err
	}
	views := viewSQL(vr)
	w, err := wk1Extended(600)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	gen := newColdGen(literalBases(w, wk1Params.Queries), c.seed)
	rng := rand.New(rand.NewSource(c.seed + 1))
	rec := &recorder{}
	mk := func(n int) []pair {
		mu.Lock()
		defer mu.Unlock()
		ps := make([]pair, n)
		for k := range ps {
			ps[k] = pair{Query: gen.query(), View: views[rng.Intn(len(views))]}
		}
		rec.add(ps)
		return ps
	}
	rss := srv.sampleRSS()
	estimatePhases(ctx, c, o, cl, pairsPerRequest, coldRate, mk, nil)
	o.rss = rss.samples()
	o.liveHeap(ctx, cl)
	if err := srv.stop(30 * time.Second); err != nil {
		o.check("server stop: %v", err)
	}
	o.peakRSS = append(o.peakRSS, srv.peakRSSMB())
	o.replay = replayInputs{wl: wk1Params, window: wk1Window(w), requests: rec.reqs}
	return o, ctx.Err()
}

// runHot: Zipf draws from a warmed pool of pairs far smaller than the
// cache; a repeated pair must come back bit-identical.
func runHot(ctx context.Context, c config) (*outcome, error) {
	o := &outcome{}
	srv, err := setupServers(ctx, c, o, func(int) []string { return nil })
	if err != nil {
		return nil, err
	}
	defer srv.stop(30 * time.Second)
	cl := newClient(srv.base, c.conns)
	defer cl.close()
	vr, err := cl.views(ctx)
	if err != nil {
		return nil, err
	}
	w, err := wk1Extended(0)
	if err != nil {
		return nil, err
	}
	queries := make([]string, len(w.Queries))
	for i, q := range w.Queries {
		queries[i] = q.SQL
	}
	rng := rand.New(rand.NewSource(c.seed))
	pool := hotPool(queries, viewSQL(vr), hotPoolSize, rng)

	// Warm the cache with every pool pair and remember each value.
	type seen struct {
		version int64
		bits    uint64
	}
	want := make(map[pair]seen, len(pool))
	rec := &recorder{}
	for i := 0; i < len(pool); i += pairsPerRequest {
		ps := pool[i:min(i+pairsPerRequest, len(pool))]
		rec.add(ps)
		r, err := cl.estimate(ctx, ps)
		o.tally.add(err)
		if err != nil {
			continue
		}
		for k, p := range ps {
			want[p] = seen{r.ModelVersion, math.Float64bits(r.Estimates[k])}
		}
	}
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(pool)-1))
	var mu sync.Mutex
	mk := func(n int) []pair {
		mu.Lock()
		defer mu.Unlock()
		ps := make([]pair, n)
		for k := range ps {
			ps[k] = pool[zipf.Uint64()]
		}
		rec.add(ps)
		return ps
	}
	verify := func(ps []pair, r *estimateResp) error {
		for k, p := range ps {
			s := want[p]
			if s.version == r.ModelVersion && s.bits != math.Float64bits(r.Estimates[k]) {
				return fmt.Errorf("check: repeated pair under model version %d returned %v, first returned %v",
					r.ModelVersion, r.Estimates[k], math.Float64frombits(s.bits))
			}
		}
		return nil
	}
	rss := srv.sampleRSS()
	estimatePhases(ctx, c, o, cl, hotClosedPairs, hotRate, mk, verify)
	o.rss = rss.samples()
	o.liveHeap(ctx, cl)
	if err := srv.stop(30 * time.Second); err != nil {
		o.check("server stop: %v", err)
	}
	o.peakRSS = append(o.peakRSS, srv.peakRSSMB())
	o.replay = replayInputs{wl: wk1Params, window: wk1Window(w), requests: rec.reqs}
	return o, ctx.Err()
}

// windowCap is viewserverd's default rolling-window capacity.
const windowCap = 512

// wk1Window is the bootstrap window a WK1 server advises on: the last
// windowCap of WK1's queries.
func wk1Window(w *workload.Workload) []string {
	var out []string
	for _, q := range w.Queries[wk1Params.Queries-windowCap : wk1Params.Queries] {
		out = append(out, q.SQL)
	}
	return out
}

// viewKey identifies a view set by its SQL, whatever order it is listed in.
func viewKey(sqls []string) string {
	s := append([]string(nil), sqls...)
	sort.Strings(s)
	return strings.Join(s, "\n")
}

type adviseResp struct {
	Version    int64 `json:"version"`
	Swapped    bool  `json:"swapped"`
	RolledBack bool  `json:"rolled_back"`
	Window     int   `json:"window"`
}

type ingestResp struct {
	Accepted int `json:"accepted"`
}

// runChurn: drifting ingest at a fixed rate, back-to-back advise cycles
// and an estimate stream beside them, then restarts on the data dir.
func runChurn(ctx context.Context, c config) (*outcome, error) {
	o := &outcome{}
	base, err := os.MkdirTemp(c.outDir, "churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	dataDir := func(i int) string { return filepath.Join(base, fmt.Sprintf("data%d", i)) }
	srv, err := setupServers(ctx, c, o, func(i int) []string { return []string{"-data-dir", dataDir(i)} })
	if err != nil {
		return nil, err
	}
	defer srv.stop(30 * time.Second)
	cl := newClient(srv.base, c.conns)
	defer cl.close()
	vr, err := cl.views(ctx)
	if err != nil {
		return nil, err
	}
	var views atomic.Pointer[[]string]
	vs := viewSQL(vr)
	views.Store(&vs)
	w, err := wk1Extended(1000)
	if err != nil {
		return nil, err
	}
	drift := newDriftGen(w, c.seed)
	rng := rand.New(rand.NewSource(c.seed + 1))

	var mu sync.Mutex // guards drift, rng, acked
	acked := append([]string(nil), wk1Window(w)...)
	start := time.Now()
	phase := func() float64 { return math.Min(time.Since(start).Seconds()/c.seconds.Seconds(), 0.999) }

	// Advise cycles back to back on one connection, without force.
	var cycles, windows []float64
	var lastVersion int64 = vr.Version
	var window []string
	var swaps, rollbacks, changes int
	activeKey := viewKey(vs)
	advTally := &tally{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Since(start) < c.seconds && ctx.Err() == nil {
			mu.Lock()
			win := append([]string(nil), acked[max(0, len(acked)-windowCap):]...)
			mu.Unlock()
			t0 := time.Now()
			var ar adviseResp
			err := cl.do(ctx, http.MethodPost, "/v1/advise", []byte("{}"), &ar)
			d := time.Since(t0)
			if err == nil && ar.Version < lastVersion {
				err = fmt.Errorf("check: advise returned view version %d after %d", ar.Version, lastVersion)
			}
			advTally.add(err)
			if err != nil {
				continue
			}
			cycles = append(cycles, d.Seconds())
			windows = append(windows, float64(ar.Window))
			lastVersion, window = ar.Version, win
			if ar.Swapped {
				swaps++
			}
			if ar.RolledBack {
				rollbacks++
			}
			nv, err := cl.views(ctx)
			if err == nil && nv.Version != ar.Version {
				err = fmt.Errorf("check: /v1/views reports version %d after advise acknowledged %d", nv.Version, ar.Version)
			}
			advTally.add(err)
			if err == nil {
				s := viewSQL(nv)
				views.Store(&s)
				if k := viewKey(s); k != activeKey {
					changes++
					activeKey = k
				}
			}
		}
	}()

	// One open-loop stream alternating ingest and estimate requests, on
	// the connections the advise loop leaves free.
	conns := max(1, c.conns-1)
	guards := make([]versionGuard, conns)
	rec := &recorder{}
	op := func(ctx context.Context, wk, i int) (int, error) {
		if i%2 == 0 {
			mu.Lock()
			qs := make([]string, queriesPerIngest)
			for k := range qs {
				qs[k] = drift.query(phase())
			}
			mu.Unlock()
			body, err := json.Marshal(map[string][]string{"queries": qs})
			if err != nil {
				return 0, err
			}
			var ir ingestResp
			if err := cl.do(ctx, http.MethodPost, "/v1/queries", body, &ir); err != nil {
				return 0, err
			}
			if ir.Accepted != len(qs) {
				return 0, fmt.Errorf("check: ingest of %d queries accepted %d", len(qs), ir.Accepted)
			}
			mu.Lock()
			acked = append(acked, qs...)
			mu.Unlock()
			return len(qs), nil
		}
		mu.Lock()
		vs := *views.Load()
		ps := make([]pair, pairsPerRequest)
		for k := range ps {
			ps[k] = pair{Query: acked[len(acked)-1-rng.Intn(min(64, len(acked)))], View: vs[rng.Intn(len(vs))]}
		}
		mu.Unlock()
		rec.add(ps)
		r, err := cl.estimate(ctx, ps)
		if err != nil {
			return 0, err
		}
		if err := guards[wk].see(r.ModelVersion); err != nil {
			return 0, err
		}
		return len(ps), nil
	}
	rss := srv.sampleRSS()
	open := openLoop(ctx, churnRate, c.seconds, conns, &o.tally, op)
	wg.Wait()
	o.rss = rss.samples()
	o.liveHeap(ctx, cl)
	o.tally.merge(advTally)
	if err := open.honest(); err != nil {
		o.check("%v", err)
	}
	// Latency from due time, split by request kind; failures count as +Inf.
	var estDue, ingDue []float64
	for i, l := range open.latMs {
		if i%2 == 0 {
			ingDue = append(ingDue, l)
		} else {
			estDue = append(estDue, l)
		}
	}
	o.lat = summarize(estDue)
	o.latNote = fmt.Sprintf("/v1/estimate latency from due time beside ingest and advise, open loop at %g req/s", churnRate/2)
	var wsum, csum float64
	for i := range cycles {
		wsum += windows[i]
		csum += cycles[i]
	}
	o.throughput = named{value: ratio{wsum, csum}.Value(), n: len(cycles), note: "window queries advised per second over back-to-back advise cycles"}
	o.details = append(o.details,
		named{name: "advise_cycle_s", unit: "s", value: median(cycles), n: len(cycles), note: "median POST /v1/advise wall time"},
		p99Line("estimate_p99_ms", estDue, o.latNote),
		p99Line("ingest_p99_ms", ingDue, "POST /v1/queries from due time, WAL on, -fsync interval"),
	)
	o.details = append(o.details,
		named{name: "advise_swaps", unit: "count", value: float64(swaps), n: len(cycles), note: "advise cycles that rotated a new view set in, of the cycles"},
		named{name: "advise_rollbacks", unit: "count", value: float64(rollbacks), n: len(cycles), note: "advise cycles rolled back, of the cycles"},
		named{name: "advise_view_changes", unit: "count", value: float64(changes), n: len(cycles), note: "advise cycles after which /v1/views held different view SQL, of the cycles"},
	)
	o.details = append(o.details, genDetails(open)...)
	switch {
	case len(cycles) == 0:
		o.check("no advise cycle completed")
	case changes == 0:
		// The restart check below would then only prove that the
		// bootstrap view set survives.
		o.check("no advise cycle rotated in different views (%d swaps, %d rollbacks in %d cycles)", swaps, rollbacks, len(cycles))
	}

	if err := srv.stop(30 * time.Second); err != nil {
		o.check("server stop: %v", err)
	}
	o.peakRSS = append(o.peakRSS, srv.peakRSSMB())

	// Restart on the churned data dir: recovery time, and the view set
	// must be the last version an advise acknowledged.
	var recover []float64
	for i := 0; i < setupRuns; i++ {
		s, ready, err := startServer(ctx, c.bin("viewserverd"), []string{"-data-dir", dataDir(setupRuns - 1)}, time.Millisecond)
		if err != nil {
			return nil, err
		}
		recover = append(recover, ready.Seconds())
		rc := newClient(s.base, 1)
		nv, err := rc.views(ctx)
		rc.close()
		if err != nil {
			o.check("views after restart: %v", err)
		} else if nv.Version != lastVersion {
			o.check("restart reports view version %d, last acknowledged %d", nv.Version, lastVersion)
		}
		s.kill()
	}
	o.details = append(o.details, named{name: "recover_s", unit: "s", value: median(recover), n: len(recover), note: "restart on the churned data dir to ready, polled every 1 ms"})
	o.replay = replayInputs{wl: wk1Params, window: window, requests: rec.reqs, ingest: acked}
	return o, ctx.Err()
}

var (
	reportRe  = regexp.MustCompile(`rc=(-?[0-9.]+)%`)
	selectRe  = regexp.MustCompile(`^selector \S+: ([0-9]+) views selected`)
	zRe       = regexp.MustCompile(`\|Z\|=([0-9]+) candidates`)
	viewsMRe  = regexp.MustCompile(`#m=([0-9]+) `)
	jobQCount = 226.0
)

// jobReport is what one viewgen run printed that the benchmark checks.
type jobReport struct {
	line       string  // the report line, which must repeat across runs of a seed
	saved      float64 // r_c, %
	selected   int
	candidates int
	applied    int // #m, the views Apply materialized
}

// parseJobReport reads viewgen's output lines. A count viewgen did not
// print stays negative, so the selection check fails on it.
func parseJobReport(lines []string) (jobReport, error) {
	r := jobReport{selected: -1, candidates: -1, applied: -2}
	for _, l := range lines {
		if s := selectRe.FindStringSubmatch(l); s != nil {
			r.selected, _ = strconv.Atoi(s[1])
		}
		if s := zRe.FindStringSubmatch(l); s != nil {
			r.candidates, _ = strconv.Atoi(s[1])
		}
		if s := viewsMRe.FindStringSubmatch(l); s != nil {
			r.applied, _ = strconv.Atoi(s[1])
			r.line = l
		}
	}
	if len(lines) < 2 || r.line == "" {
		return r, errors.New("viewgen printed no report")
	}
	m := reportRe.FindStringSubmatch(r.line)
	if m == nil {
		return r, fmt.Errorf("viewgen report has no saved ratio: %q", r.line)
	}
	var err error
	if r.saved, err = strconv.ParseFloat(m[1], 64); err != nil {
		return r, fmt.Errorf("viewgen report has no saved ratio: %q", r.line)
	}
	return r, nil
}

// runJob: the batch pipeline on JOB, run back to back at least twice.
func runJob(ctx context.Context, c config) (*outcome, error) {
	o := &outcome{}
	var runs []float64
	var report string
	var saved float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < c.seconds; i++ {
		lw := &lineWriter{}
		ch, err := startChild(c.bin("viewgen"), []string{"-workload", "job", "-seed", strconv.FormatInt(c.seed, 10)}, lw)
		if err != nil {
			return nil, err
		}
		rss := ch.sampleRSS()
		err = ch.wait(ctx)
		o.rss = append(o.rss, rss.samples()...)
		o.tally.add(err)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		lines := lw.snapshot()
		texts := make([]string, len(lines))
		for k, l := range lines {
			texts[k] = l.text
		}
		rep, err := parseJobReport(texts)
		switch {
		case err != nil:
			o.check("%v", err)
			continue
		case rep.selected < 0 || rep.selected > rep.candidates || rep.selected != rep.applied:
			o.check("selection of %d views does not fit %d candidates or %d applied views", rep.selected, rep.candidates, rep.applied)
		case report != "" && rep.line != report:
			o.check("report differs between runs of seed %d:\n%s\n%s", c.seed, report, rep.line)
		}
		report, saved = rep.line, rep.saved
		o.setups = append(o.setups, lines[0].at.Sub(ch.started).Seconds())
		runs = append(runs, lines[len(lines)-1].at.Sub(lines[0].at).Seconds())
		o.peakRSS = append(o.peakRSS, ch.peakRSSMB())
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no viewgen run completed: %v", o.tally.errs)
	}
	runMs := make([]float64, len(runs))
	for i, r := range runs {
		runMs[i] = r * 1000
	}
	o.mem = named{value: median(o.rss), n: len(o.rss), note: "resident set of viewgen, median of /proc samples every 100 ms over its runs"}
	o.lat = summarize(runMs)
	o.latNote = "viewgen pipeline wall time (preprocess, estimate, select, apply)"
	o.throughput = named{value: jobQCount / median(runs), n: len(runs), note: "JOB queries advised per second of pipeline"}
	o.details = append(o.details,
		named{name: "run_s", unit: "s", value: median(runs), n: len(runs), note: "median viewgen pipeline wall time"},
		named{name: "saved_ratio_pct", unit: "%", value: saved, n: len(runs), note: "measured r_c from Advisor.Apply's report, identical across runs"},
	)
	o.replay = replayInputs{job: true, saved: saved}
	return o, nil
}
