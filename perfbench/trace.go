package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"autoview/internal/catalog"
	"autoview/internal/core"
	"autoview/internal/durable"
	"autoview/internal/engine"
	"autoview/internal/equiv"
	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/serve"
	"autoview/internal/sqlparse"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// replayInputs are the generated inputs a run sent, kept for the traced
// in-process replay.
type replayInputs struct {
	job      bool              // JOB pipeline (viewgen) rather than a WK1 server
	wl       workload.WKParams // the WK1 generator, for server workloads
	window   []string          // the window the run's last advise cycle saw
	requests [][]pair          // /v1/estimate request bodies, in send order
	ingest   []string          // queries the run ingested
	saved    float64           // viewgen's printed r_c, to cross-check Apply
}

// span is one timed call into a layer. Spans of one request or advise
// cycle share Trace; Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, which is how the untraced pass that prices the
// tracing overhead runs.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

// newTrace returns a fresh id for the spans of one request or cycle.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

func (t *tracer) start(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, trace int, f func()) {
	id := t.start(name, parent, trace)
	f()
	t.end(id)
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// counters reads the in-process registry: counters, and the sum and
// count of histograms (never a histogram quantile).
type counters map[string]float64

func readCounters() counters {
	snap := obs.Default.Snapshot()
	out := counters{}
	for _, c := range snap.Counters {
		out[c.Name] = float64(c.Value)
	}
	for _, h := range snap.Histograms {
		out[h.Name+".sum"] = h.Sum
		out[h.Name+".count"] = float64(h.Count)
	}
	return out
}

func (after counters) since(before counters, name string) float64 { return after[name] - before[name] }

// replay runs the run's inputs in-process through each layer's public
// functions, records spans around every call, writes them out, and
// returns the per-layer metrics.
func replay(ctx context.Context, c config, o *outcome) ([]named, error) {
	obs.Enable()
	tr := &tracer{t0: time.Now()}
	in := o.replay
	var (
		w    *workload.Workload
		cfg  core.Config
		seed int64 = 1 // viewserverd's default seed
	)
	if in.job {
		w, cfg, seed = workload.JOB(), core.DefaultConfig(), c.seed
	} else {
		w, cfg = workload.WK(in.wl), core.WKConfig()
	}
	cfg.Seed = seed
	var m []named
	add := func(name, unit string, v float64, n int, note string) {
		m = append(m, named{name: name, unit: unit, value: v, n: n, note: note})
	}

	// One advise cycle over the window the run's server (or viewgen)
	// advised on: populate, preprocess, build (measure + W-D fit), select,
	// apply.
	var plans []*plan.Node
	if in.job {
		plans = w.Plans()
	} else {
		for _, sql := range in.window {
			p, err := plan.Parse(sql, w.Cat)
			if err != nil {
				return nil, fmt.Errorf("window query: %w", err)
			}
			plans = append(plans, p)
		}
	}
	before := readCounters()
	cycle := tr.newTrace()
	root := tr.start("advise.cycle", 0, cycle)
	var adv *core.Advisor
	tr.do("workload.populate", root, cycle, func() { adv = core.NewAdvisor(w.Cat, engine.New(w.Populate()), cfg) })
	var (
		prob *core.Problem
		sel  *core.Selection
		rep  *core.Report
		err  error
	)
	var pre *equiv.Result
	tr.do("core.preprocess", root, cycle, func() { pre = adv.Preprocess(plans) })
	tr.do("core.build_problem", root, cycle, func() { prob, err = adv.BuildProblem(plans, pre) })
	if err != nil {
		return nil, err
	}
	tr.do("core.select", root, cycle, func() { sel, err = adv.Select(prob) })
	if err != nil {
		return nil, err
	}
	tr.do("core.apply", root, cycle, func() { rep, err = adv.Apply(prob, sel) })
	if err != nil {
		return nil, err
	}
	tr.end(root)
	after := readCounters()
	if len(sel.Z) != len(prob.Candidates) || sel.Selected() != rep.NumViews {
		o.check("replayed selection of %d views over %d candidates does not match the %d views applied", sel.Selected(), len(prob.Candidates), rep.NumViews)
	}
	if in.job && fmt.Sprintf("%.2f", rep.SavedRatio) != fmt.Sprintf("%.2f", in.saved) {
		o.check("in-process r_c %.4f%% differs from viewgen's %.2f%%", rep.SavedRatio, in.saved)
	}
	secs := func(name string) float64 { d, _ := tr.total(name); return d.Seconds() }
	add("workload.populate_s", "s", secs("workload.populate"), 1, "Workload.Populate + NewAdvisor")
	add("core.preprocess_s", "s", secs("core.preprocess"), 1, "Advisor.Preprocess")
	add("core.build_problem_s", "s", secs("core.build_problem"), 1, "Advisor.BuildProblem")
	add("core.measure_s", "s", after.since(before, "advisor.measure.seconds.sum"), 1, "query-cost measurement inside BuildProblem (histogram sum)")
	add("widedeep.fit_s", "s", after.since(before, "wd.train.seconds.sum"), 1, "W-D Fit inside BuildProblem (histogram sum)")
	add("core.select_s", "s", secs("core.select"), 1, "Advisor.Select with the shipped selector")
	add("core.apply_s", "s", secs("core.apply"), 1, "Advisor.Apply: rewrite plus engine re-execution")
	add("core.pairs_measured", "count", after.since(before, "core.pairs.measured"), 1, "")
	add("core.candidates", "count", float64(len(prob.Candidates)), 1, "|Z|")
	add("nn.train_samples", "count", after.since(before, "nn.train.samples"), 1, "")
	add("engine.exec_count", "count", after.since(before, "engine.exec.count"), 1, "")
	add("engine.exec_rows", "count", after.since(before, "engine.exec.rows"), 1, "")
	add("rl.flips", "count", after.since(before, "rl.flips"), 1, "")
	add("rl.learn_count", "count", after.since(before, "rl.learn.count"), 1, "")
	add("mvs.yopt_count", "count", after.since(before, "mvs.yopt.count"), 1, "")

	// The estimate path, layer by layer, on the run's estimate requests
	// (for the pipeline: each candidate view against its queries).
	reqs := in.requests
	if in.job {
		reqs = jobRequests(w, prob)
	}
	layers, batch, err := replayServe(ctx, c, w, cfg, reqs, tr)
	if err != nil {
		return nil, err
	}
	m = append(m, layers...)
	// Alternate untraced and traced passes and keep the faster of each,
	// so warm-up and noise do not read as tracing overhead. The first
	// traced pass records into a scratch tracer.
	var plain, traced [2]time.Duration
	for i, t := range []*tracer{{t0: tr.t0}, tr} {
		if plain[i], err = replayEstimate(nil, w.Cat, prob.Model, reqs, batch); err != nil {
			return nil, err
		}
		if traced[i], err = replayEstimate(t, w.Cat, prob.Model, reqs, batch); err != nil {
			return nil, err
		}
	}
	perStmt := func(name string) (float64, int) {
		d, n := tr.total(name)
		return float64(d.Microseconds()) / math.Max(1, float64(n)), n
	}
	for _, l := range []struct{ span, name, note string }{
		{"sqlparse.fingerprint", "sqlparse.fingerprint_us", "sqlparse.Fingerprint per statement"},
		{"sqlparse.parse", "sqlparse.parse_us", "sqlparse.Parse per statement"},
		{"plan.build", "plan.build_us", "plan.Build per statement"},
		{"featenc.precompute", "featenc.precompute_us", "featenc.Precompute per plan"},
		{"featenc.extract", "featenc.extract_us", "BatchExtractor.ExtractPre per pair"},
	} {
		v, n := perStmt(l.span)
		add(l.name, "us", v, n, l.note)
	}
	pd, _ := tr.total("widedeep.predict")
	pairs := 0
	for _, r := range reqs {
		pairs += len(r)
	}
	add("widedeep.predict_us_per_pair", "us", float64(pd.Microseconds())/math.Max(1, float64(pairs)), pairs,
		fmt.Sprintf("PredictBatch over batches of %d pairs, the batch size serve formed", batch))

	// The durable layer on the run's ingest stream (the window, for
	// workloads that ingest nothing after bootstrap).
	ingest := in.ingest
	if len(ingest) == 0 {
		ingest = in.window
		if in.job {
			for _, q := range w.Queries {
				ingest = append(ingest, q.SQL)
			}
		}
	}
	dl, err := replayDurable(c, ingest, tr)
	if err != nil {
		return nil, err
	}
	m = append(m, dl...)

	fastPlain := min(plain[0], plain[1])
	overhead := ratio{float64(min(traced[0], traced[1]) - fastPlain), float64(fastPlain)}.Value() * 100
	add("trace.overhead_pct", "%", overhead, 4, "estimate-path replay with spans against the same replay without (faster of two passes each)")
	add("trace.spans", "count", float64(len(tr.spans)), 1, "")

	path := filepath.Join(c.outDir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
	data, err := json.Marshal(tr.spans)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	for _, l := range m {
		fmt.Printf("%-30s %14.4f %-5s n=%-6d %s\n", l.name, l.value, l.unit, l.n, l.note)
	}
	return m, nil
}

// jobRequests pairs each candidate view's SQL with its queries, in
// requests of pairsPerRequest: what the pipeline's W-D estimator sees.
func jobRequests(w *workload.Workload, p *core.Problem) [][]pair {
	var ps []pair
	for _, cand := range p.Candidates {
		v := plan.ToSQL(cand.View.Plan)
		for _, qi := range cand.Queries {
			ps = append(ps, pair{Query: w.Queries[qi].SQL, View: v})
		}
	}
	var out [][]pair
	for i := 0; i < len(ps) && len(out) < replayRequests; i += pairsPerRequest {
		out = append(out, ps[i:min(i+pairsPerRequest, len(ps))])
	}
	return out
}

// replayEstimate runs the estimate path on reqs (fingerprint, parse,
// build, precompute, extract, predict in batches of batch pairs) and
// returns its wall time.
func replayEstimate(tr *tracer, cat *catalog.Catalog, model *widedeep.Model, reqs [][]pair, batch int) (time.Duration, error) {
	start := time.Now()
	ex := featenc.NewBatchExtractor(cat)
	var fs []featenc.Features
	flush := func(trace int) {
		if len(fs) > 0 {
			tr.do("widedeep.predict", 0, trace, func() { model.PredictBatch(fs, 1) })
			fs = fs[:0]
			ex.Reset(cat)
		}
	}
	for _, r := range reqs {
		trace := tr.newTrace()
		root := tr.start("estimate.request", 0, trace)
		for _, p := range r {
			var feats [2]*featenc.PlanFeat
			for k, sql := range []string{p.Query, p.View} {
				var (
					stmt *sqlparse.SelectStmt
					n    *plan.Node
					err  error
				)
				tr.do("sqlparse.fingerprint", root, trace, func() { _, err = sqlparse.Fingerprint(sql) })
				if err == nil {
					tr.do("sqlparse.parse", root, trace, func() { stmt, err = sqlparse.Parse(sql) })
				}
				if err == nil {
					tr.do("plan.build", root, trace, func() { n, err = plan.Build(stmt, cat) })
				}
				if err != nil {
					return 0, fmt.Errorf("replay %q: %w", truncate(sql, 80), err)
				}
				tr.do("featenc.precompute", root, trace, func() { feats[k] = featenc.Precompute(n) })
			}
			tr.do("featenc.extract", root, trace, func() { fs = append(fs, ex.ExtractPre(feats[0], feats[1])) })
			if len(fs) >= batch {
				flush(trace)
			}
		}
		tr.end(root)
	}
	flush(0)
	return time.Since(start), nil
}

// replayServe starts an in-process serve.Server on the workload and
// replays reqs through its Handler from conns concurrent callers, the
// way the generator sent them. The in-process server bootstraps with
// Top-kBen, the cheapest selector: the estimate path does not depend on
// which views were selected, because every pair names its view's SQL.
func replayServe(ctx context.Context, c config, w *workload.Workload, cfg core.Config, reqs [][]pair, tr *tracer) ([]named, int, error) {
	cfg.Selector = core.SelectorTopkBen
	srv := serve.NewServer(w, cfg, serve.Config{})
	if err := srv.Start(ctx, nil); err != nil {
		return nil, 0, fmt.Errorf("in-process server: %w", err)
	}
	defer srv.Close(context.Background())
	h := srv.Handler()
	before := readCounters()
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < c.conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				body, err := json.Marshal(map[string][]pair{"pairs": reqs[i]})
				if err != nil {
					failed.Add(1)
					continue
				}
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
				tr.do("serve.handler", 0, tr.newTrace(), func() { h.ServeHTTP(rec, req) })
				if rec.Code != http.StatusOK {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	after := readCounters()
	if n := failed.Load(); n > 0 {
		return nil, 0, fmt.Errorf("in-process server failed %d of %d replayed requests", n, len(reqs))
	}
	d, n := tr.total("serve.handler")
	hits := ratio{after.since(before, "serve.cache.hit"), after.since(before, "serve.cache.hit") + after.since(before, "serve.cache.miss")}
	plans := ratio{after.since(before, "serve.cache.plan.hit"), after.since(before, "serve.cache.plan.hit") + after.since(before, "serve.cache.plan.miss")}
	per := ratio{after.since(before, "wd.infer.count"), after.since(before, "wd.infer.batches")}
	batch := 1
	if v := per.Value(); v >= 1 {
		batch = int(math.Round(v))
	}
	return []named{
		{name: "serve.handler_us", unit: "us", value: float64(d.Microseconds()) / math.Max(1, float64(n)), n: n, note: "Server.Handler per /v1/estimate request, in-process"},
		{name: "serve.batch_pairs", unit: "count", value: per.Value(), n: int(per.Base), note: "wd.infer.count / wd.infer.batches: " + per.String()},
		{name: "serve.cache.hit_ratio", unit: "1", value: hits.Value(), n: int(hits.Base), note: "estimate-cache hits over pair lookups: " + hits.String()},
		{name: "serve.plan_cache.hit_ratio", unit: "1", value: plans.Value(), n: int(plans.Base), note: "plan-cache hits over lookups: " + plans.String()},
		{name: "serve.shed", unit: "count", value: after.since(before, "serve.shed"), n: len(reqs), note: "requests refused with 429"},
		{name: "serve.timeouts", unit: "count", value: after.since(before, "serve.timeouts"), n: len(reqs), note: "requests past their deadline (504)"},
	}, batch, nil
}

// replayDurable appends the ingest stream to a fresh WAL under the
// shipped interval fsync (syncing every 16 appends), recovers it by WAL
// replay, and then writes a snapshot of the recovered window.
func replayDurable(c config, ingest []string, tr *tracer) ([]named, error) {
	dir, err := os.MkdirTemp(c.outDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := durable.Options{Dir: dir, Fsync: durable.FsyncInterval, WindowCap: windowCap}
	before := readCounters()
	st, err := durable.Open(opts)
	if err != nil {
		return nil, err
	}
	trace := tr.newTrace()
	inBytes := 0
	for i := 0; i < len(ingest) && err == nil; i += queriesPerIngest {
		b := ingest[i:min(i+queriesPerIngest, len(ingest))]
		for _, s := range b {
			inBytes += len(s)
		}
		tr.do("durable.append", 0, trace, func() { err = st.AppendIngest(b) })
		if err == nil && (i/queriesPerIngest)%16 == 15 {
			tr.do("durable.sync", 0, trace, func() { err = st.Sync() })
		}
	}
	if err == nil {
		tr.do("durable.sync", 0, trace, func() { err = st.Sync() })
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	walBytes := ratio{readCounters().since(before, "durable.wal.bytes"), float64(inBytes)}
	var state *durable.State
	tr.do("durable.replay", 0, trace, func() { state, _, err = durable.Recover(dir, windowCap) })
	if err != nil {
		return nil, err
	}
	if want := min(len(ingest), windowCap); len(state.WindowSQL) != want {
		return nil, fmt.Errorf("check: WAL replay recovered %d window queries, want %d", len(state.WindowSQL), want)
	}
	if st, err = durable.Open(opts); err != nil {
		return nil, err
	}
	tr.do("durable.snapshot", 0, trace, func() {
		err = st.WriteSnapshot(&durable.Snapshot{LSN: st.LastLSN(), WindowSQL: state.WindowSQL, WindowTotal: state.WindowTotal})
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	per := func(name string, unit time.Duration) (float64, int) {
		d, n := tr.total(name)
		return float64(d) / float64(unit) / math.Max(1, float64(n)), n
	}
	app, na := per("durable.append", time.Microsecond)
	syn, ns := per("durable.sync", time.Millisecond)
	snap, _ := per("durable.snapshot", time.Millisecond)
	rep, _ := per("durable.replay", time.Second)
	return []named{
		{name: "durable.append_us", unit: "us", value: app, n: na, note: fmt.Sprintf("Store.AppendIngest per ingest request (%d queries per request)", queriesPerIngest)},
		{name: "durable.sync_ms", unit: "ms", value: syn, n: ns, note: "Store.Sync"},
		{name: "durable.snapshot_ms", unit: "ms", value: snap, n: 1, note: "Store.WriteSnapshot of the recovered window"},
		{name: "durable.replay_s", unit: "s", value: rep, n: 1, note: fmt.Sprintf("durable.Recover replaying %d ingest records", na)},
		{name: "durable.bytes_per_ingest_byte", unit: "1", value: walBytes.Value(), n: len(ingest), note: "WAL bytes over ingested SQL bytes: " + walBytes.String()},
	}, nil
}
