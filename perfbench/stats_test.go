package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

// The tail reported is the highest percentile with at least ten samples
// beyond it; below eleven samples only the maximum can be reported.
func TestSummarizeTenBeyondRule(t *testing.T) {
	cases := []struct {
		n      int
		tailAt string
		tail   float64
	}{
		{1, "max", 1},
		{10, "max", 10},
		{20, "max", 20},        // p75 has 5 beyond
		{40, "p75", 30},        // rank 29, 10 beyond
		{99, "p75", 75},        // p90 has 9 beyond
		{110, "p90", 99},       // rank 98, 11 beyond
		{199, "p90", 180},      // p95 leaves 9 beyond: not enough
		{200, "p95", 190},      // rank 189, 10 beyond
		{100000, "p95", 95000}, // the ladder stops at p95
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailAt != c.tailAt || s.Tail != c.tail {
			t.Errorf("n=%d: got n=%d tail %s=%v, want %s=%v", c.n, s.N, s.TailAt, s.Tail, c.tailAt, c.tail)
		}
		if want := float64(c.n+1) / 2; s.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, s.P50, want)
		}
	}
}

func TestSupportedCountsSamplesBeyondTheRank(t *testing.T) {
	for n := 1; n < 3000; n++ {
		for _, p := range tailLadder {
			beyond := n - 1 - rank(p, n)
			if got := supported(p, n); got != (beyond >= minBeyond) {
				t.Fatalf("supported(%v, %d) = %v with %d beyond", p, n, got, beyond)
			}
		}
	}
}

// A failed request is an infinite latency: it misses every limit and
// pushes the tail, never shortens it.
func TestFailuresCountAsMissingTheLimit(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 60; i++ {
		xs[i] = math.Inf(1)
	}
	if s := summarize(xs); !math.IsInf(s.Tail, 1) {
		t.Fatalf("60 failures in 1000: p95 %v, want +Inf", s.Tail)
	}
	if v, ok := percentile(xs, 99); !ok || !math.IsInf(v, 1) {
		t.Fatalf("60 failures in 1000: p99 %v, want +Inf", v)
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{3, 4}
	if r.Value() != 0.75 || r.String() != "0.75 (3 of 4)" {
		t.Fatalf("ratio{3,4} = %v %q", r.Value(), r.String())
	}
	if v := (ratio{0, 0}).Value(); !math.IsNaN(v) {
		t.Fatalf("empty base gave %v, want NaN (no ratio exists)", v)
	}
}

// Open-loop arrivals are a fixed-rate schedule anchored at its start:
// request i is due at i/rate whatever happened before it.
func TestScheduleIsFixedRate(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 1600, 6*time.Second)
	if s.n != 9600 {
		t.Fatalf("1600/s for 6s scheduled %d requests, want 9600", s.n)
	}
	for _, i := range []int{0, 1, 800, 9599} {
		want := start.Add(time.Duration(i) * time.Second / 1600)
		if got := s.due(i); got.Sub(want).Abs() > time.Nanosecond {
			t.Fatalf("due(%d) = %v, want %v", i, got, want)
		}
	}
	if s := newSchedule(start, 120, 10*time.Second); s.n != 1200 || s.due(1199).Sub(start) != time.Duration(1199)*time.Second/120 {
		t.Fatalf("120/s for 10s: n=%d last due %v", s.n, s.due(1199).Sub(start))
	}
}

// The generator bounds flag a run that fell behind its schedule.
func TestOpenResultHonesty(t *testing.T) {
	ok := openResult{lateMs: make([]float64, 1000), scheduled: 1000}
	if err := ok.honest(); err != nil {
		t.Fatalf("on-time run flagged: %v", err)
	}
	late := ok
	late.lateMs = seq(1000) // p99 990 ms late
	if late.honest() == nil {
		t.Fatal("late generator not flagged")
	}
	backlog := ok
	backlog.backlog = 12
	if backlog.honest() == nil {
		t.Fatal("backlog of 12 in 1000 not flagged")
	}
}

func TestWithLimitMakesDistinctQueries(t *testing.T) {
	w, err := wk1Extended(50)
	if err != nil {
		t.Fatal(err)
	}
	bases := literalBases(w, wk1Params.Queries)
	if len(bases) == 0 {
		t.Fatal("no extended WK1 query carries the id-limit literal")
	}
	g := newColdGen(bases, 1)
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		q := g.query()
		if seen[q] {
			t.Fatalf("query %d repeats: %s", i, q)
		}
		seen[q] = true
	}
}

func TestParseJobReport(t *testing.T) {
	lines := []string{
		"workload JOB: 226 queries over 21 tables",
		"pre-process: 180 subqueries, 40 equivalent pairs, |Z|=46 candidates, |Q|=120 associated queries, 12 overlapping pairs",
		"selector iterview: 9 views selected, estimated utility $1.2345",
		"wd+iterview: #q=226 cq=$12.0000 | #m=9 om=$0.5000 | #(q|v)=80 bq|v=$7.0000 | rc=36.95%",
		"done in 8.4s",
	}
	r, err := parseJobReport(lines)
	if err != nil {
		t.Fatal(err)
	}
	if r.saved != 36.95 || r.selected != 9 || r.candidates != 46 || r.applied != 9 || r.line != lines[3] {
		t.Fatalf("parsed %+v", r)
	}
	// A NaN or infinite ratio prints as "rc=NaN%": an error, not a panic.
	for _, rc := range []string{"NaN", "+Inf", "1.2.3"} {
		bad := append([]string(nil), lines...)
		bad[3] = "wd+iterview: #q=226 cq=$0.0000 | #m=9 om=$0.5000 | #(q|v)=0 bq|v=$0.0000 | rc=" + rc + "%"
		if _, err := parseJobReport(bad); err == nil {
			t.Errorf("rc=%s%%: no error", rc)
		}
	}
	if _, err := parseJobReport(lines[:3]); err == nil {
		t.Error("output without a report line: no error")
	}
}

// A 10 s run's closed-loop phase yields enough windows for the reported
// percentile under the ten-beyond rule.
func TestClosedLoopWindowsSupportThroughputPercentile(t *testing.T) {
	windows := int(closedShare * float64(10*time.Second) / float64(closedWindow))
	if !supported(closedPercentile, windows) {
		t.Fatalf("%d windows do not support p%g", windows, closedPercentile)
	}
}
