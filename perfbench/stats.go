package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a percentile with fewer samples past it is noise.
const minBeyond = 10

// tailLadder lists the percentiles tried, highest first, when reporting
// the gated tail: the highest one the sample supports. It stops at p95:
// on a shared 2-vCPU machine a few scheduling hiccups per run moved p99
// of identical runs between 2 and 5.5 ms, while p95 held within a few
// percent. p99 is printed beside it (see p99Line), not gated.
var tailLadder = []float64{95, 90, 75}

// rank returns the nearest-rank index of percentile p in a sorted sample
// of n values: the smallest index whose cumulative share reaches p.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// supported reports whether percentile p of an n-sample leaves at least
// minBeyond samples beyond its rank.
func supported(p float64, n int) bool {
	return n > 0 && n-1-rank(p, n) >= minBeyond
}

// summary is a latency (or duration) sample reduced to what the benchmark
// reports: the count, the median, and the highest supported tail.
type summary struct {
	N      int
	P50    float64
	Tail   float64
	TailAt string // "p99", "p95", …, or "max" when no percentile is supported
}

// summarize sorts a copy of xs and reduces it. With fewer samples than
// any tail percentile needs, the tail is the maximum, labelled "max".
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: median(s), Tail: s[len(s)-1], TailAt: "max"}
	for _, p := range tailLadder {
		if supported(p, len(s)) {
			out.Tail = s[rank(p, len(s))]
			out.TailAt = fmt.Sprintf("p%g", p)
			break
		}
	}
	return out
}

// percentile returns percentile p of xs and whether the sample supports
// it under the ten-beyond rule.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))], supported(p, len(s))
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ratio is a share with its base kept beside it, so every reported ratio
// can say what it was taken over.
type ratio struct {
	Num, Base float64
}

// Value returns Num/Base, or NaN for an empty base (no ratio exists).
func (r ratio) Value() float64 {
	if r.Base <= 0 {
		return math.NaN()
	}
	return r.Num / r.Base
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%g of %g)", r.Value(), r.Num, r.Base)
}

// schedule is a fixed-rate open-loop arrival schedule: request i is due
// at start + i/rate, whatever happened to earlier requests.
type schedule struct {
	start time.Time
	rate  float64 // requests per second
	n     int
}

func newSchedule(start time.Time, rate float64, d time.Duration) schedule {
	return schedule{start: start, rate: rate, n: int(math.Floor(rate * d.Seconds()))}
}

// due returns the time request i is due.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
