package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"autoview/internal/workload"
)

// wk1Params are the parameters workload.WK1 uses. The benchmark runs the
// same generator past WK1's 600 queries; the catalog is drawn before any
// query, so it stays WK1's and the server can bind every query.
var wk1Params = workload.WKParams{
	Name:             "WK1",
	Projects:         21,
	FactsPerProject:  2,
	DimsPerProject:   1,
	Queries:          600,
	FragsPerProject:  3,
	Skew:             1.4,
	ThreeWayFraction: 0.15,
	RowSkew:          2.5,
	UniqueFraction:   0.45,
	Seed:             42,
}

// wk1Extended generates WK1 plus extra queries and checks that its first
// 600 queries are WK1's, so a change to either generator is caught here
// rather than measured.
func wk1Extended(extra int) (*workload.Workload, error) {
	p := wk1Params
	p.Queries += extra
	w := workload.WK(p)
	base := workload.WK1()
	for i, q := range base.Queries {
		if w.Queries[i].SQL != q.SQL {
			return nil, fmt.Errorf("inputs: extended WK1 query %d differs from WK1's", i)
		}
	}
	return w, nil
}

// idLimit matches the partner-branch literal ("id < N") that WK queries
// with a per-query filtered dimension carry.
var idLimit = regexp.MustCompile(`id < [0-9]+ \)`)

// literalBases returns the queries of w from index from on that carry the
// id-limit literal, the queries whose literal the benchmark perturbs.
func literalBases(w *workload.Workload, from int) []string {
	var out []string
	for _, q := range w.Queries[from:] {
		if idLimit.MatchString(q.SQL) {
			out = append(out, q.SQL)
		}
	}
	return out
}

// withLimit rewrites the id-limit literal of sql to n.
func withLimit(sql string, n int) string {
	loc := idLimit.FindStringIndex(sql)
	return sql[:loc[0]] + fmt.Sprintf("id < %d )", n) + sql[loc[1]:]
}

// coldGen hands out query SQL never sent before in the run: a seeded
// pick of an extended-WK1 query with its literal set to a value no
// earlier query of the run used.
type coldGen struct {
	bases []string
	rng   *rand.Rand
	next  int
}

func newColdGen(bases []string, seed int64) *coldGen {
	return &coldGen{bases: bases, rng: rand.New(rand.NewSource(seed))}
}

func (g *coldGen) query() string {
	k := g.next
	g.next++
	// Literals step by 8 with a seeded offset, so each is used once.
	return withLimit(g.bases[g.rng.Intn(len(g.bases))], 1000+8*k+g.rng.Intn(8))
}

// hotPool draws size distinct (query, view) pairs from WK1's queries and
// the active views: the dashboard pool the hot workload repeats.
func hotPool(queries, views []string, size int, rng *rand.Rand) []pair {
	seen := make(map[pair]bool, size)
	out := make([]pair, 0, size)
	for len(out) < size {
		p := pair{Query: queries[rng.Intn(len(queries))], View: views[rng.Intn(len(views))]}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// driftGen produces the advise-churn ingest stream. A favoured block of
// projects slides across the catalog as the run progresses and literals
// drift with it, so successive windows share different subqueries and
// select different views.
type driftGen struct {
	byProject [][]string // literal-carrying queries per project
	rng       *rand.Rand
}

func newDriftGen(w *workload.Workload, seed int64) *driftGen {
	idx := map[string]int{}
	var by [][]string
	for _, q := range w.Queries {
		if !idLimit.MatchString(q.SQL) {
			continue
		}
		i, ok := idx[q.Project]
		if !ok {
			i = len(by)
			idx[q.Project] = i
			by = append(by, nil)
		}
		by[i] = append(by[i], q.SQL)
	}
	return &driftGen{byProject: by, rng: rand.New(rand.NewSource(seed))}
}

// query returns the next ingest query at run progress phase in [0, 1).
func (g *driftGen) query(phase float64) string {
	n := len(g.byProject)
	block := n / 3
	p := g.rng.Intn(n)
	if g.rng.Float64() < 0.85 {
		p = (int(phase*float64(n)) + g.rng.Intn(block)) % n
	}
	qs := g.byProject[p]
	return withLimit(qs[g.rng.Intn(len(qs))], 100+int(phase*400)+g.rng.Intn(50))
}

func truncate(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
