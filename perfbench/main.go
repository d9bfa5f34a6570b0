// Command perfbench is the repository's benchmark. It builds viewserverd
// and viewgen from the tree, runs one named workload against them from
// this single generator process, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of an
// in-process replay of the same inputs) as one JSON line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload estimate-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: estimate-cold, estimate-hot, advise-churn, viewgen-job (see
// README.md for what each measures and why).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Deadlines: one workload run must end well inside the 180 s a run is
// allowed; the first build in a fresh checkout may take much longer.
const (
	runDeadline   = 165 * time.Second
	buildDeadline = 800 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root (the checkout)
	outDir   string // build and scratch directory inside the checkout
	binDir   string
	conns    int // connections the generator may open: nproc
}

func main() {
	var c config
	var secs, trace int
	flag.StringVar(&c.workload, "workload", "", "workload: estimate-cold, estimate-hot, advise-churn, viewgen-job")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 replays the inputs in-process and reports per-layer metrics")
	flag.StringVar(&c.outDir, "out", ".bench_build", "build and scratch directory")
	flag.Parse()
	c.seconds = time.Duration(secs) * time.Second
	c.trace = trace == 1
	os.Exit(run(c))
}

func run(c config) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", r, debug.Stack())
			code = 2
		}
		reapAll()
	}()
	if _, ok := workloads[c.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", c.workload)
		return 2
	}
	if c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	var err error
	if c.root, err = os.Getwd(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if c.outDir, err = filepath.Abs(c.outDir); err == nil {
		err = os.MkdirAll(c.outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	c.conns = runtime.NumCPU()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	bctx, cancel := context.WithTimeout(ctx, buildDeadline)
	c.binDir, err = buildPrograms(bctx, c.root, c.outDir)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(c.binDir)

	// The hard deadline: contexts end the phases; should anything still
	// hang, the watchdog stops the children and exits.
	ctx, cancel = context.WithTimeout(ctx, runDeadline)
	defer cancel()
	watchdog := time.AfterFunc(runDeadline+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: deadline passed, stopping")
		reapAll()
		os.Exit(3)
	})
	defer watchdog.Stop()

	env := describeEnv(c)
	fmt.Println(env)

	// The generator allocates per request against a small live heap, so
	// at the default GOGC it collects many times a second and its CPU use
	// swings; a higher GOGC keeps it out of the server's way. The in-process
	// replay below runs at the default.
	gc := debug.SetGCPercent(800)
	out, err := workloads[c.workload](ctx, c)
	debug.SetGCPercent(gc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		if errors.Is(err, context.DeadlineExceeded) {
			return 3
		}
		return 1
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		out.details = append(out.details, named{name: "generator_peak_rss_mb", unit: "MB", value: float64(ru.Maxrss) / 1024, n: 1, note: "this process, the generator"})
	}
	res := result{Metrics: map[string]metric{}}
	out.print()
	if c.trace {
		layers, err := replay(ctx, c, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: trace replay: %v\n", c.workload, err)
			return 1
		}
		for _, m := range layers {
			res.Metrics[m.name] = jsonMetric(m)
		}
	} else {
		for _, m := range out.endToEnd() {
			res.Metrics[m.name] = jsonMetric(m)
		}
	}
	res.Attempted, res.Failed = out.counts()
	res.Correct = res.Failed == 0
	fmt.Printf("%-24s %14.6f %-5s n=%-6d %s\n", "failed_frac", ratio{float64(res.Failed), float64(res.Attempted)}.Value(), "1",
		res.Attempted, "operations failed, refused or failing a check (one each), over operations attempted")
	for _, e := range out.checks {
		fmt.Println("FAILED CHECK:", e)
	}
	for _, e := range out.tally.errs {
		fmt.Println("failed operation:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// jsonMetric converts a reported value for the result line. JSON has no
// infinities: a latency that includes failed requests (+Inf) is written
// as the largest float, and such a run is never correct anyway.
func jsonMetric(m named) metric {
	v := m.value
	switch {
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsInf(v, -1):
		v = -math.MaxFloat64
	case math.IsNaN(v):
		v = 0
	}
	return metric{Value: v, Unit: m.unit}
}
