#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workloads estimate-cold,viewgen-job --seeds 1-10

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, against the metric's bound in
BENCHMARK.json. --out writes the same table as JSON; --log appends every
run's full output to a file, for the metrics printed but not gated.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--log")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    report = {}
    ok = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(f"== {wl} seed {seed} exit {run.returncode}\n{run.stdout}{run.stderr}")
            last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            if run.returncode != 0 or not last.startswith("{"):
                print(f"{wl} seed {seed}: exit {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(last)
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        report[wl] = {}
        for m in metrics:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            report[wl][m["name"]] = {"runs": len(xs), "median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "bound": bound}
            flag = "ok" if spread <= bound else "OVER BOUND"
            print(f"  {wl:14s} {m['name']:30s} median {med:14.6g}  spread {spread:7.3f}  bound {bound}  {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
