#!/usr/bin/env python3
"""Measures how steady the benchmark's metrics are across seeds.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads olap_scan,htap_serve] [--trace 0] [--seconds S]

Runs perfbench/run.py --runs times per workload, one seed each, and prints
per metric the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and min/max. The runs go round by round (seed 1
of every workload, then seed 2, ...), so a slow spell of the host that lasts
a few minutes falls on a few runs of each workload rather than on most runs
of one; each run's wall time and CPU steal (from its run record) are
printed as it ends. For end-to-end metrics the spread is
compared with the metric's bound in BENCHMARK.json: "ok" below a third of
it, "WIDE" up to the bound, "OVER BOUND" beyond. All values are also written as JSON to
<build dir>/steadiness.json. Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    ok = True
    report = {}
    workloads = args.workloads.split(",")
    for workload in workloads:
        report[workload] = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        for workload in workloads:
            values = report[workload]
            began = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                print("%s seed %d: FAILED (exit %d)" %
                      (workload, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            steal = "?"
            for line in lines:
                if line.startswith("perfbench record: "):
                    record = json.loads(line[len("perfbench record: "):])
                    steal = record.get("cpu_steal_pct", "?")
            print("%s seed %d done in %.1f s (cpu steal %s %%)" %
                  (workload, seed, time.monotonic() - began, steal),
                  file=sys.stderr)
    for workload in workloads:
        values = report[workload]
        print("\n%s (%d runs, seeds %d..%d)" %
              (workload, args.runs, args.first_seed,
               args.first_seed + args.runs - 1))
        print("  %-30s %12s %12s %12s %8s %12s %12s" %
              ("metric", "median", "q1", "q3", "spread", "min", "max"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ""
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                verdict = ("ok" if spread < bound / 3 else
                           "WIDE" if spread <= bound else "OVER BOUND")
            print("  %-30s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %s" %
                  (name, med, q1, q3, spread, min(vals), max(vals), verdict))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT if not os.path.isabs(base) else "", base,
                       "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
