#!/usr/bin/env python3
"""Runs one hytap benchmark workload and prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) into the build
directory, runs the workload with the thread budget it is defined with, checks
the determinism of every deterministic value against earlier runs of the same
seed, and prints as the last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Exit status 0 = outputs correct, 1 = an output
or determinism check failed, 2 = the benchmark could not be built or run.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Thread budget of each workload (at most the 4 cores the benchmark is sized
# for). The library sizes its pool and solver workers from these variables.
WORKLOAD_ENV = {
    "olap_scan": {"HYTAP_THREADS": "2"},
    "htap_serve": {"HYTAP_THREADS": "1"},
    "retier_shift": {"HYTAP_THREADS": "2", "HYTAP_SOLVER_THREADS": "2"},
    "advise_large": {"HYTAP_THREADS": "2"},
}

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    # Honour a build directory given by the caller (relative to the root).
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(out_dir, "perfbench-cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent.
    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs: the usual cause of a run that is slow throughout."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def finite(value):
    # A miss (failed op) at a percentile reads as +inf; JSON has no infinity.
    return value if math.isfinite(value) else sys.float_info.max


def check_determinism(out_dir, binary, result):
    """Deterministic values must repeat bit-exactly for the same inputs and
    the same program."""
    path = os.path.join(out_dir, "determinism.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    with open(binary, "rb") as f:
        program = hashlib.sha256(f.read()).hexdigest()[:16]
    key = "%s|%s|%s|%s" % (program, result["workload"], result["seed"],
                           result["seconds"])
    previous = known.get(key, {})
    errors = ["determinism: %s was %s, now %s" % (name, previous[name], value)
              for name, value in sorted(result["det"].items())
              if name in previous and previous[name] != value]
    if not errors:
        previous.update(result["det"])
        known[key] = previous
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(known, f, sort_keys=True)
        os.replace(tmp, path)
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_ENV))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    out_dir = build_dir()
    binary = build(out_dir)
    for sub in ("results", "traces", "records"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(out_dir, "results", stem + ".json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", result_path]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, "traces", stem + ".json")]

    # Pin the library to its defaults: drop every inherited HYTAP_* knob
    # (tracing, fault injection, flight dumps stay off) and set only the
    # workload's thread budget.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYTAP_")}
    env.update(WORKLOAD_ENV[args.workload])
    before = cpu_times()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    after = cpu_times()
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        fail("perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])

    errors = list(result["errors"]) + check_determinism(out_dir, binary, result)
    section = "per_layer" if args.trace else "end_to_end"
    values = result["layer"] if args.trace else result["e2e"]
    names = [m["name"] for m in spec[section]]
    errors += ["metric %s is not in BENCHMARK.json" % name
               for name in values if name not in names]
    metrics = {}
    for m in spec[section]:
        if args.trace:
            # A layer the workload does not exercise reads 0 ("flat on").
            value = values.get(m["name"], 0.0)
        elif m["name"] not in values:
            errors.append("missing metric " + m["name"])
            continue
        else:
            value = values[m["name"]]
            if not value > 0:
                errors.append("end-to-end metric %s is not positive" % m["name"])
        metrics[m["name"]] = {"value": finite(value), "unit": m["unit"]}

    record = dict(result["record"])
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env_set": WORKLOAD_ENV[args.workload],
                   "attempted": result["attempted"],
                   "failed": result["failed"], "errors": errors})
    if before and after and after[1] > before[1]:
        record["cpu_steal_pct"] = round(
            100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)
    with open(os.path.join(out_dir, "records", stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("perfbench record: " + json.dumps(record, sort_keys=True))
    for e in errors:
        print("perfbench: " + e, file=sys.stderr)

    correct = result["correct"] and not errors
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
