#!/usr/bin/env python3
"""Build fjbench from source and run one workload.

    python3 fjbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 fjbench/run.py --smoke

The first form prints the benchmark's `name value unit` lines and, as
the last line of standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
BENCHMARK.json names with `--trace 0`, its per-layer metrics with
`--trace 1`. It exits nonzero, printing no result, when the program
cannot be built or a named metric is missing.

`--smoke` runs every workload for one short round, twice with the same
seed, plus once traced, and fails unless every metric prints, nothing
fails, and the deterministic counts repeat.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "fjbench", "fjbench.exe")
BUILD_TIMEOUT_S = 850
# One run, its reruns included, ends within this many seconds.
RUN_BUDGET_S = 170
# A rerun is started only if this much of the budget is left.
RERUN_MIN_S = 60

# Counts that must repeat between two runs of the same seed, and the
# relative tolerance of each.
REPEATABLE = {
    "run_words_per_req": 0.0,
    "run_steps_per_req": 0.0,
    "code_nodes_per_req": 0.0,
    "cache.hits": 0.0,
    "cache.misses": 0.0,
    "cache.stores": 0.0,
    "compile_kwords_per_req": 0.001,
}


def die(msg):
    print("fjbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no dune-project and lib/ here: run from the root of the repository")
    try:
        subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./fjbench/fjbench.exe"],
            check=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        die("dune not found")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)


def run_exe(args):
    """Run the benchmark program; return (exit code, {name: (value, unit)}, lines).

    A process killed by a signal is run again from scratch, while the
    time budget allows. The OCaml 5.1.1 runtime this was written
    against aborts now and then with "allocation failure during minor
    GC" (a stale pointer found while scanning roots). A plain loop of
    Service.process_one over the corpus does it too, about once in
    ten 30-second runs. The reruns print as `bench.restarts`.
    """
    work = os.path.join(".fjbench-work", "run-%d" % os.getpid())
    deadline = time.monotonic() + RUN_BUDGET_S
    restarts = 0
    while True:
        try:
            proc = subprocess.run(
                [EXE, "--work", work] + args,
                stdout=subprocess.PIPE,
                text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            die("benchmark did not finish within %d s" % RUN_BUDGET_S)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(".fjbench-work")
            except OSError:
                pass
        if proc.returncode >= 0 or deadline - time.monotonic() < RERUN_MIN_S:
            break
        restarts += 1
        print("fjbench: the benchmark process died of signal %d; running it again"
              % -proc.returncode, file=sys.stderr)
    metrics = {"bench.restarts": (float(restarts), "count")}
    lines = proc.stdout.splitlines() + ["bench.restarts %d count" % restarts]
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            try:
                metrics[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return proc.returncode, metrics, lines


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def missing(spec, trace, metrics):
    return [
        m["name"]
        for m in declared(spec, trace)
        if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]
    ]


def run_one(spec, opts):
    args = [
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", str(opts.trace),
    ]
    if opts.trace:
        args += ["--trace-out", os.path.join(
            ".fjbench-out", "trace-%s-%d.json" % (opts.workload, opts.seed))]
    code, metrics, lines = run_exe(args)
    if code not in (0, 1) or "attempted" not in metrics:
        die("benchmark exited %d" % code)
    absent = missing(spec, opts.trace, metrics)
    if absent:
        die("metrics missing or with the wrong unit: " + ", ".join(absent))
    for line in lines:
        print(line)
    attempted = int(metrics["attempted"][0])
    failed = int(metrics["failed"][0])
    result = {
        "correct": code == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in declared(spec, opts.trace)
        },
    }
    print(json.dumps(result), flush=True)


def smoke(spec):
    problems = []
    t0 = time.monotonic()
    for w in [w["name"] for w in spec["workloads"]]:
        runs = []
        for trace in (0, 0, 1):
            code, metrics, _ = run_exe(
                ["--workload", w, "--seed", "1", "--smoke", "--trace", str(trace)])
            if code != 0:
                problems.append("%s (trace %d): exit %d" % (w, trace, code))
            absent = missing(spec, trace, metrics)
            if absent:
                problems.append("%s (trace %d): missing %s" % (w, trace, ", ".join(absent)))
            if metrics.get("failed_frac", (1.0, ""))[0] != 0.0:
                problems.append("%s (trace %d): failed_frac is not 0" % (w, trace))
            runs.append(metrics)
        a, b = runs[0], runs[1]
        for name, tol in REPEATABLE.items():
            if name not in a:
                continue
            x, y = a[name][0], b.get(name, (None,))[0]
            if y is None or abs(x - y) > tol * abs(x):
                problems.append("%s: %s differs between runs (%s vs %s)" % (w, name, x, y))
    for p in problems:
        print("fjbench smoke: " + p, file=sys.stderr)
    print("fjbench smoke: %s in %.1f s" % ("FAIL" if problems else "ok", time.monotonic() - t0))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    opts = ap.parse_args()
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    build()
    if opts.smoke:
        sys.exit(smoke(spec))
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        die("--workload must be one of the workloads in BENCHMARK.json")
    run_one(spec, opts)


if __name__ == "__main__":
    main()
