#!/usr/bin/env python3
"""End-to-end benchmark of the EDR reproduction.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout.  The script builds
perfbench/edr_perfbench (and the libraries under src/) into .bench_build/,
then runs the workload as repeated child processes, one repetition each:

  --trace 0  untraced repetitions (telemetry off) for --seconds seconds, at
             least three; prints the medians of the end-to-end metrics.
  --trace 1  the same untraced repetitions, then one traced repetition that
             records wall-clock spans around the bench's calls into each
             layer (Chrome trace in .bench_build/traces/); prints the
             per-layer metrics, the attribution row (unattributed_frac) and
             the tracing overhead (traced wall_s - untraced wall_s).

Every repetition checks its outputs (see perfbench/README.md); the
deterministic outputs must also agree across all repetitions of the
invocation, traced or not.  Any failed check exits 1.  Every metric is
printed as "<name> <value> <unit>", then a host line, then one JSON object
as the last line of standard output.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "edr_perfbench")

# Workloads and metrics (name, unit) come from the benchmark definition.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
    SPEC = json.load(spec)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
DEFAULT_SEED = 1
# A claimed gain is confirmed on this seed too; it is not used for tuning.
HELD_OUT_SEED = 20261017
MIN_REPS = 3
REP_TIMEOUT_S = 120


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build edr_perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no EDR sources under {ROOT}/src; run from a source checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "edr_perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def repetition(args):
    """Run edr_perfbench once; returns its JSON result, or None if it failed."""
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("repetition timed out: " + " ".join(args))
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"repetition exited {proc.returncode} without a result")
    elif proc.returncode != 0 or not result["correct"]:
        result["correct"] = False
    return result


def host_metadata():
    proc = subprocess.run([BINARY, "--host"], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                        f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not build():
        return 2
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]

    # Untraced repetitions: keep starting one while it is expected to end
    # inside the measuring window, and run at least MIN_REPS.
    reps, attempted, failures = [], 0, []
    start = time.monotonic()
    longest = 0.0
    while len(reps) < MIN_REPS or (
            time.monotonic() - start + longest <= opts.seconds):
        began = time.monotonic()
        result = repetition(base)
        longest = max(longest, time.monotonic() - began)
        attempted += 1
        if result is None or not result["correct"]:
            failures.append(result)
            break
        reps.append(result)

    traced = None
    if opts.trace == 1 and not failures:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, f"{opts.workload}-seed{opts.seed}.json")
        traced = repetition(base + ["--trace-out", trace_path])
        attempted += 1
        if traced is None or not traced["correct"]:
            failures.append(traced)
            traced = None
        else:
            log(f"chrome trace: {trace_path}")

    # Deterministic outputs must not depend on the repetition or on tracing.
    runs = reps + ([traced] if traced else [])
    for run in runs[1:]:
        if run["deterministic"] != runs[0]["deterministic"]:
            log("deterministic outputs differ between repetitions: "
                f"{runs[0]['deterministic']} vs {run['deterministic']}")
            failures.append(run)
            break
    for failure in failures:
        for what in (failure or {}).get("failures", []):
            log(f"check failed: {what}")

    metrics = {}
    if reps:
        for name, unit in END_TO_END:
            metrics[name] = {
                "value": statistics.median(r["e2e"][name] for r in reps),
                "unit": unit}
    if traced:
        layers = dict(traced["layers"])
        layers["trace_overhead_s"] = (traced["e2e"]["wall_s"]
                                      - metrics["wall_s"]["value"])
        per_layer = {name: {"value": layers[name], "unit": unit}
                     for name, unit in PER_LAYER}

    for name, unit in END_TO_END:
        if name in metrics:
            print(f"{name} {metrics[name]['value']:.6g} {unit}")
    if traced:
        for name, unit in PER_LAYER:
            print(f"{name} {per_layer[name]['value']:.6g} {unit}")
    if runs:
        print("deterministic " + json.dumps(runs[0]["deterministic"],
                                            sort_keys=True))
    print("host " + json.dumps(host_metadata(), sort_keys=True))
    print(f"repetitions {len(reps)} untraced"
          + (", 1 traced" if traced else ""))

    correct = not failures
    if opts.trace == 1:
        metrics = per_layer if correct else {}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
