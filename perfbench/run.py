#!/usr/bin/env python3
"""Benchmark entry point for libbolt.

    python3 perfbench/run.py --workload detect|serve|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the perfbench binary (and the library
it links) from source into .bench_build/ on first use, runs one
workload, checks the binary's output against BENCHMARK.json and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics and writes spans.jsonl and layers.json under
.bench_out/<workload>-seed<N>/. Exits 1 without a result when the
library sources are missing or the build or the binary fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("detect", "serve", "fleet")

# End-to-end metrics each workload measures. The others do not apply to
# it; they are reported as exactly 1 so every run carries every metric
# BENCHMARK.json declares (the workloads' "why" lines say so).
APPLIES = {
    "detect": {"victims_per_s", "class_accuracy", "char_accuracy",
               "sim_detect_rounds"},
    "serve": {"exec_qps", "sim_goodput_qps", "sim_latency_p50_ms",
              "sim_latency_p99_ms"},
    "fleet": {"host_epochs_per_s"},
}
COMMON = {"setup_s", "peak_rss_mb", "ok_frac"}
NOT_APPLICABLE = 1.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then bring the binary up to date."""
    for need in ("CMakeLists.txt", os.path.join("src", "core")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("library sources not found next to perfbench/ "
                 "(missing %s)" % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                fail("build failed, see " + log_path)
    return BINARY


def run_workload(workload, seed, seconds, trace):
    """Run the binary; return its parsed JSON object and output dir."""
    binary = build()
    out_dir = os.path.join(OUT_DIR, "%s-seed%d" % (workload, seed))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary exited %d: %s"
             % (proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    with open(os.path.join(out_dir, "result-trace%d.json" % trace),
              "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result, out_dir


def contract_result(workload, result, spec, trace):
    """Reduce the binary's object to the contract's four keys."""
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    metrics = {}
    ok = bool(result["correct"])
    for m in declared:
        name, unit = m["name"], m["unit"]
        if not trace and name not in COMMON | APPLIES[workload]:
            metrics[name] = {"value": NOT_APPLICABLE, "unit": unit}
            continue
        entry = got.get(name)
        if (entry is None or entry.get("unit") != unit or
                not isinstance(entry.get("value"), (int, float))):
            print("perfbench: metric %s missing or wrong unit" % name,
                  file=sys.stderr)
            ok = False
            continue
        metrics[name] = {"value": entry["value"], "unit": unit}
    if result.get("diag", {}).get("first_failure"):
        print("perfbench: " + result["diag"]["first_failure"],
              file=sys.stderr)
    return {"correct": ok, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")
    spec = load_spec()
    result, out_dir = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace)
    out = contract_result(args.workload, result, spec, args.trace)
    if args.trace:
        print("perfbench: spans and layers in " +
              os.path.relpath(out_dir, ROOT), file=sys.stderr)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
