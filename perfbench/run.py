#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) under .bench_build/; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Traced runs write their spans to
.bench_build/traces/<workload>-seed<n>.json.

A traced run reports every per-layer metric BENCHMARK.json lists. The
program reports those of the layers the workload runs; each other one is
added with the value 0 (no time spent in that layer) and named in a note.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("asr-bilstm", "encode-ragged", "serve-frames")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"library sources not found under {root}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = root / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    if args.trace == "1":
        declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
        absent = [m for m in declared if m["name"] not in result["metrics"]]
        for m in absent:
            result["metrics"][m["name"]] = {"value": 0.0, "unit": m["unit"]}
        lines.insert(-1, "layers this workload does not run (reported as 0): "
                     + " ".join(m["name"] for m in absent))
    lines[-1] = json.dumps(result)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
