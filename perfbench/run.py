#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench (this directory's CMake
package, Release) into .bench_build/perfbench, runs one workload, checks its
outputs and prints a report. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A failed
build or correctness check exits non-zero without that line.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the repository root")
    return json.loads(path.read_text())


def build():
    """Configures once, then brings the binary up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                "-DCMAKE_BUILD_TYPE=Release", *generator])
    _quiet(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    return BUILD / "perfbench"


def _quiet(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def execute(binary, workload, seed, seconds, trace, scale="full"):
    """Runs the program; returns its parsed result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result.get("correct"):
        failed = [c for c in result.get("checks", []) if not c["ok"]]
        raise BenchError(f"{workload} failed its correctness checks: "
                         f"attempted={result.get('attempted')} failed={result.get('failed')} "
                         f"checks={json.dumps(failed)}")
    return result


def expected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def validate(result, spec, trace):
    """Every metric of the mode is present, finite and in its declared unit."""
    got = result["metrics"]
    for metric in expected_metrics(spec, trace):
        entry = got.get(metric["name"])
        if entry is None:
            raise BenchError(f"metric {metric['name']} missing")
        if entry["unit"] != metric["unit"]:
            raise BenchError(f"metric {metric['name']} has unit {entry['unit']}, "
                             f"expected {metric['unit']}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            raise BenchError(f"metric {metric['name']} is not a finite number")


def report(result, spec, trace):
    context = dict(result["context"], git_sha=git_sha())
    print(f"workload {result['workload']}  seed {int(result['seed'])}  trace {trace}")
    print("context " + json.dumps(context, sort_keys=True))
    print("samples " + json.dumps(result["samples"], sort_keys=True))
    for check in result["checks"]:
        print(f"check  ok  {check['name']}  {check['detail']}".rstrip())
    if trace:
        print("reconciliation " + json.dumps(result["extra"]["reconciliation"]))
        print("trace_overhead " + json.dumps(result["extra"]["trace_overhead"]))
    for metric in expected_metrics(spec, trace):
        entry = result["metrics"][metric["name"]]
        print(f"metric {metric['name']:<30} {entry['value']:>16.6g} {entry['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; one of {names}")
        binary = build()
        result = execute(binary, args.workload, args.seed, args.seconds, args.trace)
        validate(result, spec, args.trace)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    report(result, spec, args.trace)
    metrics = {m["name"]: result["metrics"][m["name"]] for m in expected_metrics(spec, args.trace)}
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
