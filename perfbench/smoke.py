#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, in ~1 minute.

    python3 perfbench/smoke.py

Asserts that each run passes its correctness checks, that every metric named
in BENCHMARK.json appears with its unit in both modes, that the simulator's
counts repeat bit-exactly across two runs of the same seed (also on
ring-bridge-seq, which traced runs measure as a per-layer donor), and that
kLive pays exactly kSim's costs on the same requests. Exits non-zero on
failure.
"""

import sys

import run

SEED = 3
SECONDS = 0.5
# Workloads whose counts come from the deterministic simulator.
EXACT = ("svc-sim-zipf", "ring-bridge-seq")
COST_METRICS = ("find_msgs_per_acquire", "distance_per_acquire")
PROTO_COUNTS = ("proto.find_msgs", "proto.token_msgs", "proto.max_visited")


def values(result, names):
    return {name: result["metrics"][name]["value"] for name in names}


def main():
    spec = run.load_spec()
    binary = run.build()
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run.execute(binary, workload, SEED, SECONDS, trace, scale="tiny")
            run.validate(result, spec, trace)
            results[workload, trace] = result
            print(f"ok  {workload} trace={trace}: correct, every metric present with its unit")

    for workload in EXACT:
        for trace, names in ((0, COST_METRICS), (1, PROTO_COUNTS)):
            runs = [run.execute(binary, workload, SEED, SECONDS, trace, scale="tiny")
                    for _ in range(2)]
            first, again = (values(result, names) for result in runs)
            assert again == first, (workload, first, again)
        print(f"ok  {workload}: counts repeat bit-exactly")

    sim = values(results["svc-sim-zipf", 0], COST_METRICS)
    live = values(results["svc-live-zipf", 0], COST_METRICS)
    assert sim == live, (sim, live)
    print("ok  svc-live-zipf pays exactly svc-sim-zipf's costs")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (run.BenchError, AssertionError) as error:
        print(f"smoke: FAILED {error}", file=sys.stderr)
        sys.exit(1)
