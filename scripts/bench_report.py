#!/usr/bin/env python3
"""Merge before/after google-benchmark JSON dumps into a machine-readable
benchmark report (BENCH_<n>.json).

Workflow (see EXPERIMENTS.md, "Benchmark regression workflow"):

    # 1. capture the baseline on the pre-change tree
    ./build/bench/runtime_throughput --benchmark_format=json > before_runtime.json
    ./build/bench/checker_micro      --benchmark_format=json > before_checker.json
    # 2. rebuild with the change, capture again
    ./build/bench/runtime_throughput --benchmark_format=json > after_runtime.json
    ./build/bench/checker_micro      --benchmark_format=json > after_checker.json
    # 3. merge
    scripts/bench_report.py --before before_runtime.json before_checker.json \
        --after after_runtime.json after_checker.json --out BENCH_3.json

Both captures must come from the same machine; the report embeds the
benchmark context (host, CPU, build type) of each side so a cross-machine
comparison is visible in review. Benchmarks present on only one side are
reported with a null counterpart instead of being dropped.
"""

import argparse
import json
import sys


def load_side(paths):
    """Returns (context, {name: benchmark-entry}) merged across files."""
    context = None
    entries = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        if context is None:
            context = doc.get("context", {})
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench["name"]
            if name in entries:
                print(f"warning: duplicate benchmark {name!r} in {path}; "
                      "keeping the first occurrence", file=sys.stderr)
                continue
            entries[name] = bench
    return context or {}, entries


def context_summary(context):
    return {
        "host_name": context.get("host_name"),
        "num_cpus": context.get("num_cpus"),
        "mhz_per_cpu": context.get("mhz_per_cpu"),
        "cpu_scaling_enabled": context.get("cpu_scaling_enabled"),
        "library_build_type": context.get("library_build_type"),
        "arvy_build_type": context.get("arvy_build_type"),
        "arvy_git_sha": context.get("arvy_git_sha"),
        "date": context.get("date"),
    }


def fault_sweep_report(paths, out):
    """Single-capture mode for the fault-injection goodput sweep.

    Reads google-benchmark JSON from bench/fault_throughput (benchmarks
    named BM_<something>/<drop-percent>) and writes a report keyed by drop
    rate: satisfied-request throughput plus the retry overhead counters.

        ./build/bench/fault_throughput --benchmark_format=json > faults.json
        scripts/bench_report.py --fault-sweep faults.json --out BENCH_5.json
    """
    context, entries = load_side(paths)
    sweeps = []
    for name, bench in entries.items():
        base, sep, arg = name.rpartition("/")
        if not sep or not arg.isdigit():
            print(f"warning: skipping {name!r} (no /<drop-percent> suffix)",
                  file=sys.stderr)
            continue
        sweeps.append({
            "benchmark": base,
            "drop_percent": int(arg),
            "time_unit": bench.get("time_unit", "ns"),
            "real_time": bench.get("real_time"),
            "satisfied_per_second": bench.get("items_per_second"),
            "drops_per_run": bench.get("drops_per_run"),
            "retries_per_run": bench.get("retries_per_run"),
            "permanent_losses": bench.get("permanent_losses"),
        })
    sweeps.sort(key=lambda r: (r["benchmark"], r["drop_percent"]))

    # Goodput retained relative to each benchmark's own 0%-drop leg: the
    # headline number ("10% drop costs X% throughput, zero losses").
    baseline = {r["benchmark"]: r["satisfied_per_second"]
                for r in sweeps if r["drop_percent"] == 0}
    for r in sweeps:
        base_rate = baseline.get(r["benchmark"])
        r["goodput_vs_no_faults"] = (
            round(r["satisfied_per_second"] / base_rate, 3)
            if base_rate and r["satisfied_per_second"] else None)

    report = {
        "schema": "arvy-fault-sweep/1",
        "context": context_summary(context),
        "sweeps": sweeps,
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    width = max((len(r["benchmark"]) for r in sweeps), default=0)
    for r in sweeps:
        kept = (f"{100 * r['goodput_vs_no_faults']:.1f}%"
                if r["goodput_vs_no_faults"] is not None else "n/a")
        print(f"{r['benchmark']:<{width}}  drop={r['drop_percent']:>2}%  "
              f"goodput={kept:>7}")


def parse_live_args(name):
    """Extracts (workers, batch) from BM_LiveSatisfiedThroughput/workers:X/
    batch:Y[/real_time]; returns None if the name has no such arguments."""
    workers = batch = None
    for part in name.split("/")[1:]:
        key, sep, value = part.partition(":")
        if sep and value.isdigit():
            if key == "workers":
                workers = int(value)
            elif key == "batch":
                batch = int(value)
    if workers is None or batch is None:
        return None
    return workers, batch


def runtime_sweep_report(paths, out, baseline, max_regress):
    """Single-capture mode for the threaded-runtime throughput sweep.

    Reads google-benchmark JSON from bench/runtime_throughput and writes the
    workers x batch-size grid of live satisfied/s next to the sim baseline
    (BM_SimSatisfiedThroughput): the headline is the best live/sim ratio.

        ./build/bench/runtime_throughput \\
            --benchmark_filter=SatisfiedThroughput \\
            --benchmark_format=json > runtime.json
        scripts/bench_report.py --runtime-sweep runtime.json --out BENCH_8.json

    With --baseline <previous BENCH_8.json>, fails (exit 1) if the headline
    live/sim ratio dropped by more than --max-regress. The ratio - not the
    absolute satisfied/s - is compared because both sides of it come from the
    same capture on the same machine, so CI hardware churn cancels out.
    """
    context, entries = load_side(paths)
    sim_rate = None
    grid = []
    for name, bench in entries.items():
        if name.startswith("BM_SimSatisfiedThroughput"):
            sim_rate = bench.get("items_per_second")
            continue
        if not name.startswith("BM_LiveSatisfiedThroughput"):
            continue
        live_args = parse_live_args(name)
        if live_args is None:
            print(f"warning: skipping {name!r} (no workers:/batch: args)",
                  file=sys.stderr)
            continue
        workers, batch = live_args
        grid.append({
            "workers": workers,
            "batch": batch,
            # Counter recorded by the bench itself; 0 means "one worker per
            # node" was requested, so keep the resolved arg value instead.
            "worker_threads": bench.get("worker_threads", workers),
            "hw_threads": bench.get("hw_threads"),
            "time_unit": bench.get("time_unit", "ns"),
            "real_time": bench.get("real_time"),
            "satisfied_per_second": bench.get("items_per_second"),
        })
    if sim_rate is None or not grid:
        sys.exit("error: capture must contain BM_SimSatisfiedThroughput and "
                 "at least one BM_LiveSatisfiedThroughput/workers:*/batch:* "
                 "run (use --benchmark_filter=SatisfiedThroughput)")
    grid.sort(key=lambda r: (r["workers"], r["batch"]))
    for r in grid:
        r["live_vs_sim"] = (round(r["satisfied_per_second"] / sim_rate, 3)
                            if r["satisfied_per_second"] else None)

    best = max(grid, key=lambda r: r["satisfied_per_second"] or 0.0)
    report = {
        "schema": "arvy-runtime-sweep/1",
        "context": context_summary(context),
        "sim": {
            "benchmark": "BM_SimSatisfiedThroughput",
            "satisfied_per_second": sim_rate,
        },
        "grid": grid,
        "headline": {
            "best_live_per_second": best["satisfied_per_second"],
            "sim_per_second": sim_rate,
            "live_vs_sim": best["live_vs_sim"],
            "workers": best["workers"],
            "batch": best["batch"],
        },
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for r in grid:
        print(f"workers={r['workers']}  batch={r['batch']:>2}  "
              f"satisfied/s={r['satisfied_per_second']:>12.0f}  "
              f"live/sim={r['live_vs_sim']:.3f}")
    print(f"headline: live/sim = {best['live_vs_sim']:.3f} "
          f"(workers={best['workers']}, batch={best['batch']})")

    if baseline:
        with open(baseline) as fh:
            old = json.load(fh)
        old_ratio = old.get("headline", {}).get("live_vs_sim")
        new_ratio = best["live_vs_sim"]
        if old_ratio is None or new_ratio is None:
            sys.exit("error: baseline or capture lacks a live_vs_sim headline")
        floor = old_ratio * (1.0 - max_regress)
        verdict = "OK" if new_ratio >= floor else "REGRESSION"
        print(f"baseline live/sim = {old_ratio:.3f}, floor = {floor:.3f} "
              f"(max regress {max_regress:.0%}): {verdict}")
        if new_ratio < floor:
            sys.exit(1)


def parse_grid_args(name):
    """Extracts (objects, shards) from BM_MultiObjectService/objects:X/
    shards:Y[/real_time]; returns None if the name has no such arguments."""
    objects = shards = None
    for part in name.split("/")[1:]:
        key, sep, value = part.partition(":")
        if sep and value.isdigit():
            if key == "objects":
                objects = int(value)
            elif key == "shards":
                shards = int(value)
    if objects is None or shards is None:
        return None
    return objects, shards


def multi_object_sweep_report(paths, out, baseline, max_regress):
    """Single-capture mode for the sharded DirectoryService sweep.

    Reads google-benchmark JSON from bench/multi_object (the objects x shards
    grid) and writes the two shapes the service design must show:

      - per-object traffic flat in the object count (find_per_satisfied at
        the largest object count vs the smallest, per shard leg);
      - satisfied/s scaling with shards, normalized by min(shards,
        hw_threads) so a 1-core runner gates the same contract as a 16-core
        one.

        ./build-bench/bench/multi_object --benchmark_format=json > multi.json
        scripts/bench_report.py --multi-object-sweep multi.json \\
            --out BENCH_10.json

    With --baseline <previous BENCH_10.json>, fails (exit 1) when, on any
    grid point present in both captures, find_per_satisfied grew by more
    than --max-regress or normalized shard scaling dropped by more than
    --max-regress. Both are ratios of same-capture quantities (protocol
    message counts; rate(S)/rate(1)), so CI hardware churn cancels out.
    """
    context, entries = load_side(paths)
    grid = []
    for name, bench in entries.items():
        if not name.startswith("BM_MultiObjectService"):
            continue
        grid_args = parse_grid_args(name)
        if grid_args is None:
            print(f"warning: skipping {name!r} (no objects:/shards: args)",
                  file=sys.stderr)
            continue
        objects, shards = grid_args
        grid.append({
            "objects": objects,
            "shards": shards,
            "time_unit": bench.get("time_unit", "ns"),
            "real_time": bench.get("real_time"),
            "satisfied_per_second": bench.get("items_per_second"),
            "find_per_satisfied": bench.get("find_per_satisfied"),
            "distance_per_satisfied": bench.get("distance_per_satisfied"),
            "resident_objects": bench.get("resident_objects"),
            "resident_bytes": bench.get("resident_bytes"),
            "hw_threads": bench.get("hw_threads"),
        })
    if not grid:
        sys.exit("error: capture contains no BM_MultiObjectService/objects:*/"
                 "shards:* runs (run bench/multi_object)")
    grid.sort(key=lambda r: (r["objects"], r["shards"]))

    # Normalized shard scaling: rate(S) / (rate(1) * min(S, hw_threads)) at
    # the same object count. min(S, hw) is the honest linear-speedup
    # denominator - extra shards beyond the core count pipeline, they do not
    # parallelize.
    one_shard = {r["objects"]: r["satisfied_per_second"]
                 for r in grid if r["shards"] == 1}
    for r in grid:
        base_rate = one_shard.get(r["objects"])
        hw = int(r["hw_threads"] or 1)
        denom = min(r["shards"], max(hw, 1))
        r["normalized_scaling"] = (
            round(r["satisfied_per_second"] / (base_rate * denom), 3)
            if base_rate and r["satisfied_per_second"] else None)

    # Traffic flatness per shard leg: find_per_satisfied at the largest
    # object count over the smallest (1.0 = perfectly independent objects).
    shard_legs = sorted({r["shards"] for r in grid})
    flatness = {}
    for shards in shard_legs:
        leg = [r for r in grid if r["shards"] == shards
               and r["find_per_satisfied"]]
        if len(leg) >= 2:
            lo, hi = min(leg, key=lambda r: r["objects"]), \
                max(leg, key=lambda r: r["objects"])
            flatness[shards] = round(
                hi["find_per_satisfied"] / lo["find_per_satisfied"], 3)

    max_shards = max(shard_legs)
    top = [r for r in grid if r["shards"] == max_shards
           and r["normalized_scaling"] is not None]
    headline_scaling = (max(top, key=lambda r: r["objects"])
                        if top else None)
    report = {
        "schema": "arvy-multi-object-sweep/1",
        "context": context_summary(context),
        "grid": grid,
        "headline": {
            "max_objects": max(r["objects"] for r in grid),
            "max_shards": max_shards,
            "traffic_flatness_by_shards": flatness,
            "normalized_scaling": (headline_scaling["normalized_scaling"]
                                   if headline_scaling else None),
        },
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for r in grid:
        scaling = (f"{r['normalized_scaling']:.3f}"
                   if r["normalized_scaling"] is not None else "  n/a")
        print(f"objects={r['objects']:>8}  shards={r['shards']}  "
              f"satisfied/s={r['satisfied_per_second']:>12.0f}  "
              f"find/satisfied={r['find_per_satisfied']:>6.2f}  "
              f"scaling={scaling}")
    for shards, ratio in sorted(flatness.items()):
        print(f"traffic flatness @ shards={shards}: {ratio:.3f} "
              "(1.0 = flat in object count)")

    if baseline:
        with open(baseline) as fh:
            old = json.load(fh)
        old_grid = {(r["objects"], r["shards"]): r
                    for r in old.get("grid", [])}
        failures = []
        compared = 0
        for r in grid:
            o = old_grid.get((r["objects"], r["shards"]))
            if o is None:
                continue
            point = f"objects={r['objects']}/shards={r['shards']}"
            if o.get("find_per_satisfied") and r["find_per_satisfied"]:
                compared += 1
                ceiling = o["find_per_satisfied"] * (1.0 + max_regress)
                if r["find_per_satisfied"] > ceiling:
                    failures.append(
                        f"{point}: find/satisfied "
                        f"{r['find_per_satisfied']:.2f} > ceiling "
                        f"{ceiling:.2f} (baseline "
                        f"{o['find_per_satisfied']:.2f})")
            if (o.get("normalized_scaling") and r["normalized_scaling"]
                    and r["shards"] > 1):
                compared += 1
                floor = o["normalized_scaling"] * (1.0 - max_regress)
                if r["normalized_scaling"] < floor:
                    failures.append(
                        f"{point}: normalized scaling "
                        f"{r['normalized_scaling']:.3f} < floor {floor:.3f} "
                        f"(baseline {o['normalized_scaling']:.3f})")
        if compared == 0:
            sys.exit("error: baseline shares no grid points with the capture")
        verdict = "REGRESSION" if failures else "OK"
        print(f"baseline gate ({compared} comparisons, max regress "
              f"{max_regress:.0%}): {verdict}")
        for failure in failures:
            print(f"  {failure}")
        if failures:
            sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", nargs="+",
                        help="google-benchmark JSON files for the baseline")
    parser.add_argument("--after", nargs="+",
                        help="google-benchmark JSON files for the change")
    parser.add_argument("--fault-sweep", nargs="+", metavar="JSON",
                        help="google-benchmark JSON from bench/fault_throughput;"
                             " writes a drop-rate sweep report instead of a"
                             " before/after comparison")
    parser.add_argument("--runtime-sweep", nargs="+", metavar="JSON",
                        help="google-benchmark JSON from bench/runtime_throughput"
                             " (filter SatisfiedThroughput); writes the workers x"
                             " batch grid with the sim-vs-live ratio headline")
    parser.add_argument("--multi-object-sweep", nargs="+", metavar="JSON",
                        help="google-benchmark JSON from bench/multi_object;"
                             " writes the objects x shards grid with traffic"
                             " flatness and normalized shard scaling")
    parser.add_argument("--baseline", metavar="BENCH_JSON",
                        help="previous sweep report of the same mode; fail if"
                             " its gated ratios regressed past --max-regress")
    parser.add_argument("--max-regress", type=float, default=0.2,
                        help="allowed fractional regression of the gated"
                             " ratios vs --baseline (default 0.2)")
    parser.add_argument("--out", required=True, help="report path to write")
    args = parser.parse_args()

    exclusive = [bool(args.fault_sweep), bool(args.runtime_sweep),
                 bool(args.multi_object_sweep), bool(args.before or args.after)]
    if sum(exclusive) > 1:
        parser.error("--fault-sweep, --runtime-sweep, --multi-object-sweep"
                     " and --before/--after are mutually exclusive")
    if args.baseline and not (args.runtime_sweep or args.multi_object_sweep):
        parser.error("--baseline requires --runtime-sweep or"
                     " --multi-object-sweep")

    if args.fault_sweep:
        fault_sweep_report(args.fault_sweep, args.out)
        return
    if args.runtime_sweep:
        runtime_sweep_report(args.runtime_sweep, args.out,
                             args.baseline, args.max_regress)
        return
    if args.multi_object_sweep:
        multi_object_sweep_report(args.multi_object_sweep, args.out,
                                  args.baseline, args.max_regress)
        return
    if not args.before or not args.after:
        parser.error("--before and --after are required without --fault-sweep")

    before_ctx, before = load_side(args.before)
    after_ctx, after = load_side(args.after)

    names = list(before)
    names.extend(n for n in after if n not in before)

    benchmarks = []
    for name in names:
        b = before.get(name)
        a = after.get(name)
        row = {
            "name": name,
            "time_unit": (a or b).get("time_unit", "ns"),
            "before_real_time": b["real_time"] if b else None,
            "after_real_time": a["real_time"] if a else None,
            "before_cpu_time": b["cpu_time"] if b else None,
            "after_cpu_time": a["cpu_time"] if a else None,
            "speedup": None,
        }
        if b and a and a["real_time"] > 0:
            row["speedup"] = round(b["real_time"] / a["real_time"], 3)
        benchmarks.append(row)

    comparable = [r for r in benchmarks if r["speedup"] is not None]
    report = {
        "schema": "arvy-bench-report/1",
        "before_context": context_summary(before_ctx),
        "after_context": context_summary(after_ctx),
        "summary": {
            "benchmark_count": len(benchmarks),
            "compared": len(comparable),
            "improved": sum(1 for r in comparable if r["speedup"] > 1.0),
            "regressed": sum(1 for r in comparable if r["speedup"] < 0.95),
        },
        "benchmarks": benchmarks,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    width = max(len(r["name"]) for r in benchmarks)
    for r in benchmarks:
        speed = f"{r['speedup']:.2f}x" if r["speedup"] is not None else "n/a"
        print(f"{r['name']:<{width}}  {speed:>9}")


if __name__ == "__main__":
    main()
