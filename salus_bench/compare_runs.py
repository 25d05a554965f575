#!/usr/bin/env python3
"""Compare two sets of salus_bench --all results (BENCH_salus.json).

    python3 salus_bench/compare_runs.py \
        --parent p1.json p2.json ... --change c1.json c2.json ...

For every workload and metric it prints each side's median and
quartiles and a verdict:

  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's own spread (quartile distance over median)
              is wider than the bound, and not every change run beats
              every parent run;
  gain        the change wins at least 9/10 of the seed-paired runs
              (ties count for neither) and the medians differ by more
              than the parent's quartile distance;
  same        none of the above.

Bounds come from BENCHMARK.json for its end_to_end metrics. The
workloads' headline metrics (boot_ms, reg_p99_us, ...) get one by
clock: virtual 1%, host 25%, tally 0 (a count must not get worse at
all). Per-layer metrics have no bound; their verdict is informational.
Virtual metrics of runs with the same seed must be identical: a pair
that differs is reported, because a change that only speeds up the
simulator must not move them.

Exits 1 when an end-to-end or headline metric is a regression or
unresolved, or a virtual metric differs; 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BOUND = {"virtual": 0.01, "host": 0.25, "tally": 0.0}


def load_runs(paths):
    """[(seed, {(workload, section, metric): (value, clock, better)})]"""
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if not doc.get("correct"):
            sys.exit(f"{path}: run did not pass its checks")
        values = {}
        for workload, sections in doc["workloads"].items():
            for section, record in sections.items():
                for name, m in record["metrics"].items():
                    values[(workload, section, name)] = (
                        m["value"], m["clock"], m["better"])
        runs.append((doc["env"]["seed"], values))
    return runs


def load_bounds(path):
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(key, parent, change, bounds):
    """One row: (verdict, parent stats, change stats, detail)."""
    name = key[2]
    pv = [v[key][0] for _, v in parent]
    cv = [v[key][0] for _, v in change]
    _, clock, better = parent[0][1][key]
    bound = bounds.get(name, DEFAULT_BOUND.get(clock, 0))
    higher = better == "higher"
    sign = -1 if higher else 1  # positive = worse

    p_q1, p_med, p_q3 = quartiles(pv)
    c_q1, c_med, c_q3 = quartiles(cv)
    scale = abs(p_med) if p_med else 1.0
    worse = sign * (c_med - p_med) / scale
    spread = (p_q3 - p_q1) / scale

    # Seed-paired wins for the change (ties count for neither).
    by_seed = {seed: v[key][0] for seed, v in change}
    pairs = [(v[key][0], by_seed[seed]) for seed, v in parent
             if seed in by_seed]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = min(cv) > max(pv) if higher else max(cv) < min(pv)

    detail = ""
    if clock == "virtual":
        differ = sum(1 for p, c in pairs if p != c)
        if differ:
            detail = f"virtual value differs in {differ}/{len(pairs)} pairs"

    if pairs and wins >= 0.9 * len(pairs) and \
            abs(c_med - p_med) > (p_q3 - p_q1) and c_med != p_med:
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "same"
    return verdict, (p_med, p_q1, p_q3), (c_med, c_q1, c_q3), worse, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = ap.parse_args()

    bounds = load_bounds(args.benchmark)
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    keys = sorted(set(parent[0][1]) & set(change[0][1]))
    failures = 0
    print(f"{'workload':<15} {'metric':<38} {'parent median [q1,q3]':<36} "
          f"{'change median [q1,q3]':<36} {'worse':>8}  verdict")
    for key in keys:
        if not all(key in v for _, v in parent + change):
            continue
        verdict, p, c, worse, detail = compare(key, parent, change, bounds)
        # Per-layer metrics carry no bound: their verdict is reported,
        # only a moved virtual value counts against the change.
        layer = key[1] == "layers"
        failures += (not layer and verdict in ("regression", "unresolved")) \
            or bool(detail)
        fmt = "{:.6g} [{:.6g},{:.6g}]"
        name = ("layer " if layer else "") + key[2]
        print(f"{key[0]:<15} {name:<38} {fmt.format(*p):<36} "
              f"{fmt.format(*c):<36} {worse:>+8.2%}  {verdict}"
              + (f"  ({detail})" if detail else ""))
    print(f"{len(parent)} parent runs, {len(change)} change runs: "
          + (f"{failures} metric(s) outside their bound" if failures
             else "every metric within its bound"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
