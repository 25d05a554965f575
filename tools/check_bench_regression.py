#!/usr/bin/env python3
"""Perf-regression gate for the host-clock BENCH_*.json artifacts.

Compares a freshly produced bench JSON against the committed baseline
in bench/baselines/ (today BENCH_crypto_micro.json, whose gates are
hardware-vs-scalar speedup ratios). Virtual-clock numbers are not
gated here: tests/golden/ pins them exactly. Every gate in the
baseline's "gates" section is checked with a relative threshold
(default +-15%):

  direction "higher": fail when current < baseline * (1 - threshold)
  direction "lower":  fail when current > baseline * (1 + threshold)

Every gate is written as {"value": x, "direction": "higher"|"lower"},
optionally with "requires": a list of the baseline's "cpu" flags the
gate was measured with (the kernel tiers its primitive dispatches
to). Each must be 1 in the baseline's own "cpu" section. A fresh run
whose "cpu" section sets one of them to 0 ran narrower kernels, so
that gate does not apply to it: it is reported as skipped, not
checked. A fresh run whose "cpu" section does not name the flag at
all is a named failure, as is a missing gate.

Exit status: 0 all gates pass, 1 regression or malformed input.

A gate present in the baseline but MISSING from the fresh JSON is a
named failure (one per missing gate), never a pass: a bench that stops
emitting a metric must not sail through the perf gate.

--self-test degrades every baseline gate by 20% in memory and asserts
the checker flags each one, then deletes every gate from a synthetic
current and asserts each deletion is flagged too, then clears each
required cpu flag in turn and asserts exactly the gates keyed to it
are skipped (the rest still flagged), and that a current without the
flag's entry fails -- run in CI so a silently broken gate cannot pass.

Refreshing baselines (intentional perf change): rebuild, run the bench
binaries, then either run with --update (rewrites the baseline's gate
values in place from --current, keeping directions and every other
field) or copy the new JSONs over bench/baselines/ manually. Commit
the refreshed baselines in the same PR as the change that moved the
numbers. The CI workflow_dispatch input "refresh-baselines" runs
--update and publishes the result as an artifact.
"""

import argparse
import copy
import json
import sys


def as_gate(raw):
    """Reads a {"value", "direction"} gate as (value, direction)."""
    return float(raw["value"]), raw["direction"]


def required_flags(name, raw, baseline):
    """The gate's "requires" list, each flag checked to be set in the
    baseline's own "cpu" section (it was measured with that tier)."""
    flags = raw.get("requires", [])
    base_cpu = baseline.get("cpu", {})
    for flag in flags:
        if not base_cpu.get(flag):
            raise ValueError(
                f"{name} requires cpu flag {flag!r}, which the "
                f"baseline's cpu section does not set"
            )
    return flags


def cpu_verdict(flags, current):
    """Returns (lacking, unreported): the required flags the current
    run's cpu section sets to 0, and those it does not name at all."""
    cpu = current.get("cpu", {})
    lacking = [f for f in flags if f in cpu and not cpu[f]]
    unreported = [f for f in flags if f not in cpu]
    return lacking, unreported


def check_gate(name, base_value, cur_value, direction, threshold):
    """Returns an error string, or None when the gate passes."""
    if direction == "higher":
        floor = base_value * (1.0 - threshold)
        if cur_value < floor:
            return (
                f"{name}: {cur_value:.3f} < floor {floor:.3f} "
                f"(baseline {base_value:.3f}, -{threshold:.0%})"
            )
    elif direction == "lower":
        ceil = base_value * (1.0 + threshold)
        if cur_value > ceil:
            return (
                f"{name}: {cur_value:.3f} > ceiling {ceil:.3f} "
                f"(baseline {base_value:.3f}, +{threshold:.0%})"
            )
    else:
        return f"{name}: unknown direction {direction!r}"
    return None


def collect_gates(baseline, current):
    """Yields (name, base_value, cur_value, direction, flags) for every
    gate, flags being its required cpu flags.

    A gate the current JSON no longer carries yields cur_value None so
    the caller reports EVERY missing metric as a named failure instead
    of aborting on the first one."""
    current_gates = current.get("gates", {})
    for name, raw in baseline.get("gates", {}).items():
        base_value, direction = as_gate(raw)
        flags = required_flags(name, raw, baseline)
        cur_value = None
        if name in current_gates:
            cur_value = as_gate(current_gates[name])[0]
        yield name, base_value, cur_value, direction, flags


def evaluate(baseline, current, threshold):
    """Returns one (name, status, line) per gate, status being "ok",
    "FAIL" or "skip"; a FAIL's line is its error message."""
    results = []
    for name, base, cur, direction, flags in collect_gates(
        baseline, current
    ):
        lacking, unreported = cpu_verdict(flags, current)
        if unreported:
            results.append((name, "FAIL", (
                f"{name}: cpu flag(s) {', '.join(unreported)} missing "
                f"from current bench JSON"
            )))
        elif lacking:
            results.append((name, "skip", (
                f"{name} ({direction}): measured with "
                f"{'+'.join(flags)}; this host lacks {', '.join(lacking)}"
            )))
        elif cur is None:
            results.append((name, "FAIL", (
                f"{name}: missing from current bench JSON "
                f"(baseline {base:.3f})"
            )))
        else:
            err = check_gate(name, base, cur, direction, threshold)
            results.append((name, "FAIL" if err else "ok", err or (
                f"{name} ({direction}): "
                f"baseline {base:.3f} -> current {cur:.3f}"
            )))
    return results


def run_checks(baseline, current, threshold):
    """Prints one line per gate; returns (checked, skipped, failures)."""
    failures = []
    checked = skipped = 0
    for name, status, line in evaluate(baseline, current, threshold):
        print(f"  [{status:>4}] {line}")
        if status == "skip":
            skipped += 1
            continue
        checked += 1
        if status == "FAIL":
            failures.append(line)
    return checked, skipped, failures


def degraded_copy(baseline, degrade):
    """The baseline as a current run, every gate moved by degrade in
    its bad direction."""
    cur = copy.deepcopy(baseline)
    for raw in cur.get("gates", {}).values():
        value, direction = as_gate(raw)
        raw["value"] = (
            value * (1.0 - degrade)
            if direction == "higher"
            else value * (1.0 + degrade)
        )
    return cur


def self_test(baseline, threshold):
    """Degrades every gate past the threshold and asserts detection,
    deletes every gate and asserts each deletion is flagged, then per
    required cpu flag asserts the skip and unreported-flag cases."""
    degrade = threshold + 0.05  # 20% at the default 15% threshold
    gates = list(collect_gates(baseline, baseline))
    if not gates:
        print("self-test: no gates found", file=sys.stderr)
        return 1
    missed = []

    def expect(case, current, want):
        for name, status, _line in evaluate(baseline, current, threshold):
            if status != want(name):
                missed.append(
                    f"{name}: {case} gave {status}, not {want(name)}"
                )

    degraded = degraded_copy(baseline, degrade)
    expect(f"{degrade:.0%} degradation", degraded, lambda _n: "FAIL")
    # Deleted-metric case: a current JSON with an empty gates section
    # must produce one named failure per baseline gate.
    expect("deletion", dict(baseline, gates={}), lambda _n: "FAIL")

    flags = sorted({f for *_rest, need in gates for f in need})
    cpu = baseline.get("cpu", {})
    for flag in flags:
        keyed = {name for name, *_rest, need in gates if flag in need}
        # A host without the tier skips exactly the gates keyed to it
        # and still flags the degradation of every other gate.
        expect(
            f"cpu.{flag} = 0",
            dict(degraded, cpu=dict(cpu, **{flag: 0})),
            lambda n: "skip" if n in keyed else "FAIL",
        )
        # A run that stops reporting the flag fails the gates keyed
        # to it instead of skipping them; the others pass.
        expect(
            f"cpu.{flag} unreported",
            dict(baseline, cpu={k: v for k, v in cpu.items() if k != flag}),
            lambda n: "FAIL" if n in keyed else "ok",
        )
    if missed:
        for m in missed:
            print(f"self-test FAILED: {m}", file=sys.stderr)
        return 1
    print(
        f"self-test passed: {degrade:.0%} degradation and deletion "
        f"detected on all {len(gates)} gate(s); clearing each of "
        f"{len(flags)} cpu flag(s) skips exactly the gates keyed to it"
    )
    return 0


def update_baseline(baseline, current, path):
    """Rewrites the baseline's gate values from the current run.

    Directions, cpu keys and non-gate fields (metadata, raw samples)
    are kept; only the measured values move, so a run that lacks a
    flag some gate is keyed to cannot refresh it. Returns the number
    of gates refreshed."""
    updated = 0
    for name, _base, cur, _direction, flags in collect_gates(
        baseline, current
    ):
        lacking, unreported = cpu_verdict(flags, current)
        if lacking or unreported:
            raise ValueError(
                f"{name} is keyed to {'+'.join(flags)}, and the current "
                f"run lacks {', '.join(lacking + unreported)}"
            )
        if cur is None:
            raise KeyError(name)
        baseline["gates"][name]["value"] = cur
        updated += 1
    if not updated:
        print("no gates found to update", file=sys.stderr)
        return 0
    with open(path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"updated {updated} gate(s) in {path}")
    return updated


def main():
    ap = argparse.ArgumentParser(
        description="Bench perf-regression gate"
    )
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current")
    ap.add_argument("--threshold", type=float, default=0.15)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline's gate values from --current "
        "instead of gating",
    )
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)

    if args.self_test:
        return self_test(baseline, args.threshold)

    if not args.current:
        ap.error("--current is required unless --self-test")
    with open(args.current) as f:
        current = json.load(f)

    if args.update:
        try:
            updated = update_baseline(
                baseline, current, args.baseline
            )
        except (KeyError, ValueError, TypeError) as e:
            print(f"cannot update baseline: {e}", file=sys.stderr)
            return 1
        return 0 if updated else 1

    print(
        f"checking {args.current} against {args.baseline} "
        f"(threshold {args.threshold:.0%})"
    )
    try:
        checked, skipped, failures = run_checks(
            baseline, current, args.threshold
        )
    except (KeyError, ValueError, TypeError) as e:
        print(f"malformed gate or missing key: {e}", file=sys.stderr)
        return 1
    if not checked and not skipped:
        print("no gates found to check", file=sys.stderr)
        return 1
    if failures:
        print(f"\nPERF REGRESSION ({len(failures)} gate(s)):")
        for fail in failures:
            print(f"  {fail}")
        return 1
    print(
        f"all {checked} checked gate(s) within threshold, "
        f"{skipped} skipped for want of the cpu tier they were "
        f"measured with"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
