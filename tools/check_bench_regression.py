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

Every gate is written as {"value": x, "direction": "higher"|"lower"}.

Exit status: 0 all gates pass, 1 regression or malformed input.

A gate present in the baseline but MISSING from the fresh JSON is a
named failure (one per missing gate), never a pass: a bench that stops
emitting a metric must not sail through the perf gate.

--self-test degrades every baseline gate by 20% in memory and asserts
the checker flags each one, then deletes every gate from a synthetic
current and asserts each deletion is flagged too -- run in CI so a
silently broken gate cannot pass.

Refreshing baselines (intentional perf change): rebuild, run the bench
binaries, then either run with --update (rewrites the baseline's gate
values in place from --current, keeping directions and every other
field) or copy the new JSONs over bench/baselines/ manually. Commit
the refreshed baselines in the same PR as the change that moved the
numbers. The CI workflow_dispatch input "refresh-baselines" runs
--update and publishes the result as an artifact.
"""

import argparse
import json
import sys


def as_gate(raw):
    """Reads a {"value", "direction"} gate as (value, direction)."""
    return float(raw["value"]), raw["direction"]


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
    """Yields (name, base_value, cur_value, direction) for every gate.

    A gate the current JSON no longer carries yields cur_value None so
    the caller reports EVERY missing metric as a named failure instead
    of aborting on the first one."""
    current_gates = current.get("gates", {})
    for name, raw in baseline.get("gates", {}).items():
        base_value, direction = as_gate(raw)
        if name not in current_gates:
            yield name, base_value, None, direction
            continue
        yield name, base_value, as_gate(current_gates[name])[0], direction


def run_checks(baseline, current, threshold):
    failures = []
    checked = 0
    for name, base, cur, direction in collect_gates(baseline, current):
        checked += 1
        if cur is None:
            err = (
                f"{name}: missing from current bench JSON "
                f"(baseline {base:.3f})"
            )
            print(f"  [FAIL] {name} ({direction}): "
                  f"baseline {base:.3f} -> MISSING")
            failures.append(err)
            continue
        err = check_gate(name, base, cur, direction, threshold)
        arrow = "FAIL" if err else "ok"
        print(
            f"  [{arrow:>4}] {name} ({direction}): "
            f"baseline {base:.3f} -> current {cur:.3f}"
        )
        if err:
            failures.append(err)
    return checked, failures


def self_test(baseline, threshold):
    """Degrades every gate past the threshold and asserts detection,
    then deletes every gate and asserts each deletion is flagged."""
    degrade = threshold + 0.05  # 20% at the default 15% threshold
    missed = []
    checked = 0
    for name, base, _cur, direction in collect_gates(baseline, baseline):
        checked += 1
        bad = (
            base * (1.0 - degrade)
            if direction == "higher"
            else base * (1.0 + degrade)
        )
        err = check_gate(name, base, bad, direction, threshold)
        if err is None:
            missed.append(
                f"{name}: {degrade:.0%} degradation NOT detected"
            )
    if not checked:
        print("self-test: no gates found", file=sys.stderr)
        return 1
    # Deleted-metric case: a current JSON with an empty gates section
    # must produce one named failure per baseline gate.
    gutted = {
        k: ({} if k == "gates" else v) for k, v in baseline.items()
    }
    deleted = 0
    for name, _base, cur, _direction in collect_gates(baseline, gutted):
        if cur is not None:
            missed.append(f"{name}: deletion NOT detected")
        else:
            deleted += 1
    if missed:
        for m in missed:
            print(f"self-test FAILED: {m}", file=sys.stderr)
        return 1
    print(
        f"self-test passed: {degrade:.0%} degradation detected on "
        f"all {checked} gate(s), deletion detected on {deleted}"
    )
    return 0


def update_baseline(baseline, current, path):
    """Rewrites the baseline's gate values from the current run.

    Directions and non-gate fields (metadata, raw samples) are kept;
    only the measured values move. Returns the number of gates
    refreshed."""
    updated = 0
    for name, raw in baseline.get("gates", {}).items():
        raw["value"] = as_gate(current["gates"][name])[0]
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
        checked, failures = run_checks(baseline, current, args.threshold)
    except (KeyError, ValueError, TypeError) as e:
        print(f"malformed gate or missing key: {e}", file=sys.stderr)
        return 1
    if not checked:
        print("no gates found to check", file=sys.stderr)
        return 1
    if failures:
        print(f"\nPERF REGRESSION ({len(failures)} gate(s)):")
        for fail in failures:
            print(f"  {fail}")
        return 1
    print(f"all {checked} gate(s) within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
