#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json artifacts.

Compares the figures of freshly emitted BENCH_<name>.json files against the
committed baselines in bench/baselines/ and fails (exit 1) when a gated
figure regresses.

Every figure in a BENCH_*.json is decided by the simulation, so it is a
deterministic function of the code and the bench's arguments: two runs emit
byte-identical files. Host cost (wall clock, events/s) is not in these files;
it is measured by `python3 perfbench/run.py`.

Three gate classes:

* strict   — simulated results (allocations/packet, events/packet, loss
             rate, delivered Gb/s at a fixed offered load, ledger and
             determinism flags).
             Any regression beyond --tolerance (default 15%) fails.
* context  — run parameters (e.g. `shards`). They must match exactly — a
             mismatch means the fresh run used different arguments than the
             baseline and every other comparison would be meaningless, so
             that is an error, not a regression.
* info     — printed, never gated (latency percentiles, event counts).

Usage:
  tools/bench_gate.py [--baselines bench/baselines] [--fresh .]
                      [--tolerance 0.15] [name ...]

With no names, every BENCH_*.json present in --baselines is gated; a fresh
file missing for a committed baseline is a failure (the bench silently
stopped emitting). Updating a baseline is deliberate: rerun the bench and
copy the new BENCH_<name>.json over bench/baselines/ in the same commit as
the change that moved the number.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys

# (figure-name pattern, direction, gate class). First match wins; figures
# matching no pattern are reported as info only.
POLICIES = [
    ("allocs_per_packet*", "higher_is_worse", "strict"),
    # Events the simulator executes per packet: its own work, counted, not
    # timed, so it gates strictly like allocations.
    ("events_per_packet*", "higher_is_worse", "strict"),
    ("worst_loss_rate", "higher_is_worse", "strict"),
    ("delivered_gbps_*", "lower_is_worse", "strict"),
    ("determinism_ok", "lower_is_worse", "strict"),
    ("shards", "equal", "context"),
    ("modules", "equal", "context"),
    ("crosspoint_drops*", "higher_is_worse", "strict"),  # deterministic sim
    ("rounds_*", "equal", "context"),  # sync windows are deterministic too
    # RFC 8219 softwire bench: the binary-search throughput is an offered
    # rate in simulated time — a property of the code, not the host — and
    # the ledger/determinism flags are invariants, so all gate strictly.
    ("throughput_gbps_*", "lower_is_worse", "strict"),
    ("ledger_ok", "lower_is_worse", "strict"),
    ("verify_loss_*", "higher_is_worse", "strict"),
    ("pool_heap_fallbacks", "higher_is_worse", "strict"),
    ("subscribers", "equal", "context"),
    ("search_steps", "equal", "context"),
    ("loss_threshold", "equal", "context"),
    ("latency_p*", None, "info"),  # bucketed percentiles: shape, not a gate
    ("pdv_ns_*", None, "info"),
    ("churn_unmappable_drops", None, "info"),
    ("events_total", None, "info"),  # informational: legitimately moves
]

# Headroom added on top of the relative tolerance for allocations/packet:
# a figure near zero (0.03) moves by a whole allocation on small code
# changes. Loss, ledger and determinism figures get no such headroom, so a
# zero-loss baseline fails on any loss beyond --tolerance of zero.
ABS_EPSILON = 0.02


def policy_for(figure: str):
    for pattern, direction, kind in POLICIES:
        if fnmatch.fnmatch(figure, pattern):
            return direction, kind
    return None, "info"


def load_figures(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    figures = doc.get("figures", {})
    if not isinstance(figures, dict):
        raise ValueError(f"{path}: 'figures' is not an object")
    return {k: v for k, v in figures.items() if isinstance(v, (int, float))}


def gate_bench(name: str, baseline_path: str, fresh_path: str, tol: float):
    """Returns a list of failure strings for one bench."""
    failures = []
    baseline = load_figures(baseline_path)
    if not os.path.exists(fresh_path):
        return [f"{name}: fresh {fresh_path} missing — did the bench run?"]
    fresh = load_figures(fresh_path)

    print(f"== {name} ==")
    for figure, base in sorted(baseline.items()):
        direction, kind = policy_for(figure)
        if figure not in fresh:
            failures.append(f"{name}: figure '{figure}' vanished from the "
                            f"fresh run")
            continue
        now = fresh[figure]
        if now == base:
            delta = 0.0
        else:
            delta = (now / base - 1.0) * 100.0 if base != 0 else float("inf")
        line = f"  {figure:30s} base={base:<14.6g} fresh={now:<14.6g}"
        if kind == "info" or direction is None:
            print(line + " (info)")
            continue
        if kind == "context":
            if now != base:
                failures.append(
                    f"{name}: context figure '{figure}' differs "
                    f"({base} vs {now}) — fresh run used different "
                    f"parameters than the baseline")
            else:
                print(line + " (context ok)")
            continue
        epsilon = (ABS_EPSILON if fnmatch.fnmatch(figure, "allocs_per_packet*")
                   else 0.0)
        if direction == "higher_is_worse":
            bad = now > base * (1.0 + tol) + epsilon
        else:  # lower_is_worse
            bad = now < base * (1.0 - tol) - epsilon
        verdict = "REGRESSED" if bad else "ok"
        print(f"{line} {delta:+8.1f}%  [{kind} ±{tol:.0%}] {verdict}")
        if bad:
            failures.append(
                f"{name}: '{figure}' regressed {delta:+.1f}% "
                f"(baseline {base:.6g} -> fresh {now:.6g}, "
                f"{kind} tolerance {tol:.0%})")
    for figure in sorted(set(fresh) - set(baseline)):
        print(f"  {figure:30s} fresh={fresh[figure]:<14.6g} (new, ungated)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fail CI when BENCH_*.json figures regress vs baselines")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh", default=".",
                        help="directory holding freshly emitted BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="strict-gate relative tolerance (default 0.15)")
    parser.add_argument("names", nargs="*",
                        help="bench names to gate (default: every baseline)")
    args = parser.parse_args()

    if args.names:
        names = args.names
    else:
        names = sorted(
            f[len("BENCH_"):-len(".json")]
            for f in os.listdir(args.baselines)
            if f.startswith("BENCH_") and f.endswith(".json"))
    if not names:
        print(f"bench_gate: no baselines under {args.baselines}",
              file=sys.stderr)
        return 2

    failures = []
    for name in names:
        baseline_path = os.path.join(args.baselines, f"BENCH_{name}.json")
        fresh_path = os.path.join(args.fresh, f"BENCH_{name}.json")
        if not os.path.exists(baseline_path):
            failures.append(f"{name}: no baseline {baseline_path}")
            continue
        try:
            failures += gate_bench(name, baseline_path, fresh_path,
                                   args.tolerance)
        except (ValueError, json.JSONDecodeError) as err:
            failures.append(f"{name}: {err}")

    if failures:
        print("\nbench_gate: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbench_gate: OK ({len(names)} bench(es) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
