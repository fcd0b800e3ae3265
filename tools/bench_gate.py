#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json artifacts.

Compares the figures of freshly emitted BENCH_<name>.json files against the
committed baselines in bench/baselines/ and fails (exit 1) when a gated
figure regresses.

Two gate classes, because two kinds of figures travel in the same file:

* strict   — machine-independent figures (allocations/packet, loss rate,
             delivered Gb/s at a fixed offered load, determinism flags).
             These are properties of the code, not the host: any regression
             beyond --tolerance (default 15%) fails everywhere, including CI.
* lenient  — wall-clock figures (events/sec). These move with the host, so
             the gate only trips on a collapse (default: fresh < 50% of
             baseline). Override with BENCH_GATE_RATE_TOLERANCE=<0..1> or
             disable entirely with BENCH_GATE_SKIP_RATE=1 when comparing
             across different machines.

Context figures (e.g. `shards`) must match exactly — a mismatch means the
fresh run used different parameters than the baseline and every other
comparison would be meaningless, so that is an error, not a regression.

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
    ("events_per_sec*", "lower_is_worse", "lenient"),
    # Wall-clock ratio, but one the refactor is accountable for: the windowed
    # engine must not be slower than sequential beyond a collapse threshold.
    ("speedup_w4", "lower_is_worse", "lenient"),
    ("speedup_*", None, "info"),  # derived from events/sec: machine-bound
    ("seed_events_per_sec", None, "info"),
    ("wall_seconds*", None, "info"),
    ("events_total", None, "info"),  # informational: legitimately moves
]

# Headroom added on top of the relative tolerance so figures sitting near
# zero (allocs/pkt 0.03, loss 0.0) don't trip the gate on noise.
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


def gate_bench(name: str, baseline_path: str, fresh_path: str,
               strict_tol: float, rate_tol: float, skip_rate: bool):
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
        if kind == "lenient" and skip_rate:
            print(line + " (rate gate skipped)")
            continue
        tol = rate_tol if kind == "lenient" else strict_tol
        if direction == "higher_is_worse":
            bad = now > base * (1.0 + tol) + ABS_EPSILON
        else:  # lower_is_worse
            bad = now < base * (1.0 - tol) - ABS_EPSILON
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

    rate_tol = float(os.environ.get("BENCH_GATE_RATE_TOLERANCE", "0.5"))
    skip_rate = os.environ.get("BENCH_GATE_SKIP_RATE", "") not in ("", "0")

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
                                   args.tolerance, rate_tol, skip_rate)
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
