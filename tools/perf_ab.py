#!/usr/bin/env python3
"""Same-box A/B of one perfbench metric: merge-base against this checkout.

    python3 tools/perf_ab.py --workload fabric_incast --metric pkts_per_s \\
        --pairs 10 --seconds 6 [--base HEAD~1] [--seed 1]

Run from the repository root. The script checks out the merge-base of
--base and HEAD into a temporary `git worktree` (the default --base HEAD~1
suits a committed change; pass --base HEAD while it is uncommitted), then
runs `perfbench/run.py` on both sides in alternating order (base first in
even pairs, change first in odd pairs), so drift on the host hits both
sides alike. Each side builds its own benchmark tree before the first
pair; the worktree is removed at exit.

It prints every pair, each side's median and interquartile range, the sign
count (pairs the change won) and a verdict under the rule a claimed gain
must pass: at least 10 pairs, the change is better on at least 9 of every
10, its median beats the base median by more than the base runs' IQR, and
it fails no larger share of operations than the base. The metric and its
better direction must be listed in BENCHMARK.json. A table of
every end-to-end metric BENCHMARK.json lists follows, with each side's
median and whether the change stays within that metric's regression bound.

Exit status: 0 when the gain holds, 1 when it does not, 2 on a usage,
build or run error (including a run whose output checks failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WIN_SHARE = 0.9  # "better on at least nine of ten pairs"
MIN_PAIRS = 10   # ... of at least ten pairs


def median(values: list[float]) -> float:
    return statistics.median(values)


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartile (inclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(base: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change side beat the base side strictly."""
    if better == "higher":
        return sum(c > b for b, c in zip(base, change))
    return sum(c < b for b, c in zip(base, change))


def failed_share(runs: list[dict]) -> float:
    """Failed operations over attempted ones, summed across `runs`."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def verdict(base: list[float], change: list[float], better: str,
            base_failed: float = 0.0, change_failed: float = 0.0) -> dict:
    """The gain rule over paired runs: at least MIN_PAIRS pairs, a sign count
    plus a median shift that clears the base side's IQR (both in the
    metric's better direction), and a failed-operation share
    (`change_failed`) no larger than the base's (`base_failed`)."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if not base or len(base) != len(change):
        raise ValueError("need the same nonzero number of base and change runs")
    won = wins(base, change, better)
    shift = median(change) - median(base)
    if better == "lower":
        shift = -shift
    spread = iqr(base)
    needed = math.ceil(WIN_SHARE * len(base))
    return {
        "pairs": len(base),
        "wins": won,
        "wins_needed": needed,
        "shift": shift,
        "base_iqr": spread,
        "enough_pairs": len(base) >= MIN_PAIRS,
        "fails_more": change_failed > base_failed,
        "gain": (len(base) >= MIN_PAIRS and won >= needed and shift > spread
                 and change_failed <= base_failed),
    }


def load_spec(root: str) -> dict:
    """BENCHMARK.json at `root`, or an empty spec when there is none."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def metric_direction(root: str, metric: str) -> str | None:
    """'higher' or 'lower' from BENCHMARK.json, None when it is not listed."""
    spec = load_spec(root)
    for entry in spec.get("end_to_end", []) + spec.get("per_layer", []):
        if entry.get("name") == metric:
            return entry.get("better")
    return None


def within_bound(base: list[float], change: list[float], better: str,
                 bound: float) -> bool:
    """True when the change's median is no worse than the base median by
    more than `bound` (a fraction of the base median)."""
    b, c = median(base), median(change)
    worse = (b - c) if better == "higher" else (c - b)
    return worse <= bound * abs(b)


def git(root: str, *args: str) -> str:
    return subprocess.run(["git", "-C", root, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(root: str, args: argparse.Namespace, seconds: float) -> dict:
    """One perfbench run: {"attempted": n, "failed": n, "metrics": {name:
    value}}."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {root} (exit "
                           f"{proc.returncode}): {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"perfbench output checks failed in {root}")
    values = {name: float(m["value"]) for name, m in result["metrics"].items()
              if isinstance(m, dict) and "value" in m}
    if args.metric not in values:
        raise RuntimeError(f"perfbench reported no metric {args.metric!r}")
    return {"attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": values}


def describe(name: str, values: list[float]) -> str:
    return (f"{name:>6}: median {median(values):.6g}  IQR {iqr(values):.6g}  "
            f"(n={len(values)})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", default="pkts_per_s")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", default="HEAD~1",
                        help="revision whose merge-base with HEAD is the "
                             "base side (default HEAD~1)")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")

    root = os.getcwd()
    better = metric_direction(root, args.metric)
    if better not in ("higher", "lower"):
        parser.error(f"{args.metric!r} has no better direction in "
                     "BENCHMARK.json")

    try:
        sha = git(root, "merge-base", args.base, "HEAD")
    except subprocess.CalledProcessError as err:
        print(f"perf_ab: cannot resolve the merge-base: {err.stderr.strip()}",
              file=sys.stderr)
        return 2

    tree = tempfile.mkdtemp(prefix="perf_ab_base_")
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    try:
        git(root, "worktree", "add", "--detach", tree, sha)
        sides = {"base": tree, "change": root}
        print(f"perf_ab: {args.workload} {args.metric} ({better} is better), "
              f"base {sha[:12]} vs working tree, {args.pairs} pairs of "
              f"{args.seconds:g} s", flush=True)
        for name, side in sides.items():  # build, and warm the page cache
            run_side(side, args, min(args.seconds, 0.5))
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {name: run_side(sides[name], args, args.seconds)
                   for name in order}
            for name in order:
                runs[name].append(got[name])
            print(f"pair {i + 1:>2} ({order[0]} first): base "
                  f"{got['base']['metrics'][args.metric]:.6g}  change "
                  f"{got['change']['metrics'][args.metric]:.6g}", flush=True)
    except (RuntimeError, subprocess.CalledProcessError, ValueError) as err:
        print(f"perf_ab: {err}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "-C", root, "worktree", "remove", "--force",
                        tree], capture_output=True)
        shutil.rmtree(tree, ignore_errors=True)

    base = [run["metrics"][args.metric] for run in runs["base"]]
    change = [run["metrics"][args.metric] for run in runs["change"]]
    shares = {name: failed_share(runs[name]) for name in runs}
    result = verdict(base, change, better, shares["base"], shares["change"])
    print(describe("base", base))
    print(describe("change", change))
    print(f"signs: change better in {result['wins']} of {result['pairs']} "
          f"pairs (need {result['wins_needed']}, over at least {MIN_PAIRS} "
          "pairs)")
    print(f"median shift {result['shift']:.6g} in the better direction vs "
          f"base IQR {result['base_iqr']:.6g}")
    print(f"failed share: base {shares['base']:.6g}  change "
          f"{shares['change']:.6g}")
    if result["gain"]:
        print("verdict: GAIN")
    elif not result["enough_pairs"]:
        print(f"verdict: no gain shown (fewer than {MIN_PAIRS} pairs)")
    elif result["fails_more"]:
        print("verdict: no gain shown (the change fails a larger share)")
    else:
        print("verdict: no gain shown")

    print(f"\n{'end-to-end metric':<18} {'base median':>12} "
          f"{'change median':>14} {'bound':>6}  within bound")
    for entry in load_spec(root).get("end_to_end", []):
        name = entry.get("name")
        if not all(name in run["metrics"]
                   for run in runs["base"] + runs["change"]):
            continue
        b = [run["metrics"][name] for run in runs["base"]]
        c = [run["metrics"][name] for run in runs["change"]]
        ok = within_bound(b, c, entry.get("better"), entry.get("bound", 0))
        print(f"{name:<18} {median(b):>12.6g} {median(c):>14.6g} "
              f"{entry.get('bound', 0):>6.2f}  {'yes' if ok else 'NO'}")
    return 0 if result["gain"] else 1


if __name__ == "__main__":
    sys.exit(main())
