#!/usr/bin/env python3
"""Self-test of tools/perf_ab.py's statistics: quartiles, sign count and the
9-of-10 + IQR verdict on hand-built paired samples, its refusal of a metric
BENCHMARK.json does not list, and a whole --base-tree A/B between two stub
checkouts whose perfbench/run.py prints a fixed result (no benchmark is
run).

Usage: python3 tools/test_perf_ab.py
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(HERE, "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(perf_ab)

FAILURES: list[str] = []


def check(name: str, condition: bool) -> None:
    if not condition:
        FAILURES.append(name)
    print(("ok   " if condition else "FAIL ") + name)


def near(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def main() -> int:
    # Quartiles: inclusive method, so 1..9 has Q1 = 3 and Q3 = 7.
    check("iqr of 1..9 is 4", near(perf_ab.iqr([float(v) for v in range(1, 10)]), 4.0))
    check("iqr ignores order", near(perf_ab.iqr([9, 1, 5, 3, 7, 2, 8, 4, 6]), 4.0))
    check("iqr of one run is 0", perf_ab.iqr([5.0]) == 0.0)
    check("median of an even count averages", near(perf_ab.median([1, 2, 3, 10]), 2.5))

    base = [100.0, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    double = [2 * b for b in base]

    # A clean doubling wins every pair and clears the IQR by far.
    result = perf_ab.verdict(base, double, "higher")
    check("doubling wins 10 of 10", result["wins"] == 10)
    check("doubling needs 9", result["wins_needed"] == 9)
    check("doubling is a gain", result["gain"])

    # The same numbers on a lower-is-better metric are a regression.
    check("doubling a latency is no gain",
          not perf_ab.verdict(base, double, "lower")["gain"])
    halved = [b / 2 for b in base]
    check("halving a latency is a gain", perf_ab.verdict(base, halved, "lower")["gain"])

    # Eight wins of ten fail the sign rule even with a large median shift.
    eight = list(double)
    eight[0] = base[0] - 1
    eight[1] = base[1] - 1
    result = perf_ab.verdict(base, eight, "higher")
    check("8 of 10 counts 8 wins", result["wins"] == 8)
    check("8 of 10 is no gain", not result["gain"])

    # Nine wins pass the sign rule ...
    nine = list(double)
    nine[3] = base[3]  # a tie is not a win
    result = perf_ab.verdict(base, nine, "higher")
    check("a tie is not a win", result["wins"] == 9)
    check("9 of 10 with a large shift is a gain", result["gain"])

    # ... but not when the median moves by less than the base IQR.
    nudged = [b + 0.5 for b in base]
    result = perf_ab.verdict(base, nudged, "higher")
    check("a shift inside the IQR wins every pair", result["wins"] == 10)
    check("a shift inside the IQR is no gain", not result["gain"])
    check("shift is measured in the better direction",
          near(perf_ab.verdict(base, halved, "lower")["shift"],
               perf_ab.median(base) / 2))

    # Fewer than ten pairs never show a gain, however clean the sign count.
    result = perf_ab.verdict(base[:3], double[:3], "higher")
    check("3 of 3 wins all 3", result["wins"] == 3 == result["wins_needed"])
    check("3 pairs are too few", not result["enough_pairs"])
    check("3 of 3 is no gain", not result["gain"])
    check("9 pairs are too few",
          not perf_ab.verdict(base[:9], double[:9], "higher")["gain"])

    # A change that fails a larger share of operations shows no gain; an
    # equal (here zero) share does not block one.
    check("failed share sums over runs",
          near(perf_ab.failed_share([{"attempted": 90, "failed": 1},
                                     {"attempted": 10, "failed": 1}]), 0.02))
    check("no attempts is a zero share", perf_ab.failed_share([]) == 0.0)
    result = perf_ab.verdict(base, double, "higher", 0.0, 0.001)
    check("failing more is flagged", result["fails_more"])
    check("failing more is no gain", not result["gain"])
    check("failing as much is a gain",
          perf_ab.verdict(base, double, "higher", 0.01, 0.01)["gain"])
    check("failing less is a gain",
          perf_ab.verdict(base, double, "higher", 0.01, 0.0)["gain"])

    # Twenty pairs need eighteen wins.
    check("20 pairs need 18", perf_ab.verdict(base * 2, double * 2, "higher")["wins_needed"] == 18)

    for bad in ((base, double[:3], "higher"), ([], [], "higher"), (base, double, "up")):
        try:
            perf_ab.verdict(*bad)
            check(f"rejects {bad[2]!r} / {len(bad[0])} vs {len(bad[1])} runs", False)
        except ValueError:
            check(f"rejects {bad[2]!r} / {len(bad[0])} vs {len(bad[1])} runs", True)

    # Regression bounds are a fraction of the base median, in the worse
    # direction only.
    check("10% slower is within a 24% bound",
          perf_ab.within_bound(base, [0.9 * b for b in base], "higher", 0.24))
    check("30% slower breaks a 24% bound",
          not perf_ab.within_bound(base, [0.7 * b for b in base], "higher", 0.24))
    check("30% more latency breaks a 24% bound",
          not perf_ab.within_bound(base, [1.3 * b for b in base], "lower", 0.24))
    check("any improvement is within bound",
          perf_ab.within_bound(base, halved, "lower", 0.0))

    # The metric direction comes from BENCHMARK.json at the repository root.
    root = os.path.dirname(HERE)
    check("pkts_per_s is higher-better",
          perf_ab.metric_direction(root, "pkts_per_s") == "higher")
    check("wall_us_per_round is lower-better",
          perf_ab.metric_direction(root, "sim.lockstep.wall_us_per_round") == "lower")
    check("an unknown metric has no direction",
          perf_ab.metric_direction(root, "no_such_metric") is None)

    # The direction has no second source: an unlisted metric and a
    # --better override are both usage errors (exit 2) before any build.
    script = os.path.join(HERE, "perf_ab.py")
    for extra in (["--metric", "no_such_metric"], ["--better", "lower"]):
        proc = subprocess.run([sys.executable, script, "--workload",
                               "fabric_incast", *extra], cwd=root,
                              capture_output=True, text=True)
        check(f"{' '.join(extra)} exits 2", proc.returncode == 2)

    # --base-tree takes an existing checkout as the base side, git or not:
    # stub trees whose perfbench reports 100 (base) and 200 (change) pkt/s
    # give a gain over 10 pairs, and the base tree is left where it was.
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for name, value in (("base", 100.0), ("change", 200.0)):
            side = os.path.join(tmp, name)
            os.makedirs(os.path.join(side, "perfbench"))
            result = {"correct": True, "attempted": 10, "failed": 0,
                      "metrics": {"pkts_per_s": {"value": value}}}
            with open(os.path.join(side, "perfbench", "run.py"), "w") as fh:
                fh.write(f"import json\nprint(json.dumps({result!r}))\n")
            shutil.copy(os.path.join(root, "BENCHMARK.json"), side)
            sides[name] = side
        proc = subprocess.run([sys.executable, script, "--workload",
                               "fabric_incast", "--base-tree", sides["base"]],
                              cwd=sides["change"], capture_output=True,
                              text=True)
        check("--base-tree A/B exits 0 on a gain", proc.returncode == 0)
        check("--base-tree A/B names the base tree", sides["base"] in proc.stdout)
        check("--base-tree A/B runs 10 pairs",
              "change better in 10 of 10 pairs" in proc.stdout)
        check("--base-tree is left in place",
              os.path.isfile(os.path.join(sides["base"], "perfbench", "run.py")))

        # A directory without perfbench/run.py, and --base with --base-tree,
        # are usage errors.
        for what, extra in (
                ("a tree without perfbench", ["--base-tree", tmp]),
                ("--base with --base-tree",
                 ["--base-tree", sides["base"], "--base", "HEAD"])):
            proc = subprocess.run([sys.executable, script, "--workload",
                                   "fabric_incast", *extra],
                                  cwd=sides["change"], capture_output=True,
                                  text=True)
            check(f"{what} exits 2", proc.returncode == 2)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
