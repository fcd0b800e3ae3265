#!/usr/bin/env python3
"""Self-test of the host-cost benchmark.

    python3 perfbench/selftest.py

Runs every workload for a fraction of a second, untraced and traced at the
recorded seed and untraced at a second seed, and asserts that:
  * the last output line parses as the result JSON with exactly the keys
    correct, attempted, failed and metrics;
  * every end-to-end (untraced) or per-layer (traced) metric that
    BENCHMARK.json names is printed with its unit;
  * every output check passed (exit status 0, correct, failed == 0);
  * every span's self time is non-negative.
Exits non-zero on the first failed assertion.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_LINE = re.compile(r"^span (\S+)\s+calls\s+(\d+) self\s+(-?[\d.]+) ns/call$")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout


def check(workload, seed, trace, spec):
    label = f"{workload} seed={seed} trace={trace}"
    rc, out = run(workload, seed, trace)
    lines = out.strip().splitlines()
    assert lines, f"{label}: no output"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (
        f"{label}: result keys {sorted(result)}")
    assert rc == 0 and result["correct"] and result["failed"] == 0, (
        f"{label}: checks failed (exit {rc}):\n" +
        "\n".join(l for l in lines if l.startswith("CHECK FAILED")))
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, (
        f"{label}: metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{label}: {m['name']} unit"
        assert isinstance(value["value"], (int, float)), f"{label}: {m['name']}"
    spans = [SPAN_LINE.match(l) for l in lines if l.startswith("span ")]
    if trace:
        assert spans and all(spans), f"{label}: span lines missing or malformed"
        for match in spans:
            assert float(match.group(3)) >= 0, f"{label}: span {match.group(1)}"
    print(f"ok  {label}: {len(got)} metrics, {result['attempted']} packets")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        check(workload, 1, 0, spec)
        check(workload, 1, 1, spec)
        check(workload, 2, 0, spec)
    print("perfbench self-test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as err:
        sys.exit(f"perfbench self-test FAILED: {err}")
