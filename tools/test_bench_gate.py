#!/usr/bin/env python3
"""Self-test of tools/bench_gate.py: exit codes on hand-built fixtures.

Each case writes a baseline and a fresh BENCH_demo.json into a temporary
directory, runs the gate on them and checks its exit code (0 = pass,
1 = regression or broken run).

Usage: python3 tools/test_bench_gate.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_gate.py")

BASELINE = {
    "allocs_per_packet": 0.03,
    "events_per_packet_64": 5.0,
    "delivered_gbps_64": 7.25,
    "worst_loss_rate": 0.0,
    "ledger_ok": 1,
    "shards": 4,
    "latency_p50_ns_down": 3519.7,
}


def with_figures(**changes):
    figures = dict(BASELINE)
    for key, value in changes.items():
        if value is None:
            figures.pop(key)
        else:
            figures[key] = value
    return figures


def run_gate(baseline, fresh) -> int:
    with tempfile.TemporaryDirectory() as root:
        base_dir = os.path.join(root, "baselines")
        fresh_dir = os.path.join(root, "fresh")
        os.mkdir(base_dir)
        os.mkdir(fresh_dir)
        docs = [(base_dir, baseline), (fresh_dir, fresh)]
        for directory, figures in docs:
            if figures is None:
                continue  # the bench never wrote its file
            path = os.path.join(directory, "BENCH_demo.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"bench": "demo", "figures": figures,
                           "metrics": {"metrics": []}}, handle)
        result = subprocess.run(
            [sys.executable, GATE, "--baselines", base_dir,
             "--fresh", fresh_dir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        return result.returncode


CASES = [
    ("identical files pass", with_figures(), 0),
    ("strict regression beyond tolerance fails",
     with_figures(delivered_gbps_64=6.0), 1),
    ("strict move inside tolerance passes",
     with_figures(delivered_gbps_64=7.0), 0),
    ("allocs/packet noise inside the absolute headroom passes",
     with_figures(allocs_per_packet=0.045), 0),
    ("events/packet rising from 5 to 6 fails",
     with_figures(events_per_packet_64=6.0), 1),
    ("events/packet falling passes",
     with_figures(events_per_packet_64=4.0), 0),
    ("zero-loss baseline regressing to 1.9% loss fails",
     with_figures(worst_loss_rate=0.019), 1),
    ("ledger flag dropping to 0 fails", with_figures(ledger_ok=0), 1),
    ("context mismatch fails", with_figures(shards=8), 1),
    ("vanished figure fails", with_figures(delivered_gbps_64=None), 1),
    ("missing fresh file fails", None, 1),
    ("moving info figure passes",
     with_figures(latency_p50_ns_down=9000.0), 0),
]


def main() -> int:
    failed = 0
    for label, fresh, expected in CASES:
        code = run_gate(BASELINE, fresh)
        verdict = "ok" if code == expected else "FAIL"
        print(f"{verdict:4s} {label}: exit {code} (want {expected})")
        failed += code != expected
    print(f"\n{len(CASES) - failed}/{len(CASES)} gate cases behave")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
