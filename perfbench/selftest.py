#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Flipping one expected answer makes that item fail: `failed` rises above
   zero and the run exits non-zero, where the same run unflipped is clean.
2. Two runs with the same seed give identical work counts, per item and in
   set-up, on every workload.
3. The metrics each mode prints are exactly those BENCHMARK.json names.
Each check runs the benchmark as a subprocess with short runs (two batches).
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-corpus", "deep-orient", "replay-emit", "search-props")


def bench(workload: str, seed: int, trace: int, *extra: str) -> tuple[int, dict, dict]:
    """Run one short benchmark; return its exit code, result line and details."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details_path = ROOT / ".perfbench_out" / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    return done.returncode, result, json.loads(details_path.read_text())


def main() -> int:
    problems: list[str] = []

    code, clean, _ = bench("deep-orient", 5, 0)
    flipped_code, flipped, _ = bench("deep-orient", 5, 0, "--flip", "tower-16")
    share = lambda r: r["failed"] / r["attempted"]
    print("flip: failed_share %.4f unflipped (exit %d), %.4f flipped (exit %d)"
          % (share(clean), code, share(flipped), flipped_code))
    if not (code == 0 and clean["correct"] and share(clean) == 0):
        problems.append("unflipped run is not clean")
    if not (flipped_code != 0 and not flipped["correct"] and share(flipped) > share(clean)):
        problems.append("flipping an expected answer did not raise failed_share")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for workload in WORKLOADS:
        first, second = (bench(workload, 9, 1) for _ in range(2))
        keys = ("counts", "setup_counts")
        same = all(first[2][k] == second[2][k] for k in keys)
        print("counts %s: %s (%d items)" % (workload, "identical" if same else "DIFFER", len(first[2]["counts"])))
        if not same:
            problems.append("%s: counts differ between two runs with the same seed" % workload)
        if sorted(first[1]["metrics"]) != sorted(names[1]):
            problems.append("%s: per-layer metrics differ from BENCHMARK.json" % workload)
    _, plain, _ = bench("deep-orient", 9, 0)
    if sorted(plain["metrics"]) != sorted(names[0]):
        problems.append("end-to-end metrics differ from BENCHMARK.json")

    for p in problems:
        print("FAIL %s" % p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
