#!/usr/bin/env python3
"""Exact-count and second-seed check for the benchmark.

For each workload, runs the traced benchmark twice at seed 0 and requires
the exact per-layer counts to repeat, then runs it timed and traced at seed
1 and requires every correctness check to pass.  Run from the repository
root (takes a few minutes):

    python3 bench/check_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import COUNTS, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 0
OTHER_SEED = 1


def bench(workload: str, seed: int, trace: int) -> dict:
    # --seconds 1 gives one pass (one untraced/traced pair when tracing).
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["returncode"] = proc.returncode
    return result


def main() -> int:
    bad = []
    for wl in WORKLOADS:
        first, second = bench(wl, SEED, 1), bench(wl, SEED, 1)
        counts = {name: first["metrics"][name]["value"] for name in COUNTS}
        for name, value in counts.items():
            if second["metrics"][name]["value"] != value:
                bad.append(f"{wl}: {name} {value} then {second['metrics'][name]['value']}")
        print(f"{wl} seed {SEED}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
        for trace in (0, 1):
            other = bench(wl, OTHER_SEED, trace)
            ok = other["correct"] and other["failed"] == 0 and other["returncode"] == 0
            print(f"{wl} seed {OTHER_SEED} trace {trace}: correct={other['correct']} "
                  f"failed={other['failed']}/{other['attempted']}")
            if not ok:
                bad.append(f"{wl}: seed {OTHER_SEED} trace {trace} failed the gate")
        for run in (first, second):
            if not run["correct"]:
                bad.append(f"{wl}: seed {SEED} traced run failed the gate")
    for line in bad:
        print(f"MISMATCH {line}")
    print("exact counts repeat; second seed passes" if not bad else f"{len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
