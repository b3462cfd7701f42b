"""Harness self-test: every workload at its tiny size, untraced and traced.

    python3 perfbench/selftest.py

Asserts that each untraced run prints every end-to-end metric named in
``BENCHMARK.json`` with its unit, that each traced run prints every
per-layer metric, and that no output check failed. Exits non-zero on the
first mismatch. The tiny sizes check names and plumbing, not speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected[trace]:
                missing = sorted(set(expected[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(expected[trace]))
                units = sorted(n for n in emitted.keys() & expected[trace].keys()
                               if emitted[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, extra {extra}, units {units}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            print(f"{label}: {len(emitted)} metrics, {result['failed']}/{result['attempted']} "
                  f"ops failed", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
