"""Reduced-size smoke check of the benchmark.

Usage, from the checkout root: ``python3 perfbench/smoke.py``

Runs every workload of ``BENCHMARK.json`` on a small corpus for one second,
untraced and traced, and fails unless each run is correct and emits every
metric ``BENCHMARK.json`` names for its mode.  It also checks that the
benchmark refuses, without a result line, a directory that holds no
loraprop sources.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SCALE = "0.05"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    root = Path.cwd()
    config = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            done = _run(root, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                errors.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: correct={result['correct']} "
                              f"failed={result['failed']} attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                errors.append(f"{label}: missing {missing}, unexpected {extra}, or units differ")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}", flush=True)

    # a directory with only the benchmark must be refused without a result
    bare = root / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _run(bare, config["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        errors.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for error in errors:
        print("FAIL", error, file=sys.stderr)
    print("smoke check", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
