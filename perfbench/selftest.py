"""Seconds-long self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs the tiny ``smoke`` workload untraced and traced and checks that every
metric named in BENCHMARK.json is emitted as a number with its unit, that the
traced run hit every boundary, and that the benchmark refuses to run (non-zero
exit, no result) in a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def check_metrics(trace: int, expected: list[dict]) -> list[str]:
    proc = _run(ROOT, trace)
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"trace {trace}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append(
            f"trace {trace}: metric names differ from BENCHMARK.json: "
            f"missing {sorted({m['name'] for m in expected} - set(metrics))}, "
            f"extra {sorted(set(metrics) - {m['name'] for m in expected})}"
        )
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got['unit']!r}, expected {metric['unit']!r}")
        if not isinstance(got["value"], (int, float)):
            problems.append(f"{metric['name']}: value {got['value']!r} (boundary not hit?)")
    problems += [f"trace {trace}: {line}" for line in lines if line.startswith("UNMEASURED")]
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = (
        check_metrics(0, config["end_to_end"])
        + check_metrics(1, config["per_layer"])
        + check_bare_directory()
    )
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
