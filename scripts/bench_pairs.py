"""Alternating before/after pairs of the repository benchmark.

Run from the root of a checkout:

    python3 scripts/bench_pairs.py --base HEAD --pairs ladder_1d=5 \
        --pairs coupled_1d=2 --tests tests/test_acceptance.py::test_name \
        --out BENCH_example.json

The base revision and the working tree are each exported with ``git archive``
into a temporary directory, so both sides run from a fresh copy (a run's
``peak_rss_mb`` depends on the directory it starts from) and nothing is
written under ``src/``.  The working tree's export holds its tracked files
with their uncommitted changes, recorded by ``git stash create`` as an
unreferenced commit (HEAD itself on a clean tree); stage a new file for it to
be exported.  Pair i runs

    python3 perfbench/run.py --workload W --seed i --trace 0

once in each export, in alternating order (the base first on odd pairs).
The output file holds the environment line of the first run, every run's
end-to-end metrics, and per side the median and the quartiles of each
metric, in the order ``perfbench/run.py`` reports them (the error geomeans
sit next to the timings), plus how many pairs the working tree won on each
metric.

Each ``--tests NODEID`` runs ``python3 -m pytest -q NODEID`` once per side
(the base first), with PYTHONPATH set to that side's ``src``; the file then
holds, per node id and side, the wall time of the run, pytest's own reported
duration, its outcome counts and its exit code.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The environment object and the final result object of one run's output."""
    lines = stdout.strip().splitlines()
    prefix = "environment "
    envs = [json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)]
    if not envs:
        raise ValueError("run output has no environment line")
    return envs[0], json.loads(lines[-1])


def parse_pytest_summary(stdout: str) -> tuple[dict[str, int], float]:
    """Outcome counts and duration from the summary line of a pytest run.

    The line reads like "2 failed, 369 passed, 1 warning in 95.12s (0:01:35)";
    counts are keyed by the word pytest prints ("passed", "failed", ...).
    """
    for line in reversed(stdout.strip().splitlines()):
        duration = re.search(r" in ([0-9.]+)s\b", line)
        if duration:
            counts = {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", line)}
            return counts, float(duration.group(1))
    raise ValueError("pytest output has no summary line")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric medians, quartiles and head wins over a workload's pairs.

    ``pairs`` holds one {"base": result, "head": result} per pair, each result
    the final JSON object of a run; ``better`` maps a metric to "lower" or
    "higher".  A pair counts as a head win when its head value is strictly
    better; a metric a side did not report (a failed geomean) is skipped.
    """
    names = list(pairs[0]["head"]["metrics"])
    summary = {}
    for name in names:
        entry = {"unit": pairs[0]["head"]["metrics"][name]["unit"]}
        values = {}
        for side in SIDES:
            values[side] = [p[side]["metrics"][name]["value"] for p in pairs]
            shown = [v for v in values[side] if v is not None]
            if shown:
                q1, med, q3 = _quartiles(shown)
                entry[side] = {"median": med, "q1": q1, "q3": q3}
        if "base" in entry and "head" in entry and entry["base"]["median"]:
            entry["ratio"] = entry["head"]["median"] / entry["base"]["median"]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        entry["head_wins"] = sum(
            1 for b, h in zip(values["base"], values["head"])
            if b is not None and h is not None and sign * (h - b) > 0
        )
        summary[name] = entry
    summary["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    summary["pairs"] = len(pairs)
    return summary


def export_revision(rev: str, dest: Path, root: Path = ROOT) -> str:
    """Extract ``rev`` of the repository at ``root`` into ``dest``; returns its commit id."""
    sha = subprocess.run(
        ["git", "-C", str(root), "rev-parse", rev], check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", sha], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def export_working_tree(dest: Path, root: Path = ROOT) -> str:
    """Extract the tracked files of ``root``'s working tree into ``dest``.

    Uncommitted changes are included: ``git stash create`` records them as a
    commit without touching the checkout, the index or the stash list, and
    prints nothing on a clean tree, which exports HEAD.  Returns the exported
    commit id.
    """
    stash = subprocess.run(
        ["git", "-C", str(root), "stash", "create"], check=True, capture_output=True, text=True
    ).stdout.strip()
    return export_revision(stash or "HEAD", dest, root)


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=str(tree), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return parse_run(proc.stdout)


def time_tests(tree: Path, nodeid: str) -> dict:
    """Run one pytest node id against ``tree``'s source; its timing and outcome."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", nodeid],
        cwd=str(tree), env=env, capture_output=True, text=True, timeout=3600,
    )
    wall = time.perf_counter() - started
    counts, seconds = parse_pytest_summary(proc.stdout)
    return {"wall_s": wall, "pytest_s": seconds, "outcomes": counts,
            "exit_code": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N",
                        help="run N pairs of WORKLOAD (repeatable)")
    parser.add_argument("--tests", action="append", default=[], metavar="NODEID",
                        help="time one pytest node id on each side (repeatable)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if not args.pairs and not args.tests:
        parser.error("give at least one --pairs or --tests")
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        plan.append((workload, int(count or 1)))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}

    report = {"base": args.base, "head": "working tree", "environment": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        report["base_commit"] = export_revision(args.base, trees["base"])
        report["head_commit"] = export_working_tree(trees["head"])
        for workload, count in plan:
            pairs = []
            for seed in range(1, count + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"seed": seed}
                for side in order:
                    env, result = run_once(trees[side], workload, seed)
                    report["environment"] = report["environment"] or env
                    pair[side] = result
                    pair[f"{side}_loadavg"] = env["loadavg"]
                pairs.append(pair)
                wall = [pair[s]["metrics"]["wall_s"]["value"] for s in SIDES]
                print(f"{workload} pair {seed}: wall_s {wall[0]:.3f} -> {wall[1]:.3f}", flush=True)
            report["workloads"][workload] = {"summary": summarise(pairs, better), "pairs": pairs}
        if args.tests:
            report["tests"] = {}
        for nodeid in args.tests:
            timed = {side: time_tests(trees[side], nodeid) for side in SIDES}
            report["tests"][nodeid] = timed
            print(f"{nodeid}: wall_s {timed['base']['wall_s']:.1f} -> "
                  f"{timed['head']['wall_s']:.1f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
