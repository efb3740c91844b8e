"""The summariser of scripts/bench_pairs.py and the comparison of
scripts/same_results.py, on canned benchmark output and digests, the
budget-exit capture of scripts/same_results.py on small solves, and the
working-tree export of scripts/bench_pairs.py on a throwaway repository."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from fbsde_multistep import SolverConfig, registry_get, solve

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
_spec = importlib.util.spec_from_file_location("same_results", ROOT / "scripts" / "same_results.py")
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)

BETTER = {"wall_s": "lower", "err_y_geomean": "lower", "cells_ok": "higher"}


def _output(wall, err_y, cells_ok, failed=0, loadavg=0.5):
    """A run's standard output as perfbench/run.py prints it (trimmed)."""
    env = {"nproc": 2, "cpu": "test cpu", "python": "3.11.7", "loadavg": [loadavg] * 3}
    result = {
        "correct": failed == 0, "attempted": 24, "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "err_y_geomean": {"value": err_y, "unit": "1"},
            "cells_ok": {"value": cells_ok, "unit": "count"},
        },
    }
    return "\n".join([
        "environment " + json.dumps(env),
        "cell ex51/k1/N16: err_y 1.000e-02  err_z 2.000e-02",
        "ladder_1d wall_s = %g s" % wall,
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_environment_and_result():
    env, result = bench_pairs.parse_run(_output(1.5, 1e-4, 24, loadavg=0.25))
    assert env["loadavg"] == [0.25] * 3
    assert result["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError, match="environment"):
        bench_pairs.parse_run('{"metrics": {}}\n')


def test_summarise_medians_quartiles_and_wins():
    base = [1.6, 1.8, 1.7, 2.0, 1.65]
    head = [1.2, 1.3, 1.1, 1.9, 1.7]
    pairs = [
        {
            "base": bench_pairs.parse_run(_output(b, 1e-4, 24))[1],
            "head": bench_pairs.parse_run(_output(h, 1e-4, 24 if i else 23, failed=int(not i)))[1],
        }
        for i, (b, h) in enumerate(zip(base, head))
    ]
    summary = bench_pairs.summarise(pairs, BETTER)
    assert list(summary) == ["wall_s", "err_y_geomean", "cells_ok", "failed", "pairs"]
    wall = summary["wall_s"]
    assert wall["unit"] == "s"
    assert wall["base"] == {"median": 1.7, "q1": 1.65, "q3": 1.8}
    assert wall["head"] == {"median": 1.3, "q1": 1.2, "q3": 1.7}
    assert wall["ratio"] == pytest.approx(1.3 / 1.7)
    assert wall["head_wins"] == 4  # the last pair is slower on the head side
    assert summary["err_y_geomean"]["head_wins"] == 0  # equal is no win
    assert summary["err_y_geomean"]["ratio"] == 1.0
    assert summary["cells_ok"]["head"]["q1"] == 24 and summary["cells_ok"]["head_wins"] == 0
    assert summary["failed"] == {"base": 0, "head": 1}
    assert summary["pairs"] == 5


def test_summarise_single_pair_and_missing_geomean():
    pair = {
        "base": bench_pairs.parse_run(_output(1.0, None, 0, failed=24))[1],
        "head": bench_pairs.parse_run(_output(0.9, 2e-4, 24))[1],
    }
    summary = bench_pairs.summarise([pair], BETTER)
    assert summary["wall_s"]["head"] == {"median": 0.9, "q1": 0.9, "q3": 0.9}
    assert "base" not in summary["err_y_geomean"] and "ratio" not in summary["err_y_geomean"]
    assert summary["err_y_geomean"]["head_wins"] == 0
    assert summary["cells_ok"]["head_wins"] == 1


def test_parse_pytest_summary():
    counts, seconds = bench_pairs.parse_pytest_summary(
        "....F\n2 failed, 369 passed, 1 warning in 95.12s (0:01:35)\n"
    )
    assert counts == {"failed": 2, "passed": 369, "warning": 1}
    assert seconds == 95.12
    counts, seconds = bench_pairs.parse_pytest_summary(".\n1 passed in 36.10s\n\n")
    assert counts == {"passed": 1} and seconds == 36.1
    with pytest.raises(ValueError, match="summary"):
        bench_pairs.parse_pytest_summary("ERROR: file or directory not found: x\n")


def test_same_results_names_cells_that_differ_or_fail_on_one_side():
    a, b = "a" * 64, "b" * 64
    digests = {
        "base": {"same": a, "moved": a, "base_fails": "error: ValueError: x",
                 "head_fails": a, "both_fail": "error: RuntimeError: y", "head_only": a},
        "head": {"same": a, "moved": b, "base_fails": a,
                 "head_fails": "error: PicardDivergenceError: z",
                 "both_fail": "error: RuntimeError: y", "base_only": a},
    }
    labels = ["same", "moved", "base_fails", "head_fails", "both_fail", "head_only", "base_only"]
    assert same_results.compare(digests, labels) == [
        ("moved", "digests differ"),
        ("base_fails", "fails on base only"),
        ("head_fails", "fails on head only"),
        ("head_only", "fails on head only"),  # a cell a side did not report failed there
        ("base_only", "fails on base only"),
    ]
    assert same_results.compare(digests, ["same", "both_fail"]) == []


def test_same_results_cells_and_digest():
    workloads = {
        "w1": {"specs": [{"problem": "ex51", "k": 2, "Ns": [8, 16], "terminal_mode": "exact"}]},
        "w2": {"specs": [{"problem": "ex51", "k": 2, "Ns": [16], "terminal_mode": "exact"},
                         {"problem": "ex51", "k": 2, "Ns": [16], "terminal_mode": "bootstrap"}]},
    }
    cells = same_results.workload_cells(workloads)
    assert [c["label"] for c in cells] == [
        "ex51/k2/N8/exact", "ex51/k2/N16/exact", "ex51/k2/N16/bootstrap"
    ]
    assert cells[2] == {"label": "ex51/k2/N16/bootstrap", "problem": "ex51", "k": 2, "N": 16,
                        "terminal_mode": "bootstrap"}

    class Stats:
        max_iterations, mean_iterations = 7, 6.5

    class Result:
        y0, z0, err_y, err_z, picard_stats = [1.0], [[2.0]], [0.1], None, Stats()

    digest = same_results.result_digest(Result())
    assert len(digest) == 64 and digest == same_results.result_digest(Result())
    Result.z0 = [2.0]  # same bytes, other shape
    assert same_results.result_digest(Result()) != digest
    Result.z0, Stats.mean_iterations = [[2.0]], 6.25
    assert same_results.result_digest(Result()) != digest


def test_same_results_lists_each_acceptance_cell_once():
    # criterion 08's ex53_2d ladders (k = 1..3, N = 8..64) and criterion
    # 09's coupled ones (k = 1..3, N = 16..128), under exact seeding
    cells = same_results.ACCEPTANCE_CELLS
    keys = [(c["problem"], c["k"], c["N"], c["terminal_mode"]) for c in cells]
    expected = [("ex53_2d", k, N, "exact") for k in (1, 2, 3) for N in (8, 16, 32, 64)]
    expected += [(name, k, N, "exact") for name in ("ex54a", "ex54b", "ex55")
                 for k in (1, 2, 3) for N in (16, 32, 64, 128)]
    assert len(cells) == 48 and sorted(keys) == sorted(expected)
    assert len({c["label"] for c in cells}) == 48
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    workload_labels = {c["label"] for c in same_results.workload_cells(workloads)}
    assert workload_labels.isdisjoint(c["label"] for c in cells)


def test_same_results_describes_how_a_moved_cell_changed():
    class Stats:
        max_iterations, mean_iterations = 4, 3.3

    class Result:
        y0, z0, err_y, err_z, picard_stats = [1.0], [[2.0]], [7.12814e-5], [[9.38848e-6]], Stats()

    base = same_results.result_record(Result())
    assert base == {"digest": same_results.result_digest(Result()), "err_y": 7.12814e-5,
                    "err_z": 9.38848e-6, "picard_stats": [4, 3.3]}
    Result.err_y, Result.err_z = [7.12883e-5], [[9.38613e-6, 1e-7]]
    Stats.max_iterations, Stats.mean_iterations = 3, 7 / 3
    head = same_results.result_record(Result())
    assert head["err_z"] == 9.38613e-6  # the largest component
    assert json.loads(json.dumps(head)) == head  # what the solving subprocess prints
    assert same_results.describe_change(base, head) == (
        "err_y +0.00968%  err_z -0.025%  picard_stats (4, 3.3) -> (3, 2.333)"
    )
    Result.err_y = None
    assert same_results.describe_change(base, same_results.result_record(Result())).startswith(
        "err_y n/a  err_z -0.025%"
    )


def test_same_results_reports_budget_exits_outside_the_digest():
    # ex55 k2 N8 with bootstrap seeds ends one sweep level on the
    # solver.MAX_OUTER budget; the cell's record carries that warning, and its digest is the
    # one of the result alone
    cell = {"label": "ex55/k2/N8/bootstrap", "problem": "ex55", "k": 2, "N": 8,
            "terminal_mode": "bootstrap"}
    warned = same_results.solve_cell(cell)
    assert warned["budget_exit"].startswith("1 of 6 sweep levels accepted an outer iterate")
    result = solve(registry_get("ex55"), SolverConfig(k=2, N=8, terminal_mode="bootstrap"))
    assert warned["digest"] == same_results.result_digest(result)
    quiet = same_results.solve_cell(dict(cell, label="ex55/k2/N8/exact", terminal_mode="exact"))
    assert quiet["budget_exit"] is None
    assert json.loads(json.dumps(warned)) == warned  # what the solving subprocess prints
    assert same_results.solve_cell(dict(cell, problem="nope")).startswith("error: ")
    assert same_results.describe_budget_exits(quiet, warned) == [
        "base budget exits: none", "head budget exits: " + warned["budget_exit"]
    ]


def _git(root, *args):
    return subprocess.run(
        ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        check=True, capture_output=True, text=True,
    ).stdout


def test_working_tree_export_holds_uncommitted_tracked_changes(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "kept.txt").write_text("committed\n")
    (repo / "changed.txt").write_text("committed\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "first")
    head = _git(repo, "rev-parse", "HEAD").strip()

    clean = tmp_path / "clean"
    assert bench_pairs.export_working_tree(clean, repo) == head
    assert sorted(p.name for p in clean.iterdir()) == ["changed.txt", "kept.txt"]

    (repo / "changed.txt").write_text("edited\n")
    (repo / "staged.txt").write_text("new\n")
    _git(repo, "add", "staged.txt")
    (repo / "untracked.txt").write_text("left out\n")
    status = _git(repo, "status", "--porcelain")
    dirty = tmp_path / "dirty"
    assert bench_pairs.export_working_tree(dirty, repo) != head
    assert sorted(p.name for p in dirty.iterdir()) == ["changed.txt", "kept.txt", "staged.txt"]
    assert (dirty / "changed.txt").read_text() == "edited\n"
    # The checkout, the index and the stash list are as they were.
    assert _git(repo, "status", "--porcelain") == status
    assert _git(repo, "rev-parse", "HEAD").strip() == head
    assert _git(repo, "stash", "list") == ""
