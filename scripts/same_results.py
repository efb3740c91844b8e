"""Check that a revision and the working tree solve every benchmark and acceptance cell bitwise alike.

Run from the root of a checkout:

    python3 scripts/same_results.py --base REV

REV is exported with ``git archive`` (``bench_pairs.export_revision``) into a
temporary directory.  Each side then solves every cell of
``perfbench/workloads.json`` (the working tree's list, smoke cells included)
once, and after them the 48 cells of acceptance criteria 08 and 09
(:data:`ACCEPTANCE_CELLS`), in a subprocess with that side's ``src`` on
PYTHONPATH.  Per cell the script prints a sha256 of y0, z0, err_y, err_z and
picard_stats on each side.  Under each cell whose digests differ it prints
how far err_y and err_z moved (the relative change of their largest
component), both sides' picard_stats, and each side's budget-exit warning:
the solver's warning that coupled levels accepted an outer iterate when the
``solver.MAX_OUTER`` pass budget ran out, caught from the
``fbsde_multistep.solver`` logger and kept outside the digest.  It exits 1
naming each cell whose digest differs or that fails on one side only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging.handlers
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, SIDES, export_revision  # noqa: E402


# Criterion 08's ex53_2d ladders and criterion 09's coupled ones
# (tests/test_acceptance.py), all under exact seeding; each label starts with
# its criterion, so a cell that is also a workload cell is solved once more.
ACCEPTANCE_LADDERS = (
    ("08", ("ex53_2d",), (8, 16, 32, 64)),
    ("09", ("ex54a", "ex54b", "ex55"), (16, 32, 64, 128)),
)
ACCEPTANCE_CELLS = [
    {"label": f"c{criterion}/{problem}/k{k}/N{N}/exact", "problem": problem, "k": k, "N": N,
     "terminal_mode": "exact"}
    for criterion, problems, Ns in ACCEPTANCE_LADDERS
    for problem in problems for k in (1, 2, 3) for N in Ns
]


def workload_cells(workloads: dict) -> list[dict]:
    """Every (problem, k, N, terminal_mode) cell of the workloads, once, in file order."""
    cells = {}
    for workload in workloads.values():
        for group in workload["specs"]:
            for N in group["Ns"]:
                label = f"{group['problem']}/k{group['k']}/N{N}/{group['terminal_mode']}"
                cells.setdefault(label, {"label": label, "problem": group["problem"],
                                         "k": group["k"], "N": N,
                                         "terminal_mode": group["terminal_mode"]})
    return list(cells.values())


def result_digest(result) -> str:
    """sha256 over the bytes and shapes of y0, z0, err_y, err_z and over picard_stats."""
    h = hashlib.sha256()
    for a in (result.y0, result.z0, result.err_y, result.err_z):
        a = None if a is None else np.ascontiguousarray(a, dtype=float)
        h.update(b"None" if a is None else repr(a.shape).encode() + a.tobytes())
    stats = result.picard_stats
    h.update(repr((stats.max_iterations, stats.mean_iterations)).encode())
    return h.hexdigest()


def result_record(result) -> dict:
    """A result's digest, with the figures a cell that moved is described by."""
    stats = result.picard_stats

    def largest(a):
        return None if a is None else float(np.max(a))

    return {"digest": result_digest(result), "err_y": largest(result.err_y),
            "err_z": largest(result.err_z),
            "picard_stats": [stats.max_iterations, stats.mean_iterations]}


def describe_change(base: dict, head: dict) -> str:
    """How far a cell moved between two records of :func:`result_record`."""
    parts = []
    for name in ("err_y", "err_z"):
        b, h = base[name], head[name]
        parts.append(f"{name} " + ("n/a" if b is None or h is None or b == 0 else
                                    f"{100 * (h / b - 1):+.3g}%"))
    parts.append("picard_stats {} -> {}".format(*(
        f"({rec['picard_stats'][0]}, {rec['picard_stats'][1]:.4g})" for rec in (base, head))))
    return "  ".join(parts)


def describe_budget_exits(base: dict, head: dict) -> list[str]:
    """Each side's budget-exit warning (``budget_exit`` of a record), one line per side."""
    return [f"{side} budget exits: {rec.get('budget_exit') or 'none'}"
            for side, rec in zip(SIDES, (base, head))]


def solve_cell(cell: dict):
    """One cell's record, with its budget-exit warning or None as ``budget_exit``, or "error: ..."."""
    from fbsde_multistep import SolverConfig, registry_get, solve

    # a solve logs a few warnings at most, far below the buffer's capacity
    logger = logging.getLogger("fbsde_multistep.solver")
    caught = logging.handlers.BufferingHandler(capacity=1 << 10)
    logger.addHandler(caught)
    try:
        config = SolverConfig(k=cell["k"], N=cell["N"], terminal_mode=cell["terminal_mode"])
        record = result_record(solve(registry_get(cell["problem"]), config))
    except Exception as exc:  # a failing cell is an outcome to compare
        return f"error: {type(exc).__name__}: {exc}"
    finally:
        logger.removeHandler(caught)
    messages = [rec.getMessage() for rec in caught.buffer]
    exits = [msg for msg in messages if "accepted an outer iterate" in msg]
    record["budget_exit"] = exits[0] if exits else None
    return record


def solve_cells() -> None:
    """Subprocess entry: read cells as JSON on stdin, print {label: record or error} JSON."""
    print(json.dumps({cell["label"]: solve_cell(cell) for cell in json.load(sys.stdin)}))


def side_records(tree: Path, cells: list[dict]) -> dict:
    """Each cell's record (or "error: ...") when solved with ``tree``'s source."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            "import same_results; same_results.solve_cells()")
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(cells), env=env,
                          cwd=str(tree), capture_output=True, text=True, timeout=3600)
    if proc.returncode != 0:
        reason = f"error: solver process exited {proc.returncode}: {proc.stderr[-300:]}"
        return {cell["label"]: reason for cell in cells}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(digests: dict[str, dict[str, str]], labels: list[str]) -> list[tuple[str, str]]:
    """(label, reason) of each cell whose digests differ or that fails on one side only.

    ``digests`` maps each side to {label: digest}; a digest starting with
    "error:" is a failure, and a cell a side did not report counts as one.
    """
    bad = []
    for label in labels:
        base, head = (digests[side].get(label, "error: not reported") for side in SIDES)
        failed = [side for side, d in zip(SIDES, (base, head)) if d.startswith("error:")]
        if len(failed) == 1:
            bad.append((label, f"fails on {failed[0]} only"))
        elif not failed and base != head:
            bad.append((label, "digests differ"))
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    workload = workload_cells(json.loads((ROOT / "perfbench" / "workloads.json").read_text()))
    cells = workload + ACCEPTANCE_CELLS
    labels = [cell["label"] for cell in cells]
    with tempfile.TemporaryDirectory(prefix="same-results-") as tmp:
        commit = export_revision(args.base, Path(tmp))
        records = {"base": side_records(Path(tmp), cells), "head": side_records(ROOT, cells)}
    digests = {side: {label: rec["digest"] if isinstance(rec, dict) else rec
                      for label, rec in records[side].items()} for side in SIDES}
    bad = dict(compare(digests, labels))
    for label in labels:
        base, head = (digests[side].get(label, "error: not reported") for side in SIDES)
        status = bad.get(label) or ("fails on both" if head.startswith("error:") else "equal")
        print(f"{label:<28} {status:<16} head {head}" + ("" if base == head else f"  base {base}"))
        if status == "digests differ":
            base_rec, head_rec = records["base"][label], records["head"][label]
            print(" " * 4 + describe_change(base_rec, head_rec))
            for line in describe_budget_exits(base_rec, head_rec):
                print(" " * 4 + line)
    alike = [label not in bad for label in labels]
    split = len(workload)
    print(f"base {args.base} ({commit[:12]}) against the working tree: "
          f"{sum(alike[:split])} of {split} workload cells and "
          f"{sum(alike[split:])} of {len(ACCEPTANCE_CELLS)} acceptance cells alike")
    if bad:
        print("cells that differ: " + ", ".join(f"{label} ({why})" for label, why in bad.items()))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
