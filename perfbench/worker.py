"""One workload in a fresh process: set up, run timed passes, print a result.

Started by ``run.py``.  Prints ``READY`` once the package is imported and the
workload's problems and RunSpecs are built (the end of set-up), then, unless
``--setup-only`` is given, runs passes over the workload's cells for the time
budget and prints ``RESULT <json>`` as its last line.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_package(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of set-up: the package needs it)
    import fbsde_multistep

    location = Path(fbsde_multistep.__file__).resolve()
    if src not in location.parents:
        raise SystemExit(f"worker: imported fbsde_multistep from {location}, not from {src}")
    return fbsde_multistep


def _build(workload: dict):
    """Registry records and one RunSpec per (problem, k) group of cells."""
    from fbsde_multistep.bench import RunSpec
    from fbsde_multistep.problems import registry_get

    for name in sorted({group["problem"] for group in workload["specs"]}):
        registry_get(name)
    return [
        (
            RunSpec(
                problem=group["problem"], ks=(group["k"],), Ns=tuple(group["Ns"]),
                terminal_mode=group["terminal_mode"],
            ),
            group,
        )
        for group in workload["specs"]
    ]


class Tally:
    """What the passes of one run observed, cell by cell."""

    def __init__(self):
        self.errors: dict[str, list] = {}  # cell label -> (err_y, err_z) per pass
        self.failures: dict[str, str] = {}  # cell label -> reason
        self.rates: dict[str, tuple] = {}  # "problem k= component" -> (CR(Y), CR(Z))

    def record(self, group: dict, report):
        for cell in report.cells:
            label = _label(group, cell.N)
            if cell.diverged:
                self.failures[label] = "diverged"
                continue
            err_y = tuple(float(e) for e in cell.err_y)
            err_z = tuple(float(e) for e in cell.err_z)
            self.errors.setdefault(label, []).append((err_y, err_z))
            ceiling = group["ceilings"][str(cell.N)]
            if max(err_y) > ceiling["err_y"] or max(err_z) > ceiling["err_z"]:
                self.failures[label] = (
                    f"error above ceiling: err_y {max(err_y):.3e} (<= {ceiling['err_y']:.1e}),"
                    f" err_z {max(err_z):.3e} (<= {ceiling['err_z']:.1e})"
                )
        for (k, comp), pair in report.rates.items():
            self.rates[f"{report.problem} k={k} component {comp + 1}"] = pair


def _label(group: dict, N: int) -> str:
    return f"{group['problem']}/k{group['k']}/N{N}/{group['terminal_mode']}"


def _run_spec(run, spec, group, tally: Tally) -> float:
    """One RunSpec; returns its wall time.  Any exception fails its cells."""
    started = time.perf_counter()
    try:
        report = run(spec)
    except Exception as exc:  # count the whole RunSpec as failed, keep going
        for N in group["Ns"]:
            tally.failures[_label(group, N)] = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - started
    seconds = time.perf_counter() - started
    tally.record(group, report)
    return seconds


def _order(specs, rng) -> list:
    order = list(specs)
    rng.shuffle(order)
    return order


def _passes(run, specs, rng, budget: float, tally: Tally) -> list[float]:
    """Passes over every cell in a seeded order, until the next one would
    overrun ``budget`` (at least one); returns each pass's wall time."""
    times = []
    started = time.perf_counter()
    while True:
        times.append(sum(_run_spec(run, spec, group, tally) for spec, group in _order(specs, rng)))
        if time.perf_counter() - started + statistics.median(times) > budget:
            return times


def _traced_passes(pkg, run, specs, rng, budget: float, tally: Tally, spans_out) -> dict:
    """Paired passes filling ``budget`` (at least one): each RunSpec runs
    untraced and then traced, back to back, so that the tracing overhead is
    measured under the same machine load.  Per-layer metrics are medians over
    passes; the last pass's spans are written to ``spans_out`` = (path, header).
    """
    from spans import BOUNDARIES, Tracer

    plain, traced, metrics = [], [], []
    started = time.perf_counter()
    while True:
        tracer = Tracer()
        traced_run = tracer.wrap("bench.run", run)
        plain_s = traced_s = 0.0
        for spec, group in _order(specs, rng):
            plain_s += _run_spec(run, spec, group, tally)
            restore = tracer.install(pkg)
            try:
                traced_s += _run_spec(traced_run, spec, group, tally)
            finally:
                restore()
        plain.append(plain_s)
        traced.append(traced_s)
        metrics.append(tracer.metrics())
        next_pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - started + next_pair > budget:
            break
    if spans_out:
        tracer.write(*spans_out)
    return {
        "pass_s": plain,
        "traced_pass_s": traced,
        "layers": {
            name: [statistics.median(m[name][0] for m in metrics), unit, boundary]
            for name, (_, unit, boundary) in metrics[0].items()
        },
        "hit": [name for name in BOUNDARIES if tracer.calls[name]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pkg = _import_package(Path(args.root))
    workload = json.loads((HERE / "workloads.json").read_text())[args.workload]
    specs = _build(workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    from fbsde_multistep.bench import run

    rng = random.Random(args.seed)
    tally = Tally()
    result = {"cells": sum(len(group["Ns"]) for _, group in specs)}
    if args.trace:
        spans_out = args.trace_out and (
            args.trace_out, f"workload={args.workload} seed={args.seed}"
        )
        result.update(_traced_passes(pkg, run, specs, rng, args.seconds, tally, spans_out))
    else:
        result["pass_s"] = _passes(run, specs, rng, args.seconds, tally)

    numpy = sys.modules["numpy"]
    first = {label: errs[0] for label, errs in sorted(tally.errors.items())}
    result.update({
        "failures": tally.failures,
        "rates": tally.rates,
        "deterministic": all(len(set(errs)) == 1 for errs in tally.errors.values()),
        "errors": first,
        "err_y": [e for err_y, _ in first.values() for e in err_y],
        "err_z": [e for _, err_z in first.values() for e in err_z],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "blas": _blas_version(numpy),
    })
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _blas_version(numpy) -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"
    except Exception:  # informational only; the layout differs across numpy versions
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
