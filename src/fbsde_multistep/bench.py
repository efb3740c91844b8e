"""Convergence-study harness and command-line interface.

Runs the solver over a (k, N) grid for one benchmark problem, fits
convergence rates, and writes a machine-readable table.  Cells whose solve
fails (any ``SolverFailure``: a diverged iteration, a non-finite value, a read
off the grid) are recorded as DIVERGED, with the reason logged, without
aborting the remaining cells.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .failures import SolverFailure
from .problems import FbsdeProblem, UnknownProblemError, registry_get, registry_names
from .solver import MAX_PICARD, ConfigError, SolverConfig, solve

logger = logging.getLogger(__name__)

CSV_HEADER = "problem,k,N,component,err_y,err_z,runtime_s,picard_max"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2


# One SolverConfig override: its config key (the flag is the key with '-' for
# '_'), the RunSpec and SolverConfig field it sets, its value parser, and the
# flag's help text and choices.
class _Override(NamedTuple):
    key: str
    field: str
    parse: Callable
    help: str
    choices: Optional[tuple[str, ...]] = None


SOLVER_OVERRIDES = (
    _Override("gh_points", "L", int, "Gauss-Hermite points per dimension (default 8)"),
    _Override("interp_degree", "r", int, "Lagrange degree r (default: balancing policy)"),
    _Override("grid_h", "h", float, "grid spacing (default: balancing policy)"),
    _Override("tol", "eps0", float, "Picard tolerance eps0"),
    _Override("terminal", "terminal_mode", str, "terminal seeding mode", ("exact", "bootstrap")),
)

# Options that describe the run rather than the solver.
RUN_KEYS = ("problem", "k", "N", "format", "out")


@dataclass(frozen=True)
class RunSpec:
    """One convergence study: a problem crossed with k and N lists."""

    problem: str
    ks: tuple[int, ...]
    Ns: tuple[int, ...]
    L: Optional[int] = None
    r: Optional[int] = None
    h: Optional[float] = None
    eps0: Optional[float] = None
    terminal_mode: Optional[str] = None
    out: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        if not self.ks or not self.Ns:
            raise ConfigError("k and N lists must be non-empty")
        if self.fmt not in ("csv", "markdown"):
            raise ConfigError(f"format must be csv or markdown, got {self.fmt!r}")
        for k in self.ks:
            for N in self.Ns:
                if N < k + 1:
                    raise ConfigError(f"need N >= k+1 for every pair, got k={k}, N={N}")

    def solver_config(self, k: int, N: int) -> SolverConfig:
        kwargs = {}
        for row in SOLVER_OVERRIDES:
            value = getattr(self, row.field)
            if value is not None:
                kwargs[row.field] = value
        return SolverConfig(k=k, N=N, **kwargs)


@dataclass
class CellResult:
    k: int
    N: int
    err_y: Optional[np.ndarray]  # per backward component; None when diverged
    err_z: Optional[np.ndarray]
    runtime: float
    picard_max: int
    diverged: bool = False


@dataclass
class ConvergenceReport:
    problem: str
    components: int
    cells: list[CellResult] = field(default_factory=list)
    # (k, component) -> (cr_y, cr_z); populated when >= 3 clean cells exist
    rates: dict = field(default_factory=dict)
    rate_omissions: list[str] = field(default_factory=list)

    @property
    def any_diverged(self) -> bool:
        return any(cell.diverged for cell in self.cells)


def fit_rate(errors) -> float:
    """Least-squares slope of log(err) against log(1/N).

    ``errors`` is a sequence of (N, err) pairs with at least three entries
    and strictly positive errors.
    """
    pairs = list(errors)
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 points to fit a rate, got {len(pairs)}")
    Ns = np.array([float(n) for n, _ in pairs])
    errs = np.array([float(e) for _, e in pairs])
    if np.any(errs <= 0):
        raise ValueError("rate fit requires strictly positive errors")
    slope = np.polyfit(np.log(1.0 / Ns), np.log(errs), 1)[0]
    return float(slope)


def _run_cell(problem: FbsdeProblem, k: int, N: int, spec: RunSpec) -> CellResult:
    config = spec.solver_config(k, N)
    started = time.perf_counter()
    try:
        result = solve(problem, config)
    except SolverFailure as exc:
        logger.warning("%s k=%d N=%d diverged: %s", problem.name, k, N, exc)
        result = None
        runtime, picard_max = time.perf_counter() - started, MAX_PICARD
    else:
        runtime, picard_max = result.runtime, result.picard_stats.max_iterations
    if result is None or (result.err_y is not None and not np.all(np.isfinite(result.err_y))):
        return CellResult(k=k, N=N, err_y=None, err_z=None, runtime=runtime,
                          picard_max=picard_max, diverged=True)
    err_z = None if result.err_z is None else np.max(np.abs(result.err_z), axis=1)
    return CellResult(k=k, N=N, err_y=result.err_y, err_z=err_z, runtime=runtime,
                      picard_max=picard_max)


def run(spec: RunSpec) -> ConvergenceReport:
    """Solve every (k, N) cell in turn, fit rates, and emit the table if requested."""
    problem = registry_get(spec.problem)  # fail fast on unknown names
    report = ConvergenceReport(problem=spec.problem, components=problem.p)
    report.cells = [
        _run_cell(problem, k, N, spec) for k in sorted(spec.ks) for N in sorted(spec.Ns)
    ]

    for k in sorted(spec.ks):
        clean = [c for c in report.cells if c.k == k and not c.diverged]
        if len(clean) < 3:
            report.rate_omissions.append(
                f"k={k}: only {len(clean)} clean cells, rate needs 3"
            )
            continue
        for comp in range(problem.p):
            try:
                cr_y = fit_rate([(c.N, c.err_y[comp]) for c in clean])
                cr_z = fit_rate([(c.N, c.err_z[comp]) for c in clean])
            except (ValueError, TypeError):
                report.rate_omissions.append(
                    f"k={k} component {comp + 1}: errors unavailable or nonpositive"
                )
                continue
            report.rates[(k, comp)] = (cr_y, cr_z)

    if spec.out is not None:
        text = render_csv(report) if spec.fmt == "csv" else render_markdown(report)
        _atomic_write(spec.out, text)
    return report


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def render_csv(report: ConvergenceReport) -> str:
    """Fixed-schema CSV: data rows then per-k CR summary rows."""
    lines = [CSV_HEADER]
    for cell in report.cells:
        for comp in range(report.components):
            if cell.diverged:
                ey = ez = "DIVERGED"
            else:
                ey = _fmt(cell.err_y[comp]) if cell.err_y is not None else ""
                ez = _fmt(cell.err_z[comp]) if cell.err_z is not None else ""
            lines.append(
                f"{report.problem},{cell.k},{cell.N},{comp + 1},{ey},{ez},"
                f"{_fmt(cell.runtime)},{cell.picard_max}"
            )
    for (k, comp), (cr_y, cr_z) in sorted(report.rates.items()):
        lines.append(f"{report.problem},{k},CR,{comp + 1},{_fmt(cr_y)},{_fmt(cr_z)},,")
    return "\n".join(lines) + "\n"


def render_markdown(report: ConvergenceReport) -> str:
    lines = [
        f"## {report.problem}",
        "",
        "| k | N | component | err_y | err_z | runtime_s | picard_max |",
        "|---|---|-----------|-------|-------|-----------|------------|",
    ]
    for cell in report.cells:
        for comp in range(report.components):
            if cell.diverged:
                ey = ez = "DIVERGED"
            else:
                ey, ez = f"{cell.err_y[comp]:.3e}", f"{cell.err_z[comp]:.3e}"
            lines.append(
                f"| {cell.k} | {cell.N} | {comp + 1} | {ey} | {ez} "
                f"| {cell.runtime:.3f} | {cell.picard_max} |"
            )
    if report.rates:
        lines += ["", "| k | component | CR(Y) | CR(Z) |", "|---|-----------|-------|-------|"]
        for (k, comp), (cr_y, cr_z) in sorted(report.rates.items()):
            lines.append(f"| {k} | {comp + 1} | {cr_y:.3f} | {cr_z:.3f} |")
    for reason in report.rate_omissions:
        lines.append(f"\nrate omitted: {reason}")
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_config_file(path: str) -> dict:
    """Flat key = value text; '#' starts a comment; keys mirror CLI flags."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"expected a list of integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; config errors are 1
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fbsde-bench",
        description="Convergence benchmark for the multistep FBSDE solver",
    )
    parser.add_argument("--problem", help=f"one of: {', '.join(registry_names())}")
    parser.add_argument("--k", help="comma-separated step counts, e.g. 1,2,3")
    parser.add_argument("--N", help="comma-separated time-step counts, e.g. 16,32,64")
    for row in SOLVER_OVERRIDES:
        parser.add_argument("--" + row.key.replace("_", "-"), dest=row.key,
                            type=row.parse, choices=row.choices, help=row.help)
    parser.add_argument("--format", choices=["csv", "markdown"])
    parser.add_argument("--out", help="output path (written atomically)")
    parser.add_argument("--config", help="flat key = value config file")
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    """Config-file options overlaid by the flags given on the command line."""
    options = parse_config_file(args.config) if args.config else {}
    options.update(
        {key: value for key, value in vars(args).items() if key != "config" and value is not None}
    )
    return options


def spec_from_options(options: dict) -> RunSpec:
    unknown = set(options) - set(RUN_KEYS) - {row.key for row in SOLVER_OVERRIDES}
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    missing = [key for key in ("problem", "k", "N") if key not in options]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")
    try:
        overrides = {row.field: row.parse(options[row.key])
                     for row in SOLVER_OVERRIDES if row.key in options}
        return RunSpec(
            problem=str(options["problem"]),
            ks=_parse_int_list(options["k"]),
            Ns=_parse_int_list(options["N"]),
            out=options.get("out"),
            fmt=options.get("format", "csv"),
            **overrides,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_options(_merge_options(args))
        report = run(spec)
    except (ConfigError, UnknownProblemError, OSError) as exc:
        print(f"fbsde-bench: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for line in render_markdown(report).splitlines():
        print(line)
    return EXIT_DIVERGED if report.any_diverged else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
