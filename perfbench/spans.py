"""Outside-in span tracer for the benchmark.

Spans are recorded around calls into each module's public functions.  The
package itself is not edited: the tracer rebinds the names that
``fbsde_multistep.solver`` and ``fbsde_multistep.bench`` imported, and wraps
the problem callbacks through ``dataclasses.replace`` on the registry record.
Every span is kept in memory as (name, start, end, parent id, cell id) and
written out by :meth:`Tracer.write` when the run ends; totals, self times and
counts are accumulated as spans close, so the per-layer metrics need no second
pass over the spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from array import array
from collections import defaultdict
from time import perf_counter

# Public functions that fbsde_multistep.solver imported or defines, named
# <module>.<function>; problem callbacks are wrapped per problem record instead.
SOLVER_BOUNDARIES = (
    "spacegrid.interpolate_values",
    "spacegrid.grid_points",
    "quadrature.expect_gaussian",
    "quadrature.hermite_rule",
    "multistep.compute_coeffs",
    "multistep.stability_report",
    "solver.init_terminal",
)
CALLBACKS = ("b", "sigma", "f", "phi", "grad_phi", "exact_y", "exact_z")
# Two private solver methods are wrapped too, so that the implicit-Y (Picard)
# arithmetic around the f callbacks and the coupled outer loop's Broyden update
# are covered by named spans; if a refactor renames them they go unmeasured.
PRIVATE_SPANS = {
    "solver.picard": ("_LevelWorkspace", "_implicit_y"),
    "solver.broyden": ("_BroydenState", "step"),
}
BOUNDARIES = (
    SOLVER_BOUNDARIES
    + ("solver.solve", *PRIVATE_SPANS, "bench.run", "bench.fit_rate")
    + tuple(f"problems.{cb}" for cb in CALLBACKS)
)


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("q")
        self.parent = array("q")
        self.cell = array("q")
        self.cells: list[str] = []
        self.cell_id = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.iter_max = 0
        self.in_seed = False
        self.seed_window = None  # (start, end) of the latest init_terminal span

    # -- span recording ----------------------------------------------------

    def open(self, name: str) -> list:
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        sid = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name_id.append(nid)
        self.cell.append(self.cell_id)
        self.end.append(0.0)
        frame = [sid, 0.0]
        self._stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def close(self, name: str, frame: list) -> float:
        stop = perf_counter()
        sid = frame[0]
        self.end[sid] = stop
        duration = stop - self.start[sid]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        return duration

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording one span per call; ``count`` sees the args."""

        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, frame)

        traced.__wrapped__ = fn
        return traced

    # -- counters taken from call arguments --------------------------------

    def _count_interp(self, values, window, spec, points, r):
        n = points.shape[0]
        width = math.prod(values.shape[spec.q:])
        reads = n * (r + 1) ** spec.q * width
        self.counts["interp_queries"] += n
        self.counts["stencil_reads"] += reads
        self.counts["bytes_gathered"] += reads * values.itemsize

    def _count_expect(self, g, d, rule):
        self.counts["nodes"] += rule.L**d
        if not self.in_seed:
            self.counts["sweep_expect_calls"] += 1

    def _count_rows(self, name, x_index):
        key = f"{name}_rows"

        def count(*args, **kwargs):
            self.counts[key] += args[x_index].shape[0]

        return count

    # -- installation --------------------------------------------------------

    def install(self, pkg):
        """Rebind the traced names in ``pkg``; returns a callable undoing it.

        A name the package no longer has is left alone, so its boundary
        records no call and its metrics are reported as unmeasured.
        """
        solver = importlib.import_module(f"{pkg.__name__}.solver")
        bench = importlib.import_module(f"{pkg.__name__}.bench")
        saved = []

        def rebind(owner, attr, make_wrapper):
            original = getattr(owner, attr, None)
            if original is not None:
                saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original))

        counters = {
            "spacegrid.interpolate_values": self._count_interp,
            "quadrature.expect_gaussian": self._count_expect,
        }
        for boundary in SOLVER_BOUNDARIES:
            attr = boundary.split(".")[1]
            if attr == "init_terminal":
                rebind(solver, attr, self._wrap_init_terminal)
            else:
                rebind(solver, attr, lambda fn, b=boundary: self.wrap(b, fn, counters.get(b)))
        for name, (cls_name, method) in PRIVATE_SPANS.items():
            cls = getattr(solver, cls_name, None)
            if cls is not None:
                rebind(cls, method, lambda fn, n=name: self.wrap(n, fn))
        rebind(bench, "solve", self._wrap_solve)
        rebind(bench, "fit_rate", lambda fn: self.wrap("bench.fit_rate", fn))
        rebind(bench, "registry_get", self._wrap_registry)

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def _wrap_registry(self, registry_get):
        def traced_registry_get(name):
            problem = registry_get(name)
            wrapped = {}
            for cb in CALLBACKS:
                fn = getattr(problem, cb)
                if fn is not None:
                    x_index = 0 if cb in ("phi", "grad_phi") else 1
                    wrapped[cb] = self.wrap(
                        f"problems.{cb}", fn, self._count_rows(f"problems.{cb}", x_index)
                    )
            return dataclasses.replace(problem, **wrapped)

        return traced_registry_get

    def _wrap_init_terminal(self, init_terminal):
        def traced_init_terminal(*args, **kwargs):
            frame = self.open("solver.init_terminal")
            self.in_seed = True
            try:
                return init_terminal(*args, **kwargs)
            finally:
                self.close("solver.init_terminal", frame)
                self.in_seed = False
                sid = frame[0]
                self.seed_window = (self.start[sid], self.end[sid])

        return traced_init_terminal

    def _wrap_solve(self, solve):
        def traced_solve(problem, config):
            label = f"{problem.name}/k{config.k}/N{config.N}/{config.terminal_mode}"
            self.cell_id = len(self.cells)
            self.cells.append(label)
            self.seed_window = None
            before = self.counts["sweep_expect_calls"]
            frame = self.open("solver.solve")
            try:
                result = solve(problem, config)
            finally:
                self.close("solver.solve", frame)
                self.cell_id = -1
            sid = frame[0]
            if self.seed_window is not None:
                seed_start, seed_end = self.seed_window
                self.counts["pre_sweep_s"] += seed_start - self.start[sid]
                self.counts["sweep_s"] += self.end[sid] - seed_end
            self.seed_window = None
            levels = config.N - config.k
            self.counts["levels"] += levels
            self.counts["outer_passes"] += (
                self.counts["sweep_expect_calls"] - before
            ) / config.k
            stats = result.picard_stats
            self.iter_max = max(self.iter_max, stats.max_iterations)
            self.counts["iter_weighted"] += stats.mean_iterations * levels
            return result

        return traced_solve

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str, str]]:
        """Per-layer metrics as name -> (value, unit, boundary measured at)."""
        c, calls, total = self.counts, self.calls, self.total
        interp, expect = "spacegrid.interpolate_values", "quadrature.expect_gaussian"
        solve, seed = "solver.solve", "solver.init_terminal"
        interp_s = total[interp]
        solve_s = total[solve]
        out = {
            "spacegrid.interp_s": (interp_s, "s", interp),
            "spacegrid.interp_calls": (calls[interp], "count", interp),
            "spacegrid.interp_queries": (c["interp_queries"], "count", interp),
            "spacegrid.queries_per_call": (
                _ratio(c["interp_queries"], calls[interp]), "count", interp
            ),
            "spacegrid.queries_per_s": (_ratio(c["interp_queries"], interp_s), "1/s", interp),
            "spacegrid.stencil_reads": (c["stencil_reads"], "count_computed", interp),
            "spacegrid.bytes_gathered": (c["bytes_gathered"], "B_computed", interp),
            "spacegrid.grid_points_s": (
                total["spacegrid.grid_points"], "s", "spacegrid.grid_points"
            ),
            "spacegrid.grid_points_calls": (
                calls["spacegrid.grid_points"], "count", "spacegrid.grid_points"
            ),
            "quadrature.expect_self_s": (self.self_time[expect], "s", expect),
            "quadrature.expect_calls": (calls[expect], "count", expect),
            "quadrature.nodes": (c["nodes"], "count", expect),
        }
        for boundary in ("quadrature.hermite_rule", "multistep.compute_coeffs"):
            out[f"{boundary}_s"] = (total[boundary], "s", boundary)
            out[f"{boundary}_calls"] = (calls[boundary], "count", boundary)
        out["multistep.stability_report_s"] = (
            total["multistep.stability_report"], "s", "multistep.stability_report"
        )
        for cb in CALLBACKS:
            name = f"problems.{cb}"
            out[f"{name}_s"] = (total[name], "s", name)
            out[f"{name}_calls"] = (calls[name], "count", name)
            out[f"{name}_rows"] = (c[f"{name}_rows"], "count", name)
        out.update({
            "solver.solve_s": (solve_s, "s", solve),
            "solver.pre_sweep_s": (c["pre_sweep_s"], "s", seed),
            "solver.seed_s": (total[seed], "s", seed),
            "solver.sweep_s": (c["sweep_s"], "s", seed),
            "solver.self_s": (self.self_time[solve], "s", solve),
            "solver.picard_s": (total["solver.picard"], "s", "solver.picard"),
            "solver.picard_calls": (calls["solver.picard"], "count", "solver.picard"),
            "solver.broyden_s": (total["solver.broyden"], "s", "solver.broyden"),
            "solver.span_coverage": (
                _ratio(solve_s - self.self_time[solve], solve_s), "1", solve
            ),
            "solver.levels": (c["levels"], "count", solve),
            # Outer passes are counted through the sweep's expectation calls.
            "solver.outer_passes": (c["outer_passes"], "count", expect),
            "solver.passes_per_level": (_ratio(c["outer_passes"], c["levels"]), "1", expect),
            "solver.iter_max": (self.iter_max, "count", solve),
            "solver.iter_mean": (_ratio(c["iter_weighted"], c["levels"]), "count", solve),
            "bench.self_s": (self.self_time["bench.run"], "s", "bench.run"),
            "bench.fit_rate_calls": (calls["bench.fit_rate"], "count", "bench.fit_rate"),
        })
        return out

    def write(self, path, header: str):
        """Write every span as CSV (times relative to the first span)."""
        names = {nid: name for name, nid in self.name_ids.items()}
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# {header}\n")
            handle.write("span,name,start_s,end_s,parent,cell\n")
            for sid in range(len(self.start)):
                cell = self.cell[sid]
                handle.write(
                    f"{sid},{names[self.name_id[sid]]},{self.start[sid] - t0:.9f},"
                    f"{self.end[sid] - t0:.9f},{self.parent[sid]},"
                    f"{self.cells[cell] if cell >= 0 else ''}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
