"""Backward multistep sweep for decoupled and fully coupled FBSDEs.

Each backward level solves, at every grid point x, the pair

    Z^n(x)          = sum_j alpha_{k,j} E[ I_h Y^{n+j}(X^{n,j}) dW_{n,j}^T ]
    alpha_{k,0} Y^n = -sum_j alpha_{k,j} E[ I_h Y^{n+j}(X^{n,j}) ] - f(t_n, x, Y^n, Z^n)

with Euler predictors X^{n,j} = x + b j dt + sigma dW_{n,j}, expectations by
Gauss-Hermite quadrature, and history levels read through local Lagrange
interpolation.  Y^n is implicit and resolved by fixed-point (Picard)
iteration.  The whole update sits in an outer Picard loop that re-evaluates
b and sigma at the current (Y, Z) iterate; a decoupled problem's b and sigma
do not read (Y, Z), so its outer map is constant and one pass is the fixed
point.

All per-point work is vectorized over the level's grid points and the
quadrature nodes, so each expectation is one batch of numpy operations;
results are bit-reproducible run to run and do not depend on any
worker-count setting.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .failures import SolverFailure
from .multistep import MAX_STEPS, compute_coeffs, stability_report
from .problems import FbsdeProblem
from .quadrature import MAX_POINTS, GaussHermiteRule, expect_gaussian, hermite_rule
from .spacegrid import (
    ActiveWindow,
    GridSpec,
    OutOfDomainError,
    ValueField,
    grid_points,
    interpolate_values,
    interpolation_plan,
    plan_nbytes,
)

logger = logging.getLogger(__name__)

# Diffusion envelope: windows cover B_b*T + ENVELOPE_FACTOR*B_sigma*sqrt(2T)*a_max
# per side, a_max being the extreme node of the configured (not the raised) rule,
# with coefficient bounds inflated by BOUND_INFLATION over probed values.
ENVELOPE_FACTOR = 1.2
# A coupled level's outer loop stops once its residual falls below this
# fraction of the scheme's local error dt^(k+1) (never below eps0).
OUTER_TOL_FRACTION = 1e-2
BOUND_INFLATION = 1.5
EXTRA_MARGIN_CELLS = 5
BOOTSTRAP_MAX_SUBSTEPS = 4096
# Degrees weighed for a smooth problem; the least one whose predicted fan
# work is within WORK_MARGIN times the cheapest candidate's is chosen.
DEGREE_CANDIDATES = (6, 8, 10, 12, 14)
WORK_MARGIN = 1.25
# Stored interpolation plans (spacegrid.plan_nbytes) a level workspace may
# keep, all fans together, in 16 B entries: one 1-d offset and weight each.
MAX_PLAN_ENTRIES = 1 << 18
# Integrand values (nodes x fans x rows x [y | y dW] columns) one quadrature
# call of a level pass may hold; larger passes go in row blocks, so memory
# stays flat in the window's size and in L^d.
EXPECT_BLOCK_VALUES = 1 << 16
# Iteration cap of the implicit-Y Picard loop and of the terminal Z fixed point.
MAX_PICARD = 100
# Outer-pass budget of a coupled level.  A level exits early once its
# residual falls below max(eps0, OUTER_TOL_FRACTION * dt^(k+1)), a fraction of
# the scheme's local error, or once its contraction rate predicts the rest of
# the error below that; when the budget runs out while the iteration is still
# contracting, the current image is accepted (and warned about), and an actual
# divergence still raises.
MAX_OUTER = 6

# Warm-start weights of the level step, by the number of history levels
# given: the degree 0, 1, 2 and 3 extrapolations in time through the newest
# ones.  Degree m errs by O(dt^(m+1)), so the cubic starts a coupled level's
# outer loop within O(dt^4) of its fixed point.
PREDICTOR_WEIGHTS = {
    1: (1.0,),
    2: (2.0, -1.0),
    3: (3.0, -3.0, 1.0),
    4: (4.0, -6.0, 4.0, -1.0),
}

WORKERS_ENV_VAR = "FBSDE_NUM_WORKERS"


class ConfigError(ValueError):
    """Invalid solver configuration."""


class PicardDivergenceError(SolverFailure, RuntimeError):
    """A Picard iteration failed to reach tolerance within its cap."""

    def __init__(self, message, level=None, point=None):
        super().__init__(message)
        self.level = level
        self.point = point


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration parameters for one solve.

    ``r`` and ``h`` default to the balancing policy (see :func:`discretize`);
    ``terminal_mode`` selects how the k history levels below the terminal
    one (N-1 .. N-k) are produced.
    """

    k: int
    N: int
    L: int = 8
    r: Optional[int] = None
    h: Optional[float] = None
    eps0: float = 1e-11
    terminal_mode: str = "exact"

    def __post_init__(self):
        if not 1 <= self.k <= MAX_STEPS:
            raise ConfigError(f"step count k must be in [1, {MAX_STEPS}], got {self.k}")
        if self.N < self.k + 1:
            raise ConfigError(f"need N >= k+1, got N={self.N}, k={self.k}")
        if not 1 <= self.L <= MAX_POINTS:
            raise ConfigError(
                f"Gauss-Hermite points L must be in [1, {MAX_POINTS}], got {self.L}"
            )
        if self.r is not None and self.r < 1:
            raise ConfigError(f"interpolation degree must be >= 1, got {self.r}")
        if self.h is not None and self.h <= 0:
            raise ConfigError(f"grid spacing must be positive, got {self.h}")
        if self.eps0 <= 0:
            raise ConfigError(f"Picard tolerance must be positive, got {self.eps0}")
        if self.terminal_mode not in ("exact", "bootstrap"):
            raise ConfigError(
                f"terminal_mode must be 'exact' or 'bootstrap', got {self.terminal_mode!r}"
            )


@dataclass(frozen=True)
class PicardStats:
    """Iteration counts across levels (outer loop for coupled problems)."""

    max_iterations: int
    mean_iterations: float


@dataclass(frozen=True)
class Discretization:
    """What one solve runs on, resolved once by :func:`discretize`.

    ``h`` and ``r`` are the grid spacing and the Lagrange degree, ``rule`` is
    the Gauss-Hermite rule after any node raise (``rule.L`` is the count
    actually used), ``window`` is the static window every level shares, ``X``
    its grid points, ``lo``/``hi`` its hull and ``p`` the y width of a row.
    ``fan_work`` is the predicted stencil entries of one (level, j)
    expectation over the window, n * L^d * (r+1)^q, and ``degree_work`` the
    (r, fan_work) pairs of every degree the policy weighed, the chosen one
    among them.  ``b_bound`` and ``s_bound`` are the inflated per-axis
    bounds of |b| and of sigma's L1 row norm that size the window and the
    live boxes, ``cone`` the per-axis growth of the live box per sweep
    level in cells, and ``first_live`` the first sweep level at which each
    window point is live (see :func:`_first_live_levels`).
    """

    h: float
    r: int
    spec: GridSpec
    rule: GaussHermiteRule
    window: ActiveWindow
    X: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    p: int
    fan_work: int
    degree_work: tuple[tuple[int, int], ...]
    b_bound: np.ndarray
    s_bound: np.ndarray
    cone: np.ndarray
    first_live: np.ndarray

    def field(self, level, rows) -> ValueField:
        """Freeze per-point rows [y | z] (the step's image, as it is) as one level's field."""
        return ValueField(self.window, rows.reshape(self.window.extents + (-1,)), self.p, level)


@dataclass(frozen=True)
class SolveResult:
    y0: np.ndarray
    z0: np.ndarray
    err_y: Optional[np.ndarray]
    err_z: Optional[np.ndarray]
    picard_stats: PicardStats
    runtime: float
    discretization: Discretization


def _default_degree(k: int) -> int:
    """The degree bracket of problems the work-based choice does not cover."""
    if k <= 3:
        return 6
    if k <= 6:
        return 10
    return 15


def _num_workers() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be >= 1, got {workers}")
    return workers


def _require_finite(arrays, X, what, level=None):
    """Raise PicardDivergenceError at the first row of X (the arrays' leading axis) not finite."""
    if all(np.isfinite(a).all() for a in arrays):
        return
    finite = [np.isfinite(a).reshape(X.shape[0], -1).all(axis=1) for a in arrays]
    point = X[np.argmin(np.logical_and.reduce(finite))]
    at = "" if level is None else f" at level {level}"
    raise PicardDivergenceError(f"non-finite {what}{at}, point {point}", level=level, point=point)


def _pack(problem, Y, Z) -> np.ndarray:
    """Per-point Y and Z given apart as rows [y | z], z row-major: (n, p + p*d)."""
    n, p = len(Y), problem.p  # explicit widths: an empty band still has p + p*d columns
    return np.concatenate([np.reshape(Y, (n, p)), np.reshape(Z, (n, p * problem.d))], 1)


def _exact_rows(problem, t, X, level, where=""):
    """The exact solution's rows [y | z] at time t, raising at the first non-finite point."""
    rows = _pack(problem, problem.exact_y(t, X), problem.exact_z(t, X))
    _require_finite([rows], X, "exact_y or exact_z" + where, level)
    return rows


def _terminal_yz_probe(problem: FbsdeProblem, X: np.ndarray, eps0: float):
    """Terminal-level (Y, Z) used both for seeding and coefficient probing."""
    Y = np.asarray(problem.phi(X), dtype=float)
    _require_finite([Y], X, "phi at t = T")
    if problem.grad_phi is not None:
        grad = np.asarray(problem.grad_phi(X), dtype=float)
        _require_finite([grad], X, "grad_phi at t = T")
        # sigma may read z: resolve Z = grad_phi . sigma(T, x, phi, Z) by fixed point
        Z = np.zeros((X.shape[0], problem.p, problem.d))
        for _ in range(MAX_PICARD):
            sig = np.asarray(problem.sigma(problem.T, X, Y, Z), dtype=float)
            _require_finite([sig], X, "sigma at t = T")
            Z_new = np.einsum("npq,nqd->npd", grad, sig)
            if not problem.coupled:
                return Y, Z_new  # sigma ignores (y, z): the first image is the fixed point
            delta = float(np.max(np.abs(Z_new - Z)))
            Z = Z_new
            if delta <= eps0:
                return Y, Z
        raise PicardDivergenceError(
            "terminal Z fixed point did not converge; sigma appears to be "
            "expansive in z at t = T"
        )
    if problem.exact_z is not None:
        return Y, np.asarray(problem.exact_z(problem.T, X), dtype=float)
    raise ConfigError(
        f"problem {problem.name!r} has neither grad_phi nor exact_z; "
        "cannot form the terminal Z level"
    )


# Quadrature fan-to-grid sampling limits: the level operator's spectral radius
# stays below 1 while the fan width sigma*sqrt(2k dt)*a_max spans at most
# ~0.85 L cells (measured on frozen-coefficient operators over k <= 4); runs
# past the trigger get enough extra nodes to land well inside that bound.
STABLE_CELLS_PER_NODE = 0.85
TARGET_CELLS_PER_NODE = 0.55


class _Degree(NamedTuple):
    """One degree as :func:`discretize` weighs it."""

    work: int  # predicted stencil entries of one (level, j) fan, n * L^d * (r+1)^q
    r: int
    h: float
    L: int  # node count after the fan rule's raise
    fan: float  # fan width in cells at that count
    cells: np.ndarray  # window half-width in cells, per axis


def _fan_reach(b_bound, s_bound, k, dt, max_node):
    """Per-axis reach of the k-step quadrature fan, B_b*k*dt + B_s*sqrt(2k dt)*max_node.

    ``k`` may be an array of step counts shaped to broadcast against the bounds.
    """
    return b_bound * (k * dt) + s_bound * (np.sqrt(2.0 * k * dt) * max_node)


def _cone_cells(b_bound, s_bound, dt, max_node, h, r):
    """Per-axis growth of the live box per sweep level, (rho + s) / h cells (see :func:`discretize`)."""
    return _fan_reach(b_bound, s_bound, 1, dt, max_node) / h + (r + 1) / 2


def _window_offsets(window: ActiveWindow) -> np.ndarray:
    """Each window point's integer offset from the grid origin x0, (n, q), C-ordered like grid_points."""
    return np.indices(window.extents).reshape(len(window.extents), -1).T + window.lo


def _first_live_levels(window: ActiveWindow, r: int, cone: np.ndarray) -> np.ndarray:
    """The first sweep level at which each window point is live.

    A point m cells from x0 per axis is live at level n when -R(n) <= m <
    R(n) on every axis, R(n) = s + n * cone cells, s = (r+1)/2.  The box is
    half-open as a stencil is (a read at u spans [u - s, u + s)), so level 0
    is live exactly on x0's stencil, odd r included.
    """
    s = (r + 1) / 2
    m = _window_offsets(window)
    levels = np.where(m >= 0, np.floor((m - s) / cone) + 1, np.ceil((-m - s) / cone))
    return np.maximum(levels.max(axis=1), 0).astype(np.int64)


def discretize(problem: FbsdeProblem, config: SolverConfig) -> Discretization:
    """Resolve the grid spacing, degree, node rule and static window of a solve.

    * Spacing: the balancing policy equates the space and time error
      contributions, h^(r+1) = dt^(k+1), in units of the problem's
      characteristic length (grid_scale), which matters for problems like
      log-price models whose features live on a sub-unit scale.
    * Degree: a smooth-terminal problem with k <= 6 weighs every degree of
      DEGREE_CANDIDATES.  Each gets its balancing h, its node count and its
      window, and among the degrees whose fan the node count resolves, the
      least one whose predicted fan work (below) is within WORK_MARGIN of
      the cheapest wins: a larger r buys a coarser h, whose fan spans fewer
      cells and needs fewer nodes, for (r+1)^q stencil entries per query
      (Berrut & Trefethen, SIAM Review 2004, on trading h for r).  Where no
      degree's fan fits under the node cap, the narrowest fan wins.  A
      kinked terminal function, which a higher degree resolves worse, and a
      caller-given h keep the brackets of :func:`_default_degree`; a
      caller-given r is used as it is.
    * Coefficient bounds: per-axis sup bounds of |b| and of the L1 row norm
      of sigma, from one probe pass over a box sized from values at x0 (no
      re-probing: for multiplicative noise a fixed-point box estimate would
      not converge).
    * Node count: raised from ``config.L`` until the quadrature fan keeps the
      level operator stable; a warning is logged when the 64-node cap still
      leaves the fan wider than the measured stable bound.
    * Window: one static window covering the diffusion envelope of the whole
      solve, B_b*T + ENVELOPE_FACTOR*B_s*sqrt(2T)*a_max per side, with the
      bounds inflated by BOUND_INFLATION.  a_max is the extreme node of the
      configured ``config.L`` rule, the same one that sizes the probe box:
      a raised rule resolves the fan on the grid but holds no more of the
      diffusion tail, so it does not widen the window.  The half-width is
      floored at the raised rule's k-step fan reach B_b*k*dt +
      B_s*sqrt(2k dt)*rule.max_abs_node, so the copy band of points whose
      fan leaves the hull never reaches x0's stencil; r +
      EXTRA_MARGIN_CELLS cells are added on each side.  Every level shares
      the window: a moving (per-level) window would sweep its edge band
      inward and freeze edge artifacts progressively closer to the
      evaluation point, whereas a static edge stays a fixed many envelope
      standard deviations away.
    * Predicted work: ``fan_work`` = n * L^d * (r+1)^q, the stencil entries
      of one (level, j) expectation over all n window points; ``degree_work``
      lists it for every degree weighed.
    * Live levels: the scheme's exact domain of dependence.  The answer
      reads x0's stencil at level 0, and level n reads the k levels above
      it through fans of reach at most j * rho plus an (r+1)-point stencil,
      so level n needs only the points within R(n) = s + n * (rho + s) of
      x0 on every axis (Strikwerda, *Finite Difference Schemes and PDEs*,
      ch. 1).  rho = B_b*dt + B_s*sqrt(2 dt)*rule.max_abs_node is the
      one-step reach under the inflated bounds and s = (r+1)*h/2;
      ``first_live`` holds each point's first such level.

    The balancing rule assumes a smooth solution.  A kink in phi
    (``problem.smooth_terminal`` False) is smoothed by the forward diffusion
    only over s*sqrt(dt) at the seeded level one step below T, s being the
    probed bound of sigma's row norm per axis.  Where h exceeds that length
    the space error no longer follows the time order, and a warning is
    logged; the discretization is unchanged.
    """
    T, k = problem.T, config.k
    dt = T / config.N

    def envelope(b_bound, s_bound, a_max):
        return b_bound * T + ENVELOPE_FACTOR * s_bound * math.sqrt(2.0 * T) * a_max

    def row_bounds(X, Y, Z):
        bb = np.zeros(problem.q)
        ss = np.zeros(problem.q)
        for t in (0.0, 0.5 * T, T):
            b = np.asarray(problem.b(t, X, Y, Z), dtype=float)
            sig = np.asarray(problem.sigma(t, X, Y, Z), dtype=float)
            _require_finite([b, sig], X, f"b or sigma at t = {t:g}")
            bb = np.maximum(bb, np.max(np.abs(b), axis=0))
            ss = np.maximum(ss, np.max(np.abs(sig).sum(axis=2), axis=0))
        return bb, ss

    a_max = hermite_rule(config.L).max_abs_node  # the configured rule's tail
    x0 = problem.x0[None, :]
    y0, z0 = _terminal_yz_probe(problem, x0, config.eps0)
    half = envelope(*row_bounds(x0, y0, z0), a_max) + 1e-8
    grids = [
        problem.x0[dim] + np.linspace(-half[dim], half[dim], 17) for dim in range(problem.q)
    ]
    mesh = np.meshgrid(*grids, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=-1)
    Y, Z = _terminal_yz_probe(problem, X, config.eps0)
    b_raw, s_raw = row_bounds(X, Y, Z)
    b_bound, s_bound = BOUND_INFLATION * b_raw, BOUND_INFLATION * s_raw
    tail = envelope(b_bound, s_bound, a_max)

    def resolve(r):
        """Spacing, node count, fan width, window and fan work at degree r."""
        h = config.h
        if h is None:
            h = problem.grid_scale * dt ** ((k + 1) / (r + 1))

        def fan_cells(L):
            node = hermite_rule(L).max_abs_node
            return float(np.max(s_raw * math.sqrt(2.0 * k * dt) * node / h))

        L = config.L
        fan = fan_cells(L)
        for _ in range(4):
            if fan <= STABLE_CELLS_PER_NODE * L:
                break
            L = min(MAX_POINTS, max(L + 1, math.ceil(fan / TARGET_CELLS_PER_NODE)))
            fan = fan_cells(L)
        reach = _fan_reach(b_bound, s_bound, k, dt, hermite_rule(L).max_abs_node)
        cells = np.ceil(np.maximum(tail, reach) / h).astype(np.int64) + r + EXTRA_MARGIN_CELLS
        work = int(np.prod(2 * cells + 1)) * L**problem.d * (r + 1) ** problem.q
        return _Degree(work, r, h, L, fan, cells)

    if config.r is not None:
        degrees = (config.r,)
    elif config.h is None and problem.smooth_terminal and k <= 6:
        degrees = DEGREE_CANDIDATES
    else:
        degrees = (_default_degree(k),)
    scan = [resolve(r) for r in degrees]
    stable = [row for row in scan if row.fan <= STABLE_CELLS_PER_NODE * row.L]
    if stable:
        cheapest = min(row.work for row in stable)
        chosen = next(row for row in stable if row.work <= WORK_MARGIN * cheapest)
    else:  # every fan outgrows the node cap: the narrowest one amplifies least
        chosen = min(scan, key=lambda row: row.fan)
    work, r, h, L, fan, cells = chosen

    if fan > STABLE_CELLS_PER_NODE * L:
        logger.warning(
            "%d Gauss-Hermite nodes leave the quadrature fan %.1f cells wide, "
            "above the measured stable bound %.1f; the sweep may amplify errors",
            L, fan, STABLE_CELLS_PER_NODE * L,
        )
    length = s_raw * math.sqrt(dt)
    if not problem.smooth_terminal and np.any(h > length):
        logger.warning(
            "problem %r has a kinked terminal function smoothed only over "
            "sigma*sqrt(dt) = %s one step below T, below the grid spacing h=%s; "
            "the space error may not follow the time order",
            problem.name, np.array2string(length, precision=4), h,
        )
    spec = GridSpec(q=problem.q, h=h, origin=problem.x0)
    window = ActiveWindow(lo=-cells, hi=cells)
    rule = hermite_rule(L)
    cone = _cone_cells(b_bound, s_bound, dt, rule.max_abs_node, h, r)
    return Discretization(
        h=h,
        r=r,
        spec=spec,
        rule=rule,
        window=window,
        X=grid_points(spec, window),
        lo=spec.origin + spec.h * window.lo,
        hi=spec.origin + spec.h * window.hi,
        p=problem.p,
        fan_work=work,
        degree_work=tuple((row.r, row.work) for row in scan),
        b_bound=b_bound,
        s_bound=s_bound,
        cone=cone,
        first_live=_first_live_levels(window, r, cone),
    )


class _BroydenState:
    """Vectorized per-point Broyden iteration for fixed points v = G(v).

    Each grid point carries its own m x m approximate inverse Jacobian of
    F(v) = G(v) - v, seeded with -I so the first step reproduces plain
    iteration; good-Broyden rank-1 updates then capture the y/z
    cross-coupling of the outer map, whose plain contraction can be as slow
    as ~0.9 where the forward coefficients react strongly to (y, z).  A row
    whose residual norm grew since the previous pass restarts from -I: its
    Jacobian is stale (say, next to the far-field band), and plain
    iteration is the safe step there.
    """

    def __init__(self, n: int, m: int):
        self.inv_jac = np.broadcast_to(-np.eye(m), (n, m, m)).copy()
        self.v = None
        self.residual = None

    def new_level(self):
        """Forget iterates but keep the inverse Jacobian: the outer map's
        Jacobian drifts only O(dt) per level, so the next level starts with
        Newton-quality steps instead of a plain first pass."""
        self.v = None
        self.residual = None

    def step(self, v: np.ndarray, g: np.ndarray) -> np.ndarray:
        residual = g - v
        res_norm = np.linalg.norm(residual, axis=1)
        if self.v is not None:
            s = v - self.v
            y = residual - self.residual
            binv_y = np.einsum("nij,nj->ni", self.inv_jac, y)
            denom = np.einsum("ni,ni->n", s, binv_y)
            scale = np.einsum("ni,ni->n", s, s) + np.einsum("ni,ni->n", y, y)
            ok = np.abs(denom) > 1e-14 * (1.0 + scale)
            num = s - binv_y
            st_binv = np.einsum("ni,nij->nj", s, self.inv_jac)
            update = num[:, :, None] * st_binv[:, None, :]
            update /= np.where(ok, denom, 1.0)[:, None, None]
            self.inv_jac = self.inv_jac + np.where(ok[:, None, None], update, 0.0)
            grew = res_norm > np.linalg.norm(self.residual, axis=1)
            self.inv_jac[grew] = -np.eye(v.shape[1])
        self.v = v
        self.residual = residual
        step = np.einsum("nij,nj->ni", self.inv_jac, residual)
        # Trust cap: a stale Jacobian must not fling iterates; plain
        # iteration corresponds to |step| = |residual|.
        step_norm = np.linalg.norm(step, axis=1)
        factor = np.minimum(1.0, 4.0 * res_norm / np.maximum(step_norm, 1e-300))
        return v - step * factor[:, None]


def _contraction_rate(deltas):
    """(rate, passes it spans) of a level's residuals: the geometric mean over the last three.

    A level cycling with period 3 reads 1 wherever the budget cuts it, where
    the last ratio alone can read well below or above 1.
    """
    span = min(3, len(deltas) - 1)
    if span == 0:
        return None, 0
    return (deltas[-1] / deltas[-1 - span]) ** (1.0 / span), span


class _LevelWorkspace:
    """The discretization, the multistep weights and the counters of one sweep.

    A level's outer iterate, its image, band values and residual are
    (n, p + p*d) row arrays [y | z], the layout of the Broyden accelerator
    and of every stored field, whose rows the step reads as views.  It also
    remembers the latest pass's forward coefficients (dt, b_n, sigma_n) with
    their hull mask and, once a pass repeats them on the same rows, the
    interpolation plan of each j's quadrature fan over each row block of
    those rows (see :meth:`step`).

    With ``sweep`` (the main sweep, whose levels n = N-k-1 .. 0 read seed
    levels above N-k-1 in full) level n runs only on its live rows,
    ``disc.first_live <= n``; ``escaped`` counts the live rows that left the
    scheme because a fan passed the live box of a level it reads.  Under
    exact seeding the sweep's far-field band tracks the exact solution.
    """

    def __init__(self, problem, disc, coeffs, config, sweep=False):
        self.problem = problem
        self.disc = disc
        self.coeffs = coeffs
        self.k = coeffs.k
        self.eps0 = config.eps0
        self.max_outer = MAX_OUTER if problem.coupled else 1
        self.band_exact = sweep and config.terminal_mode == "exact"
        self.picard_counts: list[int] = []
        # (residual, tolerance, contraction rate or None, passes it spans) of
        # each level whose outer budget ran out
        self.unconverged: list[tuple[float, float, Optional[float], int]] = []
        self.escaped = 0
        self._top = config.N - self.k - 1  # the top sweep level; seeds above it are read in full
        # Outside the sweep every row is live and no live box binds.
        self._full = int(disc.first_live.max()) if sweep else 0  # every row is live from here on
        # From level ceil(W / cone) - 1 on, level n+1's box holds the window,
        # W cells per side: a fan the hull keeps stays in it.
        self._hull_level = int(np.max(np.ceil(disc.window.hi / disc.cone))) - 1 if sweep else 0
        self._broyden = None
        self._coeff_key = None  # (dt, b_n, sigma_n) of the latest pass
        self._hull = None  # its hull mask
        self._rows = None  # the stored plans' rows, or the latest streaming pass's
        self._plans = None  # (j, first row of the block) -> plan of that fan block

    def _warm_start(self, history, v_next):
        """The first iterate of a step: PREDICTOR_WEIGHTS through the newest levels.

        ``v_next`` holds the rows of ``history[1]``, a read-only view.  A
        one-level history starts from ``v_next`` itself; longer ones build
        the extrapolation in one new array.
        """
        weights = PREDICTOR_WEIGHTS[min(len(history), len(PREDICTOR_WEIGHTS))]
        if len(weights) == 1:
            return v_next
        v = weights[0] * v_next
        for j, w in enumerate(weights[1:], 2):
            v += w * history[j].values.reshape(v.shape)
        return v

    def _live_rows(self, level):
        """The rows live at ``level``, or None when every row is."""
        if level >= self._full:
            return None
        return self.disc.first_live <= level

    def _band_values(self, level, t_n, unsafe, v_next):
        """Rows [y | z] the rows off the scheme are pinned to, shape (unsafe count, p + p*d).

        Dead rows keep the previous level's rows ``v_next``: no live row
        reads them.  On the live far-field band, exact seeding tracks the
        exact solution, an artificial boundary condition consistent with the
        interior to scheme accuracy; otherwise the band transports
        ``v_next`` too, which is non-amplifying but goes stale for long
        horizons.
        """
        if not self.band_exact:
            return v_next[unsafe]
        live = self._live_rows(level)
        band = unsafe if live is None else unsafe & live
        exact = _exact_rows(self.problem, t_n, self.disc.X[band], level, " in the far-field band")
        if live is None:
            return exact
        rows = v_next[unsafe]
        rows[band[unsafe]] = exact
        return rows

    def _safe_mask(self, level, dt, b_n, sig_n):
        """Points whose quadrature fan stays inside the static hull for all j <= k.

        Points failing this (an edge band several envelope standard
        deviations from the evaluation point) take band values instead of
        running the scheme: any truncated or clamped read there breaks the
        signed balance of the multistep weights and can amplify level over
        level.  The stencil block around the grid center must always be
        scheme-computed; a fan from it that leaves the hull (|b| or sigma's
        row norm far above the probed bounds that sized the window) raises
        OutOfDomainError at its level and point.
        """
        disc = self.disc
        X = disc.X
        reach = _fan_reach(
            np.abs(b_n), np.abs(sig_n).sum(axis=2), self.k, dt, disc.rule.max_abs_node
        )
        safe = np.all((X - reach >= disc.lo) & (X + reach <= disc.hi), axis=1)
        sl = tuple(slice(int(-l - disc.r - 1), int(-l + disc.r + 2)) for l in disc.window.lo)
        center = safe.reshape(disc.window.extents)[sl]
        if not np.all(center):
            index = np.argwhere(~center)[0] + [s.start for s in sl]
            point = X[np.ravel_multi_index(tuple(index), disc.window.extents)]
            raise OutOfDomainError(
                f"a quadrature fan from the answer's stencil leaves the window at "
                f"level {level}, point {point}: |b| or sigma's row norm exceeds the "
                f"probed bounds b_bound={np.array2string(disc.b_bound, precision=4)}, "
                f"s_bound={np.array2string(disc.s_bound, precision=4)} that sized it"
            )
        return safe

    def _box_mask(self, level, dt, b_n, sig_n):
        """Rows whose fans, widened by the stencil half-width, stay in the live box of every sweep level they read.

        Fan j of a row m cells from x0 stays in level n+j's box when |m| +
        reach_j / h <= (n+j) * disc.cone on every axis (see
        :func:`_first_live_levels`); seed levels above the top sweep level
        are read in full.  It returns None where every hull-safe live row
        passes: on a level whose boxes above hold the whole window, and
        where |b| and sigma's row norm stay within the record's bounds.
        """
        if level >= self._hull_level:
            return None
        disc = self.disc
        b_abs, s_abs = np.abs(b_n), np.abs(sig_n).sum(axis=2)
        if np.all(b_abs <= disc.b_bound) and np.all(s_abs <= disc.s_bound):
            return None
        j = np.arange(1, min(self.k, self._top - level) + 1)[:, None, None]
        reach = _fan_reach(b_abs, s_abs, j, dt, disc.rule.max_abs_node)
        offsets = np.abs(_window_offsets(disc.window))
        return np.all(offsets + reach / disc.spec.h <= (level + j) * disc.cone, axis=(0, 2))

    def _pass_plans(self, repeated, safe):
        """The plan store for a pass and the rows it reads, or (None, safe) when the pass streams.

        A repeated pass whose rows lie within the store's (a low level's live
        rows, or a coupled level's narrowed ones) reads the store over the
        store's rows and keeps its own: applying a plan costs about a
        quarter of streaming.  Any other pass streams and drops the store; a
        repeated pass on exactly the previous pass's rows starts a new one
        when the plans of all k fans fit in MAX_PLAN_ENTRIES.
        """
        rows = self._rows
        if repeated and self._plans is not None and (safe is rows or not np.any(safe & ~rows)):
            return self._plans, rows
        self._rows, self._plans = safe, None
        if not repeated or not (safe is rows or np.array_equal(safe, rows)):
            return None, safe
        disc = self.disc
        fans = int(np.count_nonzero(safe)) * disc.rule.L**self.problem.d
        if self.k * plan_nbytes(fans, self.problem.q, disc.r) > 16 * MAX_PLAN_ENTRIES:
            return None, safe
        self._plans = {}
        return self._plans, safe

    def _expectations(self, dt, X, b_n, sig_n, history, plans):
        """E[Y^{n+j}] and E[Y^{n+j} dW^T] for j = 1..k via Gauss-Hermite.

        ``X`` holds the rows to evaluate, safe under ``b_n`` and ``sig_n``,
        their forward coefficients.  The rows go in blocks of at most
        EXPECT_BLOCK_VALUES integrand values, one quadrature call per block
        for all k fans (one call per pass unless the window is large or
        L^d is).  A block's integrand reads fan j from ``history[j]`` and
        returns node-major values (M, k, rows, p, 1 + d), Y (x) (1, dW), dW
        carrying fan j's sqrt(2 j dt) node scaling.  With ``plans``, the
        pass's store from :meth:`_pass_plans`, None each fan is read in one
        interpolation call; otherwise its stored plan for the block (built
        on first use) is applied to the field, bitwise the same values.
        Fan j's Euler predictors are built just before it is read, and only
        when it is read without a plan, so one fan's are alive at a time.
        """
        problem, spec, r = self.problem, self.disc.spec, self.disc.r
        n, q, p, d, k = X.shape[0], problem.q, problem.p, problem.d, self.k
        M = self.disc.rule.L**d
        EY = np.empty((k, n, p))
        EYW = np.empty((k, n, p, d))
        rows = max(1, EXPECT_BLOCK_VALUES // (M * k * p * (1 + d)))
        for first in range(0, n, rows):
            block = slice(first, first + rows)
            Xb, b_b, sig_b = X[block], b_n[block], sig_n[block]
            nb = Xb.shape[0]

            def integrand(v):  # v = sqrt(2) * nodes, shape (d, M)
                values = np.empty((M, k, nb, p, 1 + d))
                for j in range(1, k + 1):
                    fld, key = history[j], (j, first)
                    dW = math.sqrt(j * dt) * v
                    values[:, j - 1, :, :, 1:] = dW.T[:, None, None, :]
                    if plans is None or key not in plans:  # fan j's Euler predictors
                        fan = Xb + b_b * (j * dt) + np.einsum("nqd,dm->mnq", sig_b, dW)
                        fan = fan.reshape(M * nb, q)  # node-major
                    if plans is None:
                        Yj = interpolate_values(fld.y_values, fld.window, spec, fan, r)
                    else:
                        if key not in plans:
                            plans[key] = interpolation_plan(fld.window, spec, fan, r)
                        Yj = plans[key].apply(fld.y_values)
                    values[:, j - 1, :, :, :1] = Yj.reshape(M, nb, p, 1)
                values[..., 1:] *= values[..., :1]
                return values

            moments = expect_gaussian(integrand, d, self.disc.rule)
            EY[:, block] = moments[..., 0]
            EYW[:, block] = moments[..., 1:]
        return EY, EYW

    def _implicit_y(self, t_n, X, rhs, Z, y_start, alpha0, level):
        """Resolve the implicit Y relation by plain fixed-point iteration."""
        y = y_start
        diff = None
        for it in range(MAX_PICARD):
            y_new = (rhs - np.asarray(self.problem.f(t_n, X, y, Z))) / alpha0
            _require_finite([y_new], X, "implicit Y iterate", level)
            diff = np.abs(y_new - y)
            y = y_new
            if np.max(diff) <= self.eps0:
                return y, it + 1
        worst = np.unravel_index(np.argmax(diff), y.shape)
        raise PicardDivergenceError(
            f"implicit Y iteration stuck at level {level}, point {X[worst[0]]}",
            level=level,
            point=X[worst[0]],
        )

    def step(self, level, t_n, dt, history):
        """One backward level: outer passes rebuilding the forward predictors.

        Each pass evaluates the Scheme-5 update (Euler predictors at the
        current (Y, Z) iterate, explicit Z, implicit Y).  A decoupled problem
        gets one pass, since its predictors do not depend on the iterate.  A
        coupled one feeds each image to a per-point Broyden accelerator and
        stops once the residual max(|dY|, |dZ|) falls below
        max(eps0, OUTER_TOL_FRACTION * dt^(k+1)), a small fraction of the
        scheme's local error, as implicit ODE codes stop their Newton
        iteration (Hairer & Wanner, Solving ODEs II, IV.8); a residual
        above both the first pass's and that tolerance is a divergence.
        From the second pass on, the contraction rate theta = delta_m /
        delta_(m-1), the latest residual max over the one before, completes
        that rule: a level whose theta < 1 and theta / (1 - theta) * delta
        falls below the tolerance also stops, as converged.  It returns one
        more Broyden step from its iterate (band rows pinned), the iterate
        whose error the rule predicts, rather than the image g, whose
        residual can still be far above the tolerance there.
        ``history[j]`` is the field of level ``level + j`` for j = 1..k and
        up to j = 4; the warm start is the time extrapolation of degree
        min(3, len(history) - 1) through the newest levels
        (PREDICTOR_WEIGHTS), so the implicit-Y Picard iteration, which keeps
        eps0, also starts closer.  The iterate v and its image g are
        [y | z] rows; b, sigma and f read Y and Z as views of them.

        The scheme runs on the safe rows: the live rows whose fans stay
        inside the hull and, under ``sweep``, inside the live box of every
        sweep level they read.  Live rows off the scheme take band values,
        and a row whose fan passed a live box counts in ``escaped``.  Dead
        rows keep ``v_next``; they are pinned in the iterate from the first
        pass, so they never enter the residual, theta or Broyden.

        A pass whose (dt, b_n, sigma_n) equal in value those of the
        workspace's previous pass (a level of a problem whose forward
        coefficients do not depend on t, or a repeated outer iterate) reuses
        that pass's hull mask: equal values give the same fans, and NaN never
        repeats.  If it also runs on exactly the previous pass's rows and the
        k plans fit in MAX_PLAN_ENTRIES, it reads each fan's row block
        through a stored interpolation plan, built on the first such pass and
        applied on every later one whose rows lie within those rows (see
        :meth:`_pass_plans`).  Any other pass streams its fans and drops the
        stored plans; a pass with new coefficients raises
        PicardDivergenceError at the first point where they are not finite.
        Every value is bitwise the same either way.
        """
        problem, X = self.problem, self.disc.X
        n, p, d = X.shape[0], problem.p, problem.d
        v_next = history[1].values.reshape(n, -1)
        # The Picard limit does not depend on the start, only the count does:
        # the cubic extrapolation in time beats the plain warm start by three
        # orders in dt.
        v = self._warm_start(history, v_next)
        live = self._live_rows(level)
        if live is not None and v is not v_next:
            np.copyto(v, v_next, where=~live[:, None])
        tol = max(self.eps0, OUTER_TOL_FRACTION * dt ** (self.k + 1))
        alpha = self.coeffs.alphas(dt)
        if self._broyden is not None:
            self._broyden.new_level()
        safe = None
        deltas = []
        g = np.empty_like(v)
        for outer in range(self.max_outer):
            y_cur, z_cur = v[:, :p], v[:, p:].reshape(n, p, d)
            b_n = np.asarray(problem.b(t_n, X, y_cur, z_cur), dtype=float)
            sig_n = np.asarray(problem.sigma(t_n, X, y_cur, z_cur), dtype=float)
            # A coupled level's later pass re-evaluates b and sigma, which can
            # move a safe row's fan out of the hull or its live box: the row
            # then joins the band for the rest of the level, its iterate
            # pinned to the band value.
            key, prev = (dt, b_n, sig_n), self._coeff_key
            repeated = prev is not None and all(map(np.array_equal, key, prev))
            if not repeated:
                _require_finite([b_n, sig_n], X, "b or sigma", level)
                self._coeff_key, self._hull = key, self._safe_mask(level, *key)
            mask = self._hull if live is None else self._hull & live
            box = self._box_mask(level, dt, b_n, sig_n)
            if box is not None:
                # rows still in the scheme that only the box rule removes
                self.escaped += int(np.count_nonzero((mask if safe is None else safe) & ~box))
                mask = mask & box
            if safe is None or np.any(safe & ~mask):
                safe = mask if safe is None else safe & mask
                unsafe = ~safe
                X_safe = X[safe]
                band = self._band_values(level, t_n, unsafe, v_next)
                if outer > 0:
                    v[unsafe] = band
            plans, rows = self._pass_plans(repeated, safe)
            if rows is safe:
                EY, EYW = self._expectations(dt, X_safe, b_n[safe], sig_n[safe], history, plans)
            else:  # a stored plan's rows around this pass's; compress keeps EY C-ordered
                EY, EYW = self._expectations(dt, X[rows], b_n[rows], sig_n[rows], history, plans)
                EY, EYW = (np.compress(safe[rows], E, axis=1) for E in (EY, EYW))
            z_safe = np.einsum("j,jnpd->npd", alpha[1:], EYW)
            rhs = -np.einsum("j,jnp->np", alpha[1:], EY)
            y_safe, iters = self._implicit_y(
                t_n, X_safe, rhs, z_safe, v[safe, :p], alpha[0], level
            )
            g[safe, :p], g[safe, p:] = y_safe, z_safe.reshape(len(X_safe), p * d)
            g[unsafe] = band
            # For plain iteration |v_{l+1} - v_l| equals the residual
            # |G(v_l) - v_l|, so the residual is the faithful reading of the
            # consecutive-difference tolerance under acceleration.
            res = np.abs(g - v)
            delta = float(np.max(res))
            theta = delta / deltas[-1] if deltas else None
            deltas.append(delta)
            # The rate exit: contracting at theta, the iterate's remaining
            # error is about theta / (1 - theta) * delta.
            if theta is not None and theta < 1.0 and delta >= tol > theta / (1.0 - theta) * delta:
                v = self._broyden.step(v, g)
                v[unsafe] = band
                self.picard_counts.append(outer + 1)
                return self.disc.field(level, v)
            if delta < tol or outer + 1 == self.max_outer:
                if delta > max(deltas[0], tol):
                    break  # residual grew: report divergence below
                if problem.coupled:
                    self.picard_counts.append(outer + 1)
                    if delta >= tol:
                        self.unconverged.append((delta, tol, *_contraction_rate(deltas)))
                else:
                    self.picard_counts.append(iters)
                return self.disc.field(level, g)
            if self._broyden is None:
                self._broyden = _BroydenState(n, v.shape[1])
            v = self._broyden.step(v, g)
            v[unsafe] = band
        worst = X[np.argmax(res[:, :p]) // p]  # the worst Y row
        raise PicardDivergenceError(
            f"coupled Picard iteration stuck at level {level}, point {worst}",
            level=level,
            point=worst,
        )


def _bootstrap_substeps(N, k):
    """Sub-step count M of the fine seeding chain; the coarse chain takes M/2.

    M = 2k*m, so both chains land on every seed level.  The extrapolated
    chain's leading error is about delta^2 * k*dt with delta = k*dt/M, which
    stays O(dt^k) for m ~ N^((k-3)/2); the floor m >= N/2 keeps it well
    under the sweep's own error at desk-scale N, where that power is small.
    A k = 1 seed needs only first order, so m = 1 there.
    BOOTSTRAP_MAX_SUBSTEPS bounds both chains together, 3k*m sub-levels.
    """
    m = 1 if k == 1 else math.ceil(max(N / 2, N ** ((k - 3) / 2)))
    return 2 * k * min(m, BOOTSTRAP_MAX_SUBSTEPS // (3 * k))


def _bootstrap_chain(problem, config, disc, terminal):
    """Seed levels N-1 .. N-k by Richardson extrapolation of two k=1 chains.

    Both chains start from the terminal field and run over [t_{N-k}, T] on
    the same static window as the main sweep: a fine chain of M uniform
    sub-steps (M from :func:`_bootstrap_substeps`) and a coarse one of M/2.
    Each lands a sub-level on every seed time t_{N-i}, and seed N-i is
    2*fine - coarse for both Y and Z, which cancels the chains' first-order
    error.  Returns the seed fields by level and the one workspace both chains
    run through, fine first; its counters feed only the unconverged warning.
    """
    N, k = config.N, config.k
    t_start = (N - k) * (problem.T / N)
    M = _bootstrap_substeps(N, k)
    ws = _LevelWorkspace(problem, disc, compute_coeffs(1), config)
    landed = {}  # seed level -> [fine sub-level, coarse sub-level]
    for steps in (M, M // 2):
        delta, per_seed = (problem.T - t_start) / steps, steps // k
        field = terminal
        for m in range(steps - 1, -1, -1):
            field = ws.step(m, t_start + m * delta, delta, {1: field})
            if m % per_seed == 0:
                landed.setdefault(N - k + m // per_seed, []).append(field)
    seeds = {lv: disc.field(lv, 2.0 * f.values - c.values) for lv, (f, c) in landed.items()}
    return seeds, ws


def init_terminal(problem, config, disc):
    """Build the terminal-side fields: level N plus levels N-1 .. N-k.

    Level N always carries (phi, grad_phi . sigma).  The k levels below it
    seed the backward sweep, which starts at n = N-k-1 and therefore never
    interpolates the level-N field itself: terminal functions with kinks
    (e.g. call payoffs) would otherwise leak O(h)-size interpolation error
    into every high-order run.  Seeds come from the exact solution or from
    two k=1 bootstrap chains over [t_{N-k}, T] anchored at the payoff, a fine
    and a half-as-fine one whose sub-levels land on the seed levels and are
    joined by Richardson extrapolation.

    Returns the fields by level and the bootstrap chain's workspace (None
    under exact seeding).
    """
    N, k = config.N, config.k
    dt = problem.T / N
    if config.terminal_mode == "exact":
        if problem.exact_y is None or problem.exact_z is None:
            raise ConfigError(
                "terminal_mode='exact' needs exact_y and exact_z on the problem; "
                "use terminal_mode='bootstrap' instead"
            )
    if config.terminal_mode == "bootstrap" and problem.grad_phi is None:
        raise ConfigError("terminal_mode='bootstrap' requires grad_phi on the problem")

    X = disc.X
    Y, Z = _terminal_yz_probe(problem, X, config.eps0)
    fields = {N: disc.field(N, _pack(problem, Y, Z))}
    if config.terminal_mode == "bootstrap":
        seeds, chain = _bootstrap_chain(problem, config, disc, fields[N])
        fields.update(seeds)
        return fields, chain
    for level in range(N - 1, N - k - 1, -1):
        fields[level] = disc.field(level, _exact_rows(problem, level * dt, X, level))
    return fields, None


def _warn_unconverged(sweep, chain):
    """One warning for the outer iterates a solve accepted when the budget ran out."""
    parts, accepted = [], []
    for what, ws in (("sweep levels", sweep), ("bootstrap sub-levels", chain)):
        if ws is not None and ws.unconverged:
            parts.append(f"{len(ws.unconverged)} of {len(ws.picard_counts)} {what}")
            accepted += ws.unconverged
    if parts:
        residual, tol, rate, span = max(accepted, key=lambda entry: entry[0] / entry[1])
        logger.warning(
            "%s accepted an outer iterate with residual >= the level tolerance "
            "(worst %.3g against %.3g) when the MAX_OUTER budget of %d passes "
            "ran out; that level's contraction rate was %s",
            " and ".join(parts), residual, tol, MAX_OUTER,
            "unmeasured (one pass)" if rate is None
            else f"{rate:.3g} per pass over its last {span} passes",
        )


def _warn_escaped(sweep):
    """One warning for the live rows whose fans passed the live box of a level they read."""
    if sweep.escaped:
        logger.warning(
            "%d live rows left the scheme for band values because a quadrature "
            "fan passed the live box of a level they read: |b| or sigma's row "
            "norm exceeded the probed bounds b_bound=%s, s_bound=%s there",
            sweep.escaped,
            np.array2string(sweep.disc.b_bound, precision=4),
            np.array2string(sweep.disc.s_bound, precision=4),
        )


def solve(problem: FbsdeProblem, config: SolverConfig) -> SolveResult:
    """Run the backward sweep and evaluate (Y, Z) at (0, x0).

    Errors against the exact solution are attached when the problem carries
    one; the result also carries the discretization the solve ran on.
    """
    start = time.perf_counter()
    _num_workers()  # validate the env var early; results do not depend on it

    coeffs = compute_coeffs(config.k)
    if not stability_report(coeffs).stable:
        logger.warning(
            "k=%d violates the root condition; expect divergence as N grows", config.k
        )
    disc = discretize(problem, config)

    N, k = config.N, config.k
    dt = problem.T / N
    fields, chain = init_terminal(problem, config, disc)
    ws = _LevelWorkspace(problem, disc, coeffs, config, sweep=True)
    # The step reads k levels and its predictor up to four.  The scheme
    # never reads level N; a kinked phi stays out of the predictor too.
    kept = max(k, len(PREDICTOR_WEIGHTS))
    top = N if problem.smooth_terminal else N - 1
    for n in range(N - k - 1, -1, -1):
        history = {j: fields[n + j] for j in range(1, min(kept, top - n) + 1)}
        fields[n] = ws.step(n, n * dt, dt, history)
        fields.pop(n + kept, None)
    _warn_unconverged(ws, chain)
    _warn_escaped(ws)

    final, x0, p = fields[0], problem.x0[None, :], problem.p
    yz0 = interpolate_values(final.values, final.window, disc.spec, x0, disc.r)[0]
    y0, z0 = yz0[:p], yz0[p:].reshape(p, problem.d)

    err_y = err_z = None
    if problem.exact_y is not None:
        err_y = np.abs(y0 - np.asarray(problem.exact_y(0.0, x0), dtype=float)[0])
    if problem.exact_z is not None:
        err_z = np.abs(z0 - np.asarray(problem.exact_z(0.0, x0), dtype=float)[0])

    counts = ws.picard_counts or [0]
    stats = PicardStats(
        max_iterations=int(max(counts)), mean_iterations=float(np.mean(counts))
    )
    return SolveResult(
        y0=y0,
        z0=z0,
        err_y=err_y,
        err_z=err_z,
        picard_stats=stats,
        runtime=time.perf_counter() - start,
        discretization=disc,
    )
