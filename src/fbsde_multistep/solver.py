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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .multistep import compute_coeffs, stability_report
from .problems import FbsdeProblem
from .quadrature import MAX_POINTS, GaussHermiteRule, expect_gaussian, hermite_rule
from .spacegrid import ActiveWindow, GridSpec, ValueField, grid_points, interpolate_values

logger = logging.getLogger(__name__)

# Diffusion envelope: windows cover B_b*t + ENVELOPE_FACTOR*B_sigma*sqrt(2t)*a_max
# per side, with coefficient bounds inflated by BOUND_INFLATION over probed values.
# Quadrature queries escaping that (weight <= 1.1e-4 each, many effective standard
# deviations out) are clamped to the stored hull.
ENVELOPE_FACTOR = 1.2
BOUND_INFLATION = 1.5
EXTRA_MARGIN_CELLS = 5
BOOTSTRAP_MAX_SUBSTEPS = 4096

WORKERS_ENV_VAR = "FBSDE_NUM_WORKERS"


class ConfigError(ValueError):
    """Invalid solver configuration."""


class PicardDivergenceError(RuntimeError):
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
    max_picard: int = 100
    # Budget for the coupled outer loop.  The tolerance eps0 is the early
    # exit; when the budget runs out while the iteration is still
    # contracting, the current image is accepted (the remaining iteration
    # residual sits below the scheme error, which is how the benchmark
    # tables were produced), and an actual divergence still raises.
    max_outer: int = 6
    terminal_mode: str = "exact"

    def __post_init__(self):
        if not 1 <= self.k <= 8:
            raise ConfigError(f"step count k must be in [1, 8], got {self.k}")
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
        if self.max_picard < 1:
            raise ConfigError(f"max_picard must be >= 1, got {self.max_picard}")
        if self.max_outer < 1:
            raise ConfigError(f"max_outer must be >= 1, got {self.max_outer}")
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
    its grid points and ``lo``/``hi`` its hull.
    """

    h: float
    r: int
    spec: GridSpec
    rule: GaussHermiteRule
    window: ActiveWindow
    X: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def field(self, problem, level, Y, Z) -> ValueField:
        """Freeze per-point (Y, Z) rows as the field of one level on the window."""
        ext = self.window.extents
        return ValueField(
            window=self.window,
            y_values=np.asarray(Y, dtype=float).reshape(ext + (problem.p,)),
            z_values=np.asarray(Z, dtype=float).reshape(ext + (problem.p, problem.d)),
            level=level,
        )


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


def _terminal_yz_probe(problem: FbsdeProblem, X: np.ndarray, eps0: float, cap: int):
    """Terminal-level (Y, Z) used both for seeding and coefficient probing."""
    Y = np.asarray(problem.phi(X), dtype=float)
    if problem.grad_phi is not None:
        grad = np.asarray(problem.grad_phi(X), dtype=float)
        if problem.exact_z is not None:
            z_seed = np.asarray(problem.exact_z(problem.T, X), dtype=float)
            sig = np.asarray(problem.sigma(problem.T, X, Y, z_seed), dtype=float)
            return Y, np.einsum("npq,nqd->npd", grad, sig)
        # sigma may read z: resolve Z = grad_phi . sigma(T, x, phi, Z) by fixed point
        Z = np.zeros((X.shape[0], problem.p, problem.d))
        for _ in range(cap):
            sig = np.asarray(problem.sigma(problem.T, X, Y, Z), dtype=float)
            Z_new = np.einsum("npq,nqd->npd", grad, sig)
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


def discretize(problem: FbsdeProblem, config: SolverConfig) -> Discretization:
    """Resolve the grid spacing, degree, node rule and static window of a solve.

    * Spacing and degree: the balancing policy equates the space and time
      error contributions, h^(r+1) = dt^(k+1); low-order schemes get a modest
      degree, higher-order ones a larger degree so h does not collapse.  The
      automatic spacing is expressed in units of the problem's characteristic
      length (grid_scale), which matters for problems like log-price models
      whose features live on a sub-unit scale.
    * Coefficient bounds: per-axis sup bounds of |b| and of the L1 row norm
      of sigma, from one probe pass over a box sized from values at x0 (no
      re-probing: for multiplicative noise a fixed-point box estimate would
      not converge).
    * Node count: raised from ``config.L`` until the quadrature fan keeps the
      level operator stable; a warning is logged when the 64-node cap still
      leaves the fan wider than the measured stable bound.
    * Window: one static window covering the diffusion envelope of the whole
      solve, with the bounds inflated by BOUND_INFLATION.  Every level shares
      it: a moving (per-level) window would sweep its edge band inward and
      freeze edge artifacts progressively closer to the evaluation point,
      whereas a static edge stays a fixed many envelope standard deviations
      away.

    The balancing rule assumes a smooth solution.  A kink in phi
    (``problem.smooth_terminal`` False) is smoothed by the forward diffusion
    only over s*sqrt(dt) at the seeded level one step below T, s being the
    probed bound of sigma's row norm per axis.  Where h exceeds that length
    the space error no longer follows the time order, and a warning is
    logged; the discretization is unchanged.
    """
    T, k = problem.T, config.k
    dt = T / config.N
    r = config.r if config.r is not None else _default_degree(k)
    h = config.h
    if h is None:
        h = problem.grid_scale * dt ** ((k + 1) / (r + 1))
    spec = GridSpec(q=problem.q, h=h, origin=problem.x0)

    def envelope(b_bound, s_bound, a_max):
        return b_bound * T + ENVELOPE_FACTOR * s_bound * math.sqrt(2.0 * T) * a_max

    def row_bounds(X, Y, Z):
        bb = np.zeros(problem.q)
        ss = np.zeros(problem.q)
        for t in (0.0, 0.5 * T, T):
            bb = np.maximum(bb, np.max(np.abs(np.asarray(problem.b(t, X, Y, Z))), axis=0))
            sig = np.abs(np.asarray(problem.sigma(t, X, Y, Z))).sum(axis=2)
            ss = np.maximum(ss, np.max(sig, axis=0))
        return bb, ss

    x0 = problem.x0[None, :]
    y0, z0 = _terminal_yz_probe(problem, x0, config.eps0, config.max_picard)
    half = envelope(*row_bounds(x0, y0, z0), hermite_rule(config.L).max_abs_node) + 1e-8
    grids = [
        problem.x0[dim] + np.linspace(-half[dim], half[dim], 17) for dim in range(problem.q)
    ]
    mesh = np.meshgrid(*grids, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=-1)
    Y, Z = _terminal_yz_probe(problem, X, config.eps0, config.max_picard)
    b_raw, s_raw = row_bounds(X, Y, Z)

    def fan_cells(L):
        a_max = hermite_rule(L).max_abs_node
        return float(np.max(s_raw * math.sqrt(2.0 * k * dt) * a_max / spec.h))

    L = config.L
    fan = fan_cells(L)
    for _ in range(4):
        if fan <= STABLE_CELLS_PER_NODE * L:
            break
        L = min(MAX_POINTS, max(L + 1, math.ceil(fan / TARGET_CELLS_PER_NODE)))
        fan = fan_cells(L)
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
    rule = hermite_rule(L)

    half = envelope(BOUND_INFLATION * b_raw, BOUND_INFLATION * s_raw, rule.max_abs_node)
    cells = np.ceil(half / spec.h).astype(np.int64) + r + EXTRA_MARGIN_CELLS
    window = ActiveWindow(lo=-cells, hi=cells)
    return Discretization(
        h=h,
        r=r,
        spec=spec,
        rule=rule,
        window=window,
        X=grid_points(spec, window),
        lo=spec.origin + spec.h * window.lo,
        hi=spec.origin + spec.h * window.hi,
    )


class _BroydenState:
    """Vectorized per-point Broyden iteration for fixed points v = G(v).

    Each grid point carries its own m x m approximate inverse Jacobian of
    F(v) = G(v) - v, seeded with -I so the first step reproduces plain
    iteration; good-Broyden rank-1 updates then capture the y/z
    cross-coupling of the outer map, whose plain contraction can be as slow
    as ~0.9 where the forward coefficients react strongly to (y, z).
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
        self.v = v
        self.residual = residual
        step = np.einsum("nij,nj->ni", self.inv_jac, residual)
        # Trust cap: a stale Jacobian must not fling iterates; plain
        # iteration corresponds to |step| = |residual|.
        step_norm = np.linalg.norm(step, axis=1)
        res_norm = np.linalg.norm(residual, axis=1)
        factor = np.minimum(1.0, 4.0 * res_norm / np.maximum(step_norm, 1e-300))
        return v - step * factor[:, None]


class _LevelWorkspace:
    """The discretization, the multistep weights and the counters of one sweep."""

    def __init__(self, problem, disc, coeffs, config, band_exact=False):
        self.problem = problem
        self.disc = disc
        self.coeffs = coeffs
        self.k = coeffs.k
        self.eps0 = config.eps0
        self.max_picard = config.max_picard
        self.max_outer = config.max_outer if problem.coupled else 1
        self.band_exact = band_exact
        self.picard_counts: list[int] = []
        self.unconverged: list[float] = []  # residuals accepted at or above eps0
        self._broyden = None

    def _rows(self, field: ValueField):
        """A history field's (Y, Z) as per-point rows (every field shares the window)."""
        n = self.disc.X.shape[0]
        return field.y_values.reshape(n, -1), field.z_values.reshape(n, self.problem.p, -1)

    def _band_values(self, t_n, unsafe, y_next, z_next):
        """Far-field values for the edge band.

        With exact seeding the band tracks the exact solution, acting as an
        artificial boundary condition consistent with the interior to scheme
        accuracy; otherwise it transports the previous level's values, which
        is non-amplifying but goes stale for long horizons.
        """
        if self.band_exact:
            Xb = self.disc.X[unsafe]
            return (
                np.asarray(self.problem.exact_y(t_n, Xb), dtype=float),
                np.asarray(self.problem.exact_z(t_n, Xb), dtype=float),
            )
        return y_next[unsafe], z_next[unsafe]

    def _safe_mask(self, dt, b_n, sig_n):
        """Points whose whole quadrature fan stays inside the j=1 hull.

        Points failing this (an edge band several envelope standard
        deviations from the evaluation point) copy the previous level
        instead of running the scheme: any truncated or clamped read there
        breaks the signed balance of the multistep weights and can amplify
        level over level.  The mask also guards the stencil block around the
        grid center, which must always be scheme-computed.
        """
        disc = self.disc
        X = disc.X
        reach = np.abs(b_n) * (self.k * dt) + np.abs(sig_n).sum(axis=2) * (
            math.sqrt(2.0 * self.k * dt) * disc.rule.max_abs_node
        )
        safe = np.all((X - reach >= disc.lo) & (X + reach <= disc.hi), axis=1)
        center = safe.reshape(disc.window.extents)
        sl = tuple(
            slice(int(-l - disc.r - 1), int(-l + disc.r + 2)) for l in disc.window.lo
        )
        if not bool(np.all(center[sl])):
            raise RuntimeError(
                "window sizing bug: the copy band reached the evaluation "
                "point's stencil; enlarge the envelope margins"
            )
        return safe

    def _expectations(self, dt, b_n, sig_n, history):
        """E[Y^{n+j}] and E[Y^{n+j} dW^T] for j = 1..k via Gauss-Hermite.

        One quadrature call per j reads the history field at the whole fan of
        Euler predictors (every node at every point) in one interpolation call
        and returns Y (x) (1, dW), dW carrying the sqrt(2 j dt) node scaling.
        """
        problem, disc = self.problem, self.disc
        X, lo, hi = disc.X, disc.lo, disc.hi
        n, q, p = X.shape[0], problem.q, problem.p
        EY = np.empty((self.k, n, p))
        EYW = np.empty((self.k, n, p, problem.d))
        for j in range(1, self.k + 1):
            base = X + b_n * (j * dt)
            fld = history[j]

            def integrand(v):
                M = v.shape[1]
                dW = math.sqrt(j * dt) * v  # v = sqrt(2) * nodes, shape (d, M)
                Xq = base + np.einsum("nqd,dm->mnq", sig_n, dW)
                # Queries escaping the stored hull are deep-tail events (node
                # weight <= 1.1e-4, many envelope standard deviations out).
                # They contribute zero rather than a hull-clamped read: clamped
                # fans at the window edge re-read edge values at full weight,
                # which is an amplifying feedback for multiplicative noise.
                inside = np.all((Xq >= lo) & (Xq <= hi), axis=2)
                np.clip(Xq, lo, hi, out=Xq)
                Yq = interpolate_values(
                    fld.y_values, fld.window, disc.spec, Xq.reshape(M * n, q), disc.r
                ).reshape(M, n, p)
                Yq *= inside[:, :, None]
                factors = np.vstack([np.ones(M), dW]).T  # (M, 1 + d)
                # Node-major in memory, so each node's slice is contiguous.
                return np.moveaxis(Yq[:, :, :, None] * factors[:, None, None, :], 0, -1)

            moments = expect_gaussian(integrand, problem.d, disc.rule)
            EY[j - 1] = moments[:, :, 0]
            EYW[j - 1] = moments[:, :, 1:]
        return EY, EYW

    def _implicit_y(self, t_n, X, rhs, Z, y_start, alpha0, level):
        """Resolve the implicit Y relation by plain fixed-point iteration."""
        y = y_start
        diff = None
        for it in range(self.max_picard):
            y_new = (rhs - np.asarray(self.problem.f(t_n, X, y, Z))) / alpha0
            finite = np.isfinite(y_new)
            if not finite.all():
                bad = np.argwhere(~finite)[0][0]
                raise PicardDivergenceError(
                    f"non-finite implicit Y iterate at level {level}, point {X[bad]}",
                    level=level,
                    point=X[bad],
                )
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
        coupled one feeds each image to a per-point Broyden accelerator;
        iterates stop on max(|dY|, |dZ|) < eps0 exactly as the plain loop
        would, but reach it in a handful of coefficient rebuilds even where
        the plain contraction is slow.  ``history[j]`` is the field of level
        ``level + j``.
        """
        problem, X = self.problem, self.disc.X
        n = X.shape[0]
        p, d = problem.p, problem.d
        y_next, z_next = self._rows(history[1])
        # The Picard limit does not depend on the start, only the count does:
        # a linear-in-time extrapolation of the two newest levels beats the
        # plain warm start by one order in dt.
        if self.k >= 2:
            y_far, z_far = self._rows(history[2])
            y_cur = 2.0 * y_next - y_far
            z_cur = 2.0 * z_next - z_far
        else:
            y_cur, z_cur = y_next, z_next
        alpha = self.coeffs.alphas(dt)
        if self._broyden is not None:
            self._broyden.new_level()
        unsafe = band_y = band_z = None
        y_diff = None
        first_delta = None
        for outer in range(self.max_outer):
            b_n = np.asarray(problem.b(t_n, X, y_cur, z_cur), dtype=float)
            sig_n = np.asarray(problem.sigma(t_n, X, y_cur, z_cur), dtype=float)
            if unsafe is None:
                unsafe = ~self._safe_mask(dt, b_n, sig_n)
                band_y, band_z = self._band_values(t_n, unsafe, y_next, z_next)
            EY, EYW = self._expectations(dt, b_n, sig_n, history)
            gz = np.einsum("j,jnpd->npd", alpha[1:], EYW)
            rhs = -np.einsum("j,jnp->np", alpha[1:], EY)
            gy, iters = self._implicit_y(t_n, X, rhs, gz, y_cur, alpha[0], level)
            gy[unsafe] = band_y
            gz[unsafe] = band_z
            # For plain iteration |v_{l+1} - v_l| equals the residual
            # |G(v_l) - v_l|, so the residual is the faithful reading of the
            # consecutive-difference tolerance under acceleration.
            y_diff = np.abs(gy - y_cur)
            delta = max(float(np.max(y_diff)), float(np.max(np.abs(gz - z_cur))))
            if first_delta is None:
                first_delta = delta
            if delta < self.eps0 or outer + 1 == self.max_outer:
                if delta > max(first_delta, self.eps0):
                    break  # residual grew: report divergence below
                if problem.coupled:
                    self.picard_counts.append(outer + 1)
                    if delta >= self.eps0:
                        self.unconverged.append(delta)
                else:
                    self.picard_counts.append(iters)
                return self.disc.field(problem, level, gy, gz)
            if self._broyden is None:
                self._broyden = _BroydenState(n, p + p * d)
            packed_v = np.concatenate([y_cur, z_cur.reshape(n, p * d)], axis=1)
            packed_g = np.concatenate([gy, gz.reshape(n, p * d)], axis=1)
            packed_new = self._broyden.step(packed_v, packed_g)
            y_cur = packed_new[:, :p].copy()
            z_cur = packed_new[:, p:].reshape(n, p, d).copy()
            y_cur[unsafe] = band_y
            z_cur[unsafe] = band_z
        worst = np.unravel_index(np.argmax(y_diff), y_cur.shape)
        raise PicardDivergenceError(
            f"coupled Picard iteration stuck at level {level}, point {X[worst[0]]}",
            level=level,
            point=X[worst[0]],
        )


def _bootstrap_field(problem, config, disc, terminal, level):
    """Fill one seed level by a fine k=1 solve of [t_level, T].

    The sub-partition has M = min(cap, N^k) uniform steps so the first-order
    seeding error stays under the order-k target at desk scale.  The
    sub-solve starts from the terminal field and runs on the same static
    window as the main sweep.  Returns the field and the sub-solve's
    workspace, whose counters the solve reports.
    """
    t_level = level * (problem.T / config.N)
    M = min(BOOTSTRAP_MAX_SUBSTEPS, config.N**config.k)
    delta = (problem.T - t_level) / M
    ws = _LevelWorkspace(problem, disc, compute_coeffs(1), config)
    field = terminal
    for m in range(M - 1, -1, -1):
        field = ws.step(m, t_level + m * delta, delta, {1: field})
    return replace(field, level=level), ws


def init_terminal(problem, config, disc):
    """Build the terminal-side fields: level N plus levels N-1 .. N-k.

    Level N always carries (phi, grad_phi . sigma).  The k levels below it
    seed the backward sweep, which starts at n = N-k-1 and therefore never
    interpolates the level-N field itself: terminal functions with kinks
    (e.g. call payoffs) would otherwise leak O(h)-size interpolation error
    into every high-order run.  Seeds come from the exact solution or from
    fine k=1 bootstrap solves of [t_level, T] anchored at the payoff.

    Returns the fields by level and the bootstrap workspaces (none under
    exact seeding).
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
    Y, Z = _terminal_yz_probe(problem, X, config.eps0, config.max_picard)
    fields = {N: disc.field(problem, N, Y, Z)}
    seeds = []
    for i in range(1, k + 1):
        level = N - i
        if config.terminal_mode == "exact":
            t = level * dt
            Y, Z = problem.exact_y(t, X), problem.exact_z(t, X)
            fields[level] = disc.field(problem, level, Y, Z)
        else:
            fields[level], ws = _bootstrap_field(problem, config, disc, fields[N], level)
            seeds.append(ws)
    return fields, seeds


def _warn_unconverged(config, sweep, seeds):
    """One warning for the outer iterates a solve accepted at or above eps0."""
    parts, residuals = [], []
    for what, group in (("sweep levels", [sweep]), ("bootstrap sub-levels", seeds)):
        accepted = [res for ws in group for res in ws.unconverged]
        if accepted:
            total = sum(len(ws.picard_counts) for ws in group)
            parts.append(f"{len(accepted)} of {total} {what}")
            residuals += accepted
    if parts:
        logger.warning(
            "%s accepted an outer iterate with residual >= eps0=%g (largest %.3g) "
            "when the max_outer=%d budget ran out",
            " and ".join(parts), config.eps0, max(residuals), config.max_outer,
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
    fields, seeds = init_terminal(problem, config, disc)
    ws = _LevelWorkspace(
        problem, disc, coeffs, config, band_exact=config.terminal_mode == "exact"
    )
    for n in range(N - k - 1, -1, -1):
        fields[n] = ws.step(n, n * dt, dt, {j: fields[n + j] for j in range(1, k + 1)})
        del fields[n + k]
    _warn_unconverged(config, ws, seeds)

    final = fields[0]
    x0 = problem.x0[None, :]
    y0 = interpolate_values(final.y_values, final.window, disc.spec, x0, disc.r)[0]
    z0 = interpolate_values(final.z_values, final.window, disc.spec, x0, disc.r)[0]

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
