"""Uniform space grids, neighbor stencils, and local Lagrange interpolation.

Grids are conceptually unbounded lattices origin + i*h; an ActiveWindow pins
down the finite block of multi-indices actually stored at one time level.
Interpolation is tensor-product Lagrange of degree r per dimension over a
block of r+1 consecutive grid points, evaluated in product form, which is
backward stable on the whole stencil span including the half-cell edge band.
Sum-factorized: a plan keeps stencil-major flat offsets and per-dimension
bases, and the apply contracts the gathered stencil one axis at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial

import numpy as np

from .failures import SolverFailure


# Gathered stencil entries (queries times (r+1)^q) per query block.
_BLOCK_ENTRIES = 1 << 16


class OutOfDomainError(SolverFailure, ValueError):
    """A query point lies outside the active window's inflated hull."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice: points are origin + index * h, per dimension."""

    q: int
    h: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        h = np.broadcast_to(np.asarray(self.h, dtype=float), (self.q,)).copy()
        origin = np.broadcast_to(np.asarray(self.origin, dtype=float), (self.q,)).copy()
        if np.any(h <= 0):
            raise ValueError(f"grid spacing must be positive, got {h}")
        h.flags.writeable = False
        origin.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "origin", origin)

    def to_grid_coords(self, x: np.ndarray) -> np.ndarray:
        """Map points to index space: (x - origin) / h."""
        return (np.asarray(x, dtype=float) - self.origin) / self.h


@dataclass(frozen=True)
class ActiveWindow:
    """Inclusive integer index bounds of the stored sub-grid."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.int64)).copy()
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.int64)).copy()
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have matching shapes")
        if np.any(lo > hi):
            raise ValueError(f"window bounds must satisfy lo <= hi, got {lo} > {hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @cached_property  # the bounds are frozen: built on the first read only
    def extents(self) -> tuple[int, ...]:
        return tuple(int(n) for n in self.hi - self.lo + 1)


@dataclass(frozen=True)
class ValueField:
    """Grid samples of Y (p-vector) and Z (p x d matrix) at one time level.

    ``values`` is (*window.extents, p + p*d), one row [y | z] per point with z
    row-major (the level step's layout); ``y_values`` and ``z_values`` are its
    views.  It is read-only: the field is frozen once its level finishes.
    """

    window: ActiveWindow
    values: np.ndarray
    p: int
    level: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        if values.shape[:-1] != self.window.extents:
            raise ValueError("value array extents must match the window exactly")
        if self.p < 1 or values.shape[-1] < 2 * self.p or values.shape[-1] % self.p:
            raise ValueError(f"last axis must be p + p*d with d >= 1, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite values stored at level {self.level}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def y_values(self) -> np.ndarray:
        return self.values[..., : self.p]

    @property
    def z_values(self) -> np.ndarray:
        return self.values[..., self.p :].reshape(self.values.shape[:-1] + (self.p, -1))


def grid_points(spec: GridSpec, window: ActiveWindow) -> np.ndarray:
    """All window points as an (n_points, q) coordinate array, C-ordered."""
    axes = [
        spec.origin[dim] + spec.h[dim] * np.arange(window.lo[dim], window.hi[dim] + 1)
        for dim in range(spec.q)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _stencil_starts(u: np.ndarray, window: ActiveWindow, r: int) -> np.ndarray:
    """Lowest index of the r+1-point stencil per query, per dimension.

    The nearest block containing the query's cell is picked; exact ties (query
    centered between two admissible blocks) resolve toward the lower start,
    and blocks shift inward at the window edge.
    """
    # ceil(t - 0.5) rounds halves down, giving the lower-index tie break.
    starts = np.ceil(u - r / 2.0 - 0.5).astype(np.int64)
    return np.clip(starts, window.lo, window.hi - r)


def _query_coords(spec: GridSpec, window: ActiveWindow, points, r: int) -> np.ndarray:
    """Grid coordinates of (n, q) query points, checked for degree-r stencils in the window."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != spec.q:
        raise ValueError(f"points must be (n, {spec.q}), got {points.shape}")
    if r < 1:
        raise ValueError(f"interpolation degree r must be >= 1, got {r}")
    if np.any(window.hi - window.lo < r):
        raise ValueError(f"window too small for degree {r} stencils")
    u = spec.to_grid_coords(points)
    # Written as the negation of "inside" so that NaN coordinates fail too.
    outside = ~((u >= window.lo - 0.5) & (u <= window.hi + 0.5))
    if np.any(outside):
        bad = np.argwhere(outside)
        raise OutOfDomainError(
            f"query point(s) outside the window hull (first offending entry "
            f"{tuple(bad[0])}, grid coordinate {u[tuple(bad[0])]:.6g}, "
            f"window [{window.lo.tolist()}, {window.hi.tolist()}])"
        )
    return u


def neighbor_set(spec: GridSpec, window: ActiveWindow, x, r: int) -> np.ndarray:
    """Stencil of (r+1)^q grid multi-indices used to interpolate at x."""
    u = _query_coords(spec, window, np.reshape(x, (1, spec.q)), r)
    starts = _stencil_starts(u, window, r)[0]
    return starts + np.indices((r + 1,) * spec.q).reshape(spec.q, -1).T  # last dimension fastest


@cache
def _lagrange_denominators(r: int) -> np.ndarray:
    """D_i = prod_{j != i} (i - j) = (-1)^(r-i) i! (r-i)! as a read-only (r+1, 1, 1) array."""
    d = np.array([(-1.0) ** (r - i) * factorial(i) * factorial(r - i) for i in range(r + 1)])
    d.flags.writeable = False
    return d[:, None, None]


def _lagrange_basis(u: np.ndarray, starts: np.ndarray, r: int) -> np.ndarray:
    """Per-dimension Lagrange basis weights, node-major: shape (r+1, n, q).

    Product form on the integer offsets 0..r: l_i(t) = prod_{j != i} (t - j) / D_i,
    from prefix and suffix products along the leading node axis.  Nothing
    divides by t - i, and at a node the integer products are exact (r! < 2^53),
    so its row comes out exactly one-hot.
    """
    diff = (u - starts) - np.arange(r + 1.0)[:, None, None]  # t - j, (r+1, n, q)
    prefix, suffix = np.empty_like(diff), np.empty_like(diff)
    prefix[0] = suffix[r] = 1.0
    for i in range(r):  # prefix[i] = prod_{j < i} (t - j), suffix[i] = prod_{j > i} (t - j)
        np.multiply(prefix[i], diff[i], out=prefix[i + 1])
        np.multiply(suffix[r - i], diff[r - i], out=suffix[r - i - 1])
    prefix *= suffix
    prefix /= _lagrange_denominators(r)
    return prefix


def queries_per_block(q: int, r: int) -> int:
    """Queries per block of interpolate_values and of a plan: _BLOCK_ENTRIES gathered entries."""
    return max(1, _BLOCK_ENTRIES // (r + 1) ** q)


def plan_nbytes(n: int, q: int, r: int) -> int:
    """Bytes a plan of n queries holds: (r+1)^q int64 offsets and q (r+1) float64 weights each."""
    return 8 * n * ((r + 1) ** q + q * (r + 1))


def _plan_blocks(u: np.ndarray, window: ActiveWindow, r: int):
    """Yield (rows, index, basis) per block of queries_per_block(q, r) queries.

    ``u`` holds the queries' grid coordinates, (n, q).  ``index`` (S, n)
    holds the flat offsets of each query's S = (r+1)^q stencil into the
    C-ordered window values, stencil-major with the last dimension fastest;
    ``basis`` (q, r+1, n) holds its per-dimension Lagrange weights.
    """
    q = u.shape[1]
    ext = window.extents
    strides = [1] * q
    for dim in range(q - 2, -1, -1):
        strides[dim] = strides[dim + 1] * ext[dim + 1]
    # Tensor-product stencil as flat offsets, last dimension fastest.
    offsets = np.arange(r + 1, dtype=np.int64)
    stencil = offsets * strides[0]
    for dim in range(1, q):
        stencil = (stencil[:, None] + offsets * strides[dim]).ravel()

    block = queries_per_block(q, r)
    for first in range(0, u.shape[0], block):
        ub = u[first : first + block]
        starts = _stencil_starts(ub, window, r)
        base = (starts[:, 0] - window.lo[0]) * strides[0]
        for dim in range(1, q):
            base += (starts[:, dim] - window.lo[dim]) * strides[dim]
        basis = np.ascontiguousarray(_lagrange_basis(ub, starts, r).transpose(2, 0, 1))
        yield slice(first, first + len(ub)), stencil[:, None] + base, basis


def _apply_blocks(blocks, values: np.ndarray, window: ActiveWindow, n: int):
    """Contract each value column's gathered stencils with the planned bases.

    A column's (S, n) gather is contracted axis by axis, last axis first,
    each axis summed in stencil order one weighted term at a time: a
    one-column result is the plain sequential sum along every axis, whatever
    the block's size.  (numpy adds a non-contiguous axis row after row, but
    sums a contiguous one pairwise from 8 terms on, as it would the stencil
    axis of a one-query block, which therefore takes a running sum.)
    """
    ext = window.extents
    if values.shape[: len(ext)] != ext:
        raise ValueError(f"values must start with the window extents {ext}, got {values.shape}")
    columns = values.reshape(np.prod(ext, dtype=int), -1).T
    out = np.empty((n, columns.shape[0]))
    for rows, index, basis in blocks:
        for c, column in enumerate(columns):
            part = column[index]
            for weights in basis[::-1]:  # last axis first
                part = part.reshape(-1, len(weights), index.shape[1])
                part *= weights
                if part.shape[2] == 1:
                    part = np.cumsum(part, axis=1)[:, -1]
                else:
                    part = np.add.reduce(part, axis=1)
            out[rows, c] = part[0]
    return out.reshape((n,) + values.shape[len(ext) :])


def interpolate_values(
    values: np.ndarray,
    window: ActiveWindow,
    spec: GridSpec,
    points: np.ndarray,
    r: int,
) -> np.ndarray:
    """Interpolate a grid-sampled array at many points.

    ``values`` has shape (*window.extents, *trailing); ``points`` is
    (n, q).  Returns (n, *trailing).  Reproduces polynomials of coordinate
    degree <= r per dimension exactly.

    Queries stream in blocks of queries_per_block(q, r), so memory stays
    flat however many one call carries.  Each block is planned (flat stencil
    offsets and per-axis Lagrange weights) and then applied (one gather per
    trailing column, summed axis by axis); each row's arithmetic is a
    one-point call's, and that of :meth:`InterpolationPlan.apply` for a plan
    of the same points.
    """
    u = _query_coords(spec, window, points, r)
    blocks = _plan_blocks(u, window, r)  # a generator: each block is applied as it is planned
    return _apply_blocks(blocks, values, window, len(u))


@dataclass(frozen=True)
class InterpolationPlan:
    """The planned blocks of a fixed set of query points, built once.

    :func:`interpolation_plan` builds it; :meth:`apply` then interpolates any
    array sampled on the same window at those points, bitwise as
    :func:`interpolate_values` would, without recomputing a stencil or a
    weight.  It holds plan_nbytes(n, q, r) bytes: n (r+1)^q stencil offsets
    and n q (r+1) weights.
    """

    window: ActiveWindow
    n: int
    blocks: tuple

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Interpolate ``values`` (*window.extents, *trailing) at the planned points."""
        return _apply_blocks(self.blocks, values, self.window, self.n)


def interpolation_plan(
    window: ActiveWindow, spec: GridSpec, points: np.ndarray, r: int
) -> InterpolationPlan:
    """Plan degree-r interpolation at ``points`` (n, q) on ``window``."""
    u = _query_coords(spec, window, points, r)
    return InterpolationPlan(window, len(u), tuple(_plan_blocks(u, window, r)))

