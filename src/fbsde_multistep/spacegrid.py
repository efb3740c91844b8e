"""Uniform space grids, neighbor stencils, and local Lagrange interpolation.

Grids are conceptually unbounded lattices origin + i*h; an ActiveWindow pins
down the finite block of multi-indices actually stored at one time level.
Interpolation is tensor-product Lagrange of degree r per dimension over a
block of r+1 consecutive grid points, evaluated in barycentric form (stable
for r up to 15 on equispaced nodes inside the stencil span; extrapolation in
the half-cell edge band loses accuracy as r grows).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np


# Stencil entries (queries times (r+1)^q) per query block of interpolate_values.
_BLOCK_ENTRIES = 1 << 14


class OutOfDomainError(ValueError):
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

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(int(n) for n in self.hi - self.lo + 1)


@dataclass(frozen=True)
class ValueField:
    """Grid samples of Y (p-vector) and Z (p x d matrix) at one time level.

    Arrays are shaped (*window.extents, p) and (*window.extents, p, d); the
    field is frozen once its level finishes, so reads are thread-safe.
    """

    window: ActiveWindow
    y_values: np.ndarray
    z_values: np.ndarray
    level: int

    def __post_init__(self):
        ext = self.window.extents
        if self.y_values.shape[: len(ext)] != ext or self.z_values.shape[: len(ext)] != ext:
            raise ValueError("value array extents must match the window exactly")
        if not (np.all(np.isfinite(self.y_values)) and np.all(np.isfinite(self.z_values))):
            raise ValueError(f"non-finite values stored at level {self.level}")


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


def _check_in_domain(u: np.ndarray, window: ActiveWindow):
    # Written as the negation of "inside" so that NaN coordinates fail too.
    outside = ~((u >= window.lo - 0.5) & (u <= window.hi + 0.5))
    if np.any(outside):
        bad = np.argwhere(outside)
        raise OutOfDomainError(
            f"query point(s) outside the window hull (first offending entry "
            f"{tuple(bad[0])}, grid coordinate {u[tuple(bad[0])]:.6g}, "
            f"window [{window.lo.tolist()}, {window.hi.tolist()}])"
        )


def neighbor_set(spec: GridSpec, window: ActiveWindow, x, r: int) -> np.ndarray:
    """Stencil of (r+1)^q grid multi-indices used to interpolate at x."""
    if r < 1:
        raise ValueError(f"interpolation degree r must be >= 1, got {r}")
    if np.any(window.hi - window.lo < r):
        raise ValueError(f"window too small for degree {r} stencils")
    u = spec.to_grid_coords(np.asarray(x, dtype=float).reshape(spec.q))
    _check_in_domain(u, window)
    starts = _stencil_starts(u[None, :], window, r)[0]
    axes = [starts[dim] + np.arange(r + 1) for dim in range(spec.q)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@cache
def _barycentric_weights(r: int) -> np.ndarray:
    """Barycentric weights (-1)^i C(r, i) of the integer nodes 0..r, read-only."""
    w = np.array([(-1.0) ** i * comb(r, i) for i in range(r + 1)])
    w.flags.writeable = False
    return w


def _barycentric_basis(u: np.ndarray, starts: np.ndarray, r: int) -> np.ndarray:
    """Per-dimension Lagrange basis weights, shape (n, q, r+1).

    Barycentric form on the integer offsets 0..r.  A coordinate that hits a
    node exactly gets a one-hot row instead; it is kept out of the division,
    whose denominator can vanish there (r = 1 at the right-hand node).
    """
    t = u - starts  # in [-0.5, r + 0.5], so an integral t is a node 0..r
    hits = np.nonzero(t == np.rint(t))
    if hits[0].size:
        node = t[hits].astype(np.int64)
        t[hits] = 0.5  # placeholder off the nodes; these rows are reset below
    ratio = _barycentric_weights(r) / (t[..., None] - np.arange(r + 1, dtype=float))
    basis = ratio / np.sum(ratio, axis=-1, keepdims=True)
    if hits[0].size:
        basis[hits] = 0.0
        basis[hits + (node,)] = 1.0
    return basis


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

    Each query reads its (r+1)^q stencil as one flat gather per trailing
    column, contracted against the tensor-product basis weights.  Queries run
    in fixed blocks of _BLOCK_ENTRIES stencil entries, so memory stays flat
    however many one call carries; each row's arithmetic is a one-point call's.
    """
    if r < 1:
        raise ValueError(f"interpolation degree r must be >= 1, got {r}")
    if np.any(window.hi - window.lo < r):
        raise ValueError(f"window too small for degree {r} stencils")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != spec.q:
        raise ValueError(f"points must be (n, {spec.q}), got {points.shape}")
    u = spec.to_grid_coords(points)
    _check_in_domain(u, window)

    n = points.shape[0]
    q = spec.q
    ext = window.extents
    trailing = values.shape[q:]
    strides = np.ones(q, dtype=np.int64)
    for dim in range(q - 2, -1, -1):
        strides[dim] = strides[dim + 1] * ext[dim + 1]
    # Tensor-product stencil as flat offsets, last dimension fastest.
    offsets = np.arange(r + 1, dtype=np.int64)
    stencil = offsets * strides[0]
    for dim in range(1, q):
        stencil = (stencil[:, None] + offsets * strides[dim]).ravel()

    columns = values.reshape(np.prod(ext, dtype=int), -1).T
    out = np.empty((n, columns.shape[0]))
    block = max(1, _BLOCK_ENTRIES // stencil.size)
    for first in range(0, n, block):
        ub = u[first : first + block]
        starts = _stencil_starts(ub, window, r)
        basis = _barycentric_basis(ub, starts, r)
        weights = basis[:, 0, :]
        for dim in range(1, q):
            weights = np.einsum("ns,nj->nsj", weights, basis[:, dim]).reshape(len(ub), -1)
        flat_idx = ((starts - window.lo) @ strides)[:, None] + stencil
        # np.sum rather than einsum: its summation order leaves one-column 1-d
        # results bitwise equal to a plain stencil sum, so coupled outer loops,
        # whose exits compare residuals with eps0, take the same passes.
        for c, column in enumerate(columns):
            out[first : first + block, c] = np.sum(weights * column[flat_idx], axis=1)
    return out.reshape((n,) + trailing)


def interpolate(field, spec: GridSpec, x, r: int, window: ActiveWindow | None = None):
    """Interpolate a ValueField (returning (y, z)) or a bare array at one point.

    Bare arrays need the window passed explicitly; ValueField carries its own.
    """
    point = np.asarray(x, dtype=float).reshape(1, spec.q)
    if isinstance(field, ValueField):
        y = interpolate_values(field.y_values, field.window, spec, point, r)[0]
        z = interpolate_values(field.z_values, field.window, spec, point, r)[0]
        return y, z
    if window is None:
        raise ValueError("interpolating a bare array requires the window argument")
    return interpolate_values(np.asarray(field, dtype=float), window, spec, point, r)[0]
