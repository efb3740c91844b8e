"""Gauss-Hermite quadrature and the Gaussian-expectation operator.

Rules integrate against the weight e^{-x^2}; expectations over standard
normals use the sqrt(2) change of variables internally so callers never deal
with the scaling themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_POINTS = 64


class NonFiniteIntegrandError(ValueError):
    """The integrand returned a non-finite value at a quadrature node."""


@dataclass(frozen=True)
class GaussHermiteRule:
    """Nodes (roots of the degree-L Hermite polynomial) and positive weights."""

    L: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def max_abs_node(self) -> float:
        return float(np.max(np.abs(self.nodes)))


def hermite_rule(L: int) -> GaussHermiteRule:
    """L-point Gauss-Hermite rule, exact for polynomials of degree <= 2L-1.

    Backed by numpy's hermgauss (symmetric tridiagonal eigenproblem plus a
    Newton polish); nodes and weights are accurate to well below 1e-12.
    """
    if not isinstance(L, int) or isinstance(L, bool):
        raise ValueError(f"point count L must be an int, got {L!r}")
    if not 1 <= L <= MAX_POINTS:
        raise ValueError(f"point count L must be in [1, {MAX_POINTS}], got {L}")
    nodes, weights = np.polynomial.hermite.hermgauss(L)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return GaussHermiteRule(L=L, nodes=nodes, weights=weights)


def expect_gaussian(g, d: int, rule: GaussHermiteRule):
    """Approximate E[g(N)] for a standard d-dimensional normal N.

    ``g`` is called once with all M = L^d tensor nodes, scaled by sqrt(2), as
    one (d, M) array: row i holds coordinate i of every node, the last
    coordinate varying fastest.  It returns an array of any leading shape
    whose last axis (length M) runs over the nodes.  The weighted values are
    summed in node order, one vector add per node, and the pi^(-d/2)
    normalization is applied at the end.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")

    def tensor(axis):  # (d, L^d): row i is coordinate i, the last one fastest
        return np.stack(np.meshgrid(*[axis] * d, indexing="ij")).reshape(d, -1)

    nodes = np.sqrt(2.0) * tensor(rule.nodes)
    weights = tensor(rule.weights).prod(axis=0)
    M = weights.size
    values = np.asarray(g(nodes), dtype=float)
    if values.shape[-1:] != (M,):
        raise ValueError(f"integrand must return a last axis of {M} nodes, got {values.shape}")
    bad = ~np.isfinite(values)
    if np.any(bad):
        first = np.argmax(bad.reshape(-1, M).any(axis=0))
        raise NonFiniteIntegrandError(
            f"integrand returned a non-finite value at node {nodes[:, first]}"
        )
    acc = weights[0] * values[..., 0]
    for m in range(1, M):
        acc = acc + weights[m] * values[..., m]
    result = acc * np.pi ** (-d / 2)
    return float(result) if result.ndim == 0 else result
