"""Gauss-Hermite quadrature and the Gaussian-expectation operator.

Rules integrate against the weight e^{-x^2}; expectations over standard
normals use the sqrt(2) change of variables internally so callers never deal
with the scaling themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .failures import SolverFailure

MAX_POINTS = 64


class NonFiniteIntegrandError(SolverFailure, ValueError):
    """The integrand returned a non-finite value at a quadrature node."""


@dataclass(frozen=True)
class GaussHermiteRule:
    """Nodes (roots of the degree-L Hermite polynomial) and positive weights."""

    L: int
    nodes: np.ndarray
    weights: np.ndarray

    @functools.cached_property  # the nodes are frozen: computed on the first read only
    def max_abs_node(self) -> float:
        return float(np.max(np.abs(self.nodes)))


def hermite_rule(L: int) -> GaussHermiteRule:
    """L-point Gauss-Hermite rule, exact for polynomials of degree <= 2L-1.

    Backed by numpy's hermgauss (symmetric tridiagonal eigenproblem plus a
    Newton polish); nodes and weights are accurate to well below 1e-12.  A
    rule is determined by L, so each is computed once and shared read-only.
    """
    if not isinstance(L, int) or isinstance(L, bool):
        raise ValueError(f"point count L must be an int, got {L!r}")
    if not 1 <= L <= MAX_POINTS:
        raise ValueError(f"point count L must be in [1, {MAX_POINTS}], got {L}")
    return _rule(L)


@functools.cache
def _rule(L: int) -> GaussHermiteRule:
    nodes, weights = np.polynomial.hermite.hermgauss(L)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return GaussHermiteRule(L=L, nodes=nodes, weights=weights)


@functools.cache
def _tensor_rule(L: int, d: int):
    """Read-only (d, L^d) scaled nodes and (L^d,) weights of the L-point tensor rule.

    Row i of the nodes is coordinate i of every node, the last coordinate
    varying fastest; a rule is determined by L, so one copy per (L, d) serves
    every call.
    """
    rule = hermite_rule(L)

    def tensor(axis):
        return np.stack(np.meshgrid(*[axis] * d, indexing="ij")).reshape(d, -1)

    nodes = np.sqrt(2.0) * tensor(rule.nodes)
    weights = tensor(rule.weights).prod(axis=0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def expect_gaussian(g, d: int, rule: GaussHermiteRule):
    """Approximate E[g(N)] for a standard d-dimensional normal N.

    ``g`` is called once with all M = L^d tensor nodes, scaled by sqrt(2), as
    one read-only (d, M) array: row i holds coordinate i of every node, the
    last coordinate varying fastest.  It returns node-major values, an array
    whose first axis (length M) runs over the nodes, of any trailing shape.
    The weighted values are summed in node order, w_0 g_0 + w_1 g_1 + ...,
    and the pi^(-d/2) normalization is applied at the end.  The sum is one
    reduction over the node axis of the C-ordered (M, rest) values, which
    adds the nodes one after another; a single value per node, which numpy
    would sum pairwise, is summed by a running (cumulative) sum instead.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    nodes, weights = _tensor_rule(rule.L, d)
    M = weights.size
    values = np.asarray(g(nodes), dtype=float)
    if values.shape[:1] != (M,):
        raise ValueError(f"integrand must return a first axis of {M} nodes, got {values.shape}")
    if not np.isfinite(values).all():
        first = np.argmax(~np.isfinite(values).reshape(M, -1).all(axis=1))
        raise NonFiniteIntegrandError(
            f"integrand returned a non-finite value at node {nodes[:, first]}"
        )
    weighted = np.ascontiguousarray(values).reshape(M, -1) * weights[:, None]
    if weighted.shape[1] == 1:
        acc = np.cumsum(weighted[:, 0])[-1]
    else:
        acc = np.add.reduce(weighted, axis=0)
    result = acc.reshape(values.shape[1:]) * np.pi ** (-d / 2)
    return float(result) if result.ndim == 0 else result
