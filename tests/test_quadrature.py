"""Gauss-Hermite rules and the Gaussian expectation operator."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_multistep import (
    NonFiniteIntegrandError,
    expect_gaussian,
    hermite_rule,
)

SQRT_PI = math.sqrt(math.pi)


def hermite_weight_moment(m: int) -> float:
    """Exact moment of the e^{-x^2} weight: 0 for odd m, Gamma((m+1)/2) else."""
    if m % 2 == 1:
        return 0.0
    return math.gamma((m + 1) / 2)


def normal_moment(m: int) -> float:
    """(m-1)!! for even m, 0 for odd m."""
    if m % 2 == 1:
        return 0.0
    out = 1.0
    for i in range(m - 1, 0, -2):
        out *= i
    return out


def test_one_point_rule():
    rule = hermite_rule(1)
    assert rule.nodes == pytest.approx([0.0])
    assert rule.weights == pytest.approx([SQRT_PI])


def test_two_point_rule_matches_h2_roots():
    # Roots of H2(x) = 4x^2 - 2 and the closed-form weights.
    rule = hermite_rule(2)
    np.testing.assert_allclose(rule.nodes, [-math.sqrt(0.5), math.sqrt(0.5)], atol=1e-14)
    np.testing.assert_allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2], atol=1e-14)


@pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 13, 21, 40, 64])
def test_rule_invariants(L):
    rule = hermite_rule(L)
    assert rule.L == L
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)
    assert rule.weights.sum() == pytest.approx(SQRT_PI, rel=1e-12)


@pytest.mark.parametrize("L", [1, 2, 4, 8, 16])
def test_weight_moment_exactness(L):
    rule = hermite_rule(L)
    for m in range(2 * L):
        got = np.sum(rule.weights * rule.nodes**m)
        exact = hermite_weight_moment(m)
        if exact == 0.0:
            assert abs(got) < 1e-10
        else:
            assert got == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("L", [0, 65])
def test_point_count_out_of_range(L):
    with pytest.raises(ValueError):
        hermite_rule(L)


def test_tensor_rule_count_and_total_weight():
    rule = hermite_rule(5)
    for d in (1, 2, 3):
        seen = []

        def one(v):
            seen.append(v.shape)
            return np.ones(v.shape[1])

        total = expect_gaussian(one, d, rule)
        assert seen == [(d, 5**d)]
        assert total == pytest.approx(1.0, rel=1e-10)


def test_tensor_rule_rejects_bad_dimension():
    with pytest.raises(ValueError):
        expect_gaussian(lambda v: np.ones(v.shape[1]), 0, hermite_rule(2))


def test_expectation_of_one():
    rule = hermite_rule(4)
    for d in (1, 2):
        got = expect_gaussian(lambda v: np.ones(v.shape[1]), d, rule)
        assert got == pytest.approx(1.0, rel=1e-13)


def test_expectation_second_moment():
    rule = hermite_rule(2)
    assert expect_gaussian(lambda v: v[0] ** 2, 1, rule) == pytest.approx(1.0, rel=1e-12)


def test_expectation_odd_product_vanishes():
    rule = hermite_rule(6)
    assert expect_gaussian(lambda v: v[0] * v[1], 2, rule) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("L", [4, 8])
def test_normal_moments(L):
    rule = hermite_rule(L)
    for m in range(2 * L):
        got = expect_gaussian(lambda v, m=m: v[0] ** m, 1, rule)
        exact = normal_moment(m)
        if exact == 0.0:
            assert abs(got) < 1e-10
        else:
            assert got == pytest.approx(exact, rel=1e-10)


def test_separable_product_factorizes():
    rule = hermite_rule(6)
    g1 = lambda x: np.cos(x)
    g2 = lambda x: x**2 + 0.5 * x
    joint = expect_gaussian(lambda v: g1(v[0]) * g2(v[1]), 2, rule)
    e1 = expect_gaussian(lambda v: g1(v[0]), 1, rule)
    e2 = expect_gaussian(lambda v: g2(v[0]), 1, rule)
    assert joint == pytest.approx(e1 * e2, rel=1e-12)


def test_vector_valued_integrand():
    # values are node-major: one row of three values per node
    rule = hermite_rule(4)
    out = expect_gaussian(
        lambda v: np.stack([np.ones(v.shape[1]), v[0] ** 2, v[0] ** 3], axis=1), 1, rule
    )
    np.testing.assert_allclose(out, [1.0, 1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matches_per_node_reference_sum(d):
    # The node-by-node sum in itertools.product order (last coordinate
    # fastest), with the same arithmetic, is the bitwise reference, for
    # integrands with one value per node (a plain (M,) array, which numpy
    # would sum pairwise), two and three.
    rule = hermite_rule(4)
    columns = [
        lambda v: v[0] * v[-1] * v[-1] + 0.5 * v[0],
        lambda v: v[-1] * v[-1] * v[-1] - v[0],
        lambda v: np.cos(v[0]) + v[-1],
    ]
    for count in (1, 2, 3):

        def g(v):
            if count == 1:
                return columns[0](v)
            return np.stack([column(v) for column in columns[:count]], axis=1)

        acc = None
        for idx in itertools.product(range(rule.L), repeat=d):
            node = math.sqrt(2.0) * rule.nodes[list(idx)]
            value = g(node[:, None])[0]
            weight = float(np.prod(rule.weights[list(idx)]))
            acc = weight * value if acc is None else acc + weight * value
        got = expect_gaussian(g, d, rule)
        assert np.shape(got) == (() if count == 1 else (count,))
        np.testing.assert_array_equal(got, acc * np.pi ** (-d / 2))


def test_non_finite_integrand_reports_node():
    rule = hermite_rule(3)

    def bad(v):
        return np.where(v[0] > 0, np.inf, 1.0)

    # Only the node at +sqrt(3) (sqrt(2) times the positive root of H3) is bad.
    with pytest.raises(NonFiniteIntegrandError, match=r"node \[1\.732"):
        expect_gaussian(bad, 1, rule)


def test_integrand_without_node_axis_is_rejected():
    rule = hermite_rule(3)
    with pytest.raises(ValueError, match="3 nodes"):
        expect_gaussian(lambda v: 1.0, 1, rule)
    with pytest.raises(ValueError, match="3 nodes"):
        expect_gaussian(lambda v: np.ones(2), 1, rule)


@st.composite
def moment_cases(draw):
    d = draw(st.integers(1, 3))
    L = draw(st.integers(1, 10))
    degrees = draw(st.lists(st.integers(0, 2 * L - 1), min_size=d, max_size=d))
    return d, L, degrees


@settings(max_examples=60, deadline=None)
@given(moment_cases())
def test_tensor_moments_are_exact(case):
    # E[prod v_i^a_i] = prod (a_i - 1)!!: rows of the (d, M) node array that
    # are not independent axes, or weights paired with the wrong nodes, show
    # as a wrong mixed moment.
    d, L, degrees = case
    rule = hermite_rule(L)
    powers = np.array(degrees)[:, None]
    got = expect_gaussian(lambda v: np.prod(v**powers, axis=0), d, rule)
    exact = math.prod(normal_moment(a) for a in degrees)
    if exact == 0.0:
        scale = expect_gaussian(lambda v: np.prod(np.abs(v) ** powers, axis=0), d, rule)
        assert abs(got) <= 1e-12 * scale
    else:
        assert got == pytest.approx(exact, rel=1e-10)


def test_extreme_node_is_computed_once():
    # the nodes are frozen, so the extreme one is computed on the first
    # read and every later read returns that same object
    for L in (1, 8, 64):
        rule = hermite_rule(L)
        assert rule.max_abs_node is rule.max_abs_node
        assert rule.max_abs_node == float(np.max(np.abs(rule.nodes)))
