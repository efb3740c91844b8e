"""Derivative weights, stability screening, and the derivative operator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_multistep import approx_derivative, compute_coeffs, stability_report
from fbsde_multistep.multistep import MAX_STEPS

# Exact scaled weights alpha_{k,i} * dt for the first six step counts.
KNOWN_WEIGHTS = {
    1: ("-1", "1"),
    2: ("-3/2", "2", "-1/2"),
    3: ("-11/6", "3", "-3/2", "1/3"),
    4: ("-25/12", "4", "-3", "4/3", "-1/4"),
    5: ("-137/60", "5", "-5", "10/3", "-5/4", "1/5"),
    6: ("-49/20", "6", "-15/2", "20/3", "-15/4", "6/5", "-1/6"),
}

# Largest characteristic-root modulus besides the common root at 1, to 50
# digits via mpmath polyroots.  The commonly tabulated 4-digit figures
# 0.3333, 0.4264, 0.5608, 0.7087, 0.8633 and 1.0222 are truncations of
# these; the k=8 figure usually printed, 1.1839, is the rounding of
# 1.18386965..., whose truncation is 1.1838.
KNOWN_MAX_ROOTS = {
    2: 0.333333333333,
    3: 0.426401432711,
    4: 0.560861516093,
    5: 0.708710816266,
    6: 0.863380267870,
    7: 1.022218244360,
    8: 1.183869654210,
}


@pytest.mark.parametrize("k", sorted(KNOWN_WEIGHTS))
def test_weights_match_known_rationals_exactly(k):
    coeffs = compute_coeffs(k)
    expected = tuple(Fraction(s) for s in KNOWN_WEIGHTS[k])
    assert coeffs.scaled_alphas == expected


@pytest.mark.parametrize("k", range(1, 9))
def test_moment_conditions_hold_exactly(k):
    scaled = compute_coeffs(k).scaled_alphas
    assert len(scaled) == k + 1
    assert sum(scaled) == 0
    assert sum(i * a for i, a in enumerate(scaled)) == 1
    for j in range(2, k + 1):
        assert sum(Fraction(i) ** j * a for i, a in enumerate(scaled)) == 0


@pytest.mark.parametrize("k", [0, 9, -1])
def test_step_count_out_of_range(k):
    with pytest.raises(ValueError):
        compute_coeffs(k)


def test_non_integer_step_count_rejected():
    with pytest.raises(ValueError):
        compute_coeffs(2.0)


@pytest.mark.parametrize("k, expected", sorted(KNOWN_MAX_ROOTS.items()))
def test_max_nontrivial_root(k, expected):
    report = stability_report(compute_coeffs(k))
    assert report.max_abs_nontrivial == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("k", range(1, 9))
def test_unity_is_always_a_root(k):
    report = stability_report(compute_coeffs(k))
    assert min(abs(root - 1.0) for root in report.roots) < 1e-9


@pytest.mark.parametrize("k", range(1, 9))
def test_root_condition_cutoff(k):
    assert stability_report(compute_coeffs(k)).stable is (k <= 6)


def test_k1_roots():
    report = stability_report(compute_coeffs(1))
    assert len(report.roots) == 1
    assert report.roots[0] == pytest.approx(1.0)
    assert report.max_abs_nontrivial == 0.0


def test_constant_samples_give_zero_derivative():
    for k in range(1, 9):
        coeffs = compute_coeffs(k)
        assert approx_derivative([3.7] * (k + 1), coeffs, 0.1) == pytest.approx(0.0, abs=1e-12)


def test_linear_samples_give_unit_slope():
    for k in range(1, 9):
        coeffs = compute_coeffs(k)
        dt = 0.1
        samples = [i * dt for i in range(k + 1)]
        assert approx_derivative(samples, coeffs, dt) == pytest.approx(1.0, abs=1e-12)


def test_exponential_error_shrinks_second_order_for_k2():
    # Direct evaluation of the formula on u = exp at both step sizes: the
    # k=2 truncation error contracts by ~2^2 when dt halves.
    coeffs = compute_coeffs(2)

    def err(dt):
        samples = [np.exp(i * dt) for i in range(3)]
        return abs(approx_derivative(samples, coeffs, dt) - 1.0)

    ratio = err(0.01) / err(0.005)
    assert 3.5 < ratio < 4.5


@pytest.mark.parametrize("k", range(1, 9))
def test_polynomial_exactness(k):
    # Random polynomials of degree <= k are differentiated exactly at t0.
    rng = np.random.default_rng(1234 + k)
    coeffs = compute_coeffs(k)
    dt = 0.07
    t0 = 0.3
    for _ in range(5):
        poly = rng.uniform(-1.0, 1.0, size=k + 1)
        samples = [np.polyval(poly, t0 + i * dt) for i in range(k + 1)]
        exact = np.polyval(np.polyder(poly), t0)
        got = approx_derivative(samples, coeffs, dt)
        assert got == pytest.approx(exact, abs=1e-12 + 1e-12 * abs(exact))


def test_sample_length_mismatch():
    coeffs = compute_coeffs(3)
    with pytest.raises(ValueError):
        approx_derivative([1.0, 2.0], coeffs, 0.1)


def test_nonpositive_dt_rejected():
    coeffs = compute_coeffs(1)
    with pytest.raises(ValueError):
        approx_derivative([0.0, 1.0], coeffs, 0.0)
    with pytest.raises(ValueError):
        coeffs.alphas(-1.0)


def test_alphas_scale_with_dt():
    coeffs = compute_coeffs(2)
    np.testing.assert_allclose(coeffs.alphas(0.5), [-3.0, 4.0, -1.0])


@pytest.mark.parametrize("k", range(1, MAX_STEPS + 1))
@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.fractions(-100, 100, max_denominator=50), min_size=MAX_STEPS + 1,
                    max_size=MAX_STEPS + 1),
    t0=st.fractions(-4, 4, max_denominator=16),
    dt=st.fractions(Fraction(1, 1000), 2, max_denominator=1000),
)
def test_weights_differentiate_polynomials_up_to_degree_k_exactly(k, coeffs, t0, dt):
    # sum_i alpha_{k,i} p(t0 + i dt) = p'(t0) in exact rational arithmetic
    # for every p of degree <= k, and t^(k+1) is the first monomial missed
    alphas = compute_coeffs(k).scaled_alphas
    c = coeffs[: k + 1]

    def poly(t):
        return sum(ci * t**j for j, ci in enumerate(c))

    derivative = sum(j * ci * t0 ** (j - 1) for j, ci in enumerate(c) if j)
    assert sum(a * poly(t0 + i * dt) for i, a in enumerate(alphas)) / dt == derivative
    assert sum(a * Fraction(i) ** (k + 1) for i, a in enumerate(alphas)) != 0
