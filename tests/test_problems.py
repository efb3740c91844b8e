"""Benchmark problem registry, closed forms, and consistency identities."""

import math

import numpy as np
import pytest

from fbsde_multistep import (
    BlackScholesParams,
    FbsdeProblem,
    UnknownProblemError,
    black_scholes_exact,
    normal_cdf,
    registry_get,
    registry_names,
)
from fbsde_multistep.problems import BS_PARAMS

ALL_NAMES = ("ex51", "ex52_bs", "ex53_2d", "ex54a", "ex54b", "ex55")


def normal_cdf_oracle(x: float) -> float:
    """Gauss-Legendre integration of the density from 0 to x, plus 1/2."""
    nodes, weights = np.polynomial.legendre.leggauss(80)
    t = 0.5 * x * (nodes + 1.0)
    w = 0.5 * x * weights
    return 0.5 + float(np.sum(w * np.exp(-(t**2) / 2.0))) / math.sqrt(2.0 * math.pi)


def test_registry_lists_all_problems():
    assert registry_names() == ALL_NAMES
    for name in ALL_NAMES:
        prob = registry_get(name)
        assert prob.name == name


def test_unknown_name_lists_valid_ones():
    with pytest.raises(UnknownProblemError, match="ex51"):
        registry_get("nope")


def test_coupling_flags():
    assert registry_get("ex51").coupled is False
    assert registry_get("ex52_bs").coupled is False
    assert registry_get("ex53_2d").coupled is False
    assert registry_get("ex54a").coupled is True
    assert registry_get("ex54b").coupled is True
    assert registry_get("ex55").coupled is True


def test_ex51_exact_value_at_origin_point():
    prob = registry_get("ex51")
    got = prob.exact_y(0.0, np.array([[1.0]]))[0, 0]
    assert got == pytest.approx(math.e / (1.0 + math.e), rel=1e-14)


def test_ex55_exact_z_at_origin_point():
    prob = registry_get("ex55")
    got = prob.exact_z(0.0, np.array([[1.5]]))[0, 0, 0]
    assert got == pytest.approx(math.cos(1.5) ** 2, rel=1e-14)


def probe_points(prob, spread=0.4, count=7):
    offsets = np.linspace(-spread, spread, count)
    return prob.x0[None, :] + offsets[:, None] * np.ones(prob.q)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_terminal_value_consistency(name):
    prob = registry_get(name)
    X = probe_points(prob)
    np.testing.assert_allclose(prob.exact_y(prob.T, X), prob.phi(X), atol=1e-10)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_terminal_gradient_consistency(name):
    # exact_z(T, x) must agree with grad_phi . sigma evaluated at the terminal
    # data, closing the Z-seeding loop even when sigma reads z.
    prob = registry_get(name)
    X = probe_points(prob)
    y = prob.phi(X)
    z = prob.exact_z(prob.T, X)
    sigma = np.asarray(prob.sigma(prob.T, X, y, z))
    grad = np.asarray(prob.grad_phi(X))
    np.testing.assert_allclose(np.einsum("npq,nqd->npd", grad, sigma), z, atol=1e-8)


def pde_residual(prob, t, x):
    """Generator relation residual with central differences at step 1e-5.

    The second-derivative differences run in extended precision so the
    1e-6 tolerance measures the identity, not float64 cancellation.
    """
    step = np.longdouble(1e-5)
    x = np.asarray(x, dtype=np.longdouble)[None, :]
    t = np.longdouble(t)
    u = lambda tt, xx: np.asarray(prob.exact_y(tt, xx), dtype=np.longdouble)
    y = u(t, x)
    z = prob.exact_z(t, np.asarray(x, dtype=float))
    xf = np.asarray(x, dtype=float)
    drift = np.asarray(prob.b(float(t), xf, np.asarray(y, float), z))[0]
    sigma = np.asarray(prob.sigma(float(t), xf, np.asarray(y, float), z))[0]
    diff = sigma @ sigma.T
    u_t = (u(t + step, x) - u(t - step, x))[0] / (2 * step)
    p, q = prob.p, prob.q
    grad = np.zeros((p, q), dtype=np.longdouble)
    hess = np.zeros((p, q, q), dtype=np.longdouble)
    for i in range(q):
        ei = np.zeros(q, dtype=np.longdouble)
        ei[i] = step
        up, um = u(t, x + ei)[0], u(t, x - ei)[0]
        grad[:, i] = (up - um) / (2 * step)
        hess[:, i, i] = (up - 2 * y[0] + um) / step**2
        for j in range(i + 1, q):
            ej = np.zeros(q, dtype=np.longdouble)
            ej[j] = step
            cross = (
                u(t, x + ei + ej)[0]
                - u(t, x + ei - ej)[0]
                - u(t, x - ei + ej)[0]
                + u(t, x - ei - ej)[0]
            ) / (4 * step**2)
            hess[:, i, j] = cross
            hess[:, j, i] = cross
    lin = u_t + grad @ drift + 0.5 * np.einsum("ij,pij->p", diff.astype(np.longdouble), hess)
    return np.asarray(lin, dtype=float) + np.asarray(prob.f(float(t), xf, np.asarray(y, float), z))[0]


@pytest.mark.parametrize("name", ["ex51", "ex53_2d", "ex54a", "ex54b", "ex55"])
def test_generator_consistency(name):
    prob = registry_get(name)
    for t in (0.2, 0.55, 0.9):
        for shift in (-0.3, 0.0, 0.25):
            x = prob.x0 + shift
            residual = pde_residual(prob, t, x)
            assert np.max(np.abs(residual)) < 1e-6


def test_decoupled_flag_is_probed():
    bad_b = lambda t, X, Y, Z: Y[:, :1]
    prob = registry_get("ex51")
    with pytest.raises(ValueError, match="decoupled"):
        FbsdeProblem(
            name="bad", q=1, p=1, d=1,
            b=bad_b, sigma=prob.sigma, f=prob.f, phi=prob.phi,
            T=1.0, x0=[1.0], coupled=False,
        )


def test_terminal_mismatch_is_probed():
    prob = registry_get("ex51")
    with pytest.raises(ValueError, match="phi"):
        FbsdeProblem(
            name="bad", q=1, p=1, d=1,
            b=prob.b, sigma=prob.sigma, f=prob.f,
            phi=lambda X: prob.phi(X) + 1.0,
            exact_y=prob.exact_y,
            T=1.0, x0=[1.0], coupled=False,
        )


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.96) == pytest.approx(normal_cdf_oracle(1.96), abs=1e-12)
    assert normal_cdf(-0.7) == pytest.approx(normal_cdf_oracle(-0.7), abs=1e-12)


def test_normal_cdf_symmetry():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-4, 4, 25)
    np.testing.assert_allclose(normal_cdf(-xs), 1.0 - normal_cdf(xs), atol=1e-14)


def test_black_scholes_d1_minus_d0_identity():
    # d1 - d0 = sigma * sqrt(T - t) shows up as Z/Y structure; check via two
    # evaluations bracketing the same discounted moneyness.
    params = BS_PARAMS
    t, S = 0.3, 117.0
    tau = params.T - t
    y, z = black_scholes_exact(params, t, S)
    # Recompute with the oracle CDF and explicit d0/d1.
    vol = params.sigma * math.sqrt(tau)
    d0 = math.log(S / (params.K * math.exp((params.dvd - params.r) * tau))) / vol - vol / 2
    d1 = d0 + vol
    y_ref = S * math.exp(-params.dvd * tau) * normal_cdf_oracle(d1) - params.K * math.exp(
        -params.r * tau
    ) * normal_cdf_oracle(d0)
    z_ref = S * math.exp(-params.dvd * tau) * normal_cdf_oracle(d1) * params.sigma
    assert y == pytest.approx(y_ref, abs=1e-10)
    assert z == pytest.approx(z_ref, abs=1e-10)
    assert d1 - d0 == pytest.approx(vol, rel=1e-14)


def test_black_scholes_deep_in_the_money_asymptote():
    params = BS_PARAMS
    t, S = 0.0, 1.0e6
    tau = params.T - t
    y, _ = black_scholes_exact(params, t, S)
    forward = S * math.exp(-params.dvd * tau) - params.K * math.exp(-params.r * tau)
    assert y == pytest.approx(forward, rel=1e-6)


def test_black_scholes_reference_at_paper_constants():
    # This pair anchors the error columns of the option benchmark.
    y0, z0 = black_scholes_exact(BS_PARAMS, 0.0, 100.0)
    vol = BS_PARAMS.sigma
    d0 = math.log(1.0 / math.exp(BS_PARAMS.dvd - BS_PARAMS.r)) / vol - vol / 2
    d1 = d0 + vol
    y_ref = 100.0 * math.exp(-BS_PARAMS.dvd) * normal_cdf_oracle(d1) - 100.0 * math.exp(
        -BS_PARAMS.r
    ) * normal_cdf_oracle(d0)
    z_ref = 100.0 * math.exp(-BS_PARAMS.dvd) * normal_cdf_oracle(d1) * vol
    assert y0 == pytest.approx(y_ref, abs=1e-12)
    assert z0 == pytest.approx(z_ref, abs=1e-12)


def test_black_scholes_monotone_in_spot():
    ladder = np.array([60.0, 80.0, 100.0, 120.0, 140.0])
    y, _ = black_scholes_exact(BS_PARAMS, 0.25, ladder)
    assert np.all(np.diff(y) > 0)


def test_black_scholes_rejects_bad_time_and_spot():
    with pytest.raises(ValueError):
        black_scholes_exact(BS_PARAMS, 1.0, 100.0)
    with pytest.raises(ValueError):
        black_scholes_exact(BS_PARAMS, 0.5, -1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        BlackScholesParams(b=0.05, sigma=0.0, r=0.03, dvd=0.04, K=100, S0=100, T=1)


def test_log_price_state_reports_spot_value():
    # x0 is the log spot; the exact value there equals the closed form at S0.
    prob = registry_get("ex52_bs")
    y = prob.exact_y(0.0, prob.x0[None, :])[0, 0]
    y_ref, _ = black_scholes_exact(BS_PARAMS, 0.0, BS_PARAMS.S0)
    assert y == pytest.approx(y_ref, rel=1e-13)


def test_normal_cdf_is_bitwise_the_per_element_erfc():
    # The array form maps math.erfc over the elements, so it must agree bit
    # for bit with the per-element loop it replaced.
    def reference(x):
        arr = np.asarray(x, dtype=float)
        out = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in arr.ravel()])
        out = out.reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    grid = np.linspace(-40.0, 40.0, 20001)
    np.testing.assert_array_equal(normal_cdf(grid), reference(grid))
    assert np.array_equal(normal_cdf(grid).view(np.int64), reference(grid).view(np.int64))
    square = grid[:400].reshape(20, 20)
    np.testing.assert_array_equal(normal_cdf(square), reference(square))
    for scalar in (0.0, -1.3, 2.5e-3, np.inf, -np.inf):
        got = normal_cdf(scalar)
        assert isinstance(got, float)
        assert got == reference(scalar)
    assert normal_cdf(np.inf) == 1.0 and normal_cdf(-np.inf) == 0.0
    assert normal_cdf(np.array(0.7)) == reference(np.array(0.7))
