"""Backward sweep: discretization policy, terminal seeding, and end-to-end runs."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_multistep import (
    ConfigError,
    FbsdeProblem,
    PicardDivergenceError,
    SolverConfig,
    discretize,
    grid_points,
    init_terminal,
    registry_get,
    solve,
)
from fbsde_multistep import solver
from fbsde_multistep.solver import BOOTSTRAP_MAX_SUBSTEPS, WORKERS_ENV_VAR

EX51 = registry_get("ex51")


def linear_problem(sigma=0.7, b=0.0, coupled=False):
    """f = 0, constant b and sigma, phi(x) = x: Y_t = X_t + b(T - t), Z_t = sigma."""
    return FbsdeProblem(
        name="linear", q=1, p=1, d=1,
        b=lambda t, X, Y, Z: np.full_like(X, b),
        sigma=lambda t, X, Y, Z, s=sigma: np.full((X.shape[0], 1, 1), s),
        f=lambda t, X, Y, Z: np.zeros((X.shape[0], 1)),
        phi=lambda X: X.copy(),
        grad_phi=lambda X: np.ones((X.shape[0], 1, 1)),
        exact_y=lambda t, X: X + b * (1.0 - t),
        exact_z=lambda t, X, s=sigma: np.full((X.shape[0], 1, 1), s),
        T=1.0, x0=[0.4], coupled=coupled,
    )


def test_resolve_discretization_balancing_example():
    config = SolverConfig(k=2, N=64, r=6)
    disc = discretize(EX51, config)
    assert disc.r == 6
    assert disc.h == pytest.approx((1.0 / 64.0) ** (3.0 / 7.0), rel=1e-12)
    assert disc.h == pytest.approx(0.1683, abs=5e-4)


def test_resolve_discretization_passthrough():
    config = SolverConfig(k=1, N=16, r=1, h=0.05)
    disc = discretize(EX51, config)
    assert (disc.h, disc.r) == (0.05, 1)


def test_resolve_discretization_auto_degree_brackets():
    assert discretize(EX51, SolverConfig(k=1, N=16)).r == 6
    assert discretize(EX51, SolverConfig(k=3, N=16)).r == 6
    assert discretize(EX51, SolverConfig(k=4, N=16)).r == 10
    assert discretize(EX51, SolverConfig(k=6, N=16)).r == 10
    assert discretize(EX51, SolverConfig(k=8, N=16)).r == 15


def test_auto_spacing_nonincreasing_in_N():
    hs = [discretize(EX51, SolverConfig(k=2, N=N)).h for N in (16, 32, 64)]
    assert hs[0] > hs[1] > hs[2]


def test_auto_spacing_uses_problem_scale():
    bs = registry_get("ex52_bs")
    h_bs = discretize(bs, SolverConfig(k=2, N=64)).h
    h_51 = discretize(EX51, SolverConfig(k=2, N=64)).h
    assert h_bs == pytest.approx(bs.grid_scale * h_51, rel=1e-12)


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(k=0, N=16)
    with pytest.raises(ConfigError):
        SolverConfig(k=3, N=3)
    with pytest.raises(ConfigError):
        SolverConfig(k=1, N=16, L=0)
    with pytest.raises(ConfigError):
        SolverConfig(k=1, N=16, eps0=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(k=1, N=16, terminal_mode="magic")


@pytest.mark.parametrize("k", range(1, 7))
def test_linear_problem_is_exact(k):
    # sum of weights zero + first-moment condition + the dW scaling inside
    # the Z-expectation make the affine case exact for every stable k.
    prob = linear_problem(sigma=0.7)
    result = solve(prob, SolverConfig(k=k, N=16))
    assert abs(result.y0[0] - 0.4) <= 1e-9
    assert abs(result.z0[0, 0] - 0.7) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    b=st.floats(-1.0, 1.0),
    sigma=st.floats(0.1, 1.5),
    k=st.integers(1, 6),
    coupled=st.booleans(),
)
def test_linear_problem_is_exact_for_any_constant_coefficients(b, sigma, k, coupled):
    # The affine case is exact on the single step path whether the level
    # takes one pass (decoupled) or runs the outer loop (coupled).
    problem = linear_problem(sigma=sigma, b=b, coupled=coupled)
    result = solve(problem, SolverConfig(k=k, N=16))
    assert abs(result.y0[0] - (0.4 + b)) <= 1e-9
    assert abs(result.z0[0, 0] - sigma) <= 1e-9


def test_table_values_ex51_k1():
    result = solve(EX51, SolverConfig(k=1, N=16))
    assert result.err_y[0] == pytest.approx(3.576e-3, rel=2.0)
    assert result.err_y[0] < 3 * 3.576e-3
    assert result.err_y[0] > 3.576e-3 / 3


def test_table_values_ex51_k4():
    result = solve(EX51, SolverConfig(k=4, N=64))
    assert result.err_y[0] < 10 * 6.795e-10
    assert result.err_y[0] > 6.795e-10 / 10


def test_exact_seeding_levels_match_closed_form():
    config = SolverConfig(k=3, N=16)
    disc = discretize(EX51, config)
    fields, seeds = init_terminal(EX51, config, disc)
    assert sorted(fields) == [13, 14, 15, 16]
    assert seeds == []
    X = disc.X
    level = 15
    t = level / 16.0
    np.testing.assert_allclose(
        fields[level].y_values.reshape(-1, 1), EX51.exact_y(t, X), atol=1e-12
    )
    # level N carries the payoff and grad_phi . sigma
    np.testing.assert_allclose(
        fields[16].y_values.reshape(-1, 1), EX51.phi(X), atol=1e-12
    )


def test_result_reports_its_discretization():
    config = SolverConfig(k=2, N=16)
    disc = solve(EX51, config).discretization
    dt = EX51.T / config.N
    assert disc.r == 6
    assert disc.h == EX51.grid_scale * dt ** ((config.k + 1) / (disc.r + 1))
    assert disc.rule.L >= config.L
    np.testing.assert_array_equal(disc.X, grid_points(disc.spec, disc.window))
    # x0 is grid index 0; the sweep computes the stencil block around it
    assert np.all(disc.window.lo <= -disc.r - 1)
    assert np.all(disc.window.hi >= disc.r + 1)


def test_terminal_z_is_sigma_for_linear_payoff():
    prob = linear_problem(sigma=1.3)
    result = solve(prob, SolverConfig(k=1, N=8))
    assert result.z0[0, 0] == pytest.approx(1.3, abs=1e-9)


def test_exact_mode_requires_exact_solution():
    prob = registry_get("ex51")
    stripped = FbsdeProblem(
        name="nosol", q=1, p=1, d=1,
        b=prob.b, sigma=prob.sigma, f=prob.f, phi=prob.phi, grad_phi=prob.grad_phi,
        T=1.0, x0=[1.0], coupled=False,
    )
    with pytest.raises(ConfigError, match="exact"):
        solve(stripped, SolverConfig(k=2, N=8, terminal_mode="exact"))


def test_bootstrap_requires_grad_phi():
    prob = registry_get("ex51")
    stripped = FbsdeProblem(
        name="nograd", q=1, p=1, d=1,
        b=prob.b, sigma=prob.sigma, f=prob.f, phi=prob.phi,
        exact_y=prob.exact_y, exact_z=prob.exact_z,
        T=1.0, x0=[1.0], coupled=False,
    )
    with pytest.raises(ConfigError, match="grad_phi"):
        solve(stripped, SolverConfig(k=2, N=8, terminal_mode="bootstrap"))


def test_bootstrap_close_to_exact_seeding():
    exact = solve(EX51, SolverConfig(k=2, N=16, terminal_mode="exact"))
    boot = solve(EX51, SolverConfig(k=2, N=16, terminal_mode="bootstrap"))
    # first-order seeding on a 4096-substep mesh stays within a small factor
    assert abs(boot.y0[0] - exact.y0[0]) < 20 * exact.err_y[0] + 1e-8


def test_coupled_flag_equivalence_on_decoupled_dynamics():
    base = solve(EX51, SolverConfig(k=2, N=16))
    flagged = FbsdeProblem(
        name="ex51_flagged", q=1, p=1, d=1,
        b=EX51.b, sigma=EX51.sigma, f=EX51.f, phi=EX51.phi, grad_phi=EX51.grad_phi,
        exact_y=EX51.exact_y, exact_z=EX51.exact_z,
        T=1.0, x0=[1.0], coupled=True,
    )
    coupled = solve(flagged, SolverConfig(k=2, N=16))
    assert abs(coupled.y0[0] - base.y0[0]) <= 1e-11
    assert abs(coupled.z0[0, 0] - base.z0[0, 0]) <= 1e-11


def test_determinism_bitwise_and_worker_env_var():
    first = solve(EX51, SolverConfig(k=2, N=16))
    second = solve(EX51, SolverConfig(k=2, N=16))
    assert first.y0[0] == second.y0[0]
    assert first.z0[0, 0] == second.z0[0, 0]
    old = os.environ.get(WORKERS_ENV_VAR)
    try:
        os.environ[WORKERS_ENV_VAR] = "4"
        third = solve(EX51, SolverConfig(k=2, N=16))
    finally:
        if old is None:
            os.environ.pop(WORKERS_ENV_VAR, None)
        else:
            os.environ[WORKERS_ENV_VAR] = old
    assert third.y0[0] == first.y0[0]


def test_worker_env_var_validation():
    old = os.environ.get(WORKERS_ENV_VAR)
    try:
        os.environ[WORKERS_ENV_VAR] = "zero"
        with pytest.raises(ConfigError):
            solve(EX51, SolverConfig(k=1, N=8))
    finally:
        if old is None:
            os.environ.pop(WORKERS_ENV_VAR, None)
        else:
            os.environ[WORKERS_ENV_VAR] = old


def test_picard_counts_nonincreasing_in_N():
    counts = [
        solve(EX51, SolverConfig(k=2, N=N)).picard_stats.max_iterations
        for N in (16, 32, 64)
    ]
    assert counts[0] >= counts[1] >= counts[2]


def _grid_b_calls(problem, config):
    """Solve, counting the calls of b on the whole grid (the largest row count)."""
    rows = []

    def b(t, X, Y, Z):
        rows.append(X.shape[0])
        return problem.b(t, X, Y, Z)

    counted = dataclasses.replace(problem, b=b)
    rows.clear()  # drop the decoupled-flag probes made by the record itself
    result = solve(counted, config)
    return rows.count(max(rows)), result


def test_decoupled_level_is_one_pass():
    config = SolverConfig(k=2, N=16)
    calls, result = _grid_b_calls(EX51, config)
    assert calls == config.N - config.k
    # picard_stats still reports implicit-Y iterations for decoupled problems
    assert result.picard_stats.max_iterations == 10


def test_one_gather_per_level_and_step(monkeypatch):
    # Each (level, j) is one expectation reading the history field in one
    # interpolation call; two more read (y0, z0) at x0.
    calls = {"expect": 0, "interp": 0}
    expect, interp = solver.expect_gaussian, solver.interpolate_values

    def counted_expect(*args):
        calls["expect"] += 1
        return expect(*args)

    def counted_interp(*args):
        calls["interp"] += 1
        return interp(*args)

    monkeypatch.setattr(solver, "expect_gaussian", counted_expect)
    monkeypatch.setattr(solver, "interpolate_values", counted_interp)
    config = SolverConfig(k=2, N=16)
    solve(EX51, config)
    assert calls == {"expect": (config.N - config.k) * config.k, "interp": 30}


def test_max_outer_bounds_sweep_and_bootstrap_levels():
    config = SolverConfig(k=2, N=8, max_outer=1, terminal_mode="bootstrap")
    calls, result = _grid_b_calls(registry_get("ex54a"), config)
    substeps = min(BOOTSTRAP_MAX_SUBSTEPS, config.N**config.k)
    assert calls == (config.N - config.k) + config.k * substeps
    assert result.picard_stats.max_iterations == 1


def _unconverged_warnings(caplog, problem, config):
    caplog.clear()
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        solve(problem, config)
    messages = [rec.getMessage() for rec in caplog.records]
    return [msg for msg in messages if "residual >= eps0" in msg]


def test_outer_iterates_accepted_unconverged_warn_once(caplog):
    warned = _unconverged_warnings(caplog, registry_get("ex54b"), SolverConfig(k=1, N=16))
    assert len(warned) == 1
    assert warned[0].startswith("13 of 15 sweep levels")
    ex54a = registry_get("ex54a")
    assert _unconverged_warnings(caplog, ex54a, SolverConfig(k=2, N=64)) == []
    assert _unconverged_warnings(caplog, EX51, SolverConfig(k=2, N=16)) == []


def test_bootstrap_sub_levels_accepted_unconverged_warn(caplog):
    config = SolverConfig(k=1, N=8, terminal_mode="bootstrap")
    warned = _unconverged_warnings(caplog, registry_get("ex54b"), config)
    assert len(warned) == 1
    assert "1 of 8 bootstrap sub-levels" in warned[0]


def test_coupled_outer_counts_small():
    res = solve(registry_get("ex55"), SolverConfig(k=2, N=16))
    assert res.picard_stats.max_iterations <= 6
    assert res.err_y is not None


def test_runtime_recorded():
    res = solve(EX51, SolverConfig(k=1, N=8))
    assert res.runtime > 0.0


def test_ex55_paper_neighborhood():
    res = solve(registry_get("ex55"), SolverConfig(k=3, N=64))
    # converged outer iterations land below the tabulated 6.973e-07
    assert res.err_y[0] < 6.973e-7 * 10


def _kink_warnings(caplog, problem, config):
    caplog.clear()
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        solve(problem, config)
    return [rec for rec in caplog.records if "kinked terminal" in rec.getMessage()]


def test_kink_warning_when_seed_levels_are_under_resolved(caplog):
    bs = registry_get("ex52_bs")
    # k=2, N=16: h = 0.2 * (1/16)^(3/7) = 0.061 > sigma * sqrt(dt) = 0.05
    assert len(_kink_warnings(caplog, bs, SolverConfig(k=2, N=16))) == 1
    # k=3, N=16: h = 0.2 * (1/16)^(4/7) = 0.041 resolves the 0.05 length
    assert _kink_warnings(caplog, bs, SolverConfig(k=3, N=16)) == []
    # an explicit spacing below the length silences it
    assert _kink_warnings(caplog, bs, SolverConfig(k=2, N=16, h=0.04)) == []


def test_kink_warning_silent_for_smooth_terminal_functions(caplog):
    for name in ("ex51", "ex54a"):
        assert _kink_warnings(caplog, registry_get(name), SolverConfig(k=2, N=16)) == []


def test_non_finite_f_fails_fast():
    calls = []

    def f(t, X, Y, Z):
        calls.append(X[len(X) // 2].copy())
        out = np.array(EX51.f(t, X, Y, Z), dtype=float)
        out[len(X) // 2] = np.nan
        return out

    config = SolverConfig(k=2, N=16)
    with pytest.raises(PicardDivergenceError) as info:
        solve(dataclasses.replace(EX51, f=f), config)
    assert len(calls) <= 2
    assert info.value.level == config.N - config.k - 1
    np.testing.assert_array_equal(info.value.point, calls[-1])


def _node_count(caplog, problem, config):
    caplog.clear()
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        L = discretize(problem, config).rule.L
    return L, [rec for rec in caplog.records if rec.levelname == "WARNING"]


def test_node_count_cap_warns_when_fan_stays_wide(caplog):
    # k=6, N=64: the fan needs more than the 64-node cap (64.2 cells > 0.85 * 64)
    L, warned = _node_count(caplog, EX51, SolverConfig(k=6, N=64))
    assert L == 64
    assert len(warned) == 1
    L, warned = _node_count(caplog, EX51, SolverConfig(k=3, N=64))
    assert L < 64
    assert warned == []
