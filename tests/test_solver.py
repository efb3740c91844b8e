"""Backward sweep: discretization policy, terminal seeding, and end-to-end runs."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_multistep import (
    ConfigError,
    FbsdeProblem,
    OutOfDomainError,
    PicardDivergenceError,
    SolverConfig,
    discretize,
    expect_gaussian,
    fit_rate,
    grid_points,
    init_terminal,
    interpolate_values,
    neighbor_set,
    registry_get,
    solve,
)
from fbsde_multistep import solver
from fbsde_multistep.solver import WORKERS_ENV_VAR

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
    # ex51 is smooth and 1-d, so k <= 6 takes the degree of least predicted
    # fan work; k = 8 is outside the scan and keeps its bracket
    assert discretize(EX51, SolverConfig(k=1, N=16)).r == 6
    assert discretize(EX51, SolverConfig(k=3, N=16)).r == 8
    assert discretize(EX51, SolverConfig(k=4, N=16)).r == 12
    assert discretize(EX51, SolverConfig(k=6, N=16)).r == 14
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
    with pytest.raises(ConfigError, match=r"\[1, 8\]"):
        SolverConfig(k=9, N=16)
    with pytest.raises(ConfigError):
        SolverConfig(k=3, N=3)
    with pytest.raises(ConfigError):
        SolverConfig(k=1, N=16, L=0)
    with pytest.raises(ConfigError, match="interpolation degree"):
        SolverConfig(k=1, N=16, r=0)
    for h in (0.0, -0.1):
        with pytest.raises(ConfigError, match="grid spacing"):
            SolverConfig(k=1, N=16, h=h)
    with pytest.raises(ConfigError):
        SolverConfig(k=1, N=16, eps0=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(k=1, N=16, terminal_mode="magic")
    # the outer-pass budget is the module constant solver.MAX_OUTER, not a field
    assert len(dataclasses.fields(SolverConfig)) == 7
    with pytest.raises(TypeError):
        SolverConfig(k=2, N=8, max_outer=6)


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
    fields, chain = init_terminal(EX51, config, disc)
    assert sorted(fields) == [13, 14, 15, 16]
    assert chain is None
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


_SIG_2D = np.diag([0.3, 0.2])


def _exp_y1(t, X):
    return np.exp(X[:, 0] + X[:, 1] + 0.5 * (0.09 + 0.04) * (1.0 - t))


def heat_system_2d():
    """q = p = d = 2, b = 0, sigma = diag(0.3, 0.2), f = 0, in closed form.

    Y1 = exp(x1 + x2 + (0.09 + 0.04)(T - t)/2) with Z1 = Y1 (0.3, 0.2), and
    Y2 = x1 x2 with Z2 = (0.3 x2, 0.2 x1), which the scheme reproduces
    exactly; distinct entries of Z check its (p, d) order through packing.
    """
    def exact_z(t, X):
        z1 = _exp_y1(t, X)[:, None] * _SIG_2D.diagonal()
        return np.stack([z1, np.stack([0.3 * X[:, 1], 0.2 * X[:, 0]], 1)], 1)

    def grad_phi(X):
        e = _exp_y1(1.0, X)
        return np.stack([np.stack([e, e], 1), np.stack([X[:, 1], X[:, 0]], 1)], 1)

    return FbsdeProblem(
        name="heat_system_2d", q=2, p=2, d=2,
        b=lambda t, X, Y, Z: np.zeros_like(X),
        sigma=lambda t, X, Y, Z: np.broadcast_to(_SIG_2D, (X.shape[0], 2, 2)).copy(),
        f=lambda t, X, Y, Z: np.zeros((X.shape[0], 2)),
        phi=lambda X: np.stack([_exp_y1(1.0, X), X[:, 0] * X[:, 1]], 1),
        grad_phi=grad_phi,
        exact_y=lambda t, X: np.stack([_exp_y1(t, X), X[:, 0] * X[:, 1]], 1),
        exact_z=exact_z,
        T=1.0, x0=[0.4, -0.2], coupled=False,
    )


@pytest.mark.parametrize(
    "mode, err_y1, err_z1", [("exact", 1.80e-6, 2.00e-5), ("bootstrap", 2.04e-6, 2.01e-5)]
)
def test_system_with_d_2_keeps_the_z_layout(mode, err_y1, err_z1):
    # Component 2 is a polynomial the scheme reproduces, so any mix-up of
    # Z's (p, d) entries between packing and unpacking shows as an error
    # there; component 1 keeps its discretization error.
    result = solve(heat_system_2d(), SolverConfig(k=2, N=8, terminal_mode=mode))
    assert result.z0.shape == (2, 2)
    assert result.err_y[1] < 1e-12 and np.all(result.err_z[1] < 1e-12)
    assert result.err_y[0] < 3 * err_y1 and np.max(result.err_z[0]) < 3 * err_z1


def test_stored_levels_are_read_only_rows():
    # the terminal level, the bootstrap seeds and every sub-level the step
    # returns are frozen [y | z] rows: a warm start that views one cannot
    # write into it
    config = SolverConfig(k=2, N=8, terminal_mode="bootstrap")
    disc = discretize(EX51, config)
    fields, chain = init_terminal(EX51, config, disc)
    field = chain.step(0, 0.5, 0.1, {1: fields[config.N]})
    for f in [*fields.values(), field]:
        assert f.values.shape == disc.window.extents + (2,)
        assert not f.values.flags.writeable


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


def test_terminal_z_fixed_point_matches_closed_form():
    # ex55's sigma reads z, so level N's Z is resolved by the fixed point
    ex55 = registry_get("ex55")
    config = SolverConfig(k=2, N=8)
    disc = discretize(ex55, config)
    fields, _ = init_terminal(ex55, config, disc)
    z_terminal = fields[config.N].z_values.reshape(-1, ex55.p, ex55.d)
    np.testing.assert_allclose(z_terminal, ex55.exact_z(ex55.T, disc.X), rtol=0, atol=1e-10)


def _terminal_probe_sigma_calls(problem):
    """Run the terminal (Y, Z) probe on a few points, counting sigma calls."""
    calls = []

    def sigma(t, X, Y, Z):
        calls.append(t)
        return problem.sigma(t, X, Y, Z)

    counted = dataclasses.replace(problem, sigma=sigma)
    calls.clear()  # drop the decoupled-flag probes made by the record itself
    X = problem.x0[None, :] + np.linspace(-0.3, 0.3, 7)[:, None]
    _, Z = solver._terminal_yz_probe(counted, X, 1e-11)
    return len(calls), Z


def test_decoupled_terminal_z_takes_one_sigma_call():
    # sigma of a decoupled problem ignores (y, z), so the first image of the
    # Z = grad_phi . sigma fixed point is its limit; flagged coupled, the
    # same problem iterates once more to see Z not move, bitwise
    calls, Z = _terminal_probe_sigma_calls(EX51)
    iterated_calls, iterated = _terminal_probe_sigma_calls(
        dataclasses.replace(EX51, coupled=True)
    )
    assert (calls, iterated_calls) == (1, 2)
    np.testing.assert_array_equal(Z, iterated)
    ex55_calls, _ = _terminal_probe_sigma_calls(registry_get("ex55"))
    assert ex55_calls > 2


def test_terminal_z_fixed_point_divergence_raises():
    # Z = grad_phi . sigma = 2 Z + 1 repels its fixed point Z = -1
    prob = FbsdeProblem(
        name="expansive", q=1, p=1, d=1,
        b=lambda t, X, Y, Z: np.zeros_like(X),
        sigma=lambda t, X, Y, Z: 2.0 * Z + 1.0,
        f=lambda t, X, Y, Z: np.zeros((X.shape[0], 1)),
        phi=lambda X: X.copy(),
        grad_phi=lambda X: np.ones((X.shape[0], 1, 1)),
        T=1.0, x0=[0.0], coupled=True,
    )
    with pytest.raises(PicardDivergenceError, match="terminal Z fixed point"):
        solve(prob, SolverConfig(k=1, N=4, terminal_mode="bootstrap"))


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
    # without exact_z either, no mode can form the terminal Z level
    no_z = dataclasses.replace(stripped, exact_z=None)
    with pytest.raises(ConfigError, match="neither grad_phi nor exact_z"):
        solve(no_z, SolverConfig(k=2, N=8))


def test_bootstrap_close_to_exact_seeding():
    exact = solve(EX51, SolverConfig(k=2, N=16, terminal_mode="exact"))
    boot = solve(EX51, SolverConfig(k=2, N=16, terminal_mode="bootstrap"))
    # Richardson-extrapolated chains of 16 and 8 sub-steps over [t_{N-2}, T]
    # seed as well as the closed form: y0 moves by 4.4e-8, under 1e-3 of the
    # scheme's own error
    assert abs(boot.y0[0] - exact.y0[0]) < 1e-3 * exact.err_y[0]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("N", [8, 16])
def test_bootstrap_errors_track_exact_seeding(k, N):
    # second-order seeds keep both errors within a factor 2 of exact
    # seeding (the largest ratio, k=4 N=8 err_y, is 1.64)
    exact = solve(EX51, SolverConfig(k=k, N=N, terminal_mode="exact"))
    boot = solve(EX51, SolverConfig(k=k, N=N, terminal_mode="bootstrap"))
    assert boot.err_y[0] < 2.0 * exact.err_y[0]
    assert boot.err_z[0, 0] < 2.0 * exact.err_z[0, 0]


@pytest.mark.parametrize("name, N", [("ex54a", 64), ("ex55", 32)])
def test_coupled_bootstrap_tracks_exact_seeding(name, N):
    # ex54a k2 N64 once stalled next to the far-field band ("stuck at level
    # 18"); per-row Broyden restarts carry it through, at err_y 1.222663e-4
    # against exact seeding's 1.222645e-4
    problem = registry_get(name)
    exact = solve(problem, SolverConfig(k=2, N=N))
    boot = solve(problem, SolverConfig(k=2, N=N, terminal_mode="bootstrap"))
    assert abs(boot.err_y[0] - exact.err_y[0]) < 0.01 * exact.err_y[0]


def test_coupled_levels_stop_at_a_fraction_of_the_local_error(caplog):
    # the cubic predictor and the max(eps0, 0.01 dt^3) exit end every
    # level of ex55 k2 N32 before the budget, in 2.2 passes on average
    config = SolverConfig(k=2, N=32)
    assert _unconverged_warnings(caplog, registry_get("ex55"), config) == []
    stats = solve(registry_get("ex55"), config).picard_stats
    assert stats.max_iterations < solver.MAX_OUTER
    assert stats.mean_iterations <= 3.5


def test_broyden_restarts_rows_whose_residual_grew():
    # row 0 contracts towards its fixed point, row 1's residual grows on the
    # second pass: only row 1 drops back to the plain step -I
    state = solver._BroydenState(2, 2)
    v0 = np.array([[1.0, 1.0], [1.0, 1.0]])
    g0 = np.array([[0.5, 0.8], [0.9, 0.9]])
    v1 = state.step(v0, g0)
    # the first step is plain iteration
    np.testing.assert_allclose(v1, g0, rtol=0, atol=1e-15)
    g1 = np.array([[0.3, 0.7], [1.5, 0.2]])
    v2 = state.step(v1, g1)
    np.testing.assert_array_equal(state.inv_jac[1], -np.eye(2))
    assert not np.allclose(state.inv_jac[0], -np.eye(2))
    np.testing.assert_allclose(v2[1], g1[1], rtol=0, atol=1e-15)
    state.new_level()
    assert state.residual is None and not np.allclose(state.inv_jac[0], -np.eye(2))


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
        with pytest.raises(ConfigError, match="must be an integer"):
            solve(EX51, SolverConfig(k=1, N=8))
        os.environ[WORKERS_ENV_VAR] = "0"
        with pytest.raises(ConfigError, match="must be >= 1"):
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
    # (counted over the scheme-computed rows; the copy band does not iterate),
    # started from the cubic extrapolation of the newest four levels
    assert result.picard_stats.max_iterations == 7


def test_window_is_sized_from_the_diffusion_tail():
    # k=3, N=64 at r=6 raises the rule well above L=8; the window follows
    # the configured rule's tail, not the raised rule's extreme node
    disc = discretize(EX51, SolverConfig(k=3, N=64, r=6))
    assert disc.rule.L > SolverConfig(k=3, N=64).L
    assert disc.X.shape[0] == 215


def test_wider_envelope_leaves_the_answer_unchanged(monkeypatch):
    config = SolverConfig(k=3, N=32)
    base = solve(EX51, config)
    monkeypatch.setattr(solver, "ENVELOPE_FACTOR", 2.0 * solver.ENVELOPE_FACTOR)
    wide = solve(EX51, config)
    assert wide.discretization.X.shape[0] > base.discretization.X.shape[0]
    np.testing.assert_allclose(wide.y0, base.y0, rtol=1e-12, atol=0)
    np.testing.assert_allclose(wide.z0, base.z0, rtol=1e-12, atol=0)


def test_scheme_runs_on_safe_rows_only(monkeypatch):
    # every call of f in the sweep sees exactly the live rows whose fan
    # stays in the hull; the copy band and the dead rows are never iterated
    events = []
    safe_mask, step = solver._LevelWorkspace._safe_mask, solver._LevelWorkspace.step

    def recorded_mask(self, *args):
        mask = safe_mask(self, *args)
        events.append(("mask", mask))
        return mask

    def recorded_step(self, level, *args):
        events.append(("level", level))
        return step(self, level, *args)

    def f(t, X, Y, Z):
        events.append(("f", X.copy()))
        return EX51.f(t, X, Y, Z)

    monkeypatch.setattr(solver._LevelWorkspace, "_safe_mask", recorded_mask)
    monkeypatch.setattr(solver._LevelWorkspace, "step", recorded_step)
    config = SolverConfig(k=3, N=16)
    disc = solve(dataclasses.replace(EX51, f=f), config).discretization
    n = disc.X.shape[0]
    kinds = [kind for kind, _ in events]
    assert kinds.count("mask") == kinds.count("level") == config.N - config.k
    assert kinds[:2] == ["level", "mask"]
    pruned = 0
    for kind, value in events:
        if kind == "level":
            live = disc.first_live <= value
        elif kind == "mask":
            mask = value
            assert 0 < mask.sum() < n
        else:
            np.testing.assert_array_equal(value, disc.X[mask & live])
            pruned += np.any(mask & ~live)
    assert pruned > 0  # some levels run fewer rows than the hull allows


def _probed_maxima(problem, config):
    """Discretize, returning the record and the largest |b| and sigma L1 row norm of every probe call."""
    seen = {"b": 0.0, "s": 0.0}

    def b(t, X, Y, Z):
        out = problem.b(t, X, Y, Z)
        seen["b"] = np.maximum(seen["b"], np.max(np.abs(out), axis=0))
        return out

    def sigma(t, X, Y, Z):
        out = problem.sigma(t, X, Y, Z)
        seen["s"] = np.maximum(seen["s"], np.max(np.abs(out).sum(axis=2), axis=0))
        return out

    probed = dataclasses.replace(problem, b=b, sigma=sigma)
    seen.update(b=0.0, s=0.0)  # drop the decoupled-flag probes made by the record itself
    disc = discretize(probed, config)
    return disc, seen["b"], seen["s"]


@pytest.mark.parametrize("name, k, N", [("ex51", 3, 16), ("ex52_bs", 2, 16), ("ex53_2d", 2, 8), ("ex55", 2, 16)])
def test_record_bounds_dominate_the_probed_coefficients(name, k, N):
    # the window and the live boxes are sized from BOUND_INFLATION times the
    # largest |b| and sigma row norm that the coefficient probe met
    problem = registry_get(name)
    disc, b_max, s_max = _probed_maxima(problem, SolverConfig(k=k, N=N))
    assert disc.b_bound.shape == disc.s_bound.shape == (problem.q,)
    np.testing.assert_array_equal(disc.b_bound, solver.BOUND_INFLATION * b_max)
    np.testing.assert_array_equal(disc.s_bound, solver.BOUND_INFLATION * s_max)
    assert np.all(disc.b_bound >= b_max) and np.all(disc.s_bound > s_max)


@pytest.mark.parametrize(
    "name, config",
    [("ex51", SolverConfig(k=3, N=16)), ("ex51", SolverConfig(k=2, N=32, r=5)),
     ("ex53_2d", SolverConfig(k=2, N=8)), ("ex55", SolverConfig(k=2, N=16, r=7))],
    ids=["ex51-r6", "ex51-r5", "ex53_2d", "ex55-r7"],
)
def test_first_live_level_grows_outward_from_the_answers_stencil(name, config):
    # Level 0 is live exactly on the stencil the answer's interpolation at
    # x0 reads (odd r included: the stencil and the live box are
    # half-open), and a point farther from x0 on every axis never turns
    # live at a lower level than a nearer one
    problem = registry_get(name)
    disc = discretize(problem, config)
    first = disc.first_live
    assert first.shape == (disc.X.shape[0],) and first.min() == 0
    stencil = neighbor_set(disc.spec, disc.window, problem.x0, disc.r) - disc.window.lo
    flat = np.ravel_multi_index(tuple(stencil.T), disc.window.extents)
    np.testing.assert_array_equal(np.flatnonzero(first == 0), np.sort(flat))
    offsets = np.rint((disc.X - problem.x0) / disc.h).astype(int)
    distance = np.abs(offsets).max(axis=1)
    for near in range(distance.max()):
        assert first[distance == near].max() <= first[distance == near + 1].min()
    # the window's far rows are dead on the lowest levels
    assert first.max() > 1


def _solve_with_dead_rows(monkeypatch, problem, config, fill=None):
    """Solve; with ``fill``, every dead row of each stored sweep level is overwritten by it.

    Returns the result and the dead-row count over all sweep levels.
    """
    step = solver._LevelWorkspace.step
    dead = [0]

    def overwriting(self, level, *args):
        field = step(self, level, *args)
        live = self._live_rows(level)
        if live is None:
            return field
        dead[0] += int(np.count_nonzero(~live))
        if fill is None:
            return field
        rows = field.values.reshape(len(live), -1).copy()
        rows[~live] = fill
        return self.disc.field(level, rows)

    with monkeypatch.context() as patch:
        patch.setattr(solver._LevelWorkspace, "step", overwriting)
        result = solve(problem, config)
    return result, dead[0]


DEAD_ROW_CELLS = [
    ("ex51", SolverConfig(k=3, N=16)),
    ("ex53_2d", SolverConfig(k=2, N=8)),
    ("ex54a", SolverConfig(k=2, N=32)),
    ("ex55", SolverConfig(k=3, N=128)),
    ("ex55", SolverConfig(k=2, N=16, terminal_mode="bootstrap")),
]


@pytest.mark.parametrize(
    "name, config", DEAD_ROW_CELLS, ids=[f"{n}-k{c.k}-N{c.N}-{c.terminal_mode}" for n, c in DEAD_ROW_CELLS]
)
def test_no_level_reads_a_dead_row(monkeypatch, name, config):
    # the live boxes are the scheme's exact domain of dependence: a garbage
    # value in every row outside them moves no answer bit, and no pass count
    problem = registry_get(name)
    base, dead = _solve_with_dead_rows(monkeypatch, problem, config)
    poisoned, _ = _solve_with_dead_rows(monkeypatch, problem, config, fill=123.0)
    assert dead > 0
    _assert_same_result(base, poisoned)


def test_dead_rows_stay_out_of_the_residual(monkeypatch):
    # Dead rows are pinned to the level above from the first pass, so every
    # Broyden step of a coupled sweep level sees a zero residual there; a
    # warm-started dead row would put the O(dt) move between levels into the
    # first pass's residual and fake a fast contraction (on ex55 k3 N128
    # that moved err_z by about 50 %)
    broyden, step = solver._BroydenState.step, solver._LevelWorkspace.step
    current, checked = {}, []

    def recorded_step(self, level, *args):
        current["dead"] = None if self._live_rows(level) is None else ~self._live_rows(level)
        return step(self, level, *args)

    def checked_broyden(self, v, g):
        dead = current["dead"]
        if dead is not None and dead.any():
            np.testing.assert_array_equal(g[dead], v[dead])
            checked.append(int(dead.sum()))
        return broyden(self, v, g)

    monkeypatch.setattr(solver._LevelWorkspace, "step", recorded_step)
    monkeypatch.setattr(solver._BroydenState, "step", checked_broyden)
    solve(registry_get("ex55"), SolverConfig(k=3, N=32))
    assert len(checked) > 5


def _shrunk_bounds(factor):
    """A discretize whose record's bounds, and the live boxes they grow, are ``factor`` times the probed ones."""

    def shrunk(problem, config):
        disc = discretize(problem, config)
        b_bound, s_bound = factor * disc.b_bound, factor * disc.s_bound
        cone = solver._cone_cells(
            b_bound, s_bound, problem.T / config.N, disc.rule.max_abs_node, disc.spec.h, disc.r
        )
        first = solver._first_live_levels(disc.window, disc.r, cone)
        return dataclasses.replace(
            disc, b_bound=b_bound, s_bound=s_bound, cone=cone, first_live=first
        )

    return shrunk


def _escape_warnings(caplog):
    return [r.getMessage() for r in caplog.records if "passed the live box" in r.getMessage()]


def test_fans_past_a_live_box_leave_the_scheme_and_warn(monkeypatch, caplog):
    # Under bounds below the coefficients the sweep meets, some live rows'
    # fans pass the live box of a level they read: they take band values,
    # the solve warns once with their count, and still no level reads a
    # dead row.  Under the probed bounds nothing escapes.
    config = SolverConfig(k=3, N=16)
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        solve(EX51, config)
    assert _escape_warnings(caplog) == []
    caplog.clear()
    monkeypatch.setattr(solver, "discretize", _shrunk_bounds(0.3))
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        base, dead = _solve_with_dead_rows(monkeypatch, EX51, config)
    (warned,) = _escape_warnings(caplog)
    count = int(warned.split()[0])
    assert count > 0 and dead > 0
    assert "b_bound=[" in warned and "s_bound=[" in warned
    poisoned, _ = _solve_with_dead_rows(monkeypatch, EX51, config, fill=123.0)
    _assert_same_result(base, poisoned)


def test_safe_row_fans_stay_inside_the_hull(monkeypatch):
    # a coupled level's later passes re-evaluate b and sigma; every fan the
    # scheme reads, on every pass of sweep and bootstrap levels, must still
    # lie inside the stored hull
    passes = []
    expectations = solver._LevelWorkspace._expectations

    def checked(self, dt, X, b_n, sig_n, history, plans):
        disc = self.disc
        v = math.sqrt(2.0) * disc.rule.nodes
        tol = 1e-12 * disc.h
        for j in range(1, self.k + 1):
            Xq = (X + b_n * (j * dt))[:, :, None] + sig_n[:, :, 0, None] * (
                math.sqrt(j * dt) * v
            )
            assert np.all(Xq >= disc.lo[None, :, None] - tol)
            assert np.all(Xq <= disc.hi[None, :, None] + tol)
        passes.append(X.shape[0])
        return expectations(self, dt, X, b_n, sig_n, history, plans)

    monkeypatch.setattr(solver._LevelWorkspace, "_expectations", checked)
    config = SolverConfig(k=1, N=8, terminal_mode="bootstrap")
    ex54b = registry_get("ex54b")
    assert ex54b.d == 1
    solve(ex54b, config)
    # several passes per level, and some pass moved rows into the band
    assert len(passes) > 2 * config.N
    assert len(set(passes)) > 1


def test_fan_past_the_hull_fails_loudly(monkeypatch):
    # the safe mask is the one hull guard: a fan it lets through past the
    # hull must reach the interpolator's domain check, not be clamped onto
    # the hull edge and solved silently
    def all_safe(self, level, dt, b_n, sig_n):
        return np.ones(self.disc.X.shape[0], dtype=bool)

    monkeypatch.setattr(solver._LevelWorkspace, "_safe_mask", all_safe)
    with pytest.raises(OutOfDomainError):
        solve(EX51, SolverConfig(k=2, N=8))


def test_fan_past_the_hull_from_the_answers_stencil_fails_typed():
    # sigma is 0.2 at the probe times 0, T/2 and T but 5.2 at T/8: the
    # window sized from the probed bounds cannot hold the fans of the
    # answer's own stencil, which fails typed at its level and point, and
    # the study records the cell as DIVERGED instead of stopping
    from fbsde_multistep import bench

    spiky = dataclasses.replace(
        EX51, name="spiky",
        sigma=lambda t, X, Y, Z: (0.2 + 5 * np.sin(4 * np.pi * t) ** 2) * np.ones((X.shape[0], 1, 1)),
    )
    with pytest.raises(OutOfDomainError, match=r"level \d+, point \[") as info:
        solve(spiky, SolverConfig(k=2, N=16))
    assert "b_bound=[" in str(info.value) and "s_bound=[0.3]" in str(info.value)
    cell = bench._run_cell(spiky, 2, 16, bench.RunSpec(problem="ex51", ks=(2,), Ns=(16,)))
    assert cell.diverged and cell.err_y is None


def test_one_gather_per_level_and_step(monkeypatch):
    # Each level's one pass is one expectation for all k fans, which reads
    # each history field in one interpolation call; one more call reads the
    # packed (y0, z0) row at x0.
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
    assert calls == {"expect": config.N - config.k, "interp": 29}


def test_max_outer_bounds_sweep_and_bootstrap_levels(monkeypatch):
    monkeypatch.setattr(solver, "MAX_OUTER", 1)
    config = SolverConfig(k=2, N=8, terminal_mode="bootstrap")
    calls, result = _grid_b_calls(registry_get("ex54a"), config)
    substeps = solver._bootstrap_substeps(config.N, config.k)
    # one b call per sweep level and per sub-level of the fine and the
    # coarse seeding chain
    assert calls == (config.N - config.k) + substeps + substeps // 2
    assert calls == 6 + 24
    assert result.picard_stats.max_iterations == 1


@pytest.mark.parametrize("k, N, cap, substeps", [(2, 8, None, 16), (3, 6, 10, 6)])
def test_bootstrap_chain_lands_on_seed_levels(monkeypatch, k, N, cap, substeps):
    # A fine k=1 chain of M sub-steps and a coarse one of M/2 run over
    # [t_{N-k}, T] through one workspace, fine first; each lands a sub-level
    # on every seed time t_{N-i}, and seed N-i is 2*fine - coarse.  A cap
    # that 2k does not divide rounds M down to a multiple of 2k.
    if cap is not None:
        monkeypatch.setattr(solver, "BOOTSTRAP_MAX_SUBSTEPS", cap)
    config = SolverConfig(k=k, N=N, terminal_mode="bootstrap")
    assert solver._bootstrap_substeps(N, k) == substeps
    calls, _ = _grid_b_calls(EX51, config)
    assert calls == (N - k) + substeps + substeps // 2
    disc = discretize(EX51, config)
    fields, chain = init_terminal(EX51, config, disc)

    dt = EX51.T / N
    t_start = (N - k) * dt
    ws = solver._LevelWorkspace(EX51, disc, solver.compute_coeffs(1), config)
    landed = {}
    for steps in (substeps, substeps // 2):
        delta = (EX51.T - t_start) / steps
        field = fields[N]
        for m in range(steps - 1, -1, -1):
            t_n = t_start + m * delta
            field = ws.step(m, t_n, delta, {1: field})
            if m % (steps // k) == 0:
                level = N - k + m // (steps // k)
                assert abs(t_n - level * dt) <= 1e-14 * EX51.T
                landed.setdefault(level, []).append(field)
    assert len(ws.picard_counts) == len(chain.picard_counts) == substeps + substeps // 2
    assert sorted(landed) == list(range(N - k, N))
    for level, (fine, coarse) in landed.items():
        seed = fields[level]
        assert seed.level == level
        np.testing.assert_array_equal(seed.y_values, 2.0 * fine.y_values - coarse.y_values)
        np.testing.assert_array_equal(seed.z_values, 2.0 * fine.z_values - coarse.z_values)


@pytest.mark.parametrize("cap", [13, 40, 100])
def test_bootstrap_chains_stay_under_the_cap(monkeypatch, cap):
    # BOOTSTRAP_MAX_SUBSTEPS bounds the fine and the coarse chain together,
    # and the fine chain's M stays a multiple of 2k so both land on every
    # seed level
    monkeypatch.setattr(solver, "BOOTSTRAP_MAX_SUBSTEPS", cap)
    for k in range(1, 5):
        for N in (8, 16):
            M = solver._bootstrap_substeps(N, k)
            assert M % (2 * k) == 0
            assert M + M // 2 <= cap
    config = SolverConfig(k=4, N=16, terminal_mode="bootstrap")
    _, chain = init_terminal(EX51, config, discretize(EX51, config))
    M = solver._bootstrap_substeps(config.N, config.k)
    assert len(chain.picard_counts) == M + M // 2 <= cap


def _unconverged_warnings(caplog, problem, config):
    caplog.clear()
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        solve(problem, config)
    messages = [rec.getMessage() for rec in caplog.records]
    return [msg for msg in messages if "residual >= the level tolerance" in msg]


def test_outer_iterates_accepted_unconverged_warn_once(caplog):
    # Levels are counted only when the budget runs out above the level
    # tolerance max(eps0, OUTER_TOL_FRACTION * dt^(k+1)); ex55 k2 N8 with
    # bootstrap seeds ends one level on the budget, at 1.66e-3 against
    # 1.95e-5 (before the rate exit, level 0 did too).
    config = SolverConfig(k=2, N=8, terminal_mode="bootstrap")
    warned = _unconverged_warnings(caplog, registry_get("ex55"), config)
    assert len(warned) == 1
    assert warned[0].startswith("1 of 6 sweep levels")
    assert "(worst 0.00166 against 1.95e-05)" in warned[0]
    assert _unconverged_warnings(caplog, registry_get("ex54b"), SolverConfig(k=1, N=16)) == []
    ex54a = registry_get("ex54a")
    assert _unconverged_warnings(caplog, ex54a, SolverConfig(k=2, N=64)) == []
    assert _unconverged_warnings(caplog, EX51, SolverConfig(k=2, N=16)) == []


def test_bootstrap_sub_levels_accepted_unconverged_warn(monkeypatch, caplog):
    monkeypatch.setattr(solver, "MAX_OUTER", 4)
    config = SolverConfig(k=1, N=8, r=6, terminal_mode="bootstrap")
    warned = _unconverged_warnings(caplog, registry_get("ex54b"), config)
    assert len(warned) == 1
    assert "3 of 3 bootstrap sub-levels" in warned[0]
    assert "when the MAX_OUTER budget of 4 passes ran out" in warned[0]


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


def test_implicit_y_iteration_stuck_raises_at_its_level_and_point(monkeypatch):
    # f makes the Picard map y -> rhs/alpha0 + 2y (4y at x0): every iterate
    # stays finite and the steps keep doubling, so the cap ends the loop,
    # and x0's steps, which grow fastest, are the worst
    monkeypatch.setattr(solver, "MAX_PICARD", 12)
    config = SolverConfig(k=1, N=8)
    alpha0 = solver.compute_coeffs(1).alphas(EX51.T / config.N)[0]
    calls = []

    def f(t, X, Y, Z):
        calls.append(t)
        gain = np.where(X == EX51.x0, 4.0, 2.0)
        return -alpha0 * gain * Y

    with pytest.raises(PicardDivergenceError, match="implicit Y iteration stuck at level 6") as info:
        solve(dataclasses.replace(EX51, f=f), config)
    assert len(calls) == 12
    assert info.value.level == config.N - config.k - 1
    np.testing.assert_array_equal(info.value.point, EX51.x0)


def _poisoned(problem, callback, when, cut=2.0):
    """``problem`` whose ``callback`` is NaN at x > cut whenever ``when(t)`` holds.

    phi and grad_phi take no t and are poisoned on every call.  Returns the
    problem and a list recording, per call, whether the image held a NaN.
    """
    original, images = getattr(problem, callback), []

    def poisoned(*args):
        X = args[0] if len(args) == 1 else args[1]
        out = np.array(original(*args), dtype=float)
        if len(args) == 1 or when(args[0]):
            out[X[:, 0] > cut] = np.nan
        images.append(bool(np.isnan(out).any()))
        return out

    return dataclasses.replace(problem, **{callback: poisoned}), images


@pytest.mark.parametrize("callback, cut", [("sigma", 5.0), ("sigma", 2.5), ("b", 5.0)])
def test_non_finite_coefficients_in_a_sweep_pass_fail_typed(callback, cut):
    # A NaN fan reach once joined the far-field band silently (x > 5) or
    # reached x0's stencil and raised the window sizing error (x > 2.5);
    # both now raise at the first level and point where b or sigma is NaN.
    problem, _ = _poisoned(EX51, callback, lambda t: 0.55 < t < 0.8, cut)
    config = SolverConfig(k=2, N=16)
    X = discretize(problem, config).X
    with pytest.raises(PicardDivergenceError, match="non-finite b or sigma") as info:
        solve(problem, config)
    assert info.value.level == 12  # t = 0.75, the first level below 0.8
    np.testing.assert_array_equal(info.value.point, X[X[:, 0] > cut][0])


def test_non_finite_sigma_in_a_bootstrap_chain_fails_typed():
    problem, _ = _poisoned(EX51, "sigma", lambda t: 0.8 < t < 0.95, 5.0)
    config = SolverConfig(k=2, N=8, terminal_mode="bootstrap")
    with pytest.raises(PicardDivergenceError, match="non-finite b or sigma") as info:
        solve(problem, config)
    # the fine chain runs first, its sub-levels m = M-1 .. 0 at 0.75 + m*delta
    M = solver._bootstrap_substeps(config.N, config.k)
    delta = 0.25 / M
    assert info.value.level == max(m for m in range(M) if 0.75 + m * delta < 0.95)
    assert info.value.point[0] > 5.0


@pytest.mark.parametrize(
    "name, callback", [("ex51", "phi"), ("ex51", "grad_phi"), ("ex51", "sigma"), ("ex55", "sigma")]
)
def test_non_finite_terminal_values_fail_at_the_first_one(name, callback):
    # A NaN sigma image at t = T once ran ex55's coupled Z fixed point to its
    # cap and blamed an expansive sigma, and reached ex51's node count as an
    # untyped ValueError; now the first non-finite value raises at its point.
    problem, images = _poisoned(registry_get(name), callback, lambda t: t == 1.0)
    with pytest.raises(PicardDivergenceError, match=f"non-finite {callback} at t = T") as info:
        solve(problem, SolverConfig(k=2, N=8))
    assert images.count(True) == 1 and images[-1]
    assert info.value.point[0] > 2.0


def test_non_finite_exact_seed_fails_typed():
    # a NaN closed form once reached ValueField as an untyped ValueError
    problem, _ = _poisoned(EX51, "exact_y", lambda t: True, 5.0)
    config = SolverConfig(k=2, N=16)
    X = discretize(problem, config).X
    with pytest.raises(PicardDivergenceError, match="non-finite exact_y or exact_z") as info:
        solve(problem, config)
    assert info.value.level == 15  # the first seed level
    np.testing.assert_array_equal(info.value.point, X[X[:, 0] > 5.0][0])


def test_non_finite_far_field_band_fails_typed():
    # exact_z is NaN at the outermost grid point below t = 0.5 only, so the
    # seeds are finite and the band of level 7 (t = 0.4375) is the first read
    config = SolverConfig(k=2, N=16)
    X = discretize(EX51, config).X
    problem, _ = _poisoned(EX51, "exact_z", lambda t: t < 0.5, X[-2, 0])
    with pytest.raises(PicardDivergenceError, match="exact_z in the far-field band") as info:
        solve(problem, config)
    assert info.value.level == 7
    np.testing.assert_array_equal(info.value.point, X[-1])


def test_non_finite_coefficient_probe_fails_typed():
    # the coefficient probe reads b and sigma at t = 0, T/2 and T
    problem, _ = _poisoned(EX51, "sigma", lambda t: t == 0.5)
    with pytest.raises(PicardDivergenceError, match="b or sigma at t = 0.5") as info:
        discretize(problem, SolverConfig(k=2, N=8))
    assert info.value.point[0] > 2.0


def _node_count(caplog, problem, config):
    caplog.clear()
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        L = discretize(problem, config).rule.L
    return L, [rec for rec in caplog.records if rec.levelname == "WARNING"]


def test_node_count_cap_warns_when_fan_stays_wide(caplog):
    # k=6, N=64, r=10: the fan needs more than the 64-node cap (64.2 cells > 0.85 * 64)
    L, warned = _node_count(caplog, EX51, SolverConfig(k=6, N=64, r=10))
    assert L == 64
    assert len(warned) == 1
    L, warned = _node_count(caplog, EX51, SolverConfig(k=3, N=64))
    assert L < 64
    assert warned == []


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_warm_start_extrapolates_through_the_newest_levels(levels):
    # history[j] holds the rows of level n + j, here a cubic in t with
    # coefficients that differ per row and column.  The warm start is the
    # polynomial of degree levels - 1 through the given levels, evaluated at
    # t_n: four levels reproduce level n to rounding, and one level returns
    # the newest rows themselves.
    problem, config = linear_problem(coupled=True), SolverConfig(k=2, N=8)
    disc = discretize(problem, config)
    ws = solver._LevelWorkspace(problem, disc, solver.compute_coeffs(2), config)
    coeffs = np.random.default_rng(3).normal(size=(4, len(disc.X), 2))
    dt, n = problem.T / config.N, 2

    def rows(level):
        return sum(c * (level * dt) ** i for i, c in enumerate(coeffs))

    history = {j: disc.field(n + j, rows(n + j)) for j in range(1, levels + 1)}
    v_next = history[1].values.reshape(len(disc.X), -1)
    start = ws._warm_start(history, v_next)
    times = [(n + j) * dt for j in history]
    fit = np.polynomial.polynomial.polyfit(times, np.stack([rows(n + j) for j in history])
                                           .reshape(levels, -1), levels - 1)
    expected = np.polynomial.polynomial.polyval(n * dt, fit).reshape(start.shape)
    np.testing.assert_allclose(start, expected, rtol=0, atol=1e-12)
    if levels == 1:
        assert start is v_next
    if levels == 4:
        np.testing.assert_allclose(start, rows(n), rtol=0, atol=1e-12)
    else:  # a lower degree misses the cubic's newest term
        assert np.max(np.abs(start - rows(n))) > 1e-6


@pytest.mark.parametrize("name, reads_level_n", [("ex51", True), ("ex52_bs", False)])
def test_kinked_terminal_level_stays_out_of_the_warm_start(monkeypatch, name, reads_level_n):
    # the scheme reads levels n+1 .. n+k <= N-1; only the predictor of the
    # first sweep levels could reach level N, and a kinked phi is kept from it
    read = []
    step = solver._LevelWorkspace.step

    def recorded_step(self, level, t_n, dt, history):
        read.extend(field.level for field in history.values())
        return step(self, level, t_n, dt, history)

    monkeypatch.setattr(solver._LevelWorkspace, "step", recorded_step)
    config = SolverConfig(k=1, N=8)
    solve(registry_get(name), config)
    assert (config.N in read) is reads_level_n
    assert max(read) >= config.N - 1

@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("name", ["ex51", "ex55"])
def test_auto_spacing_decreases_along_each_ladder(name, k):
    # the work-based degree may change between rungs, but never so that h grows
    problem = registry_get(name)
    hs = [discretize(problem, SolverConfig(k=k, N=N)).h for N in (16, 32, 64, 128)]
    assert all(coarse > fine for coarse, fine in zip(hs, hs[1:])), hs


def test_work_based_degree_keeps_k6_below_the_node_cap(caplog):
    L, warned = _node_count(caplog, EX51, SolverConfig(k=6, N=64))
    assert L < solver.MAX_POINTS
    assert warned == []


def test_degree_choice_is_recorded():
    disc = discretize(EX51, SolverConfig(k=3, N=64))
    work = dict(disc.degree_work)
    assert tuple(work) == solver.DEGREE_CANDIDATES
    assert disc.fan_work == work[disc.r] == disc.X.shape[0] * disc.rule.L * (disc.r + 1)
    # the least degree within the margin of the cheapest one
    within = [r for r, w in disc.degree_work if w <= solver.WORK_MARGIN * min(work.values())]
    assert disc.r == within[0] == 8
    # q = 2 is scanned too, each degree priced at (r+1)^2 stencil entries
    # per query: the least work is r = 6 at k <= 3
    ex53 = registry_get("ex53_2d")
    for k in (1, 2, 3):
        disc = discretize(ex53, SolverConfig(k=k, N=16))
        assert tuple(r for r, _ in disc.degree_work) == solver.DEGREE_CANDIDATES
        assert disc.r == 6
        assert disc.fan_work == disc.X.shape[0] * disc.rule.L**ex53.d * (disc.r + 1) ** 2
    # a kinked terminal function and a given h keep the brackets; a given r
    # is used as it is
    for problem, config, bracket in [
        (registry_get("ex52_bs"), SolverConfig(k=3, N=64), 6),
        (registry_get("ex52_bs"), SolverConfig(k=4, N=64), 10),
        (EX51, SolverConfig(k=3, N=64, h=0.2), 6),
    ]:
        disc = discretize(problem, config)
        assert [r for r, _ in disc.degree_work] == [disc.r] == [bracket]
    assert discretize(EX51, SolverConfig(k=3, N=64, r=10)).degree_work[0][0] == 10


def test_degree_choice_skips_fans_the_node_cap_cannot_resolve(caplog):
    ex54b = registry_get("ex54b")
    # k=3, N=8: r=6 has the least predicted work only because its node count
    # is capped at 64, below its fan; the least resolved degree is chosen
    L, warned = _node_count(caplog, ex54b, SolverConfig(k=3, N=8))
    assert (discretize(ex54b, SolverConfig(k=3, N=8)).r, warned) == (12, [])
    assert L < solver.MAX_POINTS
    # k=5, N=32: no degree's fan fits; the coarsest grid has the narrowest fan
    L, warned = _node_count(caplog, ex54b, SolverConfig(k=5, N=32))
    assert discretize(ex54b, SolverConfig(k=5, N=32)).r == max(solver.DEGREE_CANDIDATES)
    assert L == solver.MAX_POINTS
    assert len(warned) == 1

@pytest.mark.parametrize("k", [5, 6])
def test_ex51_converges_at_order_k_for_k5_and_k6(k):
    # N = 32, 48, 64: past the k = 5 ladder's degree change (r = 12 up to
    # N = 20, 14 from N = 24) and short of the ~1e-14 level where the k = 6
    # errors flatten (local Y-rates 4.5-4.6 over N = 64, 96, 128)
    Ns = (32, 48, 64)
    results = [solve(EX51, SolverConfig(k=k, N=N)) for N in Ns]
    cr_y = fit_rate([(N, res.err_y[0]) for N, res in zip(Ns, results)])
    cr_z = fit_rate([(N, np.max(res.err_z)) for N, res in zip(Ns, results)])
    assert k - 0.35 <= cr_y <= k + 0.35
    assert k - 0.35 <= cr_z <= k + 0.35
    assert all(res.discretization.rule.L < solver.MAX_POINTS for res in results)


EX52 = registry_get("ex52_bs")


def _solve_recording_plans(monkeypatch, problem, config, cap=None):
    """Solve, recording (workspace k, level) of every stored plan built.

    ``cap`` replaces MAX_PLAN_ENTRIES; 0 disables plan reuse.  Every patch of
    ``monkeypatch`` is undone before returning.
    """
    if cap is not None:
        monkeypatch.setattr(solver, "MAX_PLAN_ENTRIES", cap)
    built, current = [], []
    plan, step = solver.interpolation_plan, solver._LevelWorkspace.step

    def recorded_plan(*args):
        built.append(current[-1])
        return plan(*args)

    def recorded_step(self, level, *args):
        current.append((self.k, level))
        return step(self, level, *args)

    monkeypatch.setattr(solver, "interpolation_plan", recorded_plan)
    monkeypatch.setattr(solver._LevelWorkspace, "step", recorded_step)
    result = solve(problem, config)
    monkeypatch.undo()
    return result, built


def _assert_same_result(a, b):
    for name in ("y0", "z0", "err_y", "err_z"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.picard_stats == b.picard_stats


@pytest.mark.parametrize(
    "k, N, mode", [(2, 16, "exact"), (3, 16, "exact"), (2, 8, "bootstrap")]
)
def test_plan_reuse_changes_no_result(monkeypatch, k, N, mode):
    # ex52_bs's forward coefficients do not depend on t, so every level after
    # the first repeats them: the plans are built on the second level of each
    # workspace and applied on the rest.  The bootstrap workspace builds them
    # at the second sub-level of each chain: the coarse chain's new sub-step
    # drops the fine chain's plans.
    config = SolverConfig(k=k, N=N, terminal_mode=mode)
    reused, built = _solve_recording_plans(monkeypatch, EX52, config)
    streamed, none = _solve_recording_plans(monkeypatch, EX52, config, cap=0)
    _assert_same_result(reused, streamed)
    assert none == []
    sweep = [(k, N - k - 2)] * k
    substeps = solver._bootstrap_substeps(N, k)  # fine chain levels substeps-1 .. 0
    chain = [(1, substeps - 2), (1, substeps // 2 - 2)] if mode == "bootstrap" else []
    assert built == chain + sweep


def test_time_dependent_levels_build_no_plans(monkeypatch):
    # ex51's b and sigma read t, so no two passes repeat; only the two reads
    # at x0 and one call per (level, j) touch the interpolator
    _, built = _solve_recording_plans(monkeypatch, EX51, SolverConfig(k=3, N=16))
    assert built == []
    _, built = _solve_recording_plans(
        monkeypatch, EX51, SolverConfig(k=2, N=8, terminal_mode="bootstrap")
    )
    assert built == []


def _drift_from_half_time(shape):
    """ex52_bs's drift plus a t-dependent term that vanishes for t >= T/2."""
    half = 0.5 * EX52.T

    def b(t, X, Y, Z):
        extra = 0.0 if t >= half else (0.1 if shape == "step" else 0.2 * (half - t))
        return EX52.b(t, X, Y, Z) + extra

    return dataclasses.replace(EX52, name=f"ex52_{shape}", b=b)


@pytest.mark.parametrize("shape", ["step", "ramp"])
def test_plans_are_rebuilt_where_the_coefficients_change(monkeypatch, shape):
    # Levels n >= 8 (t >= T/2) share one drift: plans are built at n = 12,
    # the first repeat.  Below T/2 the step drift is again constant, so the
    # old plans are dropped at n = 7 and new ones built at n = 6; the ramp
    # drift changes every level, so every level below T/2 streams.
    problem = _drift_from_half_time(shape)
    config = SolverConfig(k=2, N=16)
    reused, built = _solve_recording_plans(monkeypatch, problem, config)
    streamed, _ = _solve_recording_plans(monkeypatch, problem, config, cap=0)
    _assert_same_result(reused, streamed)
    levels = [12, 6] if shape == "step" else [12]
    assert built == [(2, n) for n in levels for _ in range(2)]


SIGMA_HEAT = np.array([[0.3, 0.2]])


def _heat_d2(t, X):
    return np.exp(X + 0.065 * (1.0 - t))


HEAT_D2 = FbsdeProblem(
    name="heat_d2", q=1, p=1, d=2,
    b=lambda t, X, Y, Z: np.zeros_like(X),
    sigma=lambda t, X, Y, Z: np.broadcast_to(SIGMA_HEAT, (X.shape[0], 1, 2)).copy(),
    f=lambda t, X, Y, Z: np.zeros((X.shape[0], 1)),
    phi=lambda X: np.exp(X),
    grad_phi=lambda X: np.exp(X)[:, :, None],
    exact_y=_heat_d2,
    exact_z=lambda t, X: _heat_d2(t, X)[:, :, None] * SIGMA_HEAT,
    T=1.0, x0=[0.0], coupled=False,
)


@pytest.mark.parametrize("L, stores", [(4, True), (32, False)])
def test_plans_past_the_cap_are_not_stored(monkeypatch, L, stores):
    # One noise dimension per column of sigma: d = 2 puts L^2 nodes under
    # every fan.  At L = 32 a level's plans would hold far more than
    # MAX_PLAN_ENTRIES, so every level streams; at L = 4 they fit.
    config = SolverConfig(k=2, N=8, L=L)
    disc = discretize(HEAT_D2, config)
    assert disc.rule.L == L
    ws = solver._LevelWorkspace(HEAT_D2, disc, solver.compute_coeffs(2), config)
    t, dt = 0.5, HEAT_D2.T / config.N
    X = disc.X
    coeffs = (HEAT_D2.b(t, X, None, None), HEAT_D2.sigma(t, X, None, None))
    entries = (
        config.k * int(ws._safe_mask(config.N // 2, dt, *coeffs).sum()) * L**2 * (disc.r + 1)
    )
    assert (entries <= solver.MAX_PLAN_ENTRIES) == stores
    reused, built = _solve_recording_plans(monkeypatch, HEAT_D2, config)
    streamed, _ = _solve_recording_plans(monkeypatch, HEAT_D2, config, cap=0)
    _assert_same_result(reused, streamed)
    assert built == ([(2, 4)] * 2 if stores else [])
    assert reused.err_y[0] < 1e-4


def test_signed_zero_coefficients_repeat(monkeypatch):
    # A pass repeats its predecessor when its coefficients are equal in
    # value: a drift of -0.0 on every other level moves no predictor, so the
    # plans are still built once, on the second level, and every value is
    # that of the +0.0 drift.
    def b(t, X, Y, Z):
        return np.full_like(X, -0.0 if round(t * 8) % 2 else 0.0)

    config = SolverConfig(k=2, N=8, L=4)
    reused, built = _solve_recording_plans(
        monkeypatch, dataclasses.replace(HEAT_D2, b=b), config
    )
    _assert_same_result(reused, solve(HEAT_D2, config))
    assert built == [(2, 4)] * 2


def _per_fan_expectations(self, dt, X, b_n, sig_n, history, plans=None):
    """E[Y^{n+j}] and E[Y^{n+j} dW^T] by one quadrature call per (level, j).

    The level pass before its k fans were fused into one call: each fan is
    read over all rows in one interpolation call, so this reference always
    streams (a stored plan reads bitwise the same values).  Its signature is
    that of ``_LevelWorkspace._expectations``, so it can stand in for it.
    """
    problem, disc = self.problem, self.disc
    n, q, p = X.shape[0], problem.q, problem.p
    EY = np.empty((self.k, n, p))
    EYW = np.empty((self.k, n, p, problem.d))
    for j in range(1, self.k + 1):
        fld = history[j]

        def integrand(v):
            M = v.shape[1]
            dW = math.sqrt(j * dt) * v
            Xq = X + b_n * (j * dt) + np.einsum("nqd,dm->mnq", sig_n, dW)
            Yq = interpolate_values(
                fld.y_values, fld.window, disc.spec, Xq.reshape(M * n, q), disc.r
            )
            factors = np.vstack([np.ones(M), dW]).T  # (M, 1 + d)
            return Yq.reshape(M, n, p)[:, :, :, None] * factors[:, None, None, :]

        moments = expect_gaussian(integrand, problem.d, disc.rule)
        EY[j - 1] = moments[..., 0]
        EYW[j - 1] = moments[..., 1:]
    return EY, EYW


_FUSED_EXPECTATIONS = solver._LevelWorkspace._expectations


def _check_fused_passes(monkeypatch):
    """Check every level pass bitwise against _per_fan_expectations.

    Returns a list that the solves then fill with one (stored plans used,
    quadrature calls, pruned) triple per pass; a pruned pass is one whose
    level's live box leaves out rows the hull allows.
    """
    passes, calls, levels = [], [0], []
    expect, step = solver.expect_gaussian, solver._LevelWorkspace.step

    def counted_expect(*args):
        calls[0] += 1
        return expect(*args)

    def recorded_step(self, level, *args):
        levels.append(level)
        return step(self, level, *args)

    def checked(self, dt, X, b_n, sig_n, history, plans):
        calls[0] = 0
        EY, EYW = _FUSED_EXPECTATIONS(self, dt, X, b_n, sig_n, history, plans)
        live = self._live_rows(levels[-1])
        pruned = live is not None and bool(np.any(self._hull & ~live))
        passes.append((plans is not None, calls[0], pruned))
        ref_EY, ref_EYW = _per_fan_expectations(self, dt, X, b_n, sig_n, history)
        np.testing.assert_array_equal(EY, ref_EY)
        np.testing.assert_array_equal(EYW, ref_EYW)
        return EY, EYW

    monkeypatch.setattr(solver, "expect_gaussian", counted_expect)
    monkeypatch.setattr(solver._LevelWorkspace, "step", recorded_step)
    monkeypatch.setattr(solver._LevelWorkspace, "_expectations", checked)
    return passes


@pytest.mark.parametrize(
    "problem, config, block_values, blocks, stored",
    [(EX51, SolverConfig(k=k, N=8), None, False, False) for k in (1, 2, 3, 4)]
    + [
        (EX52, SolverConfig(k=3, N=16), None, False, True),
        (HEAT_D2, SolverConfig(k=2, N=8, L=4), None, False, True),
        (HEAT_D2, SolverConfig(k=2, N=8, L=32), None, True, False),
        (EX51, SolverConfig(k=3, N=8), 500, True, False),
        (EX52, SolverConfig(k=2, N=16), 500, True, True),
        (HEAT_D2, SolverConfig(k=2, N=8, L=4), 500, True, True),
        (registry_get("ex55"), SolverConfig(k=2, N=8), 500, True, False),
    ],
    ids=[f"ex51-k{k}" for k in (1, 2, 3, 4)]
    + ["ex52_bs", "heat_d2-L4", "heat_d2-L32"]
    + [f"{name}-small-blocks" for name in ("ex51", "ex52_bs", "heat_d2", "ex55")],
)
def test_fused_pass_matches_per_fan_expectations(
    monkeypatch, problem, config, block_values, blocks, stored
):
    # One quadrature call per row block for all k fans, bitwise the k
    # per-fan calls over all rows: streaming where the coefficients read t
    # (ex51, ex55) or the plans would pass the cap (heat_d2 at L = 32),
    # through stored plans from the second level on where they repeat.  The
    # 1-d windows fit one block; L^2 = 1024 nodes (heat_d2 at L = 32) or a
    # small block constant split each pass into several blocks, each with
    # its own plans.  The low levels run only their live rows, fewer each
    # level: a streaming one takes fewer blocks, and one that reads the
    # stored plans reads them over the stored rows.
    if block_values is not None:
        monkeypatch.setattr(solver, "EXPECT_BLOCK_VALUES", block_values)
    passes = _check_fused_passes(monkeypatch)
    solve(problem, config)
    assert len(passes) >= config.N - config.k
    assert any(pruned for _, _, pruned in passes)
    full = [calls for used, calls, pruned in passes if used or not pruned]
    assert all(calls > 2 if blocks else calls == 1 for calls in full)
    assert all(1 <= calls <= max(full) for used, calls, pruned in passes if pruned and not used)
    if stored:
        assert [used for used, _, _ in passes] == [False] + [True] * (len(passes) - 1)
    else:
        assert not any(used for used, _, _ in passes)


def test_two_noise_dimensions_at_64_nodes_keep_memory_flat(monkeypatch):
    # L = 64 puts 4096 nodes under each fan.  The pass goes through the
    # quadrature in row blocks of EXPECT_BLOCK_VALUES values, so the solve's
    # allocations peak near 2.2 MB, where one call per (level, j) over all
    # rows reached 9.7 MB, with y0 and z0 bitwise the same
    config = SolverConfig(k=2, N=8, L=64)
    tracemalloc.start()
    try:
        result = solve(HEAT_D2, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.discretization.rule.L == 64
    assert peak <= 4 * 2**20
    monkeypatch.setattr(solver._LevelWorkspace, "_expectations", _per_fan_expectations)
    reference = solve(HEAT_D2, config)
    np.testing.assert_array_equal(result.y0, reference.y0)
    np.testing.assert_array_equal(result.z0, reference.z0)


def _scripted_level(monkeypatch, offsets, profile=lambda X: 1.0):
    """One coupled level with pass m's Y image moved by offsets[m], iterated plainly (v = g).

    The level is the top sweep level of the coupled-flagged linear problem
    at k = 2, N = 8, from exact seeds: every pass has the same exact image,
    the warm start and the band rows (the level above's, as the solution
    does not move in t) are exact, so pass 0's residual is offsets[0] and pass
    m's |offsets[m] - offsets[m-1]|; each safe row's move is scaled by
    ``profile`` of its point.  Returns the workspace and the config.
    """
    passes = []
    implicit_y = solver._LevelWorkspace._implicit_y

    def scripted(self, *args):
        y, iters = implicit_y(self, *args)
        passes.append(len(passes))
        return y + offsets[passes[-1]] * profile(args[1]), iters

    monkeypatch.setattr(solver._LevelWorkspace, "_implicit_y", scripted)
    monkeypatch.setattr(solver._BroydenState, "step", lambda self, v, g: g.copy())
    problem, config = linear_problem(coupled=True), SolverConfig(k=2, N=8)
    disc = discretize(problem, config)
    fields, _ = init_terminal(problem, config, disc)
    ws = solver._LevelWorkspace(problem, disc, solver.compute_coeffs(2), config)
    dt, n = problem.T / config.N, config.N - config.k - 1
    ws.step(n, n * dt, dt, {j: fields[n + j] for j in (1, 2, 3)})
    return ws, config


def test_level_without_contraction_never_exits_early(monkeypatch, caplog):
    # residuals 8c, 2c, 3c, 4c, 5c, 6c: from the third pass on the rate is
    # 1.5, 1.33, 1.25, 1.2, never below 1, so the level runs its budget
    # out, and the last residual, below the first, is accepted and warned
    # about with that rate
    c = 1e-3  # far above the level tolerance 0.01 * (1/8)^3 = 1.95e-5
    ws, config = _scripted_level(monkeypatch, [8 * c, 6 * c, 9 * c, 5 * c, 10 * c, 4 * c])
    assert ws.picard_counts == [solver.MAX_OUTER]
    ((residual, tol, rate, span),) = ws.unconverged
    # the rate over the last three passes, (6c / 3c)^(1/3)
    assert residual == pytest.approx(6 * c) and rate == pytest.approx(2.0 ** (1 / 3))
    assert span == 3
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        solver._warn_unconverged(ws, None)
    (warned,) = [r.getMessage() for r in caplog.records]
    assert warned.startswith("1 of 1 sweep levels")
    assert "residual >= the level tolerance (worst 0.006 against 1.95e-05)" in warned
    assert warned.endswith("that level's contraction rate was 1.26 per pass over its last 3 passes")


def test_cycling_level_reports_rate_one_wherever_the_budget_cuts(monkeypatch, caplog):
    # residuals 6c, then the period-3 cycle 3c, 2c, 4c, 3c, 2c: the last
    # ratio reads 0.667 at this budget (and 1.33 or 0.75 at the next two),
    # while the rate over the last three passes reads 1, the cycle's truth.
    # The rate exit never fires: theta / (1 - theta) * delta stays far above
    # the tolerance.
    c = 1e-3
    ws, config = _scripted_level(monkeypatch, [6 * c, 3 * c, 5 * c, c, 4 * c, 6 * c])
    assert ws.picard_counts == [solver.MAX_OUTER]
    ((residual, _, rate, span),) = ws.unconverged
    assert residual == pytest.approx(2 * c)
    assert rate == pytest.approx(1.0) and span == 3
    with caplog.at_level("WARNING", logger="fbsde_multistep.solver"):
        solver._warn_unconverged(ws, None)
    (warned,) = [r.getMessage() for r in caplog.records]
    assert warned.endswith("that level's contraction rate was 1 per pass over its last 3 passes")


def test_contraction_rate_spans_up_to_three_passes():
    assert solver._contraction_rate([5.0]) == (None, 0)
    assert solver._contraction_rate([4.0, 2.0]) == (0.5, 1)
    assert solver._contraction_rate([8.0, 4.0, 2.0]) == (0.5, 2)
    rate, span = solver._contraction_rate([9.0, 8.0, 4.0, 2.0, 1.0])
    assert rate == pytest.approx(0.5) and span == 3


def test_contracting_level_takes_the_rate_exit(monkeypatch):
    # residuals 8c, then 0.05c = 5e-5, still above the tolerance 1.95e-5, at
    # a rate 0.00625 that predicts 3e-7 more: the level ends on its second
    # pass, where the tolerance alone would take a third, and counts as
    # converged
    c = 1e-3
    ws, _ = _scripted_level(monkeypatch, [8 * c, 8.05 * c, 8.05 * c])
    assert ws.picard_counts == [2]
    assert ws.unconverged == []


def test_level_whose_residual_grows_raises_at_its_worst_row(monkeypatch):
    # residuals c, 2c, 4c, 8c, 16c, 32c (twice that at x0): the rate is 2
    # every pass, so the level runs its budget out and ends above its first
    # residual, a divergence located at the worst Y row
    c = 1e-3
    x0 = linear_problem().x0
    with pytest.raises(PicardDivergenceError) as info:
        _scripted_level(monkeypatch, [c, 3 * c, 7 * c, 15 * c, 31 * c, 63 * c],
                        profile=lambda X: np.where(X == x0, 2.0, 1.0))
    level = 5  # the top sweep level at k = 2, N = 8
    assert str(info.value) == f"coupled Picard iteration stuck at level {level}, point {x0}"
    assert info.value.level == level
    np.testing.assert_array_equal(info.value.point, x0)


def test_rate_exit_returns_the_broyden_iterate_with_band_rows_pinned(monkeypatch):
    # A level that takes the rate exit makes one Broyden step per pass, the
    # last one on its final pass; it returns that step's iterate, with the
    # band rows set to their band values, not the pass's image g.
    levels, current = [], {}
    broyden = solver._BroydenState.step
    band_values = solver._LevelWorkspace._band_values
    step = solver._LevelWorkspace.step

    def recorded_broyden(self, v, g):
        out = broyden(self, v, g)
        current["broyden"].append((g.copy(), out.copy()))
        return out

    def recorded_band(self, level, t_n, unsafe, v_next):
        current["unsafe"] = unsafe
        return band_values(self, level, t_n, unsafe, v_next)

    def recorded_step(self, *args):
        current.update(broyden=[], unsafe=None)
        field = step(self, *args)
        levels.append((field, self.picard_counts[-1], current["broyden"], current["unsafe"]))
        return field

    monkeypatch.setattr(solver._BroydenState, "step", recorded_broyden)
    monkeypatch.setattr(solver._LevelWorkspace, "_band_values", recorded_band)
    monkeypatch.setattr(solver._LevelWorkspace, "step", recorded_step)
    solve(registry_get("ex55"), SolverConfig(k=2, N=16))
    rate_exits = [level for level in levels if len(level[2]) == level[1]]
    assert len(rate_exits) >= 2
    for field, _, records, unsafe in rate_exits:
        g, accelerated = records[-1]
        rows = field.values.reshape(len(unsafe), -1)
        assert unsafe.any() and not unsafe.all()
        np.testing.assert_array_equal(rows[~unsafe], accelerated[~unsafe])
        np.testing.assert_array_equal(rows[unsafe], g[unsafe])
        assert not np.array_equal(rows, g)


def test_rate_exit_cuts_ex55_passes_at_the_old_errors():
    # Under the tolerance exit alone ex55 k2 N32 took 3.30 passes per level,
    # at err_y 7.12814e-5 and err_z 9.38848e-6
    result = solve(registry_get("ex55"), SolverConfig(k=2, N=32))
    assert result.picard_stats.mean_iterations <= 2.6
    assert result.err_y[0] == pytest.approx(7.12813971306403e-05, rel=5e-3)
    assert result.err_z[0, 0] == pytest.approx(9.388476943077845e-06, rel=5e-3)


@pytest.mark.parametrize("name", ["ex54a", "ex54b"])
def test_cubic_warm_start_ends_k3_n128_levels_before_the_budget(caplog, name):
    # Under the quadratic start 110 (ex54a) and 123 (ex54b) of the 125 levels
    # ran the 6-pass budget out; the cubic start ends every one of them
    config = SolverConfig(k=3, N=128)
    assert _unconverged_warnings(caplog, registry_get(name), config) == []


def test_cubic_warm_start_cuts_ex54a_passes():
    # The quadratic start took 3.06 passes per level on ex54a k2 N64; the
    # cubic one takes 2.19 at the same err_y
    result = solve(registry_get("ex54a"), SolverConfig(k=2, N=64))
    assert result.picard_stats.mean_iterations <= 2.4
    assert result.err_y[0] == pytest.approx(1.222779e-4, rel=5e-3)
