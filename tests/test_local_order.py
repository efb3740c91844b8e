"""One level pass from exact history: each scheme's local order, and a decoupled level as one pass.

A sweep's global error mixes each step's own error with the error it
carries in from the levels above (Chassagneux, *Linear multi-step schemes
for BSDEs*, SIAM J. Numer. Anal. 2014).  Here the k history levels above
level 0 hold the exact solution, and one pass (``_LevelWorkspace._pass``)
runs at the exact level-0 iterate, so its image's distance from the exact
level 0 is the step's own error: O(dt^(k+1)) in Y and O(dt^k) in Z.
"""

import numpy as np
import pytest

from fbsde_multistep import SolverConfig, discretize, fit_rate, registry_get, registry_names
from fbsde_multistep import solver
from test_solver import heat_system_2d


def _exact_history(problem, config):
    """The record, a non-sweep workspace, and exact fields of levels 1..k plus the exact level-0 rows."""
    disc = discretize(problem, config)
    ws = solver._LevelWorkspace(problem, disc, solver.compute_coeffs(config.k), config)
    dt = problem.T / config.N
    history = {
        j: disc.field(j, solver._exact_rows(problem, j * dt, disc.X, j))
        for j in range(1, config.k + 1)
    }
    return disc, ws, history, solver._exact_rows(problem, 0.0, disc.X, 0)


def _local_errors(problem, k, N):
    """Largest |dY| and |dZ| of one pass at level 0 over x0's stencil rows (first_live == 0)."""
    disc, ws, history, exact = _exact_history(problem, SolverConfig(k=k, N=N))
    image, safe, _ = ws._pass(0, 0.0, problem.T / N, history, exact)
    err = np.abs(image - exact[safe])[disc.first_live[safe] == 0]
    return float(err[:, : problem.p].max()), float(err[:, problem.p :].max())


# The one cell below its bound: ex52_bs k6, the kinked call payoff at the
# bracket's r = 10 with its fan past the 64-node cap.
KINKED_K6 = pytest.mark.xfail(strict=True, reason="ex52_bs k6 fits a one-pass Y-rate of 6.38 < 6.5")
LOCAL_CELLS = [
    (name, k) for name in registry_names() for k in range(1, 7) if name != "ex53_2d" or k <= 3
] + [("heat_system_2d", k) for k in (1, 2, 3)]


@pytest.mark.parametrize(
    "name, k",
    [
        pytest.param(name, k, id=f"{name}-k{k}", marks=KINKED_K6 if (name, k) == ("ex52_bs", 6) else ())
        for name, k in LOCAL_CELLS
    ],
)
def test_one_pass_from_exact_history_has_local_order_k_plus_1(name, k):
    # The maximum over x0's stencil and not x0 alone: ex55 k2's Z error
    # changes sign at x0 (two-point rates 5.4, -0.76 and 1.49), while over
    # the stencil it falls at 2.09, 2.75 and 3.04.  k >= 4 starts at N = 16,
    # where every cell is past its pre-asymptotic range.  heat_system_2d
    # stops at k = 3: from k = 4 on it reaches the rounding floor by N = 32.
    problem = heat_system_2d() if name == "heat_system_2d" else registry_get(name)
    Ns = (8, 16, 32, 64) if k <= 3 else (16, 32, 64)
    errors = [_local_errors(problem, k, N) for N in Ns]
    rate_y = fit_rate([(N, ey) for N, (ey, _) in zip(Ns, errors)])
    rate_z = fit_rate([(N, ez) for N, (_, ez) in zip(Ns, errors)])
    assert rate_y >= k + 0.5, (rate_y, errors)
    assert rate_z >= k - 0.5, (rate_z, errors)


@pytest.mark.parametrize("level", ["top", 0])
@pytest.mark.parametrize("name, k, N", [("ex51", 3, 16), ("ex52_bs", 2, 16), ("heat_system_2d", 2, 8)])
def test_decoupled_step_returns_its_one_pass(name, k, N, level):
    # A decoupled level is one outer pass: on the sweep workspace, step's
    # field on the scheme rows is bitwise the image _pass returns from the
    # same warm start, and the level records that pass's Picard count.
    problem = heat_system_2d() if name == "heat_system_2d" else registry_get(name)
    config = SolverConfig(k=k, N=N)
    disc = discretize(problem, config)
    dt, n = problem.T / N, N - k - 1 if level == "top" else level
    history = {
        j: disc.field(n + j, solver._exact_rows(problem, (n + j) * dt, disc.X, n + j))
        for j in range(1, k + 1)
    }

    def workspace():
        return solver._LevelWorkspace(problem, disc, solver.compute_coeffs(k), config, sweep=True)

    stepped = workspace()
    rows = stepped.step(n, n * dt, dt, history).values.reshape(len(disc.X), -1)
    single = workspace()
    start = single._warm_start(history, history[1].values.reshape(len(disc.X), -1))
    image, safe, iters = single._pass(n, n * dt, dt, history, start)
    assert not problem.coupled
    assert 0 < safe.sum() < len(safe)
    np.testing.assert_array_equal(rows[safe], image)
    assert stepped.picard_counts == [iters]
