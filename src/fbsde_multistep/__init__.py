"""High-order multistep solver for forward-backward SDEs.

The backward value pair (Y, Z) is advanced with k-step derivative weights
while the forward state only ever takes cheap Euler predictor steps;
conditional expectations are Gauss-Hermite sums and grid fields are read
through local Lagrange interpolation.  See README.md for the layout.
"""

from .failures import SolverFailure
from .multistep import (
    MultistepCoeffs,
    StabilityReport,
    approx_derivative,
    compute_coeffs,
    stability_report,
)
from .problems import (
    BlackScholesParams,
    FbsdeProblem,
    UnknownProblemError,
    black_scholes_exact,
    normal_cdf,
    registry_get,
    registry_names,
)
from .quadrature import (
    GaussHermiteRule,
    NonFiniteIntegrandError,
    expect_gaussian,
    hermite_rule,
)
from .solver import (
    ConfigError,
    Discretization,
    PicardDivergenceError,
    PicardStats,
    SolverConfig,
    SolveResult,
    discretize,
    init_terminal,
    solve,
)
from .spacegrid import (
    ActiveWindow,
    GridSpec,
    OutOfDomainError,
    ValueField,
    grid_points,
    interpolate_values,
    neighbor_set,
)

__all__ = [
    "ActiveWindow",
    "BlackScholesParams",
    "ConfigError",
    "ConvergenceReport",
    "Discretization",
    "FbsdeProblem",
    "GaussHermiteRule",
    "GridSpec",
    "MultistepCoeffs",
    "NonFiniteIntegrandError",
    "OutOfDomainError",
    "PicardDivergenceError",
    "PicardStats",
    "RunSpec",
    "SolveResult",
    "SolverConfig",
    "SolverFailure",
    "StabilityReport",
    "UnknownProblemError",
    "ValueField",
    "approx_derivative",
    "black_scholes_exact",
    "compute_coeffs",
    "discretize",
    "expect_gaussian",
    "fit_rate",
    "grid_points",
    "hermite_rule",
    "init_terminal",
    "interpolate_values",
    "neighbor_set",
    "normal_cdf",
    "registry_get",
    "registry_names",
    "run",
    "solve",
    "stability_report",
]

__version__ = "0.1.0"

# The study driver loads on first use: ``python -m fbsde_multistep.bench``
# runs that module as __main__, which an eager import here would have
# loaded a second time.
_BENCH_NAMES = ("ConvergenceReport", "RunSpec", "fit_rate", "run")


def __getattr__(name):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
