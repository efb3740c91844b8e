"""FBSDE problem model and the registry of benchmark problems.

Coefficient callbacks are vectorized and uniform: ``b(t, X, Y, Z)``,
``sigma(t, X, Y, Z)``, ``f(t, X, Y, Z)`` with ``t`` scalar, ``X`` of shape
(n, q), ``Y`` (n, p), ``Z`` (n, p, d), returning (n, q), (n, q, d) and (n, p)
respectively.  Decoupled problems must ignore ``Y`` and ``Z`` (probed at
construction).  Callbacks are module-level functions so problems pickle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_SQRT2 = math.sqrt(2.0)


class UnknownProblemError(LookupError):
    """Requested problem name is not registered."""


@dataclass(frozen=True)
class FbsdeProblem:
    """A forward-backward SDE with terminal function and optional exact solution.

    ``coupled`` declares whether the forward coefficients read (y, z); for
    decoupled problems this is cross-checked by probing ``b`` and ``sigma``
    with two different (y, z) pairs.  ``exact_y``/``exact_z`` (when present)
    serve both terminal seeding and error measurement.
    """

    name: str
    q: int
    p: int
    d: int
    b: Callable
    sigma: Callable
    f: Callable
    phi: Callable
    T: float
    x0: np.ndarray
    coupled: bool
    grad_phi: Optional[Callable] = None
    exact_y: Optional[Callable] = None
    exact_z: Optional[Callable] = None
    # Characteristic spatial length of the solution's features, used to scale
    # the automatic grid spacing; 1.0 suits states of unit order.
    grid_scale: float = 1.0
    # False when phi has a kink (call and put payoffs): the solution a time
    # tau before T is then smooth only over the diffusion length sigma*sqrt(tau),
    # and the solver checks that its grid resolves that length one step below T.
    smooth_terminal: bool = True

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).reshape(self.q).copy()
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        if self.T <= 0:
            raise ValueError(f"terminal time must be positive, got {self.T}")
        self._check_decoupled_flag()
        self._check_terminal_consistency()

    def _probe_points(self) -> np.ndarray:
        offsets = np.linspace(-0.5, 0.5, 5)
        return self.x0[None, :] + offsets[:, None] * np.ones(self.q)

    def _check_decoupled_flag(self):
        if self.coupled:
            return
        X = self._probe_points()
        n = X.shape[0]
        pairs = [
            (np.full((n, self.p), 0.3), np.full((n, self.p, self.d), -0.7)),
            (np.full((n, self.p), -1.1), np.full((n, self.p, self.d), 0.9)),
        ]
        t = 0.5 * self.T
        b_vals = [np.asarray(self.b(t, X, y, z)) for y, z in pairs]
        s_vals = [np.asarray(self.sigma(t, X, y, z)) for y, z in pairs]
        if not (np.allclose(*b_vals, atol=0, rtol=0) and np.allclose(*s_vals, atol=0, rtol=0)):
            raise ValueError(
                f"problem {self.name!r} is flagged decoupled but b or sigma reads (y, z)"
            )

    def _check_terminal_consistency(self):
        if self.exact_y is None:
            return
        X = self._probe_points()
        terminal = np.asarray(self.exact_y(self.T, X))
        payoff = np.asarray(self.phi(X))
        if not np.allclose(terminal, payoff, atol=1e-10, rtol=0):
            raise ValueError(
                f"problem {self.name!r}: exact_y(T, x) disagrees with phi(x)"
            )


@dataclass(frozen=True)
class BlackScholesParams:
    """Constant-coefficient market: rates per unit time, prices in currency."""

    b: float
    sigma: float
    r: float
    dvd: float
    K: float
    S0: float
    T: float

    def __post_init__(self):
        if self.sigma <= 0 or self.K <= 0 or self.S0 <= 0 or self.T <= 0:
            raise ValueError("sigma, K, S0 and T must all be positive")


# math.erfc mapped over an array, element by element (numpy has no erfc).
_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function (<=1e-15 abs)."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc(-arr / _SQRT2), dtype=float)
    return float(out) if arr.ndim == 0 else out


def black_scholes_exact(params: BlackScholesParams, t: float, S):
    """Closed-form call value Y and hedge-scaled Z = S e^{-dvd tau} N(d1) sigma.

    Vectorized over S.  Requires 0 <= t < T and S > 0; the t -> T limit is the
    payoff itself and is handled by callers, not here.
    """
    if t >= params.T:
        raise ValueError(f"need t < T for the closed form, got t={t}, T={params.T}")
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    S_arr = np.asarray(S, dtype=float)
    if np.any(S_arr <= 0):
        raise ValueError("spot prices must be positive")
    tau = params.T - t
    vol_sqrt = params.sigma * math.sqrt(tau)
    d0 = np.log(S_arr / (params.K * math.exp((params.dvd - params.r) * tau))) / vol_sqrt
    d0 = d0 - 0.5 * vol_sqrt
    d1 = d0 + vol_sqrt
    disc_s = math.exp(-params.dvd * tau)
    disc_k = params.K * math.exp(-params.r * tau)
    n_d1 = normal_cdf(d1)
    y = S_arr * disc_s * n_d1 - disc_k * normal_cdf(d0)
    z = S_arr * disc_s * n_d1 * params.sigma
    if np.isscalar(S) or np.asarray(S).ndim == 0:
        return float(y), float(z)
    return y, z


# --- example: one-dimensional decoupled logistic-type problem ----------------


def _ex51_b(t, X, Y, Z):
    e = np.exp(t + X[:, 0])
    return (1.0 / (1.0 + 2.0 * e))[:, None]


def _ex51_sigma(t, X, Y, Z):
    e = np.exp(t + X[:, 0])
    return (e / (1.0 + e))[:, None, None]


def _ex51_f(t, X, Y, Z):
    e = np.exp(t + X[:, 0])
    y = Y[:, 0]
    z = Z[:, 0, 0]
    return (-2.0 * y / (1.0 + 2.0 * e) - 0.5 * (y * z / (1.0 + e) - y**2 * z))[:, None]


def _ex51_exact_y(t, X):
    e = np.exp(t + X[:, 0])
    return (e / (1.0 + e))[:, None]


def _ex51_exact_z(t, X):
    e = np.exp(t + X[:, 0])
    return (e**2 / (1.0 + e) ** 3)[:, None, None]


def _ex51_phi(X):
    return _ex51_exact_y(1.0, X)


def _ex51_grad_phi(X):
    e = np.exp(1.0 + X[:, 0])
    return (e / (1.0 + e) ** 2)[:, None, None]


# --- example: Black-Scholes European call ------------------------------------
#
# The forward state is the log-price x = ln S, under which the geometric
# dynamics dS = b S dt + sigma S dW become constant-coefficient
# dx = (b - sigma^2/2) dt + sigma dW.  The value and hedge processes are
# coordinate-invariant (Y_t = V(t, S_t), Z_t = S V_S sigma either way), so
# errors against the closed form are unchanged; a uniform grid in S itself
# would put hundreds of cells under each quadrature fan at the strike scale,
# where the multistep/quadrature composition loses stability.

BS_PARAMS = BlackScholesParams(b=0.05, sigma=0.2, r=0.03, dvd=0.04, K=100.0, S0=100.0, T=1.0)


def _ex52_b(t, X, Y, Z):
    return np.full_like(X, BS_PARAMS.b - 0.5 * BS_PARAMS.sigma**2)


def _ex52_sigma(t, X, Y, Z):
    return np.full((X.shape[0], 1, 1), BS_PARAMS.sigma)


def _ex52_f(t, X, Y, Z):
    carry = (BS_PARAMS.b - BS_PARAMS.r + BS_PARAMS.dvd) / BS_PARAMS.sigma
    return -(BS_PARAMS.r * Y + carry * Z[:, :, 0])


def _ex52_phi(X):
    return np.maximum(np.exp(X) - BS_PARAMS.K, 0.0)


def _ex52_grad_phi(X):
    S = np.exp(X[:, 0])
    return np.where(S > BS_PARAMS.K, S, 0.0)[:, None, None]


def _ex52_exact_y(t, X):
    S = np.exp(X[:, 0])
    if t >= BS_PARAMS.T - 1e-14:
        return np.maximum(S - BS_PARAMS.K, 0.0)[:, None]
    y, _ = black_scholes_exact(BS_PARAMS, t, S)
    return y[:, None]


def _ex52_exact_z(t, X):
    S = np.exp(X[:, 0])
    if t >= BS_PARAMS.T - 1e-14:
        return np.where(S > BS_PARAMS.K, BS_PARAMS.sigma * S, 0.0)[:, None, None]
    _, z = black_scholes_exact(BS_PARAMS, t, S)
    return z[:, None, None]


# --- example: two-dimensional decoupled system (q=2, p=2, d=1) ---------------

_ALPHA1 = 0.5
_ALPHA2 = 0.5


def _ex53_b(t, X, Y, Z):
    return np.stack(
        [
            _ALPHA1 * np.sin(t + X[:, 0]) ** 2,
            _ALPHA2 * np.sin(t + X[:, 1]) ** 2,
        ],
        axis=-1,
    )


def _ex53_sigma(t, X, Y, Z):
    return np.stack(
        [
            _ALPHA2 * np.cos(t + X[:, 1]) ** 2,
            _ALPHA1 * np.cos(t + X[:, 0]) ** 2,
        ],
        axis=-1,
    )[:, :, None]


def _ex53_f(t, X, Y, Z):
    a = t + X[:, 0]
    c = t + X[:, 1]
    cos_a, sin_a, cos_c, sin_c = np.cos(a), np.sin(a), np.cos(c), np.sin(c)
    y1, y2 = Y[:, 0], Y[:, 1]
    z1, z2 = Z[:, 0, 0], Z[:, 1, 0]
    quartic = _ALPHA2**2 * cos_c**4 + _ALPHA1**2 * cos_a**4
    f1 = (
        -(1.0 + _ALPHA1) * cos_a * sin_c
        - z2
        + 0.5 * y1 * quartic
        - _ALPHA1 * _ALPHA2 * y2**3
        - (1.0 + _ALPHA2) * sin_a * cos_c
    )
    f2 = (
        (1.0 + _ALPHA1) * sin_a * cos_c
        - z1
        + 0.5 * y2 * quartic
        - _ALPHA1 * _ALPHA2 * y1 * y2**2
        + (1.0 + _ALPHA2) * cos_a * sin_c
    )
    return np.stack([f1, f2], axis=-1)


def _ex53_exact_y(t, X):
    a = t + X[:, 0]
    c = t + X[:, 1]
    return np.stack([np.sin(a) * np.sin(c), np.cos(a) * np.cos(c)], axis=-1)


def _ex53_exact_z(t, X):
    a = t + X[:, 0]
    c = t + X[:, 1]
    z1 = _ALPHA2 * np.cos(a) * np.sin(c) * np.cos(c) ** 2 + _ALPHA1 * np.sin(a) * np.cos(
        c
    ) * np.cos(a) ** 2
    z2 = -_ALPHA2 * np.sin(a) * np.cos(c) ** 3 - _ALPHA1 * np.cos(a) ** 3 * np.sin(c)
    return np.stack([z1, z2], axis=-1)[:, :, None]


def _ex53_phi(X):
    return _ex53_exact_y(1.0, X)


def _ex53_grad_phi(X):
    a = 1.0 + X[:, 0]
    c = 1.0 + X[:, 1]
    row1 = np.stack([np.cos(a) * np.sin(c), np.sin(a) * np.cos(c)], axis=-1)
    row2 = np.stack([-np.sin(a) * np.cos(c), -np.cos(a) * np.sin(c)], axis=-1)
    return np.stack([row1, row2], axis=1)


# --- example: coupled problems with sigma reading y (and z) ------------------


def _ex54_b(t, X, Y, Z):
    return (np.cos(t + X[:, 0]) * (Y[:, 0] + Z[:, 0, 0]))[:, None]


def _ex54a_sigma(t, X, Y, Z):
    return (_SQRT2 * Y[:, 0] * np.sin(t + X[:, 0]))[:, None, None]


def _ex54a_f(t, X, Y, Z):
    u = t + X[:, 0]
    y = Y[:, 0]
    z = Z[:, 0, 0]
    return (-np.cos(u) - y - z + np.sin(u) ** 2 * (y + z + y**3))[:, None]


def _ex54a_exact_z(t, X):
    u = t + X[:, 0]
    return (_SQRT2 * np.cos(u) * np.sin(u) ** 2)[:, None, None]


def _ex54b_sigma(t, X, Y, Z):
    return (_SQRT2 * (Y[:, 0] * np.sin(t + X[:, 0]) + 1.0))[:, None, None]


def _ex54b_f(t, X, Y, Z):
    u = t + X[:, 0]
    s2 = np.sin(u) ** 2
    return (-np.cos(u) - np.cos(u) ** 2 * Z[:, 0, 0] + (3.0 * s2 + s2**2) * Y[:, 0])[:, None]


def _ex54b_exact_z(t, X):
    u = t + X[:, 0]
    return (_SQRT2 * np.cos(u) * (np.sin(u) ** 2 + 1.0))[:, None, None]


def _ex55_b(t, X, Y, Z):
    u = t + X[:, 0]
    return (-0.5 * np.sin(u) * np.cos(u) * (Y[:, 0] ** 2 + Z[:, 0, 0]))[:, None]


def _ex55_sigma(t, X, Y, Z):
    u = t + X[:, 0]
    return (0.5 * np.cos(u) * (Y[:, 0] * np.sin(u) + Z[:, 0, 0] + 1.0))[:, None, None]


def _ex55_f(t, X, Y, Z):
    return (Y[:, 0] * Z[:, 0, 0] - np.cos(t + X[:, 0]))[:, None]


def _ex55_exact_z(t, X):
    return (np.cos(t + X[:, 0]) ** 2)[:, None, None]


def _sine_exact_y(t, X):
    return np.sin(t + X[:, 0])[:, None]


def _sine_phi(X):
    return _sine_exact_y(1.0, X)


def _sine_grad_phi(X):
    return np.cos(1.0 + X[:, 0])[:, None, None]


def _build_ex51() -> FbsdeProblem:
    return FbsdeProblem(
        name="ex51", q=1, p=1, d=1,
        b=_ex51_b, sigma=_ex51_sigma, f=_ex51_f,
        phi=_ex51_phi, grad_phi=_ex51_grad_phi,
        exact_y=_ex51_exact_y, exact_z=_ex51_exact_z,
        T=1.0, x0=[1.0], coupled=False,
    )


def _build_ex52() -> FbsdeProblem:
    return FbsdeProblem(
        name="ex52_bs", q=1, p=1, d=1,
        b=_ex52_b, sigma=_ex52_sigma, f=_ex52_f,
        phi=_ex52_phi, grad_phi=_ex52_grad_phi,
        exact_y=_ex52_exact_y, exact_z=_ex52_exact_z,
        T=BS_PARAMS.T, x0=[math.log(BS_PARAMS.S0)], coupled=False,
        grid_scale=BS_PARAMS.sigma, smooth_terminal=False,
    )


def _build_ex53() -> FbsdeProblem:
    return FbsdeProblem(
        name="ex53_2d", q=2, p=2, d=1,
        b=_ex53_b, sigma=_ex53_sigma, f=_ex53_f,
        phi=_ex53_phi, grad_phi=_ex53_grad_phi,
        exact_y=_ex53_exact_y, exact_z=_ex53_exact_z,
        T=1.0, x0=[1.0, 1.0], coupled=False,
    )


def _build_ex54a() -> FbsdeProblem:
    return FbsdeProblem(
        name="ex54a", q=1, p=1, d=1,
        b=_ex54_b, sigma=_ex54a_sigma, f=_ex54a_f,
        phi=_sine_phi, grad_phi=_sine_grad_phi,
        exact_y=_sine_exact_y, exact_z=_ex54a_exact_z,
        T=1.0, x0=[1.0], coupled=True,
    )


def _build_ex54b() -> FbsdeProblem:
    return FbsdeProblem(
        name="ex54b", q=1, p=1, d=1,
        b=_ex54_b, sigma=_ex54b_sigma, f=_ex54b_f,
        phi=_sine_phi, grad_phi=_sine_grad_phi,
        exact_y=_sine_exact_y, exact_z=_ex54b_exact_z,
        T=1.0, x0=[1.0], coupled=True,
    )


def _build_ex55() -> FbsdeProblem:
    return FbsdeProblem(
        name="ex55", q=1, p=1, d=1,
        b=_ex55_b, sigma=_ex55_sigma, f=_ex55_f,
        phi=_sine_phi, grad_phi=_sine_grad_phi,
        exact_y=_sine_exact_y, exact_z=_ex55_exact_z,
        T=1.0, x0=[1.5], coupled=True,
    )


_REGISTRY = {
    "ex51": _build_ex51,
    "ex52_bs": _build_ex52,
    "ex53_2d": _build_ex53,
    "ex54a": _build_ex54a,
    "ex54b": _build_ex54b,
    "ex55": _build_ex55,
}


def registry_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def registry_get(name: str) -> FbsdeProblem:
    """Look up one of the benchmark problems by name."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; valid names: {', '.join(_REGISTRY)}"
        ) from None
    return builder()
