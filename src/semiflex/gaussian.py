"""Closed-form Gaussian statistics of the increment walk and its scaling limit.

The walk/area pair Z_m = (X_m, Y_m) of i.i.d. increments with variance sigma^2
has explicit second moments; conditioned on the endpoint pair (X_N, Y_N) the
rescaled area path converges to a Gaussian process on [0, 1] whose mean and
covariance are polynomials in t.  This module evaluates those limits and the
finite-dimensional covariance matrix (the integrated-walk kernel), plus the
exact endpoint density of the Gaussian chain.  sigma^2 itself is read from
the step law that `model.build_increment_dist` assembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Potential, build_increment_dist

__all__ = [
    "GridTimes",
    "ConditionedSpec",
    "sigma2_increment",
    "xy_moments",
    "q_matrix",
    "theta_mean",
    "theta_cov",
    "exact_boundary_density",
]


@dataclass(frozen=True)
class GridTimes:
    """Strictly increasing interior times in (0, 1); may be empty."""

    times: np.ndarray

    def __init__(self, times):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.all((0 < times) & (times < 1)):
            raise ValueError("grid times must lie strictly inside (0, 1)")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class ConditionedSpec:
    """Limit endpoint data: a = lim X_N/(sigma sqrt(N)), b = lim Y_N/(sigma sqrt(N))."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("conditioning values must be finite")


def sigma2_increment(pot: Potential, params: ModelParams) -> float:
    """Variance of one increment under the step weight exp(-eps * Phi): the
    sigma2 of the untruncated law `model.build_increment_dist` draws from,
    so the scaling limit, the tube radius and the samplers share one law."""
    return build_increment_dist(pot, params).sigma2


def xy_moments(m: int, n_sites: int, sigma2: float) -> tuple[float, float, float]:
    """Exact (Var X_m, Cov(X_m, Y_m), Var Y_m) for 1 <= m <= N."""
    if not 1 <= m <= n_sites:
        raise ValueError(f"m must be in [1, {n_sites}], got {m}")
    n1 = n_sites + 1
    var_x = m * sigma2
    cov = m * (m + 1) * sigma2 / (2.0 * n1)
    var_y = m * (m + 1) * (2 * m + 1) * sigma2 / (6.0 * n1 * n1)
    return var_x, cov, var_y


def q_matrix(times: GridTimes | np.ndarray) -> np.ndarray:
    """Covariance of (w_1, J(t_1), ..., J(t_k), J(1)) for the walk/integrated-walk
    pair: entry (0,0) is 1, row 0 is t^2/2, and the J block is s^2(3t-s)/6."""
    if not isinstance(times, GridTimes):
        times = GridTimes(times)
    t = np.concatenate((times.times, [1.0]))
    k1 = t.size
    q = np.empty((k1 + 1, k1 + 1))
    q[0, 0] = 1.0
    q[0, 1:] = q[1:, 0] = 0.5 * t * t
    s_col, t_row = np.meshgrid(t, t, indexing="ij")
    lo = np.minimum(s_col, t_row)
    hi = np.maximum(s_col, t_row)
    q[1:, 1:] = lo * lo * (3.0 * hi - lo) / 6.0
    return q


def theta_mean(t, spec: ConditionedSpec):
    """Limit mean t^2(t-1) a + t^2(3-2t) b of the conditioned area path."""
    t = np.asarray(t, dtype=float)
    out = t * t * ((t - 1.0) * spec.a + (3.0 - 2.0 * t) * spec.b)
    return float(out) if out.ndim == 0 else out


def theta_cov(s, t):
    """Limit covariance s^2 (1-t)^2 [2t(1-s) + (t-s)] / 6 for s <= t (symmetrized)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    lo = np.minimum(s, t)
    hi = np.maximum(s, t)
    out = lo * lo * (1.0 - hi) ** 2 * (2.0 * hi * (1.0 - lo) + (hi - lo)) / 6.0
    return float(out) if out.ndim == 0 else out


def exact_boundary_density(n_sites: int, kappa: float, c: float,
                           xi_left: float, xi_right: float) -> float:
    """Exact endpoint density of the Gaussian chain at slope zero:

        kappa/(2 pi N^2) * sqrt(12(N+1)/(N-1))
          * exp{-[(2N+1)xiL^2 - 2(N+2) xiL xiR + (2N+1) xiR^2] * N kappa / (c (N-1))}

    Stated for N > 1.  Units: xi_left and xi_right are boundary slopes
    standardized by the per-step gradient scale; the raw slopes of the height
    chain are sqrt(N) times larger.  Measure: this is the local-probability
    prefactor convention, not the density of the endpoint pair.  The mapped
    walk/area density at the raw slopes (`oracle.mapped_boundary_density`)
    equals this value times the constant N^2 / (c (N+1)), for every slope
    pair.  Where the quadratic form overflows float range the exponent is
    read as s^2 times the form at the slopes over s = max |xi|, and comes
    out -inf, so the density 0.0, unless kappa / c is below about 1e-305.
    Where c (N - 1) overflows, the exponent's scale N kappa / (c (N - 1))
    is read as (kappa / c) (N / (N - 1)).
    """
    n = n_sites
    if n <= 1:
        raise ValueError(f"n_sites must be > 1, got {n}")
    if not (kappa > 0 and c > 0):
        raise ValueError("kappa and c must be positive")
    for name, value in dict(xi_left=xi_left, xi_right=xi_right).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")

    def form(left, right):
        return (2 * n + 1) * (left * left + right * right) - 2.0 * (n + 2) * left * right

    def exponent(quad):  # -quad * N kappa / (c (N - 1))
        if c * (n - 1) < math.inf:
            return -quad * n * kappa / (c * (n - 1))
        return -quad * ((kappa / c) * (n / (n - 1)))

    pref = kappa / (2.0 * math.pi * n * n) * math.sqrt(12.0 * (n + 1) / (n - 1))
    quad = form(xi_left, xi_right)
    if quad < math.inf:
        return pref * math.exp(exponent(quad))
    # inf, or inf - inf: the form is positive definite, and at slopes whose
    # larger size is 1 it lies between N - 1 and 6N + 6
    s = max(abs(xi_left), abs(xi_right))
    return pref * math.exp(exponent(form(xi_left / s, xi_right / s)) * s * s)
