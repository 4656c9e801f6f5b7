"""Closed-form Gaussian statistics of the increment walk and its scaling limit.

The walk/area pair Z_m = (X_m, Y_m) of i.i.d. increments with variance sigma^2
has explicit second moments; conditioned on the endpoint pair (X_N, Y_N) the
rescaled area path converges to a Gaussian process on [0, 1] whose mean and
covariance are polynomials in t.  This module evaluates those limits and the
finite-dimensional covariance matrix (the integrated-walk kernel), plus the
exact endpoint density of the Gaussian chain.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .model import (
    GaussianPotential,
    ModelParams,
    Potential,
    TabulatedPotential,
    _lattice_law,
    _step_weights,
)

__all__ = [
    "GridTimes",
    "ConditionedSpec",
    "sigma2_increment",
    "xy_moments",
    "q_matrix",
    "theta_mean",
    "theta_cov",
    "conditional_gaussian",
    "exact_boundary_density",
    "matrix_to_csv",
    "matrix_from_csv",
]


@dataclass(frozen=True)
class GridTimes:
    """Strictly increasing interior times in (0, 1); may be empty."""

    times: np.ndarray

    def __init__(self, times):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.size and (np.any(times <= 0) or np.any(times >= 1)):
            raise ValueError("grid times must lie strictly inside (0, 1)")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ConditionedSpec:
    """Limit endpoint data: a = lim X_N/(sigma sqrt(N)), b = lim Y_N/(sigma sqrt(N))."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("conditioning values must be finite")


def sigma2_increment(pot: Potential, params: ModelParams) -> float:
    """Variance of one increment under the step weight exp(-eps * Phi).

    Continuous Gaussian is closed form, 1/(eps*kappa).  Other continuous
    potentials go through adaptive quadrature; discrete mode takes the
    variance of the cut lattice law over eta in eps^-1 * Z, the one the
    increment sampler and the transfer operator use.
    """
    eps = params.epsilon
    if params.height_mode == "continuous":
        if isinstance(pot, GaussianPotential):
            return 1.0 / (eps * pot.kappa)
        if isinstance(pot, TabulatedPotential):
            lo, hi = pot.grid[0], pot.grid[-1]
        else:
            lo, hi = -np.inf, np.inf
        w = lambda x: math.exp(-eps * float(pot(x)))
        z0, z0_err = integrate.quad(w, lo, hi, limit=200)
        m1, _ = integrate.quad(lambda x: x * w(x), lo, hi, limit=200)
        m2, m2_err = integrate.quad(lambda x: x * x * w(x), lo, hi, limit=200)
        if not (z0 > 0) or not math.isfinite(m2) or m2_err > 1e-8 * max(m2, 1.0):
            raise ValueError("increment weight is not normalizable with finite variance")
        mean = m1 / z0
        return m2 / z0 - mean * mean

    # discrete: the lattice law eta in eps^-1 * Z that the sampler draws from
    offsets, weights = _step_weights(pot, eps)
    return _lattice_law(offsets, weights, eps)[2]


def xy_moments(m: int, n_sites: int, sigma2: float) -> tuple[float, float, float]:
    """Exact (Var X_m, Cov(X_m, Y_m), Var Y_m) for 1 <= m <= N."""
    if not 1 <= m <= n_sites:
        raise ValueError(f"m must be in [1, {n_sites}], got {m}")
    n1 = n_sites + 1
    var_x = m * sigma2
    cov = m * (m + 1) * sigma2 / (2.0 * n1)
    var_y = m * (m + 1) * (2 * m + 1) * sigma2 / (6.0 * n1 * n1)
    return var_x, cov, var_y


def _f(t):
    return 0.5 * t * t


def _g(s, t):
    """Integrated-walk covariance kernel, s <= t elementwise."""
    return s * s * (3.0 * t - s) / 6.0


def q_matrix(times: GridTimes | np.ndarray) -> np.ndarray:
    """Covariance of (w_1, J(t_1), ..., J(t_k), J(1)) for the walk/integrated-walk
    pair: entry (0,0) is 1, row 0 is t^2/2, and the J block is s^2(3t-s)/6."""
    if not isinstance(times, GridTimes):
        times = GridTimes(times)
    t = np.concatenate((times.times, [1.0]))
    k1 = t.size
    q = np.empty((k1 + 1, k1 + 1))
    q[0, 0] = 1.0
    q[0, 1:] = _f(t)
    q[1:, 0] = _f(t)
    s_col, t_row = np.meshgrid(t, t, indexing="ij")
    lo = np.minimum(s_col, t_row)
    hi = np.maximum(s_col, t_row)
    q[1:, 1:] = _g(lo, hi)
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


def conditional_gaussian(times: GridTimes | np.ndarray, spec: ConditionedSpec):
    """Mean vector and covariance of (theta(t_1), ..., theta(t_k)) given the
    endpoint pair, by Schur complement of the covariance in q_matrix."""
    if not isinstance(times, GridTimes):
        times = GridTimes(times)
    if len(times) == 0:
        return np.zeros(0), np.zeros((0, 0))
    q = q_matrix(times)
    k = len(times)
    obs = np.arange(1, k + 1)
    cond = np.array([0, k + 1])
    q_oo = q[np.ix_(obs, obs)]
    q_oc = q[np.ix_(obs, cond)]
    q_cc = q[np.ix_(cond, cond)]
    solve = np.linalg.solve(q_cc, q_oc.T)  # (2, k)
    mean = solve.T @ np.array([spec.a, spec.b])
    cov = q_oo - q_oc @ solve
    return mean, 0.5 * (cov + cov.T)


def exact_boundary_density(n_sites: int, kappa: float, c: float,
                           xi_left: float, xi_right: float) -> float:
    """Exact endpoint density of the Gaussian chain at slope zero:

        kappa/(2 pi N^2) * sqrt(12(N+1)/(N-1))
          * exp{-[(2N+1)xiL^2 - 2(N+2) xiL xiR + (2N+1) xiR^2] * N kappa / (c (N-1))}

    Stated for N > 1.  See the oracle module for the measured normalization
    ratio against the mapped walk/area density.
    """
    n = n_sites
    if n <= 1:
        raise ValueError(f"n_sites must be > 1, got {n}")
    if not (kappa > 0 and c > 0):
        raise ValueError("kappa and c must be positive")
    quad = ((2 * n + 1) * (xi_left ** 2 + xi_right ** 2)
            - 2.0 * (n + 2) * xi_left * xi_right)
    pref = kappa / (2.0 * math.pi * n * n) * math.sqrt(12.0 * (n + 1) / (n - 1))
    return pref * math.exp(-quad * n * kappa / (c * (n - 1)))


# ---------------------------------------------------------------------------
# serialization

def matrix_to_csv(matrix: np.ndarray, labels: list[str], path,
                  comment: str | None = None) -> None:
    """Row-major CSV with a header row of labels."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or len(labels) != matrix.shape[0]:
        raise ValueError("matrix must be square with one label per row/column")
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(labels)
        for row in matrix:
            writer.writerow([f"{v:.17g}" for v in row])


def matrix_from_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    labels = rows[0]
    matrix = np.array([[float(v) for v in r] for r in rows[1:]])
    if matrix.shape != (len(labels), len(labels)):
        raise ValueError(f"{path}: matrix shape does not match header")
    return matrix, labels
