"""Brute-force references at desk scale, and the one place where the fast
paths are checked against them.

The reference is deliberately independent of the fast paths:
`enumerate_configs` (with `_heights_from_laps`) builds every increment
tuple in one pass, at most 2^18 of them, and takes exactly rounded sums
(math.fsum) over them, using only `model`'s parameters and potentials;
`gaussian_functional_density` / `mapped_boundary_density` evaluate the
endpoint density straight from the walk/area covariance.
`path_sum_check`, `bridge_marginal_check` and the `oracle-check` sweep
`cross_check_sweep` run a fast path and the reference on the same event;
only they call into `confinement` and `sampling`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import confinement, gaussian, sampling
from .model import (BoundaryConditions, GaussianPotential, ModelParams, Potential,
                    TabulatedPotential, build_increment_dist)

__all__ = [
    "EnumerationSpec",
    "EnumerationResult",
    "MarginalCheck",
    "enumerate_configs",
    "gaussian_functional_density",
    "mapped_boundary_density",
    "path_sum_check",
    "bridge_marginal_check",
    "cross_check_sweep",
]

# the most tuples one pass holds: 2^18 rows of N laps, heights and weights
_MAX_TUPLES = 2 ** 18


@dataclass(frozen=True)
class EnumerationSpec:
    """Exhaustive sweep over (lap_1, ..., lap_N) tuples from a finite support."""

    params: ModelParams
    pot: Potential
    support: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) < 1:
            raise ValueError("support must be nonempty")
        count = len(self.support) ** self.params.n_sites
        if count > _MAX_TUPLES:
            raise ValueError(f"{count} tuples exceed the enumeration cap {_MAX_TUPLES}")


class EnumerationResult(NamedTuple):
    z: float                  # restricted-to-support partition sum
    probability: float        # weight fraction on the event (1.0 if no event)
    # E[statistic | event] (nan if no statistic or empty event), k of them for k columns
    conditional_mean: float | np.ndarray


def _heights_from_laps(laps: np.ndarray) -> np.ndarray:
    """Vectorized reconstruction: rows of (phi_0..phi_{N+1}) from lap tuples,
    with phi_0 = phi_1 = 0.

    Deliberately not `model._heights`: the oracle checks the samplers, which
    rebuild heights through that kernel, so it keeps its own two cumsums as
    an independent reference.
    """
    m, n = laps.shape
    xi = np.empty((m, n + 1))
    xi[:, 0] = 0.0
    np.cumsum(laps, axis=1, out=xi[:, 1:])
    phi = np.empty((m, n + 2))
    phi[:, 0] = 0.0
    np.cumsum(xi, axis=1, out=phi[:, 1:])
    return phi


def enumerate_configs(
    spec: EnumerationSpec,
    event: Callable[[np.ndarray], np.ndarray] | None = None,
    statistic: Callable[[np.ndarray], np.ndarray] | None = None,
) -> EnumerationResult:
    """Exact sums over every increment tuple, in one pass.

    The k^N lap tuples are built at once, as the rows that
    `itertools.product(support, repeat=N)` yields and in the same order;
    `_MAX_TUPLES` keeps them to one array.  `event` and `statistic` receive
    the (k^N, N+2) height matrix.  `event` returns a boolean per row;
    `statistic` a float per row, or a (rows, k) matrix for k statistics from
    one pass, each column summed exactly as a scalar statistic would be.
    The partition sum, the event mass and each statistic column are one
    math.fsum over all tuples, so each is exactly rounded.
    """
    n = spec.params.n_sites
    eps = spec.params.epsilon
    support = np.asarray(spec.support, dtype=float)
    k = support.size
    laps = support[np.stack(np.unravel_index(np.arange(k ** n), (k,) * n), axis=1)]
    weights = np.exp(-eps * np.sum(spec.pot(laps / eps), axis=1))
    z = math.fsum(weights.tolist())
    if z <= 0:
        raise ValueError("partition sum vanished; weights degenerate")
    ev, cond_mean = z, math.nan
    if event is not None or statistic is not None:
        phi = _heights_from_laps(laps)
        if event is not None:
            mask = np.asarray(event(phi), dtype=bool)
            weights = weights[mask]
            ev = math.fsum(weights.tolist())
        if statistic is not None:
            vals = np.asarray(statistic(phi), dtype=float)
            kept = vals if event is None else vals[mask]
            kept = kept if kept.ndim == 2 else kept[:, None]
            means = [math.fsum(col) / ev if ev > 0 else math.nan
                     for col in (weights[:, None] * kept).T.tolist()]
            cond_mean = np.array(means) if vals.ndim == 2 else means[0]
    return EnumerationResult(z=z, probability=ev / z, conditional_mean=cond_mean)


def gaussian_functional_density(n_sites: int, sigma2: float, x, y):
    """Bivariate normal density of (X_N, Y_N) at (x, y): covariance
    [[N s, N s/2], [N s/2, N(2N+1)s/(6(N+1))]] with s = sigma2.

    Vectorized over (x, y); scalars in, scalar out."""
    n = n_sites
    if n < 2 or not (sigma2 > 0):
        raise ValueError("need n_sites >= 2 and sigma2 > 0")
    vxx = n * sigma2
    vxy = 0.5 * n * sigma2
    vyy = n * (2 * n + 1) * sigma2 / (6.0 * (n + 1))
    det = vxx * vyy - vxy * vxy
    if det <= 0:
        raise ValueError("degenerate endpoint covariance")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    quad = (vyy * x * x - 2.0 * vxy * x * y + vxx * y * y) / det
    dens = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
    if dens.ndim == 0:
        return float(dens)
    return dens


def mapped_boundary_density(n_sites: int, kappa: float, c: float,
                            xi_left: float, xi_right: float) -> float:
    """Endpoint-pair density (phi_N, phi_{N+1}) of the continuous Gaussian chain
    with eps = c/N, at the boundary values for slope zero.

    The walk/area density is evaluated at the mapped constraints
    x = -(xiL + xiR)/eps, y = -xiL/eps and multiplied by the Jacobian
    1/(eps^2 (N+1)) of the linear change of variables.  This is the
    independent reference for exact_boundary_density, with two documented
    convention offsets that are reported rather than rescaled away:

      * slope units: exact_boundary_density takes slopes standardized by
        the per-step gradient scale, so its (xiL, xiR) correspond to raw
        slopes (sqrt(N) xiL, sqrt(N) xiR) here; with that substitution the
        two quadratic forms coincide identically in (xiL, xiR, kappa, c);
      * normalization: the remaining ratio is the constant N^2 / (c (N+1))
        for every slope pair (density of the mapped pair versus the
        local-probability prefactor convention of the closed form).
    """
    n = n_sites
    eps = c / n
    sigma2 = 1.0 / (eps * kappa)
    x = -(xi_left + xi_right) / eps
    y = -xi_left / eps
    dens = gaussian_functional_density(n, sigma2, x, y)
    return dens / (eps * eps * (n + 1))


# ---------------------------------------------------------------------------
# the fast paths against the reference

def path_sum_check(params: ModelParams, pot: Potential, support: Sequence[float],
                   rho: float) -> tuple[float, float]:
    """P(|phi_k| <= R for k = 1..N) on the lattice law restricted to
    `support`, as (transfer-operator path sum, enumeration), for a tube of
    width rho; enumeration takes R from the operator's radius."""
    n = params.n_sites
    op = confinement.build_transfer(params, pot, confinement.TubeSpec(rho), support=support)
    res = enumerate_configs(EnumerationSpec(params, pot, tuple(support)),
                            event=lambda h: np.max(np.abs(h[:, 1:n + 1]), axis=1) <= op.radius)
    return confinement.survival_probability(op, n), res.probability


class MarginalCheck(NamedTuple):
    sampled: np.ndarray     # (sites, values) frequencies of phi_j = v
    exact: np.ndarray       # the same P(phi_j = v | zero bridge) by enumeration
    error: np.ndarray       # |sampled - exact|


def bridge_marginal_check(samples: np.ndarray, params: ModelParams, pot: Potential,
                          support: Sequence[float], sites: Sequence[int],
                          values: Sequence[float]) -> MarginalCheck:
    """Site marginals of zero-bridge samples (heights rows, phi_N = phi_{N+1}
    = 0) against the enumerated law conditioned on that bridge, for every
    site j in `sites` and value v in `values`, from one enumeration."""
    n = params.n_sites
    sites, values = list(sites), np.asarray(values, dtype=float)
    res = enumerate_configs(
        EnumerationSpec(params, pot, tuple(support)),
        event=lambda h: (h[:, n] == 0.0) & (h[:, n + 1] == 0.0),
        statistic=lambda h: (h[:, sites, None] == values).reshape(len(h), -1).astype(float))
    exact = res.conditional_mean.reshape(len(sites), values.size)
    sampled = (samples[:, sites, None] == values).mean(axis=0)
    return MarginalCheck(sampled, exact, np.abs(sampled - exact))


def cross_check_sweep(n_max: int, seed: int) -> list[dict]:
    """Every fast path against the reference at N <= n_max (3..8), on
    increments in {-1, 0, 1}: transfer path sums, the walk/area moments, the
    free sampler's endpoint, one bridge MCMC marginal, and the endpoint
    density's normalization.  Returns one {name, measured, bound, passed}
    record per check."""
    if not 3 <= n_max <= 8:
        raise ValueError(f"n_max must lie in 3..8, got {n_max}")
    checks: list[dict] = []

    def record(name: str, measured: float, bound: float) -> None:
        checks.append({"name": name, "measured": measured, "bound": bound,
                       "passed": bool(measured <= bound)})

    support = (-1.0, 0.0, 1.0)
    pots = {"gaussian": GaussianPotential(kappa=1.0),
            "zero": TabulatedPotential(np.linspace(-2.0, 2.0, 5), np.zeros(5))}

    for n in range(3, n_max + 1):
        params = ModelParams(n, 1.0, float(n), height_mode="discrete")
        for pname, pot in pots.items():
            # a tube of radius 1 on the lattice
            s2 = build_increment_dist(pot, params, truncation=1.0).sigma2
            path_sum, exact = path_sum_check(params, pot, support, 1.5 / math.sqrt(s2 * n))
            record(f"transfer_vs_enumeration_{pname}_n{n}",
                   abs(path_sum - exact) / exact, 1e-12)

    # iid partial-sum identities: Var X_N, Cov(X,Y), Var Y_N from enumeration,
    # with X_N = (xi_{N+1} - xi_1)/eps and Y_N = phi_{N+1}/(eps (N+1)) at eps = 1
    # and xi_1 = 0; then the free sampler's far endpoint, mean and variance
    n = n_max
    params = ModelParams(n, 1.0, float(n), height_mode="discrete")
    pot = pots["gaussian"]
    dist = build_increment_dist(pot, params, truncation=1.0)
    var_x, cov_xy, var_y = gaussian.xy_moments(n, n, dist.sigma2)

    def moments(hh):
        x, y = hh[:, n + 1] - hh[:, n], hh[:, n + 1] / (n + 1)
        end = hh[:, n + 1]
        return np.stack((x ** 2, x * y, y ** 2, end, end ** 2), axis=1)

    ex2, exy, ey2, e_end, e_end2 = enumerate_configs(
        EnumerationSpec(params, pot, support), statistic=moments).conditional_mean.tolist()
    record(f"moment_var_x_n{n}", abs(ex2 - var_x) / var_x, 1e-12)
    record(f"moment_cov_xy_n{n}", abs(exy - cov_xy) / cov_xy, 1e-12)
    record(f"moment_var_y_n{n}", abs(ey2 - var_y) / var_y, 1e-12)

    settings = sampling.ChainSettings(seed=seed, n_samples=20_000)
    end = sampling.sample_free(params, dist, 0.0, settings)[:, n + 1]
    v_end = e_end2 - e_end ** 2
    record(f"free_sampler_mean_n{n}", abs(float(end.mean()) - e_end),
           5.0 * math.sqrt(v_end / len(end)))
    record(f"free_sampler_var_n{n}", abs(float(end.var(ddof=1)) - v_end) / v_end, 0.05)

    # bridge MCMC marginal against conditioned enumeration
    mc_settings = sampling.ChainSettings(seed=seed, n_samples=4000, burn_in=500, thin=2)
    mc = sampling.sample_bridge_mcmc(params, pot, BoundaryConditions(0.0, 0.0, 0.0),
                                     mc_settings, truncation=1.0)
    check = bridge_marginal_check(mc, params, pot, support, [(n + 1) // 2], [0.0])
    record(f"mcmc_bridge_marginal_n{n}", float(check.error[0, 0]), 0.03)

    # bivariate endpoint density integrates to one
    grid = np.linspace(-40.0, 40.0, 401)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    dens = gaussian_functional_density(8, 1.0, xx, yy)
    total = float(np.trapezoid(np.trapezoid(dens, grid, axis=1), grid))
    record("functional_density_normalization", abs(total - 1.0), 1e-6)
    return checks
