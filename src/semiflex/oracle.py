"""Brute-force reference implementations at desk scale.

Everything here is deliberately independent of the fast paths: partition sums
by exhaustive enumeration over increment tuples with compensated summation,
and the bivariate normal endpoint density evaluated straight from the exact
walk/area covariance.  Production modules are validated against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .model import ModelParams, Potential

__all__ = [
    "EnumerationSpec",
    "EnumerationResult",
    "enumerate_configs",
    "gaussian_functional_density",
    "mapped_boundary_density",
]

_MAX_TUPLES = 100_000_000
_CHUNK = 262_144


@dataclass(frozen=True)
class EnumerationSpec:
    """Exhaustive sweep over (lap_1, ..., lap_N) tuples from a finite support."""

    params: ModelParams
    pot: Potential
    support: tuple[float, ...]
    xi1: float = 0.0

    def __post_init__(self):
        if self.params.n_sites > 8:
            raise ValueError("enumeration is capped at 8 sites")
        if len(self.support) < 1:
            raise ValueError("support must be nonempty")
        count = len(self.support) ** self.params.n_sites
        if count > _MAX_TUPLES:
            raise ValueError(f"{count} tuples exceed the enumeration cap {_MAX_TUPLES}")


class EnumerationResult(NamedTuple):
    z: float                  # restricted-to-support partition sum
    probability: float        # weight fraction on the event (1.0 if no event)
    conditional_mean: float   # E[statistic | event] (nan if no statistic or empty event)


def _heights_from_laps(laps: np.ndarray, spec: EnumerationSpec) -> np.ndarray:
    """Vectorized reconstruction: rows of (phi_0..phi_{N+1}) from lap tuples.

    Deliberately not `model._heights`: the oracle checks the samplers, which
    rebuild heights through that kernel, so it keeps its own two cumsums as
    an independent reference.
    """
    eps = spec.params.epsilon
    m, n = laps.shape
    xi = np.empty((m, n + 1))
    xi[:, 0] = spec.xi1
    np.cumsum(laps, axis=1, out=xi[:, 1:])
    xi[:, 1:] += spec.xi1
    phi = np.empty((m, n + 2))
    phi[:, 0] = 0.0
    np.cumsum(xi, axis=1, out=phi[:, 1:])
    return phi


def enumerate_configs(
    spec: EnumerationSpec,
    event: Callable[[np.ndarray], np.ndarray] | None = None,
    statistic: Callable[[np.ndarray], np.ndarray] | None = None,
) -> EnumerationResult:
    """Exact sums over every increment tuple.

    `event` and `statistic` receive a (chunk, N+2) height matrix and must return
    a boolean / float vector per row.  Sums are accumulated with math.fsum so
    the result does not depend on chunking.
    """
    n = spec.params.n_sites
    eps = spec.params.epsilon
    support = np.asarray(spec.support, dtype=float)
    k = support.size

    z_parts, ev_parts, st_parts = [], [], []
    # enumerate lap tuples in lexicographic chunks
    total = k ** n
    n_outer = max(1, math.ceil(total / _CHUNK))
    outer_digits = max(0, math.ceil(math.log(n_outer, k))) if k > 1 else 0
    outer_digits = min(outer_digits, n)
    inner = n - outer_digits

    inner_grid = np.array(list(product(support, repeat=inner)), dtype=float)
    for head in product(support, repeat=outer_digits):
        if outer_digits:
            laps = np.empty((inner_grid.shape[0], n))
            laps[:, :outer_digits] = np.asarray(head)
            laps[:, outer_digits:] = inner_grid
        else:
            laps = inner_grid
        weights = np.exp(-eps * np.sum(spec.pot(laps / eps), axis=1))
        z_parts.append(math.fsum(weights.tolist()))
        if event is not None or statistic is not None:
            phi = _heights_from_laps(laps, spec)
            if event is not None:
                mask = np.asarray(event(phi), dtype=bool)
                ev_parts.append(math.fsum(weights[mask].tolist()))
            else:
                mask = slice(None)
            if statistic is not None:
                vals = np.asarray(statistic(phi), dtype=float)
                st_parts.append(math.fsum((weights[mask] * vals[mask]).tolist()))

    z = math.fsum(z_parts)
    if z <= 0:
        raise ValueError("partition sum vanished; weights degenerate")
    ev = math.fsum(ev_parts) if ev_parts else z
    st = math.fsum(st_parts) if st_parts else math.nan
    prob = ev / z
    cond_mean = st / ev if (st_parts and ev > 0) else math.nan
    return EnumerationResult(z=z, probability=prob, conditional_mean=cond_mean)


def gaussian_functional_density(n_sites: int, sigma2: float, x, y):
    """Bivariate normal density of (X_N, Y_N) at (x, y): covariance
    [[N s, N s/2], [N s/2, N(2N+1)s/(6(N+1))]] with s = sigma2.

    Vectorized over (x, y); scalars in, scalar out."""
    n = n_sites
    if n < 1 or not (sigma2 > 0):
        raise ValueError("need n_sites >= 1 and sigma2 > 0")
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
