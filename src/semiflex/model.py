"""Discrete stiff-polymer model: height configurations, bending energy, and
the exact change of variables to increment (random walk) coordinates.

A configuration is the vector of heights (phi_0, ..., phi_{N+1}).  The energy
couples second differences,

    H(phi) = eps * sum_{j=1}^{N} Phi(lap_j / eps),   lap_j = phi_{j+1} - 2 phi_j + phi_{j-1},

with N * eps pinned to the macroscopic length.  Everything downstream (exact
bridge statistics, tilt equations, confinement) is written against the
increment coordinates eta_j = lap_j / eps and their partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "GaussianPotential",
    "PowerLawPotential",
    "TabulatedPotential",
    "Potential",
    "PolymerConfig",
    "BoundaryConditions",
    "IncrementPath",
    "ContinuumProfile",
    "PartialSums",
    "ThetaPath",
    "EnergyCheckRow",
    "gradient",
    "laplacian",
    "hamiltonian",
    "to_increments",
    "from_increments",
    "partial_sums",
    "map_boundary",
    "theta_path",
    "discretize_profile",
    "continuum_energy_check",
]

_MODES = ("continuous", "discrete")


@dataclass(frozen=True)
class ModelParams:
    """Lattice geometry: n_sites interior sites, spacing eps, n_sites*eps ~ macro_length."""

    n_sites: int
    epsilon: float
    macro_length: float
    height_mode: str = "continuous"

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if not (self.epsilon > 0) or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (self.macro_length > 0) or not math.isfinite(self.macro_length):
            raise ValueError(f"macro_length must be positive, got {self.macro_length}")
        # the lattice must resolve the macroscopic length: |N*eps - c| <= eps
        if abs(self.n_sites * self.epsilon - self.macro_length) > self.epsilon * (1 + 1e-12):
            raise ValueError(
                f"n_sites*epsilon = {self.n_sites * self.epsilon} is not within one spacing "
                f"of macro_length = {self.macro_length}"
            )
        if self.height_mode not in _MODES:
            raise ValueError(f"height_mode must be one of {_MODES}, got {self.height_mode!r}")

    @property
    def n_heights(self) -> int:
        return self.n_sites + 2


@dataclass(frozen=True)
class GaussianPotential:
    """Phi(x) = kappa * x^2 / 2."""

    kappa: float

    def __post_init__(self):
        if not (self.kappa > 0):
            raise ValueError(f"kappa must be positive, got {self.kappa}")

    def __call__(self, x):
        return 0.5 * self.kappa * np.square(x)


@dataclass(frozen=True)
class PowerLawPotential:
    """Phi(x) = kappa * |x|^alpha, alpha >= 1."""

    kappa: float
    alpha: float

    def __post_init__(self):
        if not (self.kappa > 0):
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not (self.alpha >= 1):
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")

    def __call__(self, x):
        return self.kappa * np.abs(x) ** self.alpha


@dataclass(frozen=True)
class TabulatedPotential:
    """Even potential given by linear interpolation of (grid, values) samples.

    Evaluation outside [grid[0], grid[-1]] is an error: the tails are not
    extrapolated, callers must choose a wide enough table.
    """

    grid: np.ndarray
    values: np.ndarray

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ValueError("grid and values must be 1d arrays of equal length >= 2")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("tabulated values must be finite")
        # evenness: the interpolant at -x must reproduce the table
        mirrored = np.interp(-grid, grid, values, left=np.nan, right=np.nan)
        if np.any(np.isnan(mirrored)) or not np.allclose(mirrored, values, atol=1e-9, rtol=0):
            raise ValueError("tabulated potential must be even on a symmetric grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.grid[0], self.grid[-1]
        if np.any(x < lo) or np.any(x > hi):
            raise ValueError(
                f"tabulated potential evaluated outside [{lo}, {hi}]"
            )
        return np.interp(x, self.grid, self.values)


Potential = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# the lattice step law: one table and one cut rule for the increment sampler,
# the lattice variance and the transfer-operator taps

_STEP_CUTOFF = 1e-18
_STEP_LIMIT = 10_000_000


def _step_weights(pot: Potential, eps: float, delta: float = 1.0,
                  support=None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted integer offsets d and raw weights exp(-eps * Phi(d*delta/eps)) of
    a height step d*delta.

    support, when given, lists the allowed steps; each must sit on the grid of
    spacing delta and appear once.  Otherwise d runs over |d| <= d_max, cut
    before the first d at which both tails weigh less than 1e-18 of the weight
    at d = 0, and never past the grid of a TabulatedPotential.
    """
    def weights(d):
        return np.exp(-eps * np.asarray(pot(d * delta / eps), dtype=float))

    if support is not None:
        steps = np.asarray(support, dtype=float)
        offsets = np.rint(steps / delta)
        off_grid = np.abs(steps - offsets * delta) > 1e-9 * np.maximum(delta, np.abs(steps))
        if np.any(off_grid):
            raise ValueError(f"support value {steps[off_grid][0]} is not on the grid")
        offsets = np.sort(offsets.astype(np.int64))
        if np.any(np.diff(offsets) == 0):
            raise ValueError("support values must be distinct")
        return offsets, weights(offsets)

    d_hi = _STEP_LIMIT
    if isinstance(pot, TabulatedPotential):
        # a table is only defined on its grid
        d_hi = min(d_hi, int(math.floor(min(-pot.grid[0], pot.grid[-1]) * eps / delta + 1e-12)))
    cut = _STEP_CUTOFF * weights(np.zeros(1))[0]
    d_max = 0
    while d_max < d_hi and weights(np.array([d_max + 1, -d_max - 1])).max() >= cut:
        d_max += 1
    if d_max == _STEP_LIMIT:
        raise ValueError("step weights did not decay; check the potential")
    offsets = np.arange(-d_max, d_max + 1)
    return offsets, weights(offsets)


def _lattice_law(offsets: np.ndarray, weights: np.ndarray,
                 eps: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Increments eta = d/eps of a lattice step law (delta = 1), their
    probabilities and their variance."""
    total = weights.sum()
    if not total > 0:
        raise ValueError("all lattice weights vanished")
    eta = offsets / eps
    probs = weights / total
    return eta, probs, float(np.dot(probs, eta ** 2) - np.dot(probs, eta) ** 2)


@dataclass(frozen=True)
class PolymerConfig:
    """Heights (phi_0, ..., phi_{N+1}) as a float vector."""

    heights: np.ndarray

    def __init__(self, heights):
        heights = np.asarray(heights, dtype=float)
        if heights.ndim != 1 or heights.size < 2:
            raise ValueError("heights must be a 1d vector of length >= 2")
        if not np.all(np.isfinite(heights)):
            raise ValueError("heights must be finite")
        object.__setattr__(self, "heights", heights)

    @property
    def n_sites(self) -> int:
        return self.heights.size - 2


@dataclass(frozen=True)
class BoundaryConditions:
    """Pinned ends: phi_0 = 0, grad phi_1 = xi_left, grad phi_{N+1} = -xi_right,
    phi_{N+1} = endpoint."""

    xi_left: float
    xi_right: float
    endpoint: float

    def __post_init__(self):
        for name in ("xi_left", "xi_right", "endpoint"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def macro_slope(self, n_sites: int) -> float:
        return self.endpoint / (n_sites + 1)


@dataclass(frozen=True)
class IncrementPath:
    """First gradient xi1 and increments eta_1..eta_N."""

    xi1: float
    etas: np.ndarray

    def __init__(self, xi1, etas):
        etas = np.asarray(etas, dtype=float)
        if etas.ndim != 1 or etas.size < 1:
            raise ValueError("etas must be a 1d vector of length >= 1")
        if not (np.all(np.isfinite(etas)) and math.isfinite(xi1)):
            raise ValueError("increments must be finite")
        object.__setattr__(self, "xi1", float(xi1))
        object.__setattr__(self, "etas", etas)

    @property
    def n_sites(self) -> int:
        return self.etas.size


@dataclass(frozen=True)
class ContinuumProfile:
    """Smooth profile f on [0, macro_length] with height scaling eps^-gamma and
    increment scaling eps^-delta.  d2f, when given, is the exact second derivative;
    otherwise central differences are used where it is needed."""

    f: Callable[[np.ndarray], np.ndarray]
    gamma: float
    delta: float
    d2f: Callable[[np.ndarray], np.ndarray] | None = None


# ---------------------------------------------------------------------------
# change-of-variables kernels: heights <-> increments <-> walk/area, along the
# last axis, so one row and a matrix of sample rows go through the same code.
# The public wrappers below add the checks; the samplers call these directly.

def _laps(phi: np.ndarray) -> np.ndarray:
    """Second differences phi_{j+1} - 2 phi_j + phi_{j-1} along the last axis."""
    return phi[..., 2:] - 2.0 * phi[..., 1:-1] + phi[..., :-2]


def _heights(xi1: float, etas: np.ndarray, eps: float) -> np.ndarray:
    """Heights (phi_0, ..., phi_{N+1}) from increments along the last axis,
    phi_0 = 0: gradients xi_{j+1} = xi_j + eps*eta_j first, then heights by
    summation."""
    lead, n = etas.shape[:-1], etas.shape[-1]
    xi = np.empty(lead + (n + 1,))
    xi[..., 0] = xi1
    np.cumsum(eps * etas, axis=-1, out=xi[..., 1:])
    xi[..., 1:] += xi1
    phi = np.empty(lead + (n + 2,))
    phi[..., 0] = 0.0
    np.cumsum(xi, axis=-1, out=phi[..., 1:])
    return phi


def _walk_area(etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk X_k and area Y_k (k = 1..N) of increments along the last axis."""
    n = etas.shape[-1]
    x = np.cumsum(etas, axis=-1)
    j = np.arange(1, n + 1)
    # Y_k = ((k+1) X_k - sum_{j<=k} j eta_j) / (N+1)
    y = ((j + 1) * x - np.cumsum(j * etas, axis=-1)) / (n + 1)
    return x, y


def gradient(config: PolymerConfig) -> np.ndarray:
    """Forward differences (grad phi_1, ..., grad phi_{N+1})."""
    return np.diff(config.heights)


def laplacian(config: PolymerConfig) -> np.ndarray:
    """Second differences (lap phi_1, ..., lap phi_N)."""
    phi = config.heights
    if phi.size < 3:
        raise ValueError("laplacian needs at least 3 heights")
    return _laps(phi)


def hamiltonian(config: PolymerConfig, params: ModelParams, pot: Potential) -> float:
    """Bending energy eps * sum_j Phi(lap_j / eps)."""
    if config.heights.size != params.n_heights:
        raise ValueError(
            f"config has {config.heights.size} heights, params expect {params.n_heights}"
        )
    if params.height_mode == "discrete" and not np.all(config.heights == np.round(config.heights)):
        raise ValueError("discrete mode requires integer heights")
    eta = laplacian(config) / params.epsilon
    return float(params.epsilon * np.sum(pot(eta)))


def to_increments(config: PolymerConfig, params: ModelParams) -> IncrementPath:
    """Exact change of variables heights -> (xi1, eta)."""
    phi = config.heights
    if phi.size != params.n_heights:
        raise ValueError(
            f"config has {phi.size} heights, params expect {params.n_heights}"
        )
    if phi[0] != 0.0:
        raise ValueError(f"phi_0 must be exactly 0, got {phi[0]}")
    return IncrementPath(xi1=phi[1] - phi[0], etas=laplacian(config) / params.epsilon)


def from_increments(path: IncrementPath, params: ModelParams) -> PolymerConfig:
    """Inverse map: phi_k = k*xi1 + eps * sum_{j<k} (k-j) eta_j, phi_0 = 0."""
    if path.n_sites != params.n_sites:
        raise ValueError(
            f"path has {path.n_sites} increments, params expect {params.n_sites}"
        )
    return PolymerConfig(_heights(path.xi1, path.etas, params.epsilon))


class PartialSums(NamedTuple):
    x: np.ndarray  # X_k = sum_{j<=k} eta_j, k = 1..N
    y: np.ndarray  # Y_k = (N+1)^-1 sum_{j<=k} (k+1-j) eta_j, k = 1..N


def partial_sums(path: IncrementPath) -> PartialSums:
    """Walk and area coordinates of the increments, by their definitions."""
    return PartialSums(*_walk_area(path.etas))


def map_boundary(bc: BoundaryConditions, params: ModelParams) -> tuple[float, float]:
    """Boundary constraints in walk coordinates:
    X_N = -(xi_left + xi_right)/eps, Y_N = (endpoint/(N+1) - xi_left)/eps."""
    eps = params.epsilon
    x = -(bc.xi_left + bc.xi_right) / eps
    y = (bc.endpoint / (params.n_sites + 1) - bc.xi_left) / eps
    return x, y


class ThetaPath:
    """Rescaled area path theta(m/N) = Y_m / (sigma sqrt(N)), linearly interpolated."""

    def __init__(self, y: np.ndarray, sigma: float):
        y = np.asarray(y, dtype=float)
        if not (sigma > 0):
            raise ValueError(f"sigma must be positive, got {sigma}")
        n = y.size
        self.grid = np.arange(n + 1) / n
        self.values = np.concatenate(([0.0], y / (sigma * math.sqrt(n))))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > 1):
            raise ValueError("theta path is defined on [0, 1]")
        out = np.interp(t, self.grid, self.values)
        return float(out) if out.ndim == 0 else out


def theta_path(path: IncrementPath, sigma: float) -> ThetaPath:
    return ThetaPath(partial_sums(path).y, sigma)


def discretize_profile(profile: ContinuumProfile, params: ModelParams) -> PolymerConfig:
    """Sample heights phi_k = eps^-gamma * f(k*eps) on the full grid k = 0..N+1."""
    eps = params.epsilon
    xs = np.arange(params.n_heights) * eps
    try:
        vals = np.asarray(profile.f(xs), dtype=float)
    except Exception as exc:
        raise ValueError(f"profile undefined on the grid [0, {xs[-1]}]: {exc}") from exc
    if vals.shape != xs.shape or not np.all(np.isfinite(vals)):
        raise ValueError("profile must evaluate to finite values on the grid")
    return PolymerConfig(eps ** (-profile.gamma) * vals)


class EnergyCheckRow(NamedTuple):
    eps: float
    lattice_energy: float
    integral: float
    error: float


def continuum_energy_check(
    profile: ContinuumProfile,
    pot: Potential,
    eps_list: Sequence[float],
    macro_length: float = 1.0,
) -> list[EnergyCheckRow]:
    """Lattice energy of the discretized profile vs the curvature integral.

    For each eps, computes H = eps * sum_j Phi(eps^-delta * lap_j) on the grid
    with N = round(macro_length/eps) sites, and the integral of Phi(f'') over
    [0, macro_length].  The two agree as eps -> 0 iff gamma + delta = 2.
    """
    if abs(profile.gamma + profile.delta - 2.0) > 1e-12:
        raise ValueError(
            f"scaling violation: gamma + delta must be 2, got {profile.gamma + profile.delta}"
        )
    if profile.d2f is not None:
        d2f = profile.d2f
    else:
        h = 1e-5 * macro_length

        def d2f(x, _h=h):
            return (profile.f(x + _h) - 2.0 * profile.f(x) + profile.f(x - _h)) / (_h * _h)

    # fixed-order Gauss-Legendre for the smooth curvature integral
    nodes, weights = np.polynomial.legendre.leggauss(64)
    xs = 0.5 * macro_length * (nodes + 1.0)
    integral = float(0.5 * macro_length * np.dot(weights, pot(np.asarray(d2f(xs), dtype=float))))

    rows = []
    for eps in eps_list:
        n = int(round(macro_length / eps))
        params = ModelParams(n_sites=n, epsilon=eps, macro_length=macro_length)
        config = discretize_profile(profile, params)
        lap = laplacian(config)
        energy = float(eps * np.sum(pot(eps ** (-profile.delta) * lap)))
        rows.append(EnergyCheckRow(eps=eps, lattice_energy=energy, integral=integral,
                                   error=abs(energy - integral)))
    return rows

