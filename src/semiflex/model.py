"""Discrete stiff-polymer model: parameters, potentials, boundary data, the
step law, the bending energy, and the exact change of variables to increment
(random walk) coordinates.

A configuration is a plain float array of heights (phi_0, ..., phi_{N+1}).
The energy couples second differences,

    H_N(phi) = eps * sum_{j=1}^{N} Phi(lap_j / eps),   lap_j = phi_{j+1} - 2 phi_j + phi_{j-1},

with N * eps pinned to the macroscopic length.  Everything downstream (exact
bridge statistics, tilt equations, confinement) is written against the
increment coordinates eta_j = lap_j / eps and their walk X_k and area Y_k.
The private kernels `_laps`, `_heights` and `_walk_area` do that change of
variables along the last axis, for one row or a matrix of sample rows; the
samplers call `_laps` and `_heights`, and `_walk_area` is the tests' reference
route.  `hamiltonian`, H_N with its input checks, is the one H_N formula.

The step law exp(-eps * Phi) of one increment is decided here and nowhere
else.  `_step_bound` says where it ends, `_step_weights` weighs its lattice
steps, and `build_increment_dist` assembles it, cut at a truncation if
given, into the `IncrementDistribution` that every sampler draws from.  Its
variance sigma^2 (`gaussian.sigma2_increment` reads it) fixes the scaling
limit and the tube radius R = rho sigma sqrt(N), and on the lattice the
transfer operator takes its taps from the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "GaussianPotential",
    "PowerLawPotential",
    "TabulatedPotential",
    "Potential",
    "IncrementDistribution",
    "build_increment_dist",
    "BoundaryConditions",
    "ContinuumProfile",
    "EnergyCheckRow",
    "hamiltonian",
    "map_boundary",
    "continuum_energy_check",
]

_MODES = ("continuous", "discrete")


def _is_integer(value) -> bool:
    """The rule for every count and seed: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_times(times) -> np.ndarray:
    """The rule for every rescaled-path time: an array with each time in
    [0, 1], NaN refused."""
    times = np.asarray(times, dtype=float)
    if not np.all((0 <= times) & (times <= 1)):
        raise ValueError("times must lie in [0, 1]")
    return times


@dataclass(frozen=True)
class ModelParams:
    """Lattice geometry: n_sites interior sites, spacing eps, n_sites*eps ~ macro_length."""

    n_sites: int
    epsilon: float
    macro_length: float
    height_mode: str = "continuous"

    def __post_init__(self):
        if not _is_integer(self.n_sites):
            raise ValueError(f"n_sites must be an integer, got {self.n_sites!r}")
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
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    def __call__(self, x):
        return 0.5 * self.kappa * np.square(x)


@dataclass(frozen=True)
class PowerLawPotential:
    """Phi(x) = kappa * |x|^alpha, alpha >= 1."""

    kappa: float
    alpha: float

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not 1 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be >= 1 and finite, got {self.alpha}")

    def __call__(self, x):
        return self.kappa * np.abs(x) ** self.alpha


@dataclass(frozen=True)
class TabulatedPotential:
    """Even potential given by linear interpolation of (grid, values) samples.

    The interpolant must be even to 1e-9 on a grid from -a to a; Phi(x)
    reads it at |x|, so Phi(-x) == Phi(x) exactly, and every law, sampler
    and energy reads one even function.  It is +inf past grid[-1]: off its
    grid a table is a hard wall, and a step there has weight
    exp(-eps * inf) = 0.  The tails are not extrapolated; a table must be
    wide enough for the steps it should allow.
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
        return np.interp(np.abs(x), self.grid, self.values, left=np.inf, right=np.inf)


Potential = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# the step law, lattice and continuous: one law each for the increment
# sampler, the increment variance and (lattice) the transfer-operator taps

_STEP_CUTOFF = 1e-18
_STEP_LIMIT = 10_000_000


def _step_bound(pot: Potential, eps: float, truncation: float | None = None) -> float:
    """Where the step law exp(-eps * Phi) ends: the largest |x| at which it
    weighs at least _STEP_CUTOFF of its peak, cut at the truncation.  Closed
    form for the Gaussian and the power law; for a table, the grid node just
    past its last node with Phi <= min Phi + ln(1/_STEP_CUTOFF)/eps, or the
    grid end."""
    depth = math.log(1.0 / _STEP_CUTOFF)
    if isinstance(pot, GaussianPotential):
        bound = math.sqrt(2.0 * depth / (eps * pot.kappa))
    elif isinstance(pot, PowerLawPotential):
        bound = (depth / (eps * pot.kappa)) ** (1.0 / pot.alpha)
    elif isinstance(pot, TabulatedPotential):
        last = np.flatnonzero(pot.values <= pot.values.min() + depth / eps)[-1]
        bound = float(pot.grid[min(last + 1, pot.grid.size - 1)])
    else:
        raise ValueError(f"no step law bound for {type(pot).__name__}; use "
                         "potential kind 'gaussian', 'power' or 'table'")
    return bound if truncation is None else min(bound, truncation)


def _step_weights(pot: Potential, eps: float, delta: float = 1.0,
                  d_max: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets d and weights exp(-eps * Phi(d*delta/eps)) of a
    height step d*delta, divided by their largest, so the peak weighs 1.

    d_max, when given, is the cut: d runs over |d| <= d_max and every step is
    kept.  Otherwise d runs over |d| <= the largest |d| within `_step_bound`
    whose weight is at least _STEP_CUTOFF; weights inside it are kept
    whatever their size (a table's barrier), and a forbidden step (Phi = inf,
    as off a table's grid) weighs 0.  Step 0 is always held, and an even
    potential is finite there, so the peak is positive.
    """
    trim = d_max is None
    reach = _step_bound(pot, eps) * eps / delta if trim else d_max
    if not reach < _STEP_LIMIT:
        raise ValueError(f"the step law spans {reach:.4g} grid steps each side, above "
                         f"{_STEP_LIMIT}: coarsen the mesh, stiffen the potential or "
                         "lower the truncation")
    if trim:
        d_max = math.floor(reach) + 1
    offsets = np.arange(-d_max, d_max + 1)
    g = -eps * np.asarray(pot(offsets * delta / eps), dtype=float)
    weights = np.exp(g - g.max())
    if trim:
        keep = np.abs(offsets) <= np.abs(offsets[weights >= _STEP_CUTOFF]).max()
        offsets, weights = offsets[keep], weights[keep]
    return offsets, weights


def _tanh_sinh(step: float, t_max: float):
    """Tanh-sinh rule on [0, 1]: x = 1 / (1 + exp(-pi sinh t)) at t = k*step.

    The nodes crowd both ends doubly exponentially, so an end where the
    integrand is only Hoelder continuous (|x|^alpha at x = 0) costs no
    accuracy.  Each node is returned as a signed offset from its nearer end
    (positive from 0, negative from 1), which keeps full precision there.
    """
    t = np.arange(-math.ceil(t_max / step), math.ceil(t_max / step) + 1) * step
    s = np.pi * np.sinh(t)
    left = 1.0 / (1.0 + np.exp(-s))  # distance from 0
    right = 1.0 / (1.0 + np.exp(s))  # distance from 1
    from_left = left < 0.5
    weight = step * np.pi * np.cosh(t) * left * right
    return from_left, np.where(from_left, left, -right), weight


# step 1/32 and |t| <= 3.2: 207 nodes per piece, ends reached within 2e-17.
# Against step 1/64 and |t| <= 3.6, no tilted moment of a power law moved by
# more than 3e-13 relative for alpha in {1, 1.5, 2, 3, 4} at tilts up to 30
# standard deviations, at eps = 1 and 1e-5 (7e-11 at alpha = 1.25, growing
# with the tilt from 1e-15 at 3 standard deviations)
_TS_FROM_LEFT, _TS_OFFSET, _TS_WEIGHT = _tanh_sinh(1.0 / 32.0, 3.2)


def _tanh_sinh_pieces(ends: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the tanh-sinh rule on each piece [ends[..., i], ends[..., i+1]],
    joined on the last axis: for the untilted step law here, per tilt in `ldp`.

    `out`, a pair of C-contiguous float arrays of that joined shape, receives
    the nodes and weights in place (`ldp` reuses one workspace this way);
    without it both are fresh arrays.  Each node is its nearer end plus
    width * offset, each weight width * weight, either way."""
    width = np.diff(ends)[..., None]
    shape = ends.shape[:-1] + (width.shape[-2] * _TS_WEIGHT.size,)
    nodes, weights = (np.empty(shape), np.empty(shape)) if out is None else out
    # (..., piece, node) views: reshaping a C-contiguous array copies nothing
    split = ends.shape[:-1] + (width.shape[-2], _TS_WEIGHT.size)
    at, by = nodes.reshape(split), weights.reshape(split)
    np.multiply(width, _TS_OFFSET, out=at)
    np.add(at, ends[..., :-1, None], out=at, where=_TS_FROM_LEFT)
    np.add(at, ends[..., 1:, None], out=at, where=~_TS_FROM_LEFT)
    np.multiply(width, _TS_WEIGHT, out=by)
    return nodes, weights


@dataclass(frozen=True)
class IncrementDistribution:
    """Sampler for one increment eta under weight exp(-eps * Phi(eta)).

    kind is "gaussian" (exact normal draws), "discrete" (finite lattice support
    with tabulated probabilities) or "table" (continuous inverse-CDF on a dense
    grid).  sigma2 is the variance of the exact law.  A "table" draw follows
    the trapezoid CDF on 8193 points, whose variance sits off sigma2: by
    3.8e-6 relative for the power law with alpha 1.5 at eps 0.01, 3.8e-7 with
    alpha 4, and 1e-8 to 2e-6 for smooth tables.
    """

    sigma2: float
    kind: str
    values: np.ndarray | None = None
    probs: np.ndarray | None = None
    cdf: np.ndarray | None = None

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, math.sqrt(self.sigma2), size)
        if self.kind == "discrete":
            idx = rng.choice(self.values.size, size=size, p=self.probs)
            return self.values[idx]
        u = rng.random(size)
        return np.interp(u, self.cdf, self.values)


def build_increment_dist(
    pot: Potential, params: ModelParams, truncation: float | None = None
) -> IncrementDistribution:
    """The step law of (pot, params), cut at |eta| <= `truncation` if given:
    the only code that chooses a law, so every sampler and every variance
    (`gaussian.sigma2_increment`) reads the same one.

    The continuous Gaussian is drawn exactly with variance 1/(eps*kappa).
    Discrete mode draws eta = d/eps with probabilities from `_step_weights`,
    d over -k..k for the largest allowed lap k or to the law's own end;
    `confinement.build_transfer` takes these offsets and probabilities as
    its lattice taps.  A continuous power law or table is drawn by inverse
    CDF on [-bound, bound], bound from `_step_bound`; its variance E x^2 on
    [0, bound] (the law is even) comes from the tanh-sinh rule on each piece
    where Phi is smooth, a table's cells below the bound or all of
    [0, bound] (the power law's kink).
    """
    _check_truncation(truncation)
    eps = params.epsilon
    if params.height_mode == "continuous" and isinstance(pot, GaussianPotential):
        if truncation is not None:
            raise ValueError("the continuous Gaussian increment is drawn exactly "
                             "and takes no truncation")
        return IncrementDistribution(sigma2=1.0 / (eps * pot.kappa), kind="gaussian")

    if params.height_mode == "discrete":
        # eta = d/eps for |d| <= the largest allowed lap; else the law's own end
        d_max = None if truncation is None else int(_lap_bound(params, truncation))
        offsets, weights = _step_weights(pot, eps, d_max=d_max)
        values, probs = offsets / eps, weights / weights.sum()
        sigma2 = float(np.dot(probs, values ** 2) - np.dot(probs, values) ** 2)
        if not sigma2 > 0:
            raise ValueError("degenerate increment law: single-point support")
        return IncrementDistribution(sigma2=sigma2, kind="discrete", values=values, probs=probs)

    # continuous, non-Gaussian; every weight is shifted by the largest
    # exponent, so none overflows
    bound = _step_bound(pot, eps, truncation)
    ends = np.array([0.0, bound])
    if isinstance(pot, TabulatedPotential):
        ends = np.insert(ends, 1, pot.grid[(pot.grid > 0) & (pot.grid < bound)])
    x, w = _tanh_sinh_pieces(ends)
    g = -eps * np.asarray(pot(x), dtype=float)
    w = w * np.exp(g - g.max())
    # one dot per piece, summed in order: BLAS runs a dot this short on one
    # thread, so the bits do not depend on its thread count
    pieces = (-1, _TS_WEIGHT.size)
    sigma2 = float(sum(map(np.dot, w.reshape(pieces), (x * x).reshape(pieces))) / np.sum(w))
    # the dense inverse-CDF table on the law's support
    xs = np.linspace(-bound, bound, 8193)
    g = -eps * np.asarray(pot(xs), dtype=float)
    w = np.exp(g - g.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(xs))))
    return IncrementDistribution(sigma2=sigma2, kind="table", values=xs, cdf=cdf / cdf[-1])


def _check_truncation(truncation: float | None) -> None:
    if truncation is not None and not 0 < truncation < math.inf:
        raise ValueError(f"truncation must be positive and finite, got {truncation}")


def _lap_bound(params: ModelParams, truncation: float) -> float:
    """Largest |lap| = eps |eta| that |eta| <= truncation allows, for the
    lattice law and the Metropolis chain alike."""
    lap = truncation * params.epsilon
    if params.height_mode == "discrete":
        if lap == math.inf:
            raise ValueError(f"truncation * eps must be finite on the lattice, "
                             f"got {truncation} * {params.epsilon}")
        return float(math.floor(lap + 1e-12))
    return lap + 1e-9


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


@dataclass(frozen=True)
class ContinuumProfile:
    """Smooth profile f on [0, macro_length]; d2f is its exact second
    derivative.  The lattice heights are f(k eps) / eps."""

    f: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# change-of-variables kernels: heights <-> increments <-> walk/area, along the
# last axis, so one row and a matrix of sample rows go through the same code.

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


def hamiltonian(phi, params: ModelParams, pot: Potential) -> float:
    """Bending energy H_N(phi) = eps * sum_j Phi(lap_j / eps) of the heights
    (phi_0, ..., phi_{N+1})."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (params.n_heights,):
        raise ValueError(f"phi has shape {phi.shape}, params expect ({params.n_heights},)")
    if not np.all(np.isfinite(phi)):
        raise ValueError("heights must be finite")
    if params.height_mode == "discrete" and not np.all(phi == np.round(phi)):
        raise ValueError("discrete mode requires integer heights")
    return float(params.epsilon * np.sum(pot(_laps(phi) / params.epsilon)))


def map_boundary(bc: BoundaryConditions, params: ModelParams) -> tuple[float, float]:
    """Boundary constraints in walk coordinates:
    X_N = -(xi_left + xi_right)/eps, Y_N = (endpoint/(N+1) - xi_left)/eps."""
    eps = params.epsilon
    x = -(bc.xi_left + bc.xi_right) / eps
    y = (bc.endpoint / (params.n_sites + 1) - bc.xi_left) / eps
    return x, y


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

    For each eps, takes `hamiltonian` of the heights phi_k = f(k eps) / eps
    on the grid with N = round(macro_length/eps) sites, whose laps over eps
    tend to f'', and the integral of Phi(f'') over [0, macro_length]; the two
    agree as eps -> 0.  Either one infinite (the profile off a table's grid)
    is an error.
    """
    # fixed-order Gauss-Legendre for the smooth curvature integral
    nodes, weights = np.polynomial.legendre.leggauss(64)
    xs = 0.5 * macro_length * (nodes + 1.0)
    curvature = np.asarray(profile.d2f(xs), dtype=float)
    integral = float(0.5 * macro_length * np.dot(weights, pot(curvature)))

    rows = []
    for eps in eps_list:
        if not 0 < eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        n = int(round(macro_length / eps))
        params = ModelParams(n_sites=n, epsilon=eps, macro_length=macro_length)
        # the profile on the full grid k = 0..N+1
        grid = np.arange(params.n_heights) * eps
        try:
            vals = np.asarray(profile.f(grid), dtype=float)
        except Exception as exc:
            raise ValueError(f"profile undefined on the grid [0, {grid[-1]}]: {exc}") from exc
        if vals.shape != grid.shape or not np.all(np.isfinite(vals)):
            raise ValueError("profile must evaluate to finite values on the grid")
        energy = hamiltonian(vals / eps, params, pot)
        rows.append(EnergyCheckRow(eps=eps, lattice_energy=energy, integral=integral,
                                   error=abs(energy - integral)))
    if not all(math.isfinite(r.lattice_energy + r.integral) for r in rows):
        raise ValueError("the profile leaves the domain where the potential is finite "
                         "(a table potential ends at its grid): the lattice energy or "
                         "the curvature integral is not finite")
    return rows

