"""Tube-confinement free energy via a transfer operator on (height, gradient).

A polymer step appends one height, so the pair (phi_k, xi_k) is Markov under
the increment weight exp(-eps * Phi((xi' - xi)/eps)).  Restricting heights to
|phi| <= R with R = rho * sigma * sqrt(N) turns the tube event into a product
of nonnegative kernels.  The survival probability at finite N is an exact path
sum over the grid; the per-unit-length free energy is the normalized Perron
eigenvalue, F = -(1/eps) * log(lambda / z1), with z1 the unconstrained
single-step normalizer so that F -> 0 as the tube widens.

Heights and gradients live on a shared uniform grid: the integer lattice in
discrete mode, a mesh of spacing eps*sigma/40 (configurable) in continuous
mode.  Gradients are truncated at min(2R, 8 * stationary gradient scale);
|xi| <= 2R is implied by two in-tube heights, so the 2R cut is exact.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .gaussian import sigma2_increment
from .model import ModelParams, Potential, _lattice_law, _step_weights
from .sampling import ChainSettings, IncrementDistribution, sample_free

__all__ = [
    "TubeSpec",
    "TransferOperator",
    "PowerResult",
    "MCSurvival",
    "SweepRow",
    "FitResult",
    "tube_radius",
    "build_transfer",
    "power_iteration",
    "free_energy",
    "survival_probability",
    "mc_survival",
    "confinement_sweep",
    "exponent_fit",
]

_STATE_CAP = 4_000_000
_DENSE_CAP = 20_000


@dataclass(frozen=True)
class TubeSpec:
    """Tube of half-width rho * sigma * sqrt(N) in height units.

    grad_cut overrides the automatic gradient truncation; None picks
    min(2R, 8 * eps * sigma * sqrt(D)) with D = rho^(2/3) c^(1/3) / eps.
    """

    rho: float
    grad_cut: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")
        if self.grad_cut is not None and not (
            math.isfinite(self.grad_cut) and self.grad_cut > 0
        ):
            raise ValueError("grad_cut must be positive and finite")


def tube_radius(tube: TubeSpec, params: ModelParams, sigma2: float) -> float:
    """Half-width R = rho * sigma * sqrt(N); floored to an integer in discrete mode."""
    r = tube.rho * math.sqrt(sigma2 * params.n_sites)
    if params.height_mode == "discrete":
        return float(math.floor(r + 1e-9))
    return r


class TransferOperator:
    """Restricted step kernel on the (height, gradient) grid.

    The state value array has shape (2*n_h + 1, 2*n_g + 1); row i is height
    delta*(i - n_h), column c is gradient delta*(c - n_g).  A step moves
    (h, g) -> (h + g', g') with raw weight exp(-eps * Phi((g' - g)/eps));
    landing outside the grid contributes nothing.
    """

    def __init__(self, eps, mode, delta, n_h, n_g, tap_offsets, tap_weights,
                 z1, radius, grad_cut, grad_scale):
        self.eps = float(eps)
        self.mode = mode
        self.delta = float(delta)
        self.n_h = int(n_h)
        self.n_g = int(n_g)
        self.tap_offsets = np.asarray(tap_offsets, dtype=np.int64)
        self.tap_weights = np.asarray(tap_weights, dtype=np.float64)
        self.z1 = float(z1)
        self.radius = float(radius)
        self.grad_cut = float(grad_cut)
        self.grad_scale = float(grad_scale)

    @property
    def n_states(self) -> int:
        return (2 * self.n_h + 1) * (2 * self.n_g + 1)

    def heights(self) -> np.ndarray:
        return self.delta * np.arange(-self.n_h, self.n_h + 1)

    def gradients(self) -> np.ndarray:
        return self.delta * np.arange(-self.n_g, self.n_g + 1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """One raw (unnormalized) step: out[h', g'] = sum_g w(g'-g) v[h'-g', g']."""
        nr, nc = 2 * self.n_h + 1, 2 * self.n_g + 1
        if v.shape != (nr, nc):
            raise ValueError(f"state vector must have shape {(nr, nc)}")
        # convolution along the gradient axis, fixed tap order
        u = np.zeros_like(v)
        for t, w in zip(self.tap_offsets, self.tap_weights):
            lo, hi = max(0, t), min(nc, nc + t)
            if lo < hi:
                u[:, lo:hi] += w * v[:, lo - t:hi - t]
        # shear: landing height row shifts by the new gradient
        out = np.zeros_like(v)
        for c in range(nc):
            m = c - self.n_g
            lo, hi = max(0, m), min(nr, nr + m)
            if lo < hi:
                out[lo:hi, c] = u[lo - m:hi - m, c]
        return out

    def start_vector(self, gradient: float = 0.0) -> np.ndarray:
        """Unit mass at (h=0, g=gradient); the gradient must sit on the grid."""
        c = int(round(gradient / self.delta))
        if abs(gradient - c * self.delta) > 1e-9 * max(self.delta, abs(gradient)):
            raise ValueError(f"start gradient {gradient} is not on the grid")
        if abs(c) > self.n_g:
            raise ValueError("start gradient lies outside the gradient cut")
        v = np.zeros((2 * self.n_h + 1, 2 * self.n_g + 1))
        v[self.n_h, self.n_g + c] = 1.0
        return v

    def dense(self) -> np.ndarray:
        """Explicit matrix on flattened states, for desk-scale checks only."""
        if self.n_states > _DENSE_CAP:
            raise ValueError(f"dense form capped at {_DENSE_CAP} states")
        nr, nc = 2 * self.n_h + 1, 2 * self.n_g + 1
        mat = np.zeros((nr * nc, nr * nc))
        rows = np.arange(nr)
        for c in range(nc):
            for t, w in zip(self.tap_offsets, self.tap_weights):
                c2 = c + t
                if not 0 <= c2 < nc:
                    continue
                m = c2 - self.n_g
                src = rows[(rows + m >= 0) & (rows + m < nr)]
                mat[(src + m) * nc + c2, src * nc + c] += w
        return mat


def build_transfer(
    params: ModelParams,
    pot: Potential,
    tube: TubeSpec,
    *,
    support: Sequence[float] | None = None,
    mesh: float | None = None,
    state_cap: int = _STATE_CAP,
) -> TransferOperator:
    """Assemble the tube-restricted transfer operator.

    support lists allowed height differences (discrete mode only), matching
    the brute-force enumeration's truncated law.  mesh sets the continuous
    grid spacing; the default puts 40 points per standard deviation of the
    single-step gradient change.
    """
    eps = params.epsilon
    discrete = params.height_mode == "discrete"
    if discrete:
        if mesh is not None and mesh != 1.0:
            raise ValueError("discrete mode runs on the integer lattice; mesh must be left unset")
        delta = 1.0
        offs, wts = _step_weights(pot, eps, delta, support)
        sigma2 = _lattice_law(offs, wts, eps)[2]
    else:
        if support is not None:
            raise ValueError("explicit support applies to discrete mode only")
        sigma2 = sigma2_increment(pot, params)
        delta = float(mesh) if mesh is not None else eps * math.sqrt(sigma2) / 40.0
        if not (delta > 0 and math.isfinite(delta)):
            raise ValueError("mesh spacing must be positive and finite")
        offs, wts = _step_weights(pot, eps, delta)
    sigma = math.sqrt(sigma2)

    radius = tube_radius(tube, params, sigma2)
    if radius <= 0 and not discrete:
        raise ValueError("tube radius vanished; increase rho")

    # stationary gradient scale from the block length D = rho^(2/3) c^(1/3) / eps
    block = max(1.0, tube.rho ** (2.0 / 3.0) * params.macro_length ** (1.0 / 3.0) / eps)
    grad_scale = eps * sigma * math.sqrt(block)
    if tube.grad_cut is not None:
        grad_cut = tube.grad_cut
    else:
        grad_cut = min(2.0 * radius, 8.0 * grad_scale) if radius > 0 else 8.0 * grad_scale

    n_h = int(math.floor(radius / delta + 1e-9))
    n_g = int(math.floor(grad_cut / delta + 1e-9))
    n_states = (2 * n_h + 1) * (2 * n_g + 1)
    if n_states > state_cap:
        raise ValueError(
            f"operator needs {n_states} states, above the cap {state_cap}; "
            "coarsen the mesh or tighten grad_cut"
        )

    z1 = float(math.fsum(wts))
    if not z1 > 0:
        raise ValueError("single-step normalizer is not positive")
    return TransferOperator(eps, params.height_mode, delta, n_h, n_g,
                            offs, wts, z1, radius, grad_cut, grad_scale)


class PowerResult(NamedTuple):
    lam_norm: float
    lam_raw: float
    iterations: int
    eigvec: np.ndarray


def _default_start(op: TransferOperator) -> np.ndarray:
    h = op.heights()
    g = op.gradients()
    half = op.radius + op.delta
    a = np.cos(0.5 * math.pi * h / half) ** 2 + 1e-6
    b = np.exp(-((g / max(op.grad_scale, op.delta)) ** 2)) + 1e-6
    return np.outer(a, b)


def power_iteration(
    op: TransferOperator,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    start: np.ndarray | None = None,
) -> PowerResult:
    """Dominant eigenvalue of the restricted kernel, to relative tolerance tol.

    Stops after the eigenvalue estimate moves by less than tol on three
    consecutive iterations.  Transient border states carry no weight in the
    limit, so any start vector with mass on the communicating core gives the
    same answer.
    """
    v = _default_start(op) if start is None else np.array(start, dtype=float)
    if v.min() < 0 or not v.sum() > 0:
        raise ValueError("start vector must be nonnegative with positive mass")
    v = v / v.sum()
    lam_prev = None
    hits = 0
    for it in range(1, max_iter + 1):
        w = op.matvec(v)
        s = float(w.sum())
        if not (s > 0 and math.isfinite(s)):
            raise RuntimeError("power iteration lost all mass; operator is degenerate")
        v = w / s
        if lam_prev is not None and abs(s - lam_prev) <= tol * abs(s):
            hits += 1
            if hits >= 3:
                return PowerResult(s / op.z1, s, it, v)
        else:
            hits = 0
        lam_prev = s
    raise RuntimeError(f"power iteration did not converge in {max_iter} iterations")


def free_energy(
    op: TransferOperator,
    params: ModelParams | None = None,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    start: np.ndarray | None = None,
) -> float:
    """Confinement rate per unit macroscopic length, -(1/eps) log(lambda/z1)."""
    if params is not None and params.epsilon != op.eps:
        raise ValueError("params.epsilon does not match the operator")
    res = power_iteration(op, tol=tol, max_iter=max_iter, start=start)
    return -math.log(res.lam_norm) / op.eps


def survival_probability(op: TransferOperator, n_sites: int) -> float:
    """P(sup_{1<=k<=N} |phi_k| <= R | phi_0 = phi_1 = 0) by exact path sum.

    The chain starts at height 0 with gradient 0, and its N-1 steps, each
    divided by z1, land exactly on the constrained heights phi_2 .. phi_N.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be at least 1")
    v = op.start_vector()
    for _ in range(n_sites - 1):
        v = op.matvec(v) / op.z1
    return float(v.sum())


class MCSurvival(NamedTuple):
    estimate: float
    stderr: float
    n_samples: int
    n_inside: int
    underflow: bool


def mc_survival(
    params: ModelParams,
    dist: IncrementDistribution,
    tube: TubeSpec,
    settings: ChainSettings,
    *,
    workers: int = 1,
) -> MCSurvival:
    """Fraction of free-measure samples (phi_0 = phi_1 = 0) staying in the tube.

    Binomial standard error; underflow flags a zero count, which at the
    intended moderate N means the tube probability is below ~1/n_samples.
    """
    radius = tube_radius(tube, params, dist.sigma2)
    samples = sample_free(params, dist, 0.0, settings, workers=workers)
    n = params.n_sites
    inside = np.max(np.abs(samples[:, 1:n + 1]), axis=1) <= radius
    n_in = int(inside.sum())
    m = samples.shape[0]
    p = n_in / m
    se = math.sqrt(p * (1.0 - p) / m)
    return MCSurvival(p, se, m, n_in, n_in == 0)


class SweepRow(NamedTuple):
    rho: float
    free_energy: float
    lam_norm: float
    n_states: int
    mesh_delta: float


def _sweep_point(job) -> SweepRow:
    params, pot, rho, grad_cut, mesh, support, tol, mesh_check = job
    tube = TubeSpec(rho, grad_cut)
    op = build_transfer(params, pot, tube, support=support, mesh=mesh)
    res = power_iteration(op, tol=tol)
    f = -math.log(res.lam_norm) / op.eps
    delta = 0.0
    if mesh_check:
        op2 = build_transfer(params, pot, tube, support=support, mesh=op.delta / 2.0)
        delta = abs(free_energy(op2, tol=tol) - f)
    return SweepRow(rho, f, res.lam_norm, op.n_states, delta)


def confinement_sweep(
    params: ModelParams,
    pot: Potential,
    rhos: Sequence[float],
    *,
    grad_cut: float | None = None,
    mesh: float | None = None,
    support: Sequence[float] | None = None,
    tol: float = 1e-10,
    mesh_check: bool | None = None,
    workers: int = 1,
) -> list[SweepRow]:
    """Free energy across tube widths; rho points are independent jobs.

    mesh_check (default: on in continuous mode) recomputes each point at half
    the mesh and reports |delta F|.  Results are in input order and identical
    for any worker count.
    """
    rhos = [float(r) for r in rhos]
    if not rhos:
        raise ValueError("need at least one rho")
    if mesh_check is None:
        mesh_check = params.height_mode == "continuous"
    jobs = [(params, pot, r, grad_cut, mesh, support, tol, mesh_check) for r in rhos]
    if workers <= 1 or len(jobs) == 1:
        return [_sweep_point(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_point, jobs))


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def exponent_fit(rhos: Sequence[float], fs: Sequence[float]) -> FitResult:
    """Least-squares slope of log F against log rho.

    Needs at least 5 points spanning a decade of rho and positive F
    throughout; the tube-width theorem predicts slope -2/3.
    """
    r = np.asarray(rhos, dtype=float)
    f = np.asarray(fs, dtype=float)
    if r.shape != f.shape or r.ndim != 1:
        raise ValueError("rhos and fs must be 1d and the same length")
    if r.size < 5:
        raise ValueError("need at least 5 points for the exponent fit")
    if not (np.all(r > 0) and np.all(f > 0)):
        raise ValueError("exponent fit needs positive rho and F values")
    if r.max() / r.min() < 10.0 * (1.0 - 1e-12):
        raise ValueError("rho values must span at least one decade")
    x, y = np.log(r), np.log(f)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2)
