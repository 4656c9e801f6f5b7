"""Samplers for the free and pinned polymer ensembles.

Three routes to samples:

* `sample_free`: i.i.d. increments, exact for any step law.
* `sample_gaussian_bridge`: exact conditional sampling of the Gaussian chain
  given all four boundary constraints (projection of an unconditioned draw).
* `sample_bridge_mcmc`: single-site Metropolis over the interior heights,
  valid for any potential; the four constrained heights are never touched.

Reproducibility contract: work is split into fixed-size blocks (8192 samples
for i.i.d. samplers, 64 chains for MCMC) and block i draws from
SeedSequence(seed, spawn_key=(i,)).  Block layout depends only on the request,
never on the worker count, and blocks are concatenated in index order, so a
given (seed, settings) produces bit-identical output for any `workers`.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .model import (
    BoundaryConditions,
    GaussianPotential,
    ModelParams,
    Potential,
    TabulatedPotential,
    _heights,
    _laps,
    _lattice_law,
    _step_weights,
    _walk_area,
    map_boundary,
)

__all__ = [
    "IncrementDistribution",
    "ChainSettings",
    "ThetaStats",
    "build_increment_dist",
    "sample_free",
    "sample_gaussian_bridge",
    "sample_bridge_mcmc",
    "estimate_theta_stats",
    "samples_to_csv",
    "samples_from_csv",
    "samples_to_frame",
    "samples_from_frame",
]

_IID_BLOCK = 8192
_CHAIN_BLOCK = 64
_FRAME_MAGIC = b"SFLX1"


@dataclass(frozen=True)
class IncrementDistribution:
    """Sampler for one increment eta under weight exp(-eps * Phi(eta)).

    kind is "gaussian" (exact normal draws), "discrete" (finite lattice support
    with tabulated probabilities) or "table" (continuous inverse-CDF on a dense
    grid).  sigma2 is the variance of this sampler's own law.
    """

    pot: Potential
    epsilon: float
    mode: str
    truncation: float | None
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
    """Construct the increment sampler for (pot, params).

    `truncation` bounds |eta|; defaults to wherever the weight has decayed to
    ~1e-18 of its peak (or the tabulated domain).  Discrete mode supports
    eta in eps^-1 * Z.
    """
    eps = params.epsilon
    if params.height_mode == "continuous" and isinstance(pot, GaussianPotential):
        if truncation is not None:
            raise ValueError("truncation only applies to lattice or tabulated laws")
        return IncrementDistribution(
            pot=pot, epsilon=eps, mode=params.height_mode, truncation=None,
            sigma2=1.0 / (eps * pot.kappa), kind="gaussian",
        )

    if params.height_mode == "discrete":
        # support k/eps, |k| <= floor(truncation * eps); auto-truncate on decay
        support = None
        if truncation is not None:
            k_max = int(math.floor(truncation * eps + 1e-12))
            support = np.arange(-k_max, k_max + 1)
        ks, weights = _step_weights(pot, eps, support=support)
        values, probs, sigma2 = _lattice_law(ks, weights, eps)
        if not (sigma2 > 0):
            raise ValueError("degenerate increment law: single-point support")
        return IncrementDistribution(
            pot=pot, epsilon=eps, mode="discrete", truncation=float(ks[-1] / eps),
            sigma2=sigma2, kind="discrete", values=values, probs=probs,
        )

    # continuous, non-Gaussian: dense inverse-CDF table
    if isinstance(pot, TabulatedPotential):
        bound = min(float(pot.grid[-1]), truncation) if truncation else float(pot.grid[-1])
    elif truncation is not None:
        bound = float(truncation)
    else:
        w0 = float(pot(0.0))
        bound = 1.0
        while math.exp(-eps * (float(pot(bound)) - w0)) > 1e-18:
            bound *= 2.0
            if bound > 1e12:
                raise ValueError("increment weight decays too slowly to truncate")
    xs = np.linspace(-bound, bound, 8193)
    w = np.exp(-eps * (np.asarray(pot(xs), dtype=float) - float(pot(0.0))))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(xs))))
    if not (cdf[-1] > 0):
        raise ValueError("increment weight not normalizable on the table")
    probs_mid = 0.5 * (w[1:] + w[:-1]) * np.diff(xs) / cdf[-1]
    mids = 0.5 * (xs[1:] + xs[:-1])
    mean = float(np.dot(probs_mid, mids))
    sigma2 = float(np.dot(probs_mid, mids ** 2) - mean * mean)
    if not (sigma2 > 0):
        raise ValueError("degenerate increment law")
    return IncrementDistribution(
        pot=pot, epsilon=eps, mode="continuous", truncation=bound,
        sigma2=sigma2, kind="table", values=xs, probs=None, cdf=cdf / cdf[-1],
    )


@dataclass(frozen=True)
class ChainSettings:
    """seed + sample budget; sweeps/burn_in/thin only matter for MCMC."""

    seed: int
    n_samples: int
    sweeps: int | None = None
    burn_in: int = 0
    thin: int = 1
    n_chains: int | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.thin < 1 or self.burn_in < 0:
            raise ValueError("thin must be >= 1 and burn_in >= 0")
        if self.sweeps is not None and self.sweeps < 1:
            raise ValueError("sweeps must be >= 1 when given")
        if self.n_chains is not None and self.n_chains < 1:
            raise ValueError("n_chains must be >= 1 when given")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # counter-keyed split: block index folded into the seed by SeedSequence
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _blocks(total: int, size: int) -> list[tuple[int, int]]:
    """(block index, count) pairs covering `total` items in blocks of `size`."""
    return [(b, min(size, total - start)) for b, start in enumerate(range(0, total, size))]


def _run_blocks(fn, blocks, workers: int) -> list[np.ndarray]:
    if workers <= 1:
        return [fn(b, c) for b, c in blocks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_apply_block, [(fn, b, c) for b, c in blocks]))


def _apply_block(job):
    fn, b, c = job
    return fn(b, c)


def _free_block(params, dist, xi1, seed, block, count):
    rng = _block_rng(seed, block)
    etas = dist.sample(rng, (count, params.n_sites))
    return _heights(xi1, etas, params.epsilon)


def sample_free(
    params: ModelParams,
    dist: IncrementDistribution,
    xi1: float,
    settings: ChainSettings,
    workers: int = 1,
) -> np.ndarray:
    """n_samples rows of free-measure configurations with grad phi_1 = xi1."""
    if params.height_mode == "discrete" and xi1 != round(xi1):
        raise ValueError("discrete mode needs an integer first gradient")
    fn = partial(_free_block, params, dist, xi1, settings.seed)
    parts = _run_blocks(fn, _blocks(settings.n_samples, _IID_BLOCK), workers)
    return np.concatenate(parts, axis=0)


def _gaussian_bridge_rows(rng, params: ModelParams, bc: BoundaryConditions, sigma: float,
                          count: int) -> np.ndarray:
    """`count` exact Gaussian bridge rows: i.i.d. N(0, sigma^2) increments
    projected onto the two boundary constraints (X_N, Y_N) = map_boundary."""
    n = params.n_sites
    a = np.vstack([np.ones(n), (n + 1 - np.arange(1, n + 1)) / (n + 1)])
    proj = np.linalg.solve(a @ a.T, a)  # (2, N): rows of (A A^T)^-1 A
    target = np.array(map_boundary(bc, params))
    etas = rng.normal(0.0, sigma, (count, n))
    defect = etas @ a.T - target  # (count, 2)
    etas -= defect @ proj
    return _heights(bc.xi_left, etas, params.epsilon)


def _gaussian_bridge_block(params, bc, sigma, seed, block, count):
    return _gaussian_bridge_rows(_block_rng(seed, block), params, bc, sigma, count)


def sample_gaussian_bridge(
    params: ModelParams,
    pot: GaussianPotential,
    bc: BoundaryConditions,
    settings: ChainSettings,
    workers: int = 1,
) -> np.ndarray:
    """Exact draws from the Gaussian chain conditioned on all four boundary
    constraints: project unconditioned increments onto the two linear
    constraints in walk coordinates."""
    if not isinstance(pot, GaussianPotential):
        raise ValueError("exact bridge sampling needs the Gaussian potential")
    if params.height_mode != "continuous":
        raise ValueError("exact bridge sampling needs continuous heights")
    sigma = math.sqrt(1.0 / (params.epsilon * pot.kappa))
    fn = partial(_gaussian_bridge_block, params, bc, sigma, settings.seed)
    parts = _run_blocks(fn, _blocks(settings.n_samples, _IID_BLOCK), workers)
    return np.concatenate(parts, axis=0)


def _clamped_cubic_init(params: ModelParams, bc: BoundaryConditions) -> np.ndarray:
    """Deterministic start: cubic through phi_0=0, phi_1=xiL, phi_N=d+xiR, phi_{N+1}=d."""
    n = params.n_sites
    k = np.arange(n + 2, dtype=float)
    nodes = np.array([0.0, 1.0, float(n), float(n + 1)])
    vals = np.array([0.0, bc.xi_left, bc.endpoint + bc.xi_right, bc.endpoint])
    coeffs = np.polyfit(nodes, vals, 3)
    phi = np.polyval(coeffs, k)
    phi[[0, 1, n, n + 1]] = vals
    if params.height_mode == "discrete":
        phi = np.round(phi)
        phi[[0, 1, n, n + 1]] = vals
    return phi


def _mcmc_block(params, pot, bc, settings, truncation, step_width, n_per_chain, seed,
                block, n_chains):
    eps = params.epsilon
    n = params.n_sites
    rng = _block_rng(seed, block)
    discrete = params.height_mode == "discrete"

    # equilibrium start when exact sampling is available, clamped cubic otherwise
    if not discrete and isinstance(pot, GaussianPotential):
        sigma = math.sqrt(1.0 / (eps * pot.kappa))
        phi = _gaussian_bridge_rows(rng, params, bc, sigma, n_chains)
    else:
        phi = np.tile(_clamped_cubic_init(params, bc), (n_chains, 1))

    lap_bound = None
    if truncation is not None:
        lap_bound = truncation * eps + 1e-9  # |lap| <= M * eps
        if np.any(np.abs(_laps(phi)) > lap_bound):
            raise ValueError("initial configuration violates the truncation cut")

    width = step_width if step_width is not None else math.sqrt(eps / _kappa_scale(pot))
    sweeps = settings.burn_in + n_per_chain * settings.thin
    sites = range(2, n)  # interior sites with all three touched bonds in range
    rows = np.arange(n_chains)
    cols = np.arange(n + 2)

    def lap(idx):
        return phi[rows, idx + 1] - 2.0 * phi[rows, idx] + phi[rows, idx - 1]

    def step():
        # one proposal per chain: a +-1 flip on the lattice, else N(0, width^2)
        if discrete:
            return (rng.integers(0, 2, n_chains) * 2 - 1).astype(float)
        return rng.normal(0.0, width, n_chains)

    def metropolis(old, new):
        """Per-chain accept mask for moving the bending terms `old` to `new`."""
        if lap_bound is not None:
            # cut mask first: a tabulated potential is undefined past the cut
            ok = np.abs(new[0]) <= lap_bound
            for v in new[1:]:
                ok &= np.abs(v) <= lap_bound
            new = [np.where(ok, v, 0.0) for v in new]
        # new terms summed left to right, then old ones subtracted: another
        # order rounds differently and changes the chains
        total = pot(new[0] / eps)
        for v in new[1:]:
            total += pot(v / eps)
        for v in old:
            total -= pot(v / eps)
        accept = np.log(rng.random(n_chains)) < -(eps * total)
        if lap_bound is not None:
            accept &= ok
        return accept

    collected = []
    acc_count, acc_tries = 0, 0
    n_collected = 0
    for sweep in range(1, sweeps + 1):
        tuning = sweep <= settings.burn_in
        for j in sites:
            delta = step()
            l1 = phi[:, j] - 2.0 * phi[:, j - 1] + phi[:, j - 2]
            l2 = phi[:, j + 1] - 2.0 * phi[:, j] + phi[:, j - 1]
            l3 = phi[:, j + 2] - 2.0 * phi[:, j + 1] + phi[:, j]
            accept = metropolis((l1, l2, l3), (l1 + delta, l2 - 2.0 * delta, l3 + delta))
            phi[accept, j] += delta[accept]
            if tuning and not discrete:
                acc_count += int(accept.sum())
                acc_tries += n_chains
        # contiguous block shifts: change laps (lo-1, lo, hi, hi+1) by
        # (+d, -d, -d, +d).  Single-site flips alone are not irreducible under
        # a hard lap cut (from a flat chain every +-1 flip makes a lap of 2),
        # so these restore connectivity; the proposal is state-independent
        # and symmetric in d, hence valid Metropolis either way.  They need
        # two movable heights, so none exist below n = 4.
        for _ in range(len(sites) if n >= 4 else 0):
            lo = rng.integers(2, n - 1, n_chains)
            hi = rng.integers(lo + 1, n)
            delta = step()
            l1, l2, l3, l4 = lap(lo - 1), lap(lo), lap(hi), lap(hi + 1)
            accept = metropolis((l1, l2, l3, l4),
                                (l1 + delta, l2 - delta, l3 - delta, l4 + delta))
            in_block = (cols >= lo[:, None]) & (cols <= hi[:, None])
            phi += np.where(in_block & accept[:, None], delta[:, None], 0.0)
        if tuning and not discrete and sweep % 32 == 0 and acc_tries:
            rate = acc_count / acc_tries
            width *= math.exp(1.2 * (rate - 0.45))
            acc_count, acc_tries = 0, 0
        if not tuning:
            since = sweep - settings.burn_in
            if since % settings.thin == 0 and n_collected < n_per_chain:
                collected.append(phi.copy())
                n_collected += 1
    snaps = np.stack(collected, axis=0)  # (T, chains, N+2)
    return np.transpose(snaps, (1, 0, 2)).reshape(-1, n + 2)  # chain-major


def _kappa_scale(pot) -> float:
    # curvature scale for the default proposal width
    if isinstance(pot, GaussianPotential):
        return pot.kappa
    x = np.array([-1e-3, 0.0, 1e-3])
    v = np.asarray(pot(x), dtype=float)
    curv = (v[0] - 2 * v[1] + v[2]) / 1e-6
    return max(curv, 1e-6)


def sample_bridge_mcmc(
    params: ModelParams,
    pot: Potential,
    bc: BoundaryConditions,
    settings: ChainSettings,
    workers: int = 1,
    truncation: float | None = None,
    step_width: float | None = None,
) -> np.ndarray:
    """Metropolis over interior heights phi_2..phi_{N-1}, mixing single-site
    flips (three bending terms touched) with contiguous block shifts (four).
    Both leave the four boundary constraints intact; block shifts are what
    keep the truncated lattice chain irreducible, since a single-site flip
    out of a flat region always makes a lap of size 2.  Below N=4 the move
    set degenerates gracefully: N=3 has one movable height, N=2 none (the
    bridge is fully pinned and the sampler returns the pinned configuration).

    Gaussian continuous chains start at exact equilibrium draws; other models
    start from the clamped cubic and rely on burn_in (no mixing guarantee at
    large N: single-site dynamics relax on the N^4 sweep scale).  `truncation`
    restricts every |lap| to <= truncation * eps, matching a lattice law cut
    at |eta| <= truncation.
    """
    n = params.n_sites
    if params.height_mode == "discrete":
        for name, v in (("xi_left", bc.xi_left), ("xi_right", bc.xi_right),
                        ("endpoint", bc.endpoint)):
            if v != round(v):
                raise ValueError(f"discrete mode needs integer boundary data, {name}={v}")
    n_chains = settings.n_chains or min(_CHAIN_BLOCK, settings.n_samples)
    n_per_chain = math.ceil(settings.n_samples / n_chains)
    if settings.sweeps is not None:
        budget = settings.sweeps // max(1, settings.thin)
        if budget * n_chains < settings.n_samples:
            raise ValueError("sweeps too small for the requested n_samples")
        n_per_chain = min(n_per_chain, budget)
        n_per_chain = max(n_per_chain, math.ceil(settings.n_samples / n_chains))

    fn = partial(_mcmc_block, params, pot, bc, settings, truncation, step_width,
                 n_per_chain, settings.seed)
    parts = _run_blocks(fn, _blocks(n_chains, _CHAIN_BLOCK), workers)
    return np.concatenate(parts, axis=0)[: settings.n_samples]


class ThetaStats(NamedTuple):
    times: np.ndarray
    mean: np.ndarray
    mean_se: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray


def estimate_theta_stats(samples: np.ndarray, times, sigma: float, epsilon: float) -> ThetaStats:
    """Sample mean/covariance of the rescaled area path at the given times,
    with jackknife standard errors (closed-form leave-one-out)."""
    samples = np.asarray(samples, dtype=float)
    times = np.asarray(times, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 4:
        raise ValueError("need a 2d sample matrix with at least 4 rows")
    if np.any(times < 0) or np.any(times > 1):
        raise ValueError("times must lie in [0, 1]")
    m, width = samples.shape
    n = width - 2
    _, y = _walk_area(_laps(samples) / epsilon)
    theta = np.concatenate([np.zeros((m, 1)), y / (sigma * math.sqrt(n))], axis=1)

    # linear interpolation of each row at t*N
    pos = times * n
    i0 = np.minimum(pos.astype(int), n - 1)
    frac = pos - i0
    vals = theta[:, i0] * (1.0 - frac) + theta[:, i0 + 1] * frac  # (m, k)

    mean = vals.mean(axis=0)
    mean_se = vals.std(axis=0, ddof=1) / math.sqrt(m)
    u = vals - mean
    cov = (u.T @ u) / (m - 1)

    # leave-one-out covariance C_(i) = [(m-1) C - m u_i u_i^T/(m-1)] / (m-2)
    # deviates from its mean by -m/((m-1)(m-2)) (u_i u_i^T - P), P = (m-1) C/m,
    # so the jackknife sum of squares needs only the fourth-moment sums u^2' u^2
    p = (m - 1) * cov / m
    u2 = np.square(u)
    spread = np.maximum(u2.T @ u2 - m * np.square(p), 0.0)
    cov_se = m / ((m - 1) * (m - 2)) * np.sqrt((m - 1) / m * spread)
    return ThetaStats(times=times, mean=mean, mean_se=mean_se, cov=cov, cov_se=cov_se)


# ---------------------------------------------------------------------------
# serialization

def samples_to_csv(samples: np.ndarray, path, comment: str | None = None) -> None:
    """One row per sample, columns phi_0..phi_{N+1}, 17 significant digits."""
    samples = np.asarray(samples, dtype=float)
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(f"phi_{i}" for i in range(samples.shape[1])) + "\n")
        for row in samples:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def samples_from_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                if not header[0].startswith("phi_"):
                    raise ValueError(f"{path}: expected phi_* header columns")
                continue
            rows.append([float(v) for v in line.split(",")])
    return np.asarray(rows, dtype=float)


def samples_to_frame(samples: np.ndarray, path) -> None:
    """Binary frame: magic SFLX1, uint64 rows, uint64 cols, float64 row-major,
    all little-endian."""
    samples = np.ascontiguousarray(samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_FRAME_MAGIC)
        fh.write(struct.pack("<QQ", samples.shape[0], samples.shape[1]))
        fh.write(samples.tobytes())


def samples_from_frame(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != _FRAME_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError(f"{path}: truncated frame")
    return data.reshape(rows, cols).astype(float)
