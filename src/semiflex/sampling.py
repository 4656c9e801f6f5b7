"""Samplers for the free and pinned polymer ensembles.

Three routes to samples:

* `sample_free`: i.i.d. increments, exact for any step law.
* `sample_gaussian_bridge`: exact conditional sampling of the Gaussian chain
  given all four boundary constraints (projection of an unconditioned draw).
* `sample_bridge_mcmc`: Metropolis over the laps (increments times eps),
  valid for any potential.  Its one move adds delta * c to a few laps with
  sum c = sum j c_j = 0: c = (1, -2, 1) moves one height, c = (1, -1, -1, 1)
  shifts a block of heights, and neither can move the pinned walk and area,
  so the four constrained heights stay fixed.  Moves on disjoint laps are
  independent, since H_N is a sum over laps, so a sweep is a few batched
  steps: three colour steps of site flips (heights j with one j mod 3), then
  rounds of block shifts on disjoint laps, at least N-2 shifts per chain.
  The proposal width starts at eps times the increment standard deviation.

`build_increment_dist` is the one place that maps (potential, height mode,
truncation) to a step law: the free sampler, both exact Gaussian routes, the
chain's proposal width and `gaussian.sigma2_increment` all read it.  The
parts come from `model`: where each law ends, its weights scaled so that its
peak weighs 1, its variance, and the refusal of a law that sits on one point.
This module assembles them, draws from them and checks the truncation.

Reproducibility contract: work is split into fixed-size blocks (8192 samples
for i.i.d. samplers, 64 chains for MCMC) and block i draws from
SeedSequence(seed, spawn_key=(i,)).  Block layout depends only on the request
and blocks are concatenated in index order, so a given (seed, settings) gives
bit-identical output for any `workers` (taken only by `sample_bridge_mcmc`).
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .model import (
    BoundaryConditions,
    GaussianPotential,
    ModelParams,
    Potential,
    _continuous_law,
    _heights,
    _laps,
    _lattice_law,
    _step_weights,
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
    Discrete mode draws eta in eps^-1 * Z from `model._step_weights`' lattice
    law; a continuous power law or table is drawn by inverse CDF on
    [-bound, bound] from `model._continuous_law`, with its sigma2.  `model`
    decides where each law ends.
    """
    _check_truncation(truncation)
    eps = params.epsilon
    if params.height_mode == "continuous" and isinstance(pot, GaussianPotential):
        if truncation is not None:
            raise ValueError("the continuous Gaussian increment is drawn exactly "
                             "and takes no truncation")
        return IncrementDistribution(sigma2=1.0 / (eps * pot.kappa), kind="gaussian")

    if params.height_mode == "discrete":
        # support k/eps, |k| <= the largest allowed lap; else the law's own end
        support = None
        if truncation is not None:
            k_max = int(_lap_bound(params, truncation))
            support = np.arange(-k_max, k_max + 1)
        ks, weights = _step_weights(pot, eps, support=support)
        values, probs, sigma2 = _lattice_law(ks, weights, eps)
        return IncrementDistribution(sigma2=sigma2, kind="discrete", values=values, probs=probs)

    # continuous, non-Gaussian: dense inverse-CDF table on the law's support,
    # shifted by the largest exponent as in _continuous_law, so none overflows
    bound, sigma2 = _continuous_law(pot, eps, truncation)
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
    if params.height_mode == "discrete":
        return float(math.floor(truncation * params.epsilon + 1e-12))
    return truncation * params.epsilon + 1e-9


@dataclass(frozen=True)
class ChainSettings:
    """seed + sample budget; burn_in/thin/n_chains only matter for MCMC."""

    seed: int
    n_samples: int
    burn_in: int = 0
    thin: int = 1
    n_chains: int | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.thin < 1 or self.burn_in < 0:
            raise ValueError("thin must be >= 1 and burn_in >= 0")
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


def _pool_map(fn, jobs, workers: int) -> list:
    """[fn(job) for job in jobs] in job order, on min(workers, len(jobs),
    cpu count) processes; in-process when that is 1 or less.  Only worth it
    when each job computes far longer than its result takes to pickle back."""
    jobs = list(jobs)
    procs = min(workers, len(jobs), os.cpu_count() or 1)
    if procs <= 1:
        return [fn(job) for job in jobs]
    # imported here so that in-process runs never load multiprocessing; under
    # the spawn start method each worker re-imports numpy only (~0.2 s), and
    # on Linux the default start method is fork
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=procs) as pool:
        return list(pool.map(fn, jobs))


def sample_free(
    params: ModelParams,
    dist: IncrementDistribution,
    xi1: float,
    settings: ChainSettings,
) -> np.ndarray:
    """n_samples rows of free-measure configurations with grad phi_1 = xi1."""
    if params.height_mode == "discrete" and xi1 != round(xi1):
        raise ValueError("discrete mode needs an integer first gradient")
    parts = []
    for b, c in _blocks(settings.n_samples, _IID_BLOCK):
        etas = dist.sample(_block_rng(settings.seed, b), (c, params.n_sites))
        parts.append(_heights(xi1, etas, params.epsilon))
    return np.concatenate(parts, axis=0)


def _gaussian_bridge_rows(rng, params: ModelParams, bc: BoundaryConditions,
                          dist: IncrementDistribution, count: int) -> np.ndarray:
    """`count` exact Gaussian bridge rows: i.i.d. increments of the Gaussian
    law `dist` projected onto the two boundary constraints (X_N, Y_N) =
    map_boundary."""
    n = params.n_sites
    a = np.vstack([np.ones(n), (n + 1 - np.arange(1, n + 1)) / (n + 1)])
    proj = np.linalg.solve(a @ a.T, a)  # (2, N): rows of (A A^T)^-1 A
    target = np.array(map_boundary(bc, params))
    etas = dist.sample(rng, (count, n))
    defect = etas @ a.T - target  # (count, 2)
    etas -= defect @ proj
    return _heights(bc.xi_left, etas, params.epsilon)


def sample_gaussian_bridge(
    params: ModelParams,
    pot: GaussianPotential,
    bc: BoundaryConditions,
    settings: ChainSettings,
) -> np.ndarray:
    """Exact draws from the Gaussian chain conditioned on all four boundary
    constraints: project unconditioned increments onto the two linear
    constraints in walk coordinates."""
    if not isinstance(pot, GaussianPotential):
        raise ValueError("exact bridge sampling needs the Gaussian potential")
    if params.height_mode != "continuous":
        raise ValueError("exact bridge sampling needs continuous heights")
    dist = build_increment_dist(pot, params)
    parts = [_gaussian_bridge_rows(_block_rng(settings.seed, b), params, bc, dist, c)
             for b, c in _blocks(settings.n_samples, _IID_BLOCK)]
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


# lap changes of the two moves, each per unit delta; both sum to zero and have
# zero first moment, so the walk X_N and area Y_N of the laps never move
_FLIP = np.array([1.0, -2.0, 1.0])  # one height j: laps j-1, j, j+1
_SHIFT = np.array([1.0, -1.0, -1.0, 1.0])  # heights lo..hi: laps lo-1, lo, hi, hi+1


def _block_layout(n: int) -> tuple[int, int]:
    """(rounds, blocks per round) of one sweep's block shifts: the fewest
    rounds that give every chain at least n-2 shifts.  A round of k blocks
    takes 2k positions at least 2 apart in 1..n-1.  At most floor(n/2) fit,
    and holding any two given ones costs at most one place, so with
    k <= (n-2)/4 (or k = 1) every legal block lo..hi stays reachable.  None
    exist below n = 4."""
    if n < 4:
        return 0, 0
    rounds = math.ceil((n - 2) / max(1, (n - 2) // 4))
    return rounds, math.ceil((n - 2) / rounds)


def _block_rounds(rng, n: int, rounds: int, chains: int) -> tuple[np.ndarray, np.ndarray]:
    """Block shifts for `rounds` rounds of `chains` chains, drawn in one RNG
    call and independently of the chain state: (lo, hi), each of shape
    (rounds, chains, k) with k from `_block_layout`.

    Shifting heights lo..hi changes the lap pairs (q, q+1) at q = lo-1 and
    q = hi.  A round takes a uniform random set of 2k positions in 1..n-1,
    every two at least 2 apart, so that the lap pairs of one round are
    disjoint, and pairs them up at random: position q_i = v_i + i for the
    i-th smallest of 2k distinct values v in 0..n-2k-1."""
    k = _block_layout(n)[1]
    cells = n - 2 * k
    rows = rounds * chains
    # the first 2k entries of a random permutation: a random subset, in random order
    chosen = np.argsort(rng.random((rows, cells)), axis=1)[:, : 2 * k]
    flat = chosen + (np.arange(rows) * cells)[:, None]
    member = np.zeros(rows * cells, dtype=np.int64)
    member[flat] = 1
    pos = chosen + member.reshape(rows, cells).cumsum(axis=1).ravel()[flat]
    first, second = pos[:, 0::2], pos[:, 1::2]
    shape = (rounds, chains, k)
    return (np.minimum(first, second) + 1).reshape(shape), np.maximum(first, second).reshape(shape)


def _mcmc_block(params, pot, bc, settings, truncation, dist, n_per_chain, job):
    block, n_chains = job
    eps = params.epsilon
    n = params.n_sites
    rng = _block_rng(settings.seed, block)
    discrete = params.height_mode == "discrete"
    width = None if discrete else eps * math.sqrt(dist.sigma2)

    # equilibrium start when exact sampling is available (an untruncated
    # Gaussian; an exact draw can break a cut), clamped cubic otherwise
    if not discrete and dist.kind == "gaussian" and truncation is None:
        phi = _gaussian_bridge_rows(rng, params, bc, dist, n_chains)
    else:
        phi = np.tile(_clamped_cubic_init(params, bc), (n_chains, 1))
    # the chain state, flat: laps[c * n + i] = eps * eta_{i+1} of chain c
    laps = _laps(phi).ravel()

    lap_max = None if truncation is None else _lap_bound(params, truncation)

    def energy(x):  # Phi(x / eps) of laps x, +inf past the truncation
        terms = pot(x / eps)
        return terms if lap_max is None else np.where(np.abs(x) <= lap_max, terms, np.inf)

    if not np.all(np.isfinite(energy(laps))):
        raise ValueError("initial configuration violates the truncation cut "
                         "(or the tabulated potential's grid)")

    def move(idx, coeffs, delta, threshold):
        """k Metropolis moves per chain at once: laps[idx] += delta * coeffs.
        idx (chains, k, m) holds flat lap indices, the k moves of a chain on
        disjoint laps, so their order does not matter; delta and threshold
        (chains, k) are the proposals and -log of the uniforms.  Returns the
        accept mask; a new lap of energy +inf makes the total +inf."""
        old = laps.take(idx)
        new = old + delta[..., None] * coeffs
        terms = energy(np.concatenate((new, old), axis=2))
        # new terms summed left to right, then old ones subtracted: another
        # order rounds differently and changes the chains
        m = len(coeffs)
        total = terms[..., 0] + terms[..., 1]
        for c in range(2, m):
            total += terms[..., c]
        for c in range(m, 2 * m):
            total -= terms[..., c]
        accept = eps * total < threshold
        laps.put(idx, np.where(accept[..., None], new, old))
        return accept

    starts = (np.arange(n_chains) * n)[:, None, None]
    # site flips in three colour steps: heights j = 2..n-1 of one residue
    # mod 3 touch disjoint laps j-1..j+1, so updating them at once is exactly
    # a scan in colour order
    colours = [np.arange(j, n, 3) for j in range(2, min(n, 5))]
    flips = [starts + (h[:, None] + np.arange(-2, 1)) for h in colours]
    bounds = np.cumsum([0] + [h.size for h in colours])
    # contiguous block shifts, in rounds of blocks on disjoint laps.  Single-
    # site flips alone are not irreducible under a hard lap cut (from a flat
    # chain every +-1 flip makes a lap of 2), so these restore connectivity;
    # the proposal is state-independent and symmetric in delta, hence valid
    # Metropolis either way.
    rounds, per_round = _block_layout(n)
    n_moves = (n - 2) + rounds * per_round
    block_shape = (n_chains, rounds, per_round)

    sweeps = settings.burn_in + n_per_chain * settings.thin
    snaps = np.empty((n_chains, n_per_chain, n))  # chain-major laps
    acc_count, acc_tries = 0, 0
    for sweep in range(1, sweeps + 1):
        tuning = sweep <= settings.burn_in
        # one sweep's proposals and Metropolis thresholds -log(u) ~ Exp(1):
        # the site flips' columns first, then the blocks'
        if discrete:
            delta = rng.integers(0, 2, (n_chains, n_moves)) * 2.0 - 1.0
        else:
            delta = rng.normal(0.0, width, (n_chains, n_moves))
        threshold = rng.standard_exponential((n_chains, n_moves))
        for idx, a, b in zip(flips, bounds[:-1], bounds[1:]):
            accept = move(idx, _FLIP, delta[:, a:b], threshold[:, a:b])
            if tuning and not discrete:
                acc_count += int(accept.sum())
                acc_tries += accept.size
        if rounds:
            lo, hi = _block_rounds(rng, n, rounds, n_chains)
            blocks = starts + np.stack((lo - 2, lo - 1, hi - 1, hi), axis=3)
            block_delta = delta[:, n - 2:].reshape(block_shape)
            block_threshold = threshold[:, n - 2:].reshape(block_shape)
            for r in range(rounds):
                move(blocks[r], _SHIFT, block_delta[:, r], block_threshold[:, r])
        if tuning and not discrete and sweep % 32 == 0 and acc_tries:
            rate = acc_count / acc_tries
            width *= math.exp(1.2 * (rate - 0.45))
            acc_count, acc_tries = 0, 0
        since = sweep - settings.burn_in
        if not tuning and since % settings.thin == 0:
            snaps[:, since // settings.thin - 1] = laps.reshape(n_chains, n)
    phi = _heights(bc.xi_left, snaps.reshape(-1, n), 1.0)
    # the pinned far end, exactly rather than as a sum of laps
    phi[:, n] = bc.endpoint + bc.xi_right
    phi[:, n + 1] = bc.endpoint
    return phi


def sample_bridge_mcmc(
    params: ModelParams,
    pot: Potential,
    bc: BoundaryConditions,
    settings: ChainSettings,
    workers: int = 1,
    truncation: float | None = None,
) -> np.ndarray:
    """Metropolis bridge sampler for any potential.  The chain state is the
    laps lap_j = eps * eta_j, j = 1..N, and every move adds delta * c to a
    few of them, with coefficients c that satisfy sum c = 0 and
    sum j c_j = 0, so the walk X_N and area Y_N (`map_boundary`), and with
    them the four pinned heights, never move.  There are two moves: a site
    flip of one interior height j = 2..N-1 (c = (1, -2, 1) on laps
    j-1..j+1) and a shift of a block of heights lo..hi (c = (1, -1, -1, 1)
    on laps lo-1, lo, hi, hi+1).  Since H_N is a sum over laps, moves on
    disjoint laps can run at once, exactly as in a sequential scan.  A sweep
    is three colour steps, each flipping every height j of one residue
    j mod 3, then a few rounds of block shifts (`_block_rounds`): each round
    gives every chain blocks on disjoint laps, drawn at random and
    independently of the state, and the rounds give each chain at least N-2
    shifts.  Block shifts keep the truncated lattice chain irreducible,
    since a single-site flip out of a flat region always makes a lap of
    size 2.  Below N=4 the move set degenerates gracefully: N=3 has one
    movable height, N=2 none (the bridge is fully pinned and the sampler
    returns the pinned configuration).

    delta is a +-1 flip on the lattice and N(0, w^2) in continuous mode,
    where w starts at eps times the standard deviation of the untruncated
    `build_increment_dist` law, the natural scale of one lap, and burn-in
    sweeps adapt it towards 45% single-site acceptance.  Untruncated
    Gaussian continuous chains start at exact equilibrium draws; other
    models, truncated Gaussians included, start from the clamped cubic and
    rely on burn_in.  Sweeps (site flips plus block shifts) relax slowly:
    the midpoint height of a continuous Gaussian zero bridge at eps = 1/N
    has an integrated autocorrelation time of 141, 856, 2042 and 4980
    sweeps at N = 25, 50, 100 and 200, roughly N^1.7, so burn_in and thin
    must grow with N.  `truncation` gives a lap past
    `_lap_bound` (|eta| <= truncation, as in `build_increment_dist`) energy
    +inf, where a `TabulatedPotential` off its grid already is: a move to
    such a lap is rejected.  `workers` spreads the blocks of 64 chains over
    processes; the output does not depend on it.
    """
    _check_truncation(truncation)
    dist = None
    if params.height_mode == "discrete":
        for name, v in (("xi_left", bc.xi_left), ("xi_right", bc.xi_right),
                        ("endpoint", bc.endpoint)):
            if v != round(v):
                raise ValueError(f"discrete mode needs integer boundary data, {name}={v}")
    else:
        dist = build_increment_dist(pot, params)
    n_chains = settings.n_chains or min(_CHAIN_BLOCK, settings.n_samples)
    n_per_chain = math.ceil(settings.n_samples / n_chains)

    fn = partial(_mcmc_block, params, pot, bc, settings, truncation, dist,
                 n_per_chain)
    parts = _pool_map(fn, _blocks(n_chains, _CHAIN_BLOCK), workers)
    return np.concatenate(parts, axis=0)[: settings.n_samples]


class ThetaStats(NamedTuple):
    times: np.ndarray
    mean: np.ndarray
    mean_se: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray


def estimate_theta_stats(samples: np.ndarray, times, sigma: float, epsilon: float) -> ThetaStats:
    """Sample mean/covariance of the rescaled area path at the given times,
    with jackknife standard errors (closed-form leave-one-out).  Each time
    reads two height columns: eps (N+1) Y_k = phi_{k+1} - phi_0 - (k+1) xi_1."""
    for name, value in (("sigma", sigma), ("epsilon", epsilon)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    samples = np.asarray(samples, dtype=float)
    times = np.asarray(times, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 4:
        raise ValueError("need a 2d sample matrix with at least 4 rows")
    if np.any(times < 0) or np.any(times > 1):
        raise ValueError("times must lie in [0, 1]")
    m, n = samples.shape[0], samples.shape[1] - 2
    phi0, xi1 = samples[:, :1], samples[:, 1:2] - samples[:, :1]
    scale = epsilon * (n + 1) * sigma * math.sqrt(n)

    def theta(k):  # theta_k = Y_k / (sigma sqrt(N)), k = 0..N
        return (samples[:, k + 1] - phi0 - (k + 1) * xi1) / scale

    # linear interpolation of each row at t*N
    pos = times * n
    i0 = np.minimum(pos.astype(int), n - 1)
    frac = pos - i0
    vals = theta(i0) * (1.0 - frac) + theta(i0 + 1) * frac  # (m, k)

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

def _write_table(path, header, rows, comment: str | None = None) -> None:
    """The one CSV table format: an optional `# comment` line, the header, then
    one line per row with every value as %.17g (floats round-trip exactly)."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a `_write_table` file: skip `#` lines, take the first other line as
    the header and the rest as a (rows, columns) float matrix."""
    with open(path) as fh:
        lines = (ln for ln in fh if ln.strip() and not ln.startswith("#"))
        header = next(lines, "").strip().split(",")
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        values = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)
    if values.shape[1] != len(header):
        raise ValueError(f"{path}: {values.shape[1]} columns, header has {len(header)}")
    return header, values


def samples_to_csv(samples: np.ndarray, path, comment: str | None = None) -> None:
    """One row per sample, columns phi_0..phi_{N+1}, 17 significant digits."""
    samples = np.asarray(samples, dtype=float)
    header = [f"phi_{i}" for i in range(samples.shape[1])]
    # Python floats one row at a time: a whole-matrix tolist() holds them all
    _write_table(path, header, (row.tolist() for row in samples), comment)


def samples_from_csv(path) -> np.ndarray:
    header, values = _read_table(path)
    if not header[0].startswith("phi_"):
        raise ValueError(f"{path}: expected phi_* header columns")
    return values


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
