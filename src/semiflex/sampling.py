"""Samplers for the free and pinned polymer ensembles, their statistics and sample files."""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .model import (
    BoundaryConditions,
    GaussianPotential,
    IncrementDistribution,
    ModelParams,
    Potential,
    _check_times,
    _check_truncation,
    _heights,
    _is_integer,
    _lap_bound,
    _laps,
    build_increment_dist,
    map_boundary,
)

__all__ = [
    "ChainSettings",
    "ThetaStats",
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


@dataclass(frozen=True)
class ChainSettings:
    """seed + sample budget; burn_in/thin/n_chains only matter for MCMC.  The
    one rule for the CLI's `sampler` section too: each field is a Python or
    numpy integer, not a bool (n_chains may be None), the seed in [0, 2^64)."""

    seed: int
    n_samples: int
    burn_in: int = 0
    thin: int = 1
    n_chains: int | None = None

    def __post_init__(self):
        if not _is_integer(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        for name in ("n_samples", "burn_in", "thin", "n_chains"):
            value = getattr(self, name)
            if not (_is_integer(value) or name == "n_chains" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.thin < 1 or self.burn_in < 0:
            raise ValueError("thin must be >= 1 and burn_in >= 0")
        if self.n_chains is not None and self.n_chains < 1:
            raise ValueError("n_chains must be >= 1 when given")


def _draw_blocks(draw, settings: ChainSettings, params: ModelParams, units: int,
                 block: int, per_unit: int = 1, workers: int = 1,
                 counts: str = "sampler.n_samples (--n)") -> np.ndarray:
    """The reproducibility contract of every sampler.  `units` samples (or
    chains of `per_unit` rows each) go in blocks of `block`; block b is
    draw((rng, count)) with rng from SeedSequence(seed, spawn_key=(b,)), and
    its rows fill the next rows of one output matrix, allocated before any
    draw, in block order.  The layout depends only on the request, so a given
    (seed, settings) gives bit-identical output for any `workers` (which
    spread the blocks over processes).  Returns the first n_samples rows.
    A matrix too large to allocate is refused, naming `counts`."""
    rows = units * per_unit
    try:
        out = np.empty((rows, params.n_heights))
    except (ValueError, MemoryError):
        raise ValueError(f"{rows} samples of {params.n_heights} heights are too many "
                         f"to allocate: lower {counts}") from None
    jobs = ((np.random.default_rng(np.random.SeedSequence(settings.seed, spawn_key=(b,))),
             min(block, units - start)) for b, start in enumerate(range(0, units, block)))
    start = 0
    for part in _pool_map(draw, jobs, workers):
        out[start:start + len(part)] = part
        start += len(part)
    return out[: settings.n_samples]


def _pool_map(fn, jobs, workers: int):
    """fn(job) for each job, yielded in job order as the caller asks for them,
    on min(workers, len(jobs), cpu count) processes; in-process when that is
    1 or less.  A consumer that copies each result out as it comes never
    holds them all.  Only worth it when each job computes far longer than its
    result takes to pickle back."""
    jobs = list(jobs)
    procs = min(workers, len(jobs), os.cpu_count() or 1)
    if procs <= 1:
        yield from map(fn, jobs)
        return
    # imported here so that in-process runs never load multiprocessing; under
    # the spawn start method each worker re-imports numpy only (~0.2 s), and
    # on Linux the default start method is fork
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=procs) as pool:
        yield from pool.map(fn, jobs)


def sample_free(
    params: ModelParams,
    dist: IncrementDistribution,
    xi1: float,
    settings: ChainSettings,
) -> np.ndarray:
    """n_samples rows of free-measure configurations with grad phi_1 = xi1."""
    if not math.isfinite(xi1):
        raise ValueError(f"xi1 must be finite, got {xi1}")
    if params.height_mode == "discrete" and xi1 != round(xi1):
        raise ValueError("discrete mode needs an integer first gradient")

    def draw(job):
        rng, count = job
        return _heights(xi1, dist.sample(rng, (count, params.n_sites)), params.epsilon)

    return _draw_blocks(draw, settings, params, settings.n_samples, _IID_BLOCK)


def _gaussian_bridge_rows(rng, count: int, params: ModelParams, bc: BoundaryConditions,
                          dist: IncrementDistribution) -> np.ndarray:
    """`count` exact Gaussian bridge rows: i.i.d. increments of the Gaussian
    law `dist` projected onto the two boundary constraints (X_N, Y_N) =
    map_boundary."""
    n = params.n_sites
    a = np.vstack([np.ones(n), (n + 1 - np.arange(1, n + 1)) / (n + 1)])
    proj = np.linalg.solve(a @ a.T, a)  # (2, N): rows of (A A^T)^-1 A
    target = np.array(map_boundary(bc, params))
    etas = dist.sample(rng, (count, n))
    # numpy's own loops, not BLAS: as matmuls, both products of an 8192-row
    # block woke OpenBLAS's second thread, which saved no wall time and then
    # spun for about 0.13 s after each call; einsum without optimize never
    # calls BLAS
    defect = np.einsum("ij,kj->ik", etas, a) - target  # (count, 2)
    etas -= np.einsum("ik,kj->ij", defect, proj)
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
    return _draw_blocks(lambda job: _gaussian_bridge_rows(*job, params, bc, dist), settings,
                        params, settings.n_samples, _IID_BLOCK)


def _clamped_cubic_init(params: ModelParams, bc: BoundaryConditions) -> np.ndarray:
    """Deterministic start: cubic through phi_0=0, phi_1=xiL, phi_N=d+xiR, phi_{N+1}=d."""
    n = params.n_sites
    k = np.arange(n + 2, dtype=float)
    nodes = np.array([0.0, 1.0, float(n), float(n + 1)])
    vals = np.array([0.0, bc.xi_left, bc.endpoint + bc.xi_right, bc.endpoint])
    coeffs = np.polyfit(nodes, vals, 3)
    phi = np.polyval(coeffs, k)
    if params.height_mode == "discrete":
        phi = np.round(phi)
    phi[[0, 1, n, n + 1]] = vals
    return phi


# lap changes of the two moves, each per unit delta; both sum to zero and have
# zero first moment, so the walk X_N and area Y_N of the laps never move
_FLIP = np.array([1, -2, 1])  # one height j: laps j-1, j, j+1
_SHIFT = np.array([1, -1, -1, 1])  # heights lo..hi: laps lo-1, lo, hi, hi+1

# a cut lattice chain reads its moves' energy changes from tables while the
# larger one, the block shift's, has at most this many entries
_MOVE_TABLE_CAP = 1 << 16

# a chain block draws its sweeps' proposals, thresholds and block layouts,
# and keeps their recorded laps, a chunk of sweeps at a time in about this
# many bytes
_SWEEP_CHUNK_BYTES = 1 << 19


def _lap_energy(pot: Potential, eps: float, lap_max: float | None):
    """The chain's energy of a lap x: Phi(x / eps), +inf past the cut lap_max."""
    def energy(x):
        terms = pot(x / eps)
        return terms if lap_max is None else np.where(np.abs(x) <= lap_max, terms, np.inf)

    return energy


def _energy_change(energy, eps: float, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """eps * (H(new) - H(old)) of moves that change the laps `old` to `new`,
    along the last axis; +inf when a new lap has energy +inf.  New terms are
    summed left to right, then old ones subtracted: another order rounds
    differently and changes the chains."""
    terms = energy(np.concatenate((new, old), axis=-1))
    m = old.shape[-1]
    total = terms[..., 0] + terms[..., 1]
    for c in range(2, m):
        total += terms[..., c]
    for c in range(m, 2 * m):
        total -= terms[..., c]
    return eps * total


def _move_table(energy, eps: float, coeffs: np.ndarray, lap_max: int) -> np.ndarray:
    """`_energy_change` of every +-1 move with lap changes `coeffs` from old
    laps in [-L, L]^m, L = lap_max: entry s (2L+1)^m + sum_i (old_i + L)
    (2L+1)^(m-1-i) is the move of step 2s - 1.  A new lap past the cut gives
    +inf; an old tuple the chain cannot occupy (a lap of energy +inf, as off
    a table's grid) gives nan.  Both reject every move."""
    m = len(coeffs)
    grid = np.indices((2,) + (2 * lap_max + 1,) * m).reshape(m + 1, -1)
    old = grid[1:].T - lap_max
    with np.errstate(invalid="ignore"):  # inf - inf where an old lap is off the grid
        table = _energy_change(energy, eps, old, old + (2 * grid[0] - 1)[:, None] * coeffs)
    table[np.isinf(energy(old)).any(axis=1)] = np.nan
    return table


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


def _block_rounds(uniforms: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Block shifts laid out from `uniforms`, of shape (..., n - 2k) with k
    from `_block_layout`, one row per round of one chain: (lo, hi), each of
    shape (..., k).  The stream contract: per sweep, the sampler draws its
    proposals, then its thresholds, then its rounds' rows in one RNG call,
    whatever the chunk of sweeps it lays out here at once; the layout never
    depends on the chain state.

    Shifting heights lo..hi changes the lap pairs (q, q+1) at q = lo-1 and
    q = hi.  A round takes a uniform random set of 2k positions in 1..n-1,
    every two at least 2 apart, so that the lap pairs of one round are
    disjoint, and pairs them up at random: position q_i = v_i + i for the
    i-th smallest of 2k distinct values v in 0..n-2k-1."""
    k = _block_layout(n)[1]
    cells = n - 2 * k
    keys = uniforms.reshape(-1, cells)
    rows = len(keys)
    # the first 2k entries of a random permutation: a random subset, in random order
    chosen = np.argsort(keys, axis=1)[:, : 2 * k]
    flat = chosen + (np.arange(rows) * cells)[:, None]
    member = np.zeros(rows * cells, dtype=np.int64)
    member[flat] = 1
    pos = chosen + member.reshape(rows, cells).cumsum(axis=1).ravel()[flat]
    first, second = pos[:, 0::2], pos[:, 1::2]
    shape = uniforms.shape[:-1] + (k,)
    return (np.minimum(first, second) + 1).reshape(shape), np.maximum(first, second).reshape(shape)


def _mcmc_block(params, pot, bc, settings, truncation, dist, n_per_chain, job):
    rng, n_chains = job
    eps = params.epsilon
    n = params.n_sites
    discrete = params.height_mode == "discrete"
    width = None if discrete else eps * math.sqrt(dist.sigma2)

    # equilibrium start when exact sampling is available (an untruncated
    # Gaussian; an exact draw can break a cut), clamped cubic otherwise
    if not discrete and dist.kind == "gaussian" and truncation is None:
        phi = _gaussian_bridge_rows(rng, n_chains, params, bc, dist)
    else:
        phi = np.tile(_clamped_cubic_init(params, bc), (n_chains, 1))
    # the chain state: laps[c, i] = eps * eta_{i+1} of chain c
    laps = _laps(phi)

    lap_max = None if truncation is None else _lap_bound(params, truncation)
    energy = _lap_energy(pot, eps, lap_max)
    if not np.all(np.isfinite(energy(laps))):
        raise ValueError("initial configuration violates the truncation cut "
                         "(or the tabulated potential's grid)")
    if discrete:
        laps = laps.astype(np.int64)  # exact: lattice laps are integers
    flat = laps.reshape(-1)

    # site flips in three colour steps: heights j = 2..n-1 of one residue
    # mod 3 touch disjoint laps j-1..j+1, so updating them at once is exactly
    # a scan in colour order.  The k heights of colour j touch the 3k laps
    # from lap j-1 on: each step reads and writes a (chains, k, 3) view.
    flips, col = [], 0
    for j in range(2, min(n, 5)):
        k = len(range(j, n, 3))
        flips.append((laps[:, j - 2:j - 2 + 3 * k].reshape(n_chains, k, 3), slice(col, col + k)))
        col += k
    # contiguous block shifts, in rounds of blocks on disjoint laps.  Single-
    # site flips alone are not irreducible under a hard lap cut (from a flat
    # chain every +-1 flip makes a lap of 2), so these restore connectivity;
    # the proposal is state-independent and symmetric in delta, hence valid
    # Metropolis either way.
    rounds, per_round = _block_layout(n)
    cells = n - 2 * per_round
    n_moves = (n - 2) + rounds * per_round
    shift_cols = [slice(n - 2 + r * per_round, n - 2 + (r + 1) * per_round)
                  for r in range(rounds)]
    starts = (np.arange(n_chains) * n)[:, None, None]

    # on a cut lattice every lap stays in [-L, L] and every delta is +-1, so a
    # move's energy change is one of 2 (2L+1)^m numbers, tabled once per move
    # type and read at old @ strides + sel, where sel holds the sign digit and
    # the +L offsets of each proposal column.  The code is integer, so the @
    # calls no BLAS.
    tables = {}
    side = 2 * int(lap_max) + 1 if discrete and lap_max is not None else None
    if side is not None and 2 * side ** 4 <= _MOVE_TABLE_CAP:
        for coeffs in (_FLIP, _SHIFT):
            strides = side ** np.arange(len(coeffs) - 1, -1, -1)
            tables[len(coeffs)] = _move_table(energy, eps, coeffs, side // 2), strides
        # per proposal column: the flips' (m = 3), then the shifts' (m = 4)
        counts = (n - 2, n_moves - (n - 2))
        sign_stride = np.repeat([side ** 3, side ** 4], counts)
        offset = np.repeat([side // 2 * tables[m][1].sum() for m in (3, 4)], counts)

    def propose(old, coeffs, cols, delta, threshold, sel):
        """k Metropolis proposals per chain at once, from the laps `old`
        (chains, k, m) to new = old + delta * coeffs: (new, accept), accept
        of shape (chains, k, 1).  The k moves of a chain are on disjoint
        laps, so their order does not matter; columns `cols` of one sweep's
        (chains, n_moves) arrays delta and threshold are their proposals and
        -log of the uniforms, and of sel a tabled chain's table offsets.  A
        new lap of energy +inf makes the change +inf."""
        new = old + delta[:, cols, None] * coeffs
        if tables:
            table, strides = tables[len(coeffs)]
            change = table.take(old @ strides + sel[:, cols])
        else:
            change = _energy_change(energy, eps, old, new)
        return new, (change < threshold[:, cols])[..., None]

    thin, burn_in = settings.thin, settings.burn_in
    sweeps = burn_in + n_per_chain * thin
    # the state-independent work goes a chunk of sweeps at a time; per chain
    # and sweep a chunk holds at most about this many 8-byte numbers at once:
    # proposals, deltas, table offsets and thresholds; the layout's uniforms
    # and sort keys, and block indices; recorded laps
    numbers = 4 * n_moves + rounds * (4 * cells + 8 * per_round) + n
    chunk = max(1, _SWEEP_CHUNK_BYTES // (8 * n_chains * numbers))
    phi = np.empty((n_chains, n_per_chain, n + 2))  # chain-major heights
    if n_moves == 0:  # N = 2: all four heights are pinned, so every draw is the start
        phi[...] = _heights(bc.xi_left, laps, 1.0)[:, None]
        sweeps = 0
    sel = None
    for done in range(0, sweeps, chunk):
        size = min(chunk, sweeps - done)
        # the stream, sweep by sweep: proposals, Metropolis thresholds
        # -log(u) ~ Exp(1), then the block layout's uniforms.  One call per
        # sweep each: integers() buffers its 32-bit draws within a call, so
        # merging calls across sweeps would change the stream.
        proposals = np.empty((size, n_chains, n_moves), dtype=laps.dtype)
        threshold = np.empty((size, n_chains, n_moves))
        uniforms = np.empty((size, rounds, n_chains, cells))
        for i in range(size):
            if discrete:
                proposals[i] = rng.integers(0, 2, (n_chains, n_moves))  # signs
            else:
                proposals[i] = rng.normal(0.0, width, (n_chains, n_moves))
            rng.standard_exponential(out=threshold[i])
            rng.random(out=uniforms[i])
        delta = 2 * proposals - 1 if discrete else proposals
        if tables:
            sel = proposals * sign_stride + offset
        if rounds:
            lo, hi = _block_rounds(uniforms, n)
            blocks = starts + np.stack((lo - 2, lo - 1, hi - 1, hi), axis=-1)
        # the chunk's recorded draws: after sweep s, max(0, s - burn_in) // thin
        first, last = (max(0, s - burn_in) // thin for s in (done, done + size))
        recorded = np.empty((n_chains, last - first, n), dtype=laps.dtype)
        for i in range(size):
            args = delta[i], threshold[i], None if sel is None else sel[i]
            for view, cols in flips:
                new, accept = propose(view, _FLIP, cols, *args)
                np.copyto(view, new, where=accept)
            for r, cols in enumerate(shift_cols):
                idx = blocks[i, r]
                old = flat.take(idx)
                new, accept = propose(old, _SHIFT, cols, *args)
                flat.put(idx, np.where(accept, new, old))
            since = done + i + 1 - burn_in
            if since > 0 and since % thin == 0:
                recorded[:, since // thin - 1 - first] = laps
        phi[:, first:last] = _heights(bc.xi_left, recorded, 1.0)
    # the pinned far end, exactly rather than as a sum of laps
    phi[..., n] = bc.endpoint + bc.xi_right
    phi[..., n + 1] = bc.endpoint
    return phi.reshape(-1, n + 2)


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
    returns the pinned configuration, running no sweep).

    delta is a +-1 flip on the lattice and N(0, w^2) in continuous mode,
    where w is eps times the standard deviation of the untruncated
    `build_increment_dist` law, the natural scale of one lap, throughout:
    burn-in only discards sweeps (42-44% single-site acceptance for alpha
    1.5 to 4 at N = 100, eps = 0.01; 38% at alpha = 1).  Untruncated
    Gaussian continuous chains start at exact equilibrium draws; other
    models, truncated Gaussians included, start from the clamped cubic and
    rely on burn_in.  Sweeps (site flips plus block shifts) relax slowly:
    the midpoint height of a continuous Gaussian zero bridge at eps = 1/N
    has an integrated autocorrelation time of 141, 856, 2042 and 4980
    sweeps at N = 25, 50, 100 and 200, roughly N^1.7, so burn_in and thin
    must grow with N.  `truncation` gives a lap past
    `_lap_bound` (|eta| <= truncation, as in `build_increment_dist`) energy
    +inf, where a `TabulatedPotential` off its grid already is: a move to
    such a lap is rejected.  A cut lattice chain, whose laps stay in [-L, L]
    and whose deltas are +-1, reads each move's energy change from a table
    of 2 (2L+1)^m entries for a move on m laps, built once per block of 64
    chains by the general move's own arithmetic (`_move_table`), as long as
    the block shift's table has at most `_MOVE_TABLE_CAP` = 2^16 entries
    (L <= 6); uncut, continuous and more widely cut chains take the general
    move.  The chains are the same bit for bit either way.  `workers`
    spreads the blocks of 64 chains over processes; the output does not
    depend on it.

    The stream contract: each block of chains draws from its own generator
    (`_draw_blocks`), first the exact start when it has one, then per sweep
    one call each for the proposals (`integers` on the lattice, `normal`
    otherwise), the thresholds (`standard_exponential`) and the block
    layout's uniforms (`random`, `_block_rounds`), in that order.  The
    state-independent work goes a chunk of sweeps at a time, in about
    `_SWEEP_CHUNK_BYTES` = 512 KB: their draws in that order, their block
    layout, and their recorded heights.  The chains do not depend on the
    chunk.
    """
    _check_truncation(truncation)
    discrete = params.height_mode == "discrete"
    if discrete:
        for name, v in (("xi_left", bc.xi_left), ("xi_right", bc.xi_right),
                        ("endpoint", bc.endpoint)):
            if v != round(v):
                raise ValueError(f"discrete mode needs integer boundary data, {name}={v}")
    # the one step law, before any chain runs: it sizes the continuous proposal,
    # and a lattice law on one point fails here (the lattice chain never reads it)
    dist = build_increment_dist(pot, params, truncation if discrete else None)
    n_chains = settings.n_chains or min(_CHAIN_BLOCK, settings.n_samples)
    n_per_chain = -(-settings.n_samples // n_chains)

    counts = "sampler.n_samples (--n)" + (" or sampler.n_chains" if settings.n_chains else "")
    return _draw_blocks(partial(_mcmc_block, params, pot, bc, settings, truncation, dist,
                                n_per_chain), settings, params, n_chains, _CHAIN_BLOCK,
                        n_per_chain, workers, counts)


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
    if samples.ndim != 2 or samples.shape[0] < 4:
        raise ValueError("need a 2d sample matrix with at least 4 rows")
    times = _check_times(times)
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
    """The sample matrix as `.npy` bytes, readable with `numpy.load`; written
    into the opened file, so the name is kept as given."""
    with open(path, "wb") as fh:
        np.save(fh, np.asarray(samples, dtype=float))


def samples_from_frame(path) -> np.ndarray:
    """The matrix of a `samples_to_frame` file; ValueError for anything but a
    2-D float64 `.npy` array (an `.npz`, a truncated or non-npy file)."""
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{path}: not an .npy sample matrix: {exc}") from None
    if not isinstance(data, np.ndarray) or data.ndim != 2 or data.dtype != np.float64:
        raise ValueError(f"{path}: expected a 2-D float64 .npy matrix")
    return data
