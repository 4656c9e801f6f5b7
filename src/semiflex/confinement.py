"""Tube-confinement free energy via a transfer operator on (height, gradient).

A polymer step appends one height, so the pair (phi_k, xi_k) is Markov under
the increment weight exp(-eps * Phi((xi' - xi)/eps)).  Restricting heights to
|phi| <= R with R = rho * sigma * sqrt(N) turns the tube event into a product
of nonnegative kernels.  The survival probability at finite N is an exact path
sum over the grid; the per-unit-length free energy is the normalized Perron
eigenvalue, F = -(1/eps) * log(lambda / z1), with z1 the unconstrained
single-step normalizer so that F -> 0 as the tube widens.

Heights and gradients live on a shared uniform grid: the integer lattice in
discrete mode, in continuous mode a mesh of at most the step sd eps*sigma,
half of it by default.  |xi| <= 2R is implied by two in-tube heights, so a
gradient cut at 2R is exact; a tighter one reads the stationary gradient
scale s.  `confinement_sweep` cuts at min(2R, 4 s) and solves; when the
confined density v * Pv's tail past that cut, extrapolated from its two
outermost column pairs, could move F by over 1e-13 relative, it widens the
cut once, to min(2R, 8 s), and solves again from the first solution.  The
half-mesh check keeps the final cut.  `build_transfer`, with no solution to
read, cuts at min(2R, 8 s); an explicit grad_cut is used as given.

One step is a convolution along the gradient axis and a shear that moves
gradient column c by c - n_g height rows.  `TransferOperator.matvec` does the
convolution as BLAS matrix products against one banded Toeplitz tile, built
once per operator, and writes the products through a sheared view of the
output, with no Python loop over taps; `dense()` builds the same matrix tap
by tap and stays the reference it is tested against.  Direct, not FFT,
convolution: the kernels have tens of taps, where the direct sum is faster,
and it keeps nonnegative vectors nonnegative.

The potentials are even, with exactly even taps (`model._step_weights`
reads Phi at |step|), so T commutes with the parity S(h, g) = (-h, -g) and
the Perron vector is even.  `power_iteration` and `survival_probability`
run in that even sector: S reverses the flattened state, so each step runs
matvec's products only where they land at heights h <= 0, about half of
them, and mirrors the rest with one reversed 1-D copy, into two buffers
that alternate for the whole solve.  `matvec` stays the full-grid step.

The chain is also symmetric under time reversal
P(h, g) = (h - g, -g), the reversed chain's state (its previous height and
negated gradient).  On the core, the states whose previous height lies in
the tube and where every matvec output lies, T^T = P T P exactly, so P v is
the left Perron vector.  `power_iteration` returns the two-sided quotient
<Pv, Tv> / <Pv, v>, second-order accurate in the iterate's error, and stops
when its estimate |Tv - lam v|^2 / (lam <Pv, v>) reaches 1e-12, checked at
steps predicted from the estimate's own decay rather than every step.

`build_transfer` is two steps: the step law on a grid (`_grid_law`:
sigma2, the spacing and the taps), which refuses a continuous mesh above
eps*sigma, where the outer taps carry almost nothing, and the tube's size on
it (`_size_tube`: n_h, n_g and R, by arithmetic), which refuses a continuous
tube radius R below one mesh cell, whose grid has no height row but 0 and
so cannot see the tube, and a grid over the state cap.  `confinement_sweep`
evaluates the law once, for sigma2 and the mesh, and sizes every (rho, mesh)
grid from them before any solve.  Each tube is then one chain of solves
(`_sweep_point`), each started from the one before's eigenvector.
Each `SweepRow` carries F and F_scaled = F rho^(2/3) c^(1/3); one
operator's F is -log(power_iteration(op).lam_norm) / op.eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .model import ModelParams, Potential, _step_weights, build_increment_dist
from .sampling import _pool_map

__all__ = [
    "TubeSpec",
    "TransferOperator",
    "PowerResult",
    "SweepRow",
    "FitResult",
    "tube_radius",
    "build_transfer",
    "power_iteration",
    "survival_probability",
    "confinement_sweep",
    "exponent_fit",
]

_STATE_CAP = 4_000_000
_DENSE_CAP = 20_000
_POWER_MAX_ITER = 100_000
_POWER_TOL = 1e-12
_FIRST_CHECK = 1e-5
_CHECK_GAP = 32
# matvec row chunks: OpenBLAS 0.3.31 (numpy 2.4's) ran a GEMM of m*n*k
# multiply-adds on one thread below about 1e6 on a 2-core x86-64 VM; above,
# its second thread doubled the CPU time of 23-45-tap matvecs and saved
# little wall time, and summed in another order, so the bits depended on
# the thread count.  Wide kernels take chunks of fewer rows, down to one.
_SERIAL_GEMM = 2 ** 19
# the widest column block: in the even step a block of w columns fills up to
# w - 1 rows past the centre, which made 235-tap blocks of 235 columns slower
_BLOCK_COLS = 64
# the automatic gradient cut, in stationary gradient scales: where a sweep's
# solve starts, and the widest it widens to
_START_SCALES = 4.0
_MAX_SCALES = 8.0
# the relative change in F that the density's tail past the start cut may hold
_TAIL_TOL = 1e-13


@dataclass(frozen=True)
class TubeSpec:
    """Tube of half-width rho * sigma * sqrt(N) in height units.

    grad_cut overrides the automatic gradient truncation, and is never
    widened.  None reads the stationary gradient scale
    s = eps * sigma * sqrt(D), D = max(1, rho^(2/3) c^(1/3) / eps):
    `confinement_sweep` starts at min(2R, 4 s) and widens once, to
    min(2R, 8 s), when the solution's tail asks; `build_transfer` alone
    cuts at min(2R, 8 s).
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

    The state value array has shape `shape` = (2*n_h + 1, 2*n_g + 1); row i
    is height delta*(i - n_h), column c is gradient delta*(c - n_g).  A step moves
    (h, g) -> (h + g', g') with weight proportional to
    exp(-eps * Phi((g' - g)/eps)); landing outside the grid contributes
    nothing.  On the lattice the tap weights are the sampler's step
    probabilities (`model.build_increment_dist`), in continuous mode the
    weights scaled so that the largest is 1; z1, the unconstrained one-step
    mass, is their fsum, and radius the tube half-width R.

    `matvec` steps any state and `dense()` is its explicit matrix: the two
    full-grid references.  The solves step an even state with `_even_step`,
    matvec's products on the rows up to the centre and a mirror of the rest.
    """

    def __init__(self, eps, delta, n_h, n_g, tap_offsets, tap_weights, radius):
        self.eps = float(eps)
        self.delta = float(delta)
        self.n_h = int(n_h)
        self.n_g = int(n_g)
        self.shape = (2 * self.n_h + 1, 2 * self.n_g + 1)
        self.n_states = self.shape[0] * self.shape[1]
        self.tap_offsets = np.asarray(tap_offsets, dtype=np.int64)
        self.tap_weights = np.asarray(tap_weights, dtype=np.float64)
        self.z1 = math.fsum(self.tap_weights)
        self.radius = float(radius)
        # T[c, c2] = w(c2 - c) is banded Toeplitz: every run of `width` output
        # columns reads `width + span - 1` input columns, span = hi - lo + 1,
        # through the same tile, and the blocks at the edges read a slice of
        # it.  A tap |t| >= nc joins no two columns; a grid of `width` columns
        # is one block, whose tile is T itself, from the band's row `top` on
        nc = self.shape[1]
        near = np.abs(self.tap_offsets) < nc
        offs, wts = self.tap_offsets[near], self.tap_weights[near]
        lo, hi = (int(offs.min()), int(offs.max())) if offs.size else (0, 0)
        width = min(nc, hi - lo + 1, _BLOCK_COLS)
        top, n_rows = (hi, nc) if width == nc else (0, width + hi - lo)
        # tile[i, j] = w(j - i + hi - top), read off the taps laid end to end
        w_at = np.zeros(n_rows + width - 1)
        w_at[offs - (hi - top - n_rows + 1)] = wts
        tile = w_at[np.arange(width) - np.arange(n_rows)[:, None] + n_rows - 1]
        self._blocks = []
        for a in range(0, nc, width):
            b = min(a + width, nc)
            c0, c1 = max(0, a - hi), min(nc, b - lo)
            if c1 > c0:
                i0 = c0 - (a - hi) - top
                self._blocks.append((slice(a, b), slice(c0, c1),
                                     tile[i0:i0 + c1 - c0, :b - a]))
        self._rows = max(1, _SERIAL_GEMM // tile.size)

    def heights(self) -> np.ndarray:
        return self.delta * np.arange(-self.n_h, self.n_h + 1)

    def gradients(self) -> np.ndarray:
        return self.delta * np.arange(-self.n_g, self.n_g + 1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """One raw (unnormalized) step: out[h', g'] = sum_g w(g'-g) v[h'-g', g'].

        The convolution along the gradient axis is v @ T with the banded
        Toeplitz T[c, c2] = w(c2 - c), done as BLAS products of column blocks
        of v against one cached tile of T, w = min(nc, span, 64) columns
        wide, span being the kernel's width in grid steps (the tap count, on
        a contiguous support).  Each product is written through a sheared
        view of a zero buffer padded by n_g rows above and below: row h of
        column c lands in row h + c - n_g, so the interior is the result and
        whatever lands in the padding has left the grid.  Output entries
        whose source row lies off the grid stay exactly zero, and sums of
        nonnegative products keep a nonnegative v nonnegative.

        Cost: at most nr*nc*(w + span - 1) multiply-adds, under twice the
        direct sum when the taps fill the span (1.27x at 235 taps), and a
        cached tile of at most (w + span - 1)*w floats, span counting the
        taps shorter than nc.  Rows go in chunks that keep one product under
        2^19 multiply-adds, which OpenBLAS runs on one thread, so the bits
        do not depend on its thread count while a tile has at most 2^19
        entries.  The result is a view into the padded buffer.
        """
        if v.shape != self.shape:
            raise ValueError(f"state vector must have shape {self.shape}")
        sheared, result = self._sheared()
        self._convolve(v, sheared, self.shape[0] - 1)
        return result

    def _even_step(self, v: np.ndarray, bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """`matvec` of an even v, v[::-1, ::-1] == v, into the `_sheared()`
        pair bufs, whose array it returns.

        With even taps T commutes with S(h, g) = (-h, -g), so T v is even.
        S reverses the flattened state, so its entries up to the centre
        m = n_h*nc + n_g fix the rest: the products fill output rows 0..n_h,
        about half the work, and one reversed 1-D copy writes every entry
        past m, the up to w - 1 rows a block of w columns fills past the
        centre too, so the result is exactly even.  The products and the
        copy hit the same entries on every call and the entries they skip
        stay zero, so a solve reuses two buffers, each step writing into the
        one that does not hold v.
        """
        sheared, result = bufs
        self._convolve(v, sheared, self.n_h)
        flat = result.reshape(-1)
        m = flat.size // 2
        flat[m + 1:] = flat[:m][::-1]
        return result

    def _convolve(self, v: np.ndarray, sheared: np.ndarray, last: int) -> None:
        """Each block's products of the source rows that land in output rows
        up to `last` in its first column, through the sheared view in chunks
        of `_rows` rows."""
        for r in range(0, self.shape[0], self._rows):
            for out, src, tile in self._blocks:
                stop = min(r + self._rows, last + self.n_g - out.start + 1)
                if stop > r:
                    sheared[r:stop, out] = v[r:stop, src] @ tile

    def _sheared(self) -> tuple[np.ndarray, np.ndarray]:
        """A zero state array and a sheared view that writes into it.

        Both view one buffer padded by n_g rows above and below: row h of
        column c of the view is row h + c - n_g of the array, and whatever
        lands in the padding has left the grid.
        """
        nr, nc = self.shape
        buf = np.zeros((nr + 2 * self.n_g) * nc)
        item = buf.itemsize
        sheared = np.ndarray((nr, nc), buffer=buf, strides=(nc * item, (nc + 1) * item))
        return sheared, buf[self.n_g * nc:(self.n_g + nr) * nc].reshape(nr, nc)

    def _reflect(self, v: np.ndarray) -> np.ndarray:
        """Time reversal: (P v)[h, g] = v[h - g, -g], zero where h - g is off the grid.

        P maps a state to the reversed chain's one, its previous height and
        negated gradient; it is the matvec shear applied to v with its
        gradient axis flipped.
        """
        sheared, out = self._sheared()
        sheared[...] = v[:, ::-1]
        return out

    def dense(self) -> np.ndarray:
        """Explicit matrix on flattened states, for desk-scale checks only."""
        if self.n_states > _DENSE_CAP:
            raise ValueError(f"dense form capped at {_DENSE_CAP} states")
        nr, nc = self.shape
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


def _support_truncation(support, eps: float) -> float:
    """The truncation k/eps of the lattice cut support = (-k, ..., k)."""
    steps = np.asarray(support, dtype=float)
    k = steps.size // 2
    if k < 1 or not np.array_equal(steps, np.arange(-k, k + 1)):
        raise ValueError(f"support must be the lattice cut -k..k, k >= 1, in order; "
                         f"got {list(steps)}")
    return k / eps


def _cut_range(params: ModelParams, tube: TubeSpec, sigma2: float) -> tuple[float, float]:
    """The gradient cut a sweep's solve starts at, and the widest it may
    widen to: min(2R, 4 s) and min(2R, 8 s) for the stationary gradient
    scale s = eps * sqrt(sigma2 * D), D = max(1, rho^(2/3) c^(1/3) / eps)
    the block length; an explicit tube.grad_cut is both."""
    if tube.grad_cut is not None:
        return tube.grad_cut, tube.grad_cut
    eps = params.epsilon
    two_r = 2.0 * tube_radius(tube, params, sigma2)
    block = max(1.0, tube.rho ** (2.0 / 3.0) * params.macro_length ** (1.0 / 3.0) / eps)
    scale = eps * math.sqrt(sigma2) * math.sqrt(block)
    return min(two_r, _START_SCALES * scale), min(two_r, _MAX_SCALES * scale)


def _grid_law(params: ModelParams, pot: Potential, support: Sequence[float] | None = None,
              mesh: float | None = None) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The step law on a grid: the increment variance sigma2, the spacing
    delta and the taps (offsets in steps of delta, weights).

    sigma2 is `model.build_increment_dist`'s in both height modes; on the
    lattice the taps are its offsets and probabilities too.  A continuous
    mesh is at most the step sd eps * sqrt(sigma2), up to the grid floors'
    1e-9 relative slack, and by default half of it: the law reaches past
    one sd, so its taps -1, 0 and 1 stay.  Refuses any other mesh.
    """
    eps = params.epsilon
    if params.height_mode == "discrete":
        if mesh is not None and mesh != 1.0:
            raise ValueError("discrete mode runs on the integer lattice; mesh must be left unset")
        cut = None if support is None else _support_truncation(support, eps)
        dist = build_increment_dist(pot, params, cut)
        return dist.sigma2, 1.0, np.rint(dist.values * eps), dist.probs
    if support is not None:
        raise ValueError("explicit support applies to discrete mode only")
    sigma2 = build_increment_dist(pot, params).sigma2
    sd = eps * math.sqrt(sigma2)
    delta = sd / 2.0 if mesh is None else float(mesh)
    if not 0 < delta <= sd * (1 + 1e-9):
        raise ValueError(f"mesh {delta:.4g} must be positive and at most the step sd "
                         f"eps * sqrt(sigma2) = {sd:.4g}; lower --mesh or leave it unset")
    return (sigma2, delta, *_step_weights(pot, eps, delta))


def _size_tube(params: ModelParams, tube: TubeSpec, sigma2: float, delta: float,
               label: str = "") -> tuple[int, int, float]:
    """n_h, n_g and R of one tube's grid at spacing delta, by arithmetic alone.

    The gradient cut is the top of the tube's cut range (`_cut_range`).
    Refuses a continuous tube narrower than one mesh cell (no height row but
    0, so the grid cannot see the tube) and a grid over _STATE_CAP states,
    naming the tube, `label` and the spacing.
    """
    radius = tube_radius(tube, params, sigma2)
    n_h = int(math.floor(radius / delta + 1e-9))
    if n_h < 1 and params.height_mode != "discrete":
        raise ValueError(
            f"rho={tube.rho:g}, {label}mesh {delta:.4g}: tube radius R = {radius:.4g} is "
            "narrower than one mesh cell, so the grid has no height row but 0; raise "
            "--rho-min, or set --mesh below R"
        )
    n_g = int(math.floor(_cut_range(params, tube, sigma2)[1] / delta + 1e-9))
    n_states = (2 * n_h + 1) * (2 * n_g + 1)
    if n_states > _STATE_CAP:
        raise ValueError(
            f"rho={tube.rho:g}, {label}mesh {delta:.4g}: operator needs {n_states} states, "
            f"above the cap {_STATE_CAP}; coarsen the mesh (--mesh) or tighten grad_cut "
            "(--grad-cut)"
        )
    return n_h, n_g, radius


def build_transfer(
    params: ModelParams,
    pot: Potential,
    tube: TubeSpec,
    *,
    support: Sequence[float] | None = None,
    mesh: float | None = None,
) -> TransferOperator:
    """Assemble the tube-restricted transfer operator: the step law on its
    grid (`_grid_law`) and the tube's size on it (`_size_tube`).

    support, in discrete mode only, is the lattice cut (-k, ..., k) of the
    brute-force enumeration's truncated law, read as the truncation k/eps of
    `model.build_increment_dist`, whose law gives the taps either way.
    mesh sets the continuous grid spacing, at most the standard deviation
    of the single-step gradient change and by default half of it.
    """
    sigma2, delta, offs, wts = _grid_law(params, pot, support, mesh)
    n_h, n_g, radius = _size_tube(params, tube, sigma2, delta)
    return TransferOperator(params.epsilon, delta, n_h, n_g, offs, wts, radius)


class PowerResult(NamedTuple):
    """lam_raw is the two-sided quotient, lam_norm = lam_raw / z1; iterations
    counts steps, each one matvec's worth of output; eigvec is the last
    iterate, summing to 1 and exactly even, eigvec[::-1, ::-1] == eigvec;
    error is the final relative error estimate of lam that stopped the
    solve, about _POWER_TOL = 1e-12.  It is an estimate, not a bound: it
    carries no spectral-gap factor, and on a lattice sweep at N = 250,000 the
    true relative error of lam was up to 2.1x larger.  F = -log(lam_norm) / eps
    magnifies lam's relative error by 1 / -log(lam_norm), about 50 at rho 0.2
    on the default sweep and more for wider tubes, so F is good to about
    5e-11 relative there, not 1e-12."""

    lam_norm: float
    lam_raw: float
    iterations: int
    eigvec: np.ndarray
    error: float


def _check_even(op: TransferOperator) -> None:
    """The even step and time reversal need w(t) == w(-t) exactly: the fold
    mirrors half of each output, so a mismatch would not be averaged away."""
    order = np.argsort(op.tap_offsets)
    t, w = op.tap_offsets[order], op.tap_weights[order]
    if not (np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])):
        raise ValueError("power iteration and path sums need even tap weights, "
                         "w(t) == w(-t): they step the even half of the states only, "
                         "and the eigenvalue quotient rests on time reversal")


def _quotient(op: TransferOperator, v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """The two-sided quotient lam = <Pv, w> / <Pv, v> of w = T v, and its
    relative error estimate |r|^2 / (lam |<Pv, v>|) with r = w - lam v.

    Needs v and w on the core, where |Pr| = |r|.  The residual reuses Pv's
    memory, so a check holds one state-sized temporary.
    """
    pv = op._reflect(v)
    norm, num = _dot(pv, v), _dot(pv, w)
    if not (norm > 0 and num > 0):
        return math.nan, math.inf
    lam = num / norm
    r = np.multiply(v, lam, out=pv)
    np.subtract(w, r, out=r)
    return lam, _dot(r, r) / (lam * norm)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # numpy's own loop, not BLAS: numpy.vdot of 92,685-state vectors woke
    # OpenBLAS's second thread, which then spun through the one-thread
    # matvecs after it and cost the benchmark's confine sweep 1.5x the CPU
    return float(np.einsum("ij,ij->", a, b))


def _check_gap(last: tuple[int, float] | None, it: int, err: float) -> int:
    """Steps from check `it` to the next: the estimate decays geometrically,
    so the rate between the last two checks predicts where it reaches
    _POWER_TOL, capped at _CHECK_GAP; without a rate, one step."""
    if last is None or not 0 < err < last[1]:
        return 1
    rate = math.log(err / last[1]) / (it - last[0])
    return max(1, math.ceil(min(math.log(_POWER_TOL / err) / rate, _CHECK_GAP)))


def power_iteration(op: TransferOperator, *, start: np.ndarray | None = None) -> PowerResult:
    """Dominant eigenvalue of the restricted kernel by power iteration.

    Time reversal P(h, g) = (h - g, -g) makes the operator symmetric on the
    core, the states whose previous height h - g lies in the tube: there
    T^T = P T P when the taps are even, so P v is the left Perron vector
    when v is the right one.  Every matvec output lies in the core.  The
    eigenvalue is the two-sided quotient <Pv, Tv> / <Pv, v>, whose error is
    second order in the iterate's (Ostrowski 1958; Parlett 1974), and the
    solve stops once the estimate |r|^2 / (lam |<Pv, v>|), r = Tv - lam v,
    is at most _POWER_TOL; it never stops on step size.  A check costs about
    one matvec, so checks are scheduled: the first once the mass ratio of
    consecutive steps settles to _FIRST_CHECK relative, the next one step
    later, each later one where the decay between the last two estimates
    predicts the tolerance, at most _CHECK_GAP steps on.  The benchmark's
    continuous sweep takes 842 steps and stops within 4e-13 of a tight
    Arnoldi reference.  Raises ValueError for a start of the wrong shape or
    uneven taps, and RuntimeError after _POWER_MAX_ITER steps.  Transient
    border states carry no weight in the limit, so any start vector with
    mass on the communicating core gives the same answer; without `start`
    the flat vector is the start (1,053 steps on the default sweep's cold
    solves).

    The solve runs in the even sector.  T commutes with S(h, g) = (-h, -g)
    and the Perron vector is even, so S v has the same component along it
    as v: the start is symmetrised once, v + v[::-1, ::-1], and each step
    is `TransferOperator._even_step`, which computes heights h <= 0, mirrors
    the rest by one 1-D copy and alternates two buffers for the whole solve.
    Each step does the work of about half a matvec and counts as one.
    """
    _check_even(op)
    v = np.ones(op.shape) if start is None else np.array(start, dtype=float)
    if v.shape != op.shape:
        raise ValueError(f"state vector must have shape {op.shape}")
    if v.min() < 0 or not v.sum() > 0:
        raise ValueError("start vector must be nonnegative with positive mass")
    v = v + v[::-1, ::-1]
    v *= 1.0 / v.sum()
    bufs = (op._sheared(), op._sheared())
    s_prev = None
    check_at = None  # no check before the mass ratio settles
    last = None  # step and estimate of the previous check
    for it in range(1, _POWER_MAX_ITER + 1):
        w = op._even_step(v, bufs[it % 2])
        s = float(w.sum())
        if not (s > 0 and math.isfinite(s)):
            raise RuntimeError("power iteration lost all mass; operator is degenerate")
        if check_at is None and s_prev is not None and abs(s - s_prev) <= _FIRST_CHECK * s:
            check_at = it
        if it == check_at:
            lam, err = _quotient(op, v, w)
            if err <= _POWER_TOL:
                w *= 1.0 / s
                return PowerResult(lam / op.z1, lam, it, w, err)
            check_at = it + _check_gap(last, it, err)
            last = (it, err)
        s_prev = s
        w *= 1.0 / s
        v = w
    raise RuntimeError(f"power iteration did not converge in {_POWER_MAX_ITER} iterations")


def survival_probability(op: TransferOperator, n_sites: int) -> float:
    """P(sup_{1<=k<=N} |phi_k| <= R | phi_0 = phi_1 = 0) by exact path sum.

    The chain starts at height 0 with gradient 0, and its N-1 steps, each
    divided by z1, land exactly on the constrained heights phi_2 .. phi_N.
    That start is even under (h, g) -> (-h, -g), so every step is the even
    step of `power_iteration`, on two alternating buffers.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be at least 1")
    _check_even(op)
    v = np.zeros(op.shape)
    v[op.n_h, op.n_g] = 1.0  # unit mass at (h=0, g=0)
    bufs = (op._sheared(), op._sheared())
    for k in range(n_sites - 1):
        v = op._even_step(v, bufs[k % 2])
        v /= op.z1
    return float(v.sum())


class SweepRow(NamedTuple):
    """One rho of a sweep, in `confine.csv`'s column order: F, lambda and the
    state count at the sweep's first mesh, |delta F| to its last, and
    F_scaled = F rho^(2/3) c^(1/3)."""

    rho: float
    free_energy: float
    lam_norm: float
    n_states: int
    mesh_delta: float
    f_scaled: float


def _prolong(v: np.ndarray, coarse: TransferOperator, fine: TransferOperator) -> np.ndarray:
    """Bilinear interpolation of a coarse-grid state vector onto a finer grid.

    Fine states past the coarse grid's edge take the edge value.  A fine grid
    of spacing coarse.delta / k holds every coarse state, so a nonnegative v
    with positive mass prolongs to one.
    """
    def axis(n, x):
        pos = np.clip(x / coarse.delta + n, 0, 2 * n)
        i0 = np.minimum(np.floor(pos).astype(np.intp), max(2 * n - 1, 0))
        return i0, np.minimum(i0 + 1, 2 * n), pos - i0

    # in-place sums: fine-grid temporaries would set a sweep's peak memory
    i0, i1, t = axis(coarse.n_h, fine.heights())
    rows = v[i0] * (1 - t)[:, None]
    rows += v[i1] * t[:, None]
    j0, j1, s = axis(coarse.n_g, fine.gradients())
    out = rows[:, j0]
    out *= 1 - s
    right = rows[:, j1]
    right *= s
    out += right
    return out


def _tail_share(op: TransferOperator, v: np.ndarray) -> float:
    """Estimated share of the confined density v * Pv past the gradient cut.

    The outermost column pair holds a share e of the density and the next
    pair in a share n; a tail that goes on falling by q = e / n per column
    pair holds e q / (1 - q) past the cut.  0 when the edge holds nothing,
    infinite when the shares do not fall or the grid has no second pair.
    """
    cols = (v * op._reflect(v)).sum(axis=0)
    edge = cols[0] + cols[-1]
    if edge == 0:
        return 0.0
    inner = cols[1] + cols[-2] if op.n_g >= 2 else 0.0
    if edge >= inner:
        return math.inf
    q = edge / inner
    return float(edge * q / (1 - q) / cols.sum())


def _sweep_point(job) -> SweepRow:
    """One tube solved in one chain: the first mesh at the start of the cut
    range, the first mesh again at its top when the tail past the start cut
    could move F by over _TAIL_TOL relative, then each later mesh at the
    final cut.  Each solve after the first starts from the one before's
    eigenvector prolonged to its grid (`_prolong`).

    Cutting the tail's share d of the density moves lambda by about d
    relative, so F = -log(lam_norm) / eps by d / -log(lam_norm).
    """
    params, pot, rho, (start, top), meshes = job
    op = build_transfer(params, pot, TubeSpec(rho, start), mesh=meshes[0])
    sol = power_iteration(op)
    wide = top > start and _tail_share(op, sol.eigvec) > _TAIL_TOL * -math.log(sol.lam_norm)
    # each mesh's operator and solve at the final cut
    cut, finals, rest = (top, [], meshes) if wide else (start, [(op, sol)], meshes[1:])
    for mesh in rest:
        new = build_transfer(params, pot, TubeSpec(rho, cut), mesh=mesh)
        sol = power_iteration(new, start=_prolong(sol.eigvec, op, new))
        op = new
        finals.append((op, sol))
    f = [-math.log(sol.lam_norm) / op.eps for op, sol in finals]
    op, sol = finals[0]
    return SweepRow(rho, f[0], sol.lam_norm, op.n_states, abs(f[-1] - f[0]),
                    f[0] * rho ** (2.0 / 3.0) * params.macro_length ** (1.0 / 3.0))


def confinement_sweep(
    params: ModelParams,
    pot: Potential,
    rhos: Sequence[float],
    *,
    grad_cut: float | None = None,
    mesh: float | None = None,
    workers: int = 1,
) -> list[SweepRow]:
    """Free energy across tube widths; rho points are independent jobs.

    The meshes are chosen once, from one evaluation of the step law
    (`_grid_law`): the lattice's own, or in continuous mode the requested
    mesh and half of it, where mesh_delta reports |delta F| between them;
    on the lattice mesh_delta is 0.  Each point is solved in one chain
    (`_sweep_point`), which chooses its gradient cut at the first mesh and
    keeps it at the half mesh.  Before the first point is solved, every
    (rho, mesh) grid is sized by arithmetic (`_size_tube`) against the
    state cap at the widest cut it may widen to, and a lattice tube of
    floored radius 0 is refused.  Results are in input order and identical
    for any worker count.
    """
    tubes = [TubeSpec(float(r), grad_cut) for r in rhos]
    if not tubes:
        raise ValueError("need at least one rho")
    sigma2, delta = _grid_law(params, pot, mesh=mesh)[:2]
    meshes = [delta] if params.height_mode == "discrete" else [delta, delta / 2.0]
    for tube in tubes:
        for m, label in zip(meshes, ("", "half-mesh check at ")):
            n_h = _size_tube(params, tube, sigma2, m, label)[0]
        if n_h < 1:  # a lattice tube: `_size_tube` refuses a continuous one
            raise ValueError(f"rho={tube.rho:g}: lattice tube radius R = 0 holds height 0 "
                             "alone, so F cannot depend on rho; raise --rho-min")
    jobs = [(params, pot, tube.rho, _cut_range(params, tube, sigma2), meshes) for tube in tubes]
    return list(_pool_map(_sweep_point, jobs, workers))


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def _check_fit_rhos(r: np.ndarray) -> None:
    """The fit's demands on its rho points, checkable before a sweep is solved."""
    if r.size < 5:
        raise ValueError("need at least 5 points for the exponent fit")
    if not np.all(r > 0):
        raise ValueError("exponent fit needs positive rho values")
    if r.max() / r.min() < 10.0 * (1.0 - 1e-12):
        raise ValueError("rho values must span at least one decade")


def exponent_fit(rhos: Sequence[float], fs: Sequence[float]) -> FitResult:
    """Least-squares slope of log F against log rho.

    Needs at least 5 points spanning a decade of rho and positive F
    throughout; the tube-width theorem predicts slope -2/3.
    """
    r = np.asarray(rhos, dtype=float)
    f = np.asarray(fs, dtype=float)
    if r.shape != f.shape or r.ndim != 1:
        raise ValueError("rhos and fs must be 1d and the same length")
    _check_fit_rhos(r)
    if not np.all(f > 0):
        raise ValueError("exponent fit needs positive F values")
    x, y = np.log(r), np.log(f)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2)
