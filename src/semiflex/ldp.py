"""Tilted-ensemble machinery: log moment generating functions, the two tilt
equations for pinned boundary data, the sharp pinning asymptotics, and the
macroscopic mean profile.

Every integral over the tilt profile u + y v, y in [0, 1], reads the log-MGF
at one set of 64 Gauss-Legendre nodes, so the tilt solver, the rate and the
mean profile share one set of kernel evaluations.  The profile interpolates L'
at those nodes by its degree-63 Legendre series and integrates the series
twice in closed form.  The nodes resolve the tilt profile while the tilts stay
moderate: for the quartic at c = 1, at the corners of the boundary-data cubes
+-0.25, +-0.5, +-1 and +-2 (largest tilts 7, 47, 372 and 2970) the profile
is off an adaptive-quadrature profile by 3e-13, 1e-5, 3e-4 and 3e-3.

Supported potentials: the Gaussian, whose limit law is the standard normal,
and the power law kappa |x|^alpha with alpha >= 1, one unit law rescaled to
each step and to the limit (see `limit_log_mgf`).  The power law goes through
one tilted-moment kernel on a whole array of tilts h (a node set, say).  It
takes the peaks of exp(-eps Phi(x) + h x) in closed form, finds each window
end, the power of two from the peak past where the exponent has fallen by
60, in masked halving and doubling loops over the tilts still searching, and
evaluates the integrands on model's tanh-sinh rule, in pieces that end at
the window ends, the peak and the kink of |x|^alpha at x = 0 (`_node_set`),
per piece count in chunks of at most 64 tilts.  Each chunk's nodes,
weights, integrand and centred moments are written in place on a workspace
of three 64-tilt, three-piece arrays (0.95 MB) that the LogMgf holds, so a
call allocates nothing of node-set size but the potential's values: fresh
arrays of that size (200-320 KB) cost page faults on every call.  Each
tilt's moments are a function of that tilt alone, the same bits in any
chunk, after any earlier call.  The tests hold the kernel to adaptive
quadrature within 1e-8 relative for alpha in {1, 1.25, 1.5, 2, 4}, to a
one-tilt-at-a-time version of itself within 1e-13, to the Gaussian closed
forms within 1e-12 at alpha = 2 (1e-14 in the mean profile, for stiffness
up to 1e16, where the window ends are far below 1), and to the allocating
expressions it replaced bit for bit.  Calls that share one LogMgf share its
workspace, so they must not run at once in threads.  A table
potential is rejected: it is a hard wall (+inf) past its grid, so its tilted
law has neither the closed-form peak nor the one rescaled unit law that the
kernel and the limit rely on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from .model import (
    BoundaryConditions,
    GaussianPotential,
    ModelParams,
    Potential,
    PowerLawPotential,
    _TS_WEIGHT,
    _check_times,
    _tanh_sinh_pieces,
)

__all__ = [
    "LogMgf",
    "TiltSolution",
    "step_log_mgf",
    "limit_log_mgf",
    "l_infinity",
    "solve_tilts",
    "ld_rate",
    "sharp_ld_probability",
    "mean_profile",
    "macro_boundary",
]

_GL_NODES, _GL_WEIGHTS = legendre.leggauss(64)
_X01 = 0.5 * (_GL_NODES + 1.0)  # nodes mapped to [0, 1]
_W01 = 0.5 * _GL_WEIGHTS
_TILT_TOL = 1e-10
_TILT_MAX_ITER = 100


@functools.cache
def _legendre_projection() -> np.ndarray:
    """P with P @ values the degree-63 Legendre series, on s = 2x - 1, that
    interpolates values at the tilt nodes x = 1 - y, which sit at
    s = -_GL_NODES: the inverse of their Legendre-Vandermonde matrix, whose
    condition number is 15.  Built once per process, on first use rather
    than at import, so that a command that draws no profile does not load
    LAPACK for it (about 0.3 MB of peak RSS)."""
    proj = np.linalg.inv(legendre.legvander(-_GL_NODES, _GL_NODES.size - 1))
    proj.flags.writeable = False
    return proj


def __getattr__(name):
    # nothing here calls scipy, but the benchmark tracer counts the quad calls
    # made through `semiflex.ldp.integrate`; bind it on first read only, so
    # importing the package loads numpy and the standard library alone
    if name == "integrate":
        from scipy import integrate
        globals()[name] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the tilted density is cut where it has fallen by e^60 from its peak
_TAIL = -60.0
# tilts per pass of the node-set quadrature, the rows its workspace holds
_TILT_CHUNK = 64


@dataclass(frozen=True)
class LogMgf:
    """Log moment generating function with first two derivatives, each taking
    a float or an array of tilts alike, and the largest usable tilt h_max
    (open domain bound, 1% safety margin applied)."""

    value: Callable[[float | np.ndarray], float | np.ndarray]
    d1: Callable[[float | np.ndarray], float | np.ndarray]
    d2: Callable[[float | np.ndarray], float | np.ndarray]
    h_max: float

    def check(self, h) -> None:
        """Raise ValueError unless every tilt in h (a float or an array) is
        finite and lies inside the domain |h| < h_max."""
        worst = float(np.max(np.abs(h)))
        if not math.isfinite(worst):
            raise ValueError(f"tilt {worst} is not finite")
        if worst >= self.h_max:
            raise ValueError(f"tilt {worst} leaves the log-MGF domain (|h| < {self.h_max})")


def _exponent(pot: PowerLawPotential, eps: float, h, x0, shift, x: np.ndarray) -> np.ndarray:
    """g(x0 + x) - shift, g(x) = -eps Phi(x) + h x, with h, x0 and shift
    broadcast against x (a column each for rows of tilts).  One call of pot;
    x is overwritten, and the result is pot's own array."""
    x += x0
    g = pot(x)
    g *= -eps
    g += np.multiply(h, x, out=x)
    g -= shift
    return g


def _node_set(pot: PowerLawPotential, eps: float, h: np.ndarray, x0: np.ndarray,
              shift: np.ndarray, ends: np.ndarray,
              work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log Z, mean and variance of exp(-eps Phi(x) + h x) at each tilt h, one
    row each, on the tanh-sinh rule over pieces ending at `ends` in the
    variable u = x - x0; shift is g at the peak x0.

    Nodes, weights and integrand live on the first rows of the three flat
    arrays of `work`, written afresh, so no call sees an earlier one; pot
    is read once, on all the rows' nodes."""
    shape = (h.size, (ends.shape[1] - 1) * _TS_WEIGHT.size)
    u, w, x = (buf[:shape[0] * shape[1]].reshape(shape) for buf in work)
    _tanh_sinh_pieces(ends, out=(u, w))
    x[...] = u
    w *= np.exp(_exponent(pot, eps, h[:, None], x0[:, None], shift[:, None], x), out=x)
    # moments centred at the peak: the raw second moment at x0 ~ h/eps
    # would lose the variance to cancellation
    z = w.sum(axis=1)
    u1 = np.multiply(w, u, out=x).sum(axis=1) / z
    np.square(np.subtract(u, u1[:, None], out=x), out=x)
    var = np.multiply(w, x, out=x).sum(axis=1) / z
    return np.log(z) + shift, x0 + u1, var


def _tilted_log_mgf(pot: Potential, eps: float) -> LogMgf:
    """Tilted integrals of exp(-eps*Phi(x) + h x) for Phi = kappa |x|^alpha,
    on the tanh-sinh rule of `model._tanh_sinh_pieces`, at arrays of tilts h."""
    if not isinstance(pot, PowerLawPotential):
        raise ValueError(
            "the log-MGF needs a power law finite on the whole line (a table potential "
            f"is +inf past its grid ends), got {type(pot).__name__}; use potential kind "
            "'gaussian' or 'power'")

    last = [(None, None)]  # the last distinct tilts' bytes and moments, swapped whole
    # the node-set workspace, reused by every call: nodes, weights and the
    # integrand's scratch for _TILT_CHUNK tilts of up to three pieces each
    work = np.empty((3, _TILT_CHUNK * 3 * _TS_WEIGHT.size))

    def _moments(h: np.ndarray) -> np.ndarray:
        # the tilted integrand is a single bump (Phi is convex and even) that
        # peaks where g' = 0, at x0 = sign(h) (|h| / (eps kappa alpha))^(1/(alpha-1)),
        # or at the kink x0 = 0 when alpha = 1; for large h or small eps it
        # sits far from the origin and is narrow, so integrate in the
        # peak-centred variable x - x0 and keep the exponent shift out of exp
        with np.errstate(over="ignore", invalid="ignore"):  # far past the guard below
            x0 = np.zeros_like(h) if pot.alpha == 1.0 else np.copysign(
                (np.abs(h) / (eps * pot.kappa * pot.alpha)) ** (1.0 / (pot.alpha - 1.0)), h)
            diverges = (pot.alpha == 1.0) & (np.abs(h) >= eps * pot.kappa)
            # the terms of g near the peak are of size |h x0|; up to 2^26 their
            # rounding (2^-27 absolute) keeps exp within the kernel's 1e-8 tolerance
            bad = diverges | ~(np.abs(h * x0) <= 2.0**26)
        if bad.any():  # name the first bad tilt
            i = int(np.argmax(bad))
            if diverges[i]:
                raise ValueError(f"tilted normalizer diverges at h={float(h[i])}")
            raise ValueError(
                f"the tilted exponent (peak {h[i] * x0[i] * (1.0 - 1.0 / pot.alpha):.3g}) "
                f"exceeds float64 precision at h={float(h[i])}; the integral is finite "
                "but cannot be evaluated there")
        # each distinct tilt once (the solver's first node set, at zero tilt,
        # is one); value, d1 and d2 at the last tilts share one evaluation, as
        # do the rate and the profile at the solver's final nodes
        h, first, back = np.unique(h, return_index=True, return_inverse=True)
        key, moments = last[0]
        if h.tobytes() == key:
            return moments[:, back]
        x0 = x0[first]
        shift = -eps * pot(x0) + h * x0

        def fall(i, x):  # g - shift at tilts h[i], x = x0[i] + x (a row each); overwrites x
            return _exponent(pot, eps, h[i, None], x0[i, None], shift[i, None], x)

        def scan(scale, factor, holds):  # scale[k] *= factor while holds(k, scale[k])
            live = np.arange(scale.size)
            while live.size:
                live = live[holds(live, scale[live])]
                scale[live] *= factor
            return scale

        # the window ends where the exponent has fallen to _TAIL on both
        # sides, in x - x0 and powers of two: halve from 1 while the end is
        # past the fall, then double while it is short of it.  reach[2 i] is
        # tilt i's right end, reach[2 i + 1] its left; NaN stops either scan
        side = np.array([1.0, -1.0])

        def tail(k, r):  # g - shift at the ends r of tilts k // 2
            return fall(k // 2, (side[k % 2] * r)[:, None])[:, 0]

        reach = scan(np.ones(2 * h.size), 0.5, lambda k, r: (tail(k, r) <= _TAIL) & (r > 1e-12))
        reach = scan(reach, 2.0, lambda k, r: tail(k, r) > _TAIL)
        right, left = reach[0::2], reach[1::2]
        # the integrand is smooth on each piece between the window ends, the
        # peak (u = 0) and the kink of |x|^alpha at x = 0; tilts whose kink
        # lies inside the window, off the peak, take three pieces, the rest two
        kink = -x0
        inside = (-left < kink) & (kink < right) & (kink != 0.0)
        out = np.empty((3, h.size))
        for rows, cuts in ((inside, (-left, np.minimum(kink, 0.0), np.maximum(kink, 0.0), right)),
                           (~inside, (-left, np.zeros(h.size), right))):
            ends = np.stack(cuts, axis=1)
            rows = np.flatnonzero(rows)
            # at most _TILT_CHUNK tilts at a time, each on a row of the workspace
            for i in (rows[k:k + _TILT_CHUNK] for k in range(0, rows.size, _TILT_CHUNK)):
                out[:, i] = _node_set(pot, eps, h[i], x0[i], shift[i], ends[i], work)
        last[0] = h.tobytes(), out
        return out[:, back]

    def at(h, k):
        h = np.asarray(h, dtype=float)
        out = _moments(h.ravel())[k].reshape(h.shape)
        return float(out) if out.ndim == 0 else out

    logz0 = at(0.0, 0)
    # exp(-eps kappa |x|^alpha + h x) is integrable for every h when alpha > 1
    # and for |h| < eps kappa when alpha = 1; 1% margin on the finite bound
    h_max = math.inf if pot.alpha > 1 else 0.99 * eps * pot.kappa
    return LogMgf(value=lambda h: at(h, 0) - logz0, d1=lambda h: at(h, 1),
                  d2=lambda h: at(h, 2), h_max=h_max)


def _scaled(mgf: LogMgf, s: float) -> LogMgf:
    """Log-MGF of s X from that of X: L(s h), s L'(s h), s^2 L''(s h), |h| < h_max / s."""
    return LogMgf(value=lambda h: mgf.value(s * h), d1=lambda h: s * mgf.d1(s * h),
                  d2=lambda h: s * s * mgf.d2(s * h), h_max=mgf.h_max / s)


# the Gaussian potential's unit law: the standard normal
_STANDARD = LogMgf(value=lambda h: 0.5 * h * h, d1=lambda h: h,
                   d2=lambda h: 1.0 if np.ndim(h) == 0 else np.ones(np.shape(h)),
                   h_max=math.inf)


def step_log_mgf(pot: Potential, params: ModelParams) -> LogMgf:
    """Single-increment log-MGF under weight exp(-eps * Phi)."""
    eps = params.epsilon
    if params.height_mode != "continuous":
        raise ValueError("log-MGF machinery is defined for continuous heights")
    if isinstance(pot, GaussianPotential):
        return _scaled(_STANDARD, 1.0 / math.sqrt(eps * pot.kappa))
    # the kernel runs at eps itself, so its errors name the caller's tilt
    return _tilted_log_mgf(pot, eps)


def limit_log_mgf(pot: Potential) -> LogMgf:
    """Scaling limit of the step log-MGF under sigma_N-rescaled tilts.

    Substituting x = eps^(-1/alpha) y turns exp(-eps kappa |x|^alpha) into
    exp(-kappa |y|^alpha): a power-law step is eps^(-1/alpha) Y for one fixed
    law Y, and sigma_N is eps^(-1/alpha) sd(Y).  The log-MGF of the step over
    sigma_N is thus that of Y / sd(Y) at every N, so the limit is exact: the
    unit law (eps = 1) at unit variance; for the Gaussian, the standard normal.
    """
    if isinstance(pot, GaussianPotential):
        return _STANDARD
    unit = _tilted_log_mgf(pot, 1.0)
    return _scaled(unit, 1.0 / math.sqrt(unit.d2(0.0)))


def _tilt_nodes(u: float, v: float, mgf: LogMgf) -> np.ndarray:
    """Domain-checked tilts u + y v at the Gauss-Legendre nodes y of [0, 1]:
    the one node set every tilt-profile integral reads."""
    args = u + _X01 * v
    mgf.check(args)
    return args


def l_infinity(u: float, v: float, mgf: LogMgf) -> float:
    """Integral over [0,1] of L(u + (1-x) v) dx = L(u + y v) dy."""
    return float(np.dot(_W01, mgf.value(_tilt_nodes(u, v, mgf))))


def _tilt_residual(u, v, mgf, c, xi_left, xi_right, slope):
    y = _X01
    args = _tilt_nodes(u, v, mgf)
    d1 = mgf.d1(args)
    r1 = float(np.dot(_W01, d1)) + (xi_right + xi_left) / c
    r2 = float(np.dot(_W01, y * d1)) + (xi_left - slope) / c
    d2 = mgf.d2(args)
    j11 = float(np.dot(_W01, d2))
    j12 = float(np.dot(_W01, y * d2))
    j22 = float(np.dot(_W01, y * y * d2))
    return np.array([r1, r2]), np.array([[j11, j12], [j12, j22]])


@dataclass(frozen=True)
class TiltSolution:
    u_star: float
    v_star: float
    residual: np.ndarray
    hessian: np.ndarray  # Hessian of l_infinity at the solution


def solve_tilts(xi_left: float, xi_right: float, slope: float, c: float,
                mgf: LogMgf) -> TiltSolution:
    """Damped Newton for the two tilt equations

        int_0^1 L'(u + y v) dy        = -(xi_right + xi_left)/c
        int_0^1 y L'(u + y v) dy      = -(xi_left - slope)/c

    i.e. grad l_infinity(u, v) equals the boundary data vector, to residual
    _TILT_TOL within _TILT_MAX_ITER Newton steps.
    """
    if not (c > 0):
        raise ValueError("c must be positive")
    for name, value in dict(xi_left=xi_left, xi_right=xi_right, slope=slope, c=c).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    u = v = 0.0
    res, jac = _tilt_residual(u, v, mgf, c, xi_left, xi_right, slope)
    for _ in range(_TILT_MAX_ITER):
        if np.max(np.abs(res)) < _TILT_TOL:
            break
        step = np.linalg.solve(jac, res)
        lam = 1.0
        while lam > 1e-8:
            try:
                cand = _tilt_residual(u - lam * step[0], v - lam * step[1],
                                      mgf, c, xi_left, xi_right, slope)
            except ValueError:
                lam *= 0.5
                continue
            if np.max(np.abs(cand[0])) < np.max(np.abs(res)) or lam == 1.0 and \
                    np.max(np.abs(cand[0])) < np.max(np.abs(res)) * (1 + 1e-12):
                u, v = u - lam * step[0], v - lam * step[1]
                res, jac = cand
                break
            lam *= 0.5
        else:
            raise ValueError("tilt solver line search stalled; boundary data "
                             "likely outside the admissible range")
    # the state the last step reached counts too
    if not np.max(np.abs(res)) < _TILT_TOL:
        raise ValueError(f"tilt solver did not reach residual {_TILT_TOL}: "
                         f"|r| = {np.max(np.abs(res))}")
    return TiltSolution(u_star=u, v_star=v, residual=res, hessian=jac)


def ld_rate(xi_left: float, xi_right: float, slope: float, c: float,
            mgf: LogMgf, tilts: TiltSolution | None = None) -> float:
    """Convex dual value at the boundary data,

        -(xiR + xiL) u*/c - (xiL - a) v*/c - L_inf(u*, v*),

    nonnegative, zero only at zero boundary data."""
    t = tilts if tilts is not None else solve_tilts(xi_left, xi_right, slope, c, mgf)
    return (-(xi_right + xi_left) * t.u_star / c
            - (xi_left - slope) * t.v_star / c
            - l_infinity(t.u_star, t.v_star, mgf))


def sharp_ld_probability(n_sites: int, xi_left: float, xi_right: float, slope: float,
                         c: float, mgf: LogMgf) -> float:
    """Sharp pinning asymptotics

        (2 pi N^2)^-1 det(D)^-1/2 exp{-N * ld_rate}

    with D the Hessian of l_infinity at the tilts."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    t = solve_tilts(xi_left, xi_right, slope, c, mgf)
    det = float(np.linalg.det(t.hessian))
    if det <= 0:
        raise ValueError("tilt Hessian not positive definite")
    rate = ld_rate(xi_left, xi_right, slope, c, mgf, t)
    return math.exp(-n_sites * rate) / (2.0 * math.pi * n_sites * n_sites * math.sqrt(det))


def mean_profile(t, xi_left: float, xi_right: float, slope: float, c: float,
                 mgf: LogMgf, tilts: TiltSolution | None = None):
    """Macroscopic conditioned mean at time t:

        t*xiL + c * int_0^t (t - x) L'(u* + (1 - x) v*) dx.

    Vectorized over t in [0, 1].  L' is read at the tilt solver's own nodes
    (x = 1 - y), interpolated there by its degree-63 Legendre series, and
    the series is integrated twice from x = 0 in closed form; no tilt
    outside the solver's node set is evaluated."""
    sol = tilts if tilts is not None else solve_tilts(xi_left, xi_right, slope, c, mgf)
    t_arr = _check_times(t)
    d1 = mgf.d1(_tilt_nodes(sol.u_star, sol.v_star, mgf))
    # on s = 2x - 1 the nodes x = 1 - y sit at -_GL_NODES, and dx = ds / 2;
    # minus the series' own value at x = 0, the profile there is 0 exactly
    series = legendre.legint(_legendre_projection() @ d1, m=2, lbnd=-1.0, scl=0.5)
    twice = legendre.legval(2.0 * t_arr - 1.0, series) - legendre.legval(-1.0, series)
    out = t_arr * xi_left + c * twice
    return float(out) if np.ndim(t) == 0 else out


def macro_boundary(params: ModelParams, xi_left: float, xi_right: float,
                   slope: float) -> BoundaryConditions:
    """Lattice boundary data realizing macroscopic (xiL, xiR, a).

    Heights normalized by (N+1)*eps carry slope a at the far end exactly when
    the lattice endpoint is eps*a*(N+1); the gradients scale the same way.
    """
    eps = params.epsilon
    return BoundaryConditions(
        xi_left=eps * xi_left,
        xi_right=eps * xi_right,
        endpoint=eps * slope * (params.n_sites + 1),
    )
