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
one tilted-moment kernel.  At each tilt h it takes the peak of
exp(-eps Phi(x) + h x) in closed form, sizes the width and the window where
the exponent has fallen by 60 by halving and doubling, and evaluates the
integrand once, as one array, on model's tanh-sinh rule, in pieces that end
at the window ends, the peak and the kink of |x|^alpha at x = 0.  log Z, the mean
and the variance come from those nodes and are cached per tilt, so value, d1
and d2 at one tilt cost one evaluation.  The tests hold the kernel to
adaptive quadrature within 1e-8 relative for alpha in {1, 1.25, 1.5, 2, 4}
and to the Gaussian closed forms within 1e-12 at alpha = 2.  A table
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
    _TS_FROM_LEFT,
    _TS_OFFSET,
    _TS_WEIGHT,
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


def __getattr__(name):
    # nothing here calls scipy, but the benchmark tracer counts the quad calls
    # made through `semiflex.ldp.integrate`; bind it on first read only, so
    # importing the package loads numpy and the standard library alone
    if name == "integrate":
        from scipy import integrate
        globals()[name] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the tanh-sinh rule (_TS_*) lives in model, which integrates the untilted
# continuous step law with it too; the tilted density is cut where it has
# fallen by e^60 from its peak
_TAIL = -60.0


@dataclass(frozen=True)
class LogMgf:
    """Log moment generating function with first two derivatives and the
    largest usable tilt h_max (open domain bound, 1% safety margin applied)."""

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    h_max: float

    def check(self, h) -> None:
        """Raise ValueError unless every tilt in h (a float or an array) is
        finite and lies inside the domain |h| < h_max."""
        worst = float(np.max(np.abs(h)))
        if not math.isfinite(worst):
            raise ValueError(f"tilt {worst} is not finite")
        if worst >= self.h_max:
            raise ValueError(f"tilt {worst} leaves the log-MGF domain (|h| < {self.h_max})")


def _tilted_log_mgf(pot: Potential, eps: float) -> LogMgf:
    """Tilted integrals of exp(-eps*Phi(x) + h x) for Phi = kappa |x|^alpha,
    on the tanh-sinh rule."""
    if not isinstance(pot, PowerLawPotential):
        raise ValueError(
            "the log-MGF needs a power law finite on the whole line (a table potential "
            f"is +inf past its grid ends), got {type(pot).__name__}; use potential kind "
            "'gaussian' or 'power'")

    @functools.lru_cache(maxsize=256)
    def _moments(h: float):
        # the tilted integrand is a single bump (Phi is convex and even) that
        # peaks where g' = 0, at x0 = sign(h) (|h| / (eps kappa alpha))^(1/(alpha-1)),
        # or at the kink x0 = 0 when alpha = 1; for large h or small eps it
        # sits far from the origin and is narrow, so integrate in a
        # peak-centered, width-scaled variable and keep the exponent shift out of exp
        def g(x):
            return -eps * pot(x) + h * x

        if pot.alpha == 1.0 and abs(h) >= eps * pot.kappa:
            raise ValueError(f"tilted normalizer diverges at h={h}")
        try:
            x0 = 0.0 if pot.alpha == 1.0 else math.copysign(
                (abs(h) / (eps * pot.kappa * pot.alpha)) ** (1.0 / (pot.alpha - 1.0)), h)
        except OverflowError:  # far past the precision guard below
            x0 = math.inf
        # the terms of g near the peak are of size |h x0|; up to 2^26 their
        # rounding (2^-27 absolute) keeps exp within the kernel's 1e-8 tolerance
        if not abs(h * x0) <= 2.0**26:
            raise ValueError(
                f"the tilted exponent (peak {h * x0 * (1.0 - 1.0 / pot.alpha):.3g}) exceeds "
                f"float64 precision at h={h}; the integral is finite but cannot be "
                "evaluated there")
        shift = float(g(x0))
        # width = scale over which the exponent drops by about 1/2 .. 10
        d = 1.0
        while min(g(x0 + d), g(x0 - d)) - shift < -10.0 and d > 1e-12:
            d *= 0.5
        while max(g(x0 + d), g(x0 - d)) - shift > -0.1 and d < 2.0**60:
            d *= 2.0

        # the window ends where the exponent has dropped below _TAIL on both
        # sides; the integrand is smooth on each piece between the window
        # ends, the peak (u = 0) and the kink of |x|^alpha at x = 0
        left = right = 1.0
        while g(x0 - left * d) - shift > _TAIL:
            left *= 2.0
        while g(x0 + right * d) - shift > _TAIL:
            right *= 2.0
        kink = -x0 / d
        cuts = sorted({-left, 0.0, right} | ({kink} if -left < kink < right else set()))
        ends = np.array(cuts)
        width = np.diff(ends)[:, None]
        u = (np.where(_TS_FROM_LEFT, ends[:-1, None], ends[1:, None])
             + width * _TS_OFFSET).ravel()
        w = (width * _TS_WEIGHT).ravel() * np.exp(g(x0 + u * d) - shift)
        # centered u-moments keep every sum O(1); the raw second moment at
        # x0 ~ h/eps would lose the variance to cancellation
        z = float(np.sum(w))
        u1 = float(np.dot(w, u)) / z
        var = float(np.dot(w, np.square(u - u1))) / z
        return math.log(z * d) + shift, x0 + d * u1, d * d * var

    logz0 = _moments(0.0)[0]
    # exp(-eps kappa |x|^alpha + h x) is integrable for every h when alpha > 1
    # and for |h| < eps kappa when alpha = 1; 1% margin on the finite bound
    h_max = math.inf if pot.alpha > 1 else 0.99 * eps * pot.kappa
    # value, d1 and d2 at one tilt share one cached evaluation; float() keys
    # numpy scalars and Python floats alike
    return LogMgf(value=lambda h: _moments(float(h))[0] - logz0,
                  d1=lambda h: _moments(float(h))[1],
                  d2=lambda h: _moments(float(h))[2], h_max=h_max)


def _scaled(mgf: LogMgf, s: float) -> LogMgf:
    """Log-MGF of s X from that of X: L(s h), s L'(s h), s^2 L''(s h), |h| < h_max / s."""
    return LogMgf(value=lambda h: mgf.value(s * h), d1=lambda h: s * mgf.d1(s * h),
                  d2=lambda h: s * s * mgf.d2(s * h), h_max=mgf.h_max / s)


# the Gaussian potential's unit law: the standard normal
_STANDARD = LogMgf(value=lambda h: 0.5 * h * h, d1=lambda h: h, d2=lambda h: 1.0,
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
    return float(np.dot(_W01, [mgf.value(a) for a in _tilt_nodes(u, v, mgf)]))


def _tilt_residual(u, v, mgf, c, xi_left, xi_right, slope):
    y = _X01
    args = _tilt_nodes(u, v, mgf)
    d1 = np.array([mgf.d1(a) for a in args])
    r1 = float(np.dot(_W01, d1)) + (xi_right + xi_left) / c
    r2 = float(np.dot(_W01, y * d1)) + (xi_left - slope) / c
    d2 = np.array([mgf.d2(a) for a in args])
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
                         c: float, mgf: LogMgf,
                         tilts: TiltSolution | None = None) -> float:
    """Sharp pinning asymptotics

        (2 pi N^2)^-1 det(D)^-1/2 exp{-N * ld_rate}

    with D the Hessian of l_infinity at the tilts."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    t = tilts if tilts is not None else solve_tilts(xi_left, xi_right, slope, c, mgf)
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
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0) & (t_arr <= 1)):
        raise ValueError("profile times must lie in [0, 1]")
    d1 = [mgf.d1(a) for a in _tilt_nodes(sol.u_star, sol.v_star, mgf)]
    # on s = 2x - 1 the nodes x = 1 - y sit at -_GL_NODES, and dx = ds / 2;
    # minus the series' own value at x = 0, the profile there is 0 exactly
    series = legendre.legint(legendre.legfit(-_GL_NODES, d1, _GL_NODES.size - 1),
                             m=2, lbnd=-1.0, scl=0.5)
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
