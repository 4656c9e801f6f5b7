"""Tilted-ensemble machinery: log moment generating functions, the two tilt
equations for pinned boundary data, the sharp pinning asymptotics, and the
macroscopic mean profile.

All integrals over the tilt profile u + (1-x) v use a fixed 64-node
Gauss-Legendre rule; the integrands are smooth whenever the tilts stay inside
the domain of the limiting log-MGF.

Supported potentials: the Gaussian has closed forms; the power law
kappa |x|^alpha (alpha >= 1) goes through one tilted-moment kernel.  At each
tilt h the kernel finds the peak and width of exp(-eps Phi(x) + h x) by a
scalar search, cuts the window where the exponent has fallen by 60, and
evaluates the integrand once, as one array, on a tanh-sinh rule whose pieces
end at the window ends, the peak and the kink of |x|^alpha at x = 0.  log Z,
the mean and the variance come from those same nodes and are cached per tilt,
so value, d1 and d2 at one tilt cost one evaluation.  The tests hold the
kernel to adaptive quadrature within 1e-8 relative for alpha in {1, 1.5, 2, 4}
and to the Gaussian closed forms within 1e-12 at alpha = 2.  A table
potential is rejected: it is undefined beyond its grid, where the tilted
tails reach.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# `integrate` has no caller here but stays bound: perfbench/spans.py counts
# the quad calls made through `semiflex.ldp.integrate`
from scipy import integrate, optimize  # noqa: F401

from .model import (
    BoundaryConditions,
    GaussianPotential,
    ModelParams,
    Potential,
    PowerLawPotential,
)

__all__ = [
    "LogMgf",
    "TiltSolution",
    "step_log_mgf",
    "log_mgf",
    "limit_log_mgf",
    "l_infinity",
    "solve_tilts",
    "ld_rate",
    "sharp_ld_probability",
    "mean_profile",
    "macro_boundary",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_X01 = 0.5 * (_GL_NODES + 1.0)  # nodes mapped to [0, 1]
_W01 = 0.5 * _GL_WEIGHTS


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
# Against step 1/64 and |t| <= 3.6, no moment moved by more than 3e-13
# relative for alpha in {1, 1.5, 2, 3, 4} at tilts up to 30 standard
# deviations, at eps = 1 and 1e-5 (7e-11 at alpha = 1.25, growing with the
# tilt from 1e-15 at 3 standard deviations)
_TS_FROM_LEFT, _TS_OFFSET, _TS_WEIGHT = _tanh_sinh(1.0 / 32.0, 3.2)
# the tilted density is cut where it has fallen by e^60 from its peak
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
        """Raise ValueError unless every tilt in h (a float or an array) lies
        inside the domain |h| < h_max."""
        worst = float(np.max(np.abs(h)))
        if worst >= self.h_max:
            raise ValueError(f"tilt {worst} leaves the log-MGF domain (|h| < {self.h_max})")


def _quad_log_mgf(pot: Potential, eps: float) -> LogMgf:
    """Quadrature route: tilted integrals of exp(-eps*Phi(x) + h x) for
    Phi = kappa |x|^alpha."""
    if not isinstance(pot, PowerLawPotential):
        raise ValueError(
            "the log-MGF needs a power law defined on the whole line (a table potential "
            f"stops at its grid ends), got {type(pot).__name__}; use potential kind "
            "'gaussian' or 'power'")

    def _exponent(h: float):
        def g(x):
            return -eps * pot(x) + h * x

        # concave exponent (convex Phi): the integral is finite exactly when
        # g sinks below g(0) on both sides, which this doubling establishes
        b = 1.0
        g0 = float(g(0.0))
        while g(b) >= g0 or g(-b) >= g0:
            b *= 2.0
            if b > 2.0**60:
                raise ValueError(f"tilted normalizer diverges at h={h}")
        return g, g0, b

    @functools.lru_cache(maxsize=256)
    def _moments(h: float):
        # the tilted integrand is a single bump (Phi is convex and even); for
        # large h or small eps it sits far from the origin and is narrow, so
        # integrate in a peak-centered, width-scaled variable and keep the
        # exponent shift out of exp
        g, g0, b = _exponent(h)
        peak = optimize.minimize_scalar(lambda x: -g(x), bounds=(-b, b),
                                        method="bounded")
        xp = float(peak.x)
        gp = float(g(xp))
        x0, shift = (0.0, g0) if g0 >= gp else (xp, gp)
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
        # once the peak exponent is so large that float64 cannot resolve
        # O(1) changes of it, the shifted exponent is noise and may overflow
        with np.errstate(over="ignore"):
            w = (width * _TS_WEIGHT).ravel() * np.exp(g(x0 + u * d) - shift)
        # centered u-moments keep every sum O(1); the raw second moment at
        # x0 ~ h/eps would lose the variance to cancellation
        z = float(np.sum(w))
        if not (z > 0 and math.isfinite(z)):
            raise ValueError(
                f"the tilted exponent (peak {shift:.3g}) exceeds float64 precision at "
                f"h={h}; the integral is finite but cannot be evaluated there")
        u1 = float(np.dot(w, u)) / z
        var = float(np.dot(w, np.square(u - u1))) / z
        return math.log(z * d) + shift, x0 + d * u1, d * d * var

    logz0, _, _ = _moments(0.0)

    # value, d1 and d2 at one tilt share one cached evaluation; float() keys
    # numpy scalars and Python floats alike
    def value(h: float) -> float:
        logz, _, _ = _moments(float(h))
        return logz - logz0

    def d1(h: float) -> float:
        _, mean, _ = _moments(float(h))
        return mean

    def d2(h: float) -> float:
        _, _, var = _moments(float(h))
        return var

    # exp(-eps kappa |x|^alpha + h x) is integrable for every h when alpha > 1
    # and for |h| < eps kappa when alpha = 1; 1% margin on the finite bound
    h_max = math.inf if pot.alpha > 1 else 0.99 * eps * pot.kappa
    return LogMgf(value=value, d1=d1, d2=d2, h_max=h_max)


def step_log_mgf(pot: Potential, params: ModelParams) -> LogMgf:
    """Single-increment log-MGF under weight exp(-eps * Phi)."""
    eps = params.epsilon
    if params.height_mode != "continuous":
        raise ValueError("log-MGF machinery is defined for continuous heights")
    if isinstance(pot, GaussianPotential):
        s2 = 1.0 / (eps * pot.kappa)
        return LogMgf(
            value=lambda h: 0.5 * s2 * h * h,
            d1=lambda h: s2 * h,
            d2=lambda h, _s2=s2: _s2,
            h_max=math.inf,
        )
    return _quad_log_mgf(pot, eps)


def log_mgf(pot: Potential, params: ModelParams, h: float) -> float:
    return step_log_mgf(pot, params).value(h)


def limit_log_mgf(pot: Potential, h: float | None = None) -> LogMgf | float:
    """Scaling limit of the step log-MGF under sigma_N-rescaled tilts.

    The limit is independent of the macroscopic length, so it is evaluated at
    unit length with N = 1e5, after a Cauchy check below 1e-6 against N = 1e4.
    Returns the LogMgf object, or its value when h is given.
    """
    if isinstance(pot, GaussianPotential):
        lim = LogMgf(
            value=lambda x: 0.5 * x * x,
            d1=lambda x: x,
            d2=lambda x: 1.0,
            h_max=math.inf,
        )
        return lim.value(h) if h is not None else lim

    ladders = []
    for n in (10_000, 100_000):
        params = ModelParams(n_sites=n, epsilon=1.0 / n, macro_length=1.0)
        mgf = _quad_log_mgf(pot, params.epsilon)
        # quadrature of the zero-tilt second moment gives sigma_N
        sigma = math.sqrt(mgf.d2(0.0))
        ladders.append((mgf, sigma))

    (m4, s4), (m5, s5) = ladders
    probe = min(1.0, 0.5 * m5.h_max * s5) if math.isfinite(m5.h_max) else 1.0
    v4, v5 = m4.value(probe / s4), m5.value(probe / s5)
    if abs(v5 - v4) > 1e-6 * max(1.0, abs(v5)):
        raise ValueError(
            f"rescaled log-MGF has not converged: |{v5} - {v4}| at h={probe}"
        )
    h_max = m5.h_max * s5  # rescaled domain bound
    lim = LogMgf(
        value=lambda x: m5.value(x / s5),
        d1=lambda x: m5.d1(x / s5) / s5,
        d2=lambda x: m5.d2(x / s5) / (s5 * s5),
        h_max=h_max,
    )
    return lim.value(h) if h is not None else lim


def l_infinity(u: float, v: float, mgf: LogMgf) -> float:
    """Integral over [0,1] of L(u + (1-x) v) dx."""
    args = u + (1.0 - _X01) * v
    mgf.check(args)
    return float(np.dot(_W01, [mgf.value(a) for a in args]))


def _tilt_residual(u, v, mgf, c, xi_left, xi_right, slope):
    y = _X01
    args = u + y * v
    mgf.check(args)
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
                mgf: LogMgf, tol: float = 1e-10, max_iter: int = 100) -> TiltSolution:
    """Damped Newton for the two tilt equations

        int_0^1 L'(u + y v) dy        = -(xi_right + xi_left)/c
        int_0^1 y L'(u + y v) dy      = -(xi_left - slope)/c

    i.e. grad l_infinity(u, v) equals the boundary data vector.
    """
    if not (c > 0):
        raise ValueError("c must be positive")
    u = v = 0.0
    res, jac = _tilt_residual(u, v, mgf, c, xi_left, xi_right, slope)
    for _ in range(max_iter):
        if np.max(np.abs(res)) < tol:
            return TiltSolution(u_star=u, v_star=v, residual=res, hessian=jac)
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
    raise ValueError(f"tilt solver did not reach residual {tol}: |r| = {np.max(np.abs(res))}")


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

    Vectorized over t in [0, 1]."""
    sol = tilts if tilts is not None else solve_tilts(xi_left, xi_right, slope, c, mgf)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0) or np.any(t_arr > 1):
        raise ValueError("profile times must lie in [0, 1]")
    out = np.empty_like(t_arr)
    for i, ti in enumerate(t_arr):
        if ti == 0.0:
            out[i] = 0.0
            continue
        xs = ti * _X01
        d1 = np.array([mgf.d1(sol.u_star + (1.0 - x) * sol.v_star) for x in xs])
        out[i] = ti * xi_left + c * ti * float(np.dot(_W01, (ti - xs) * d1))
    if np.ndim(t) == 0:
        return float(out[0])
    return out


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
