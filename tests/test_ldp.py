"""Tilted step integrals, boundary tilt equations, sharp asymptotics, profile."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, optimize

from semiflex import ldp, model
from semiflex.ldp import (
    LogMgf,
    l_infinity,
    ld_rate,
    limit_log_mgf,
    macro_boundary,
    mean_profile,
    sharp_ld_probability,
    solve_tilts,
    step_log_mgf,
)
from semiflex.model import (
    GaussianPotential,
    ModelParams,
    PowerLawPotential,
    TabulatedPotential,
)

GAUSS_MGF = limit_log_mgf(GaussianPotential(1.0))


def _cubic(t, xl, xr, a):
    return t * (1 - t) ** 2 * xl + t * t * (1 - t) * xr + a * t * t * (3 - 2 * t)


def test_step_log_mgf_gaussian_closed_form():
    params = ModelParams(n_sites=10, epsilon=0.1, macro_length=1.0)
    mgf = step_log_mgf(GaussianPotential(kappa=2.0), params)
    s2 = 1.0 / (0.1 * 2.0)
    for h in (0.0, 0.3, -1.7, 4.0):
        assert mgf.value(h) == pytest.approx(0.5 * s2 * h * h, abs=1e-12)
        assert mgf.d1(h) == pytest.approx(s2 * h, abs=1e-12)
        assert mgf.d2(h) == pytest.approx(s2, abs=1e-12)
    assert mgf.h_max == math.inf


def test_limit_log_mgf_gaussian_is_standard():
    for h in (0.0, 0.5, -2.0, 8.0):
        assert GAUSS_MGF.value(h) == pytest.approx(0.5 * h * h, abs=1e-12)
        assert GAUSS_MGF.d1(h) == pytest.approx(h, abs=1e-12)
        assert GAUSS_MGF.d2(h) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_route_matches_gaussian():
    # alpha = 2 power law is the Gaussian weight evaluated numerically
    mgf = limit_log_mgf(PowerLawPotential(kappa=0.5, alpha=2.0))
    for h in (0.0, 0.5, 2.0, 10.0, 30.0):
        assert mgf.value(h) == pytest.approx(0.5 * h * h, rel=1e-12, abs=1e-12)
        assert mgf.d1(h) == pytest.approx(h, rel=1e-12, abs=1e-12)
        assert mgf.d2(h) == pytest.approx(1.0, rel=1e-12)


def test_step_mgf_finite_domain():
    # exponential tails: exp(-eps|x| + hx) integrates only for |h| < eps
    for n, eps in ((4, 1.0), (100_000, 1e-5)):
        params = ModelParams(n_sites=n, epsilon=eps, macro_length=n * eps)
        mgf = step_log_mgf(PowerLawPotential(kappa=1.0, alpha=1.0), params)
        assert 0.9 * eps <= mgf.h_max <= eps
        assert math.isfinite(mgf.value(0.9 * mgf.h_max))


def test_l_infinity_gaussian_frozen_values():
    assert l_infinity(1.0, 0.0, GAUSS_MGF) == pytest.approx(0.5, abs=1e-12)
    assert l_infinity(0.0, 1.0, GAUSS_MGF) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert l_infinity(1.0, 1.0, GAUSS_MGF) == pytest.approx(7.0 / 6.0, abs=1e-12)


def test_solve_tilts_frozen_values():
    sol = solve_tilts(1.0, 0.0, 0.0, 1.0, GAUSS_MGF)
    assert sol.u_star == pytest.approx(2.0, abs=1e-9)
    assert sol.v_star == pytest.approx(-6.0, abs=1e-9)
    assert np.max(np.abs(sol.residual)) < 1e-10
    assert np.linalg.det(sol.hessian) == pytest.approx(1.0 / 12.0, abs=1e-9)

    sol = solve_tilts(0.0, 0.0, 1.0, 1.0, GAUSS_MGF)
    assert sol.u_star == pytest.approx(-6.0, abs=1e-9)
    assert sol.v_star == pytest.approx(12.0, abs=1e-9)


def test_solve_tilts_gaussian_closed_form_random():
    # Gaussian tilts solve a 2x2 linear system: u = 4x - 6y, v = -6x + 12y
    # with x = -(xiL + xiR)/c, y = (a - xiL)/c
    rng = np.random.default_rng(7)
    for _ in range(20):
        xl, xr, a = rng.uniform(-1.5, 1.5, size=3)
        c = rng.uniform(0.5, 2.0)
        sol = solve_tilts(xl, xr, a, c, GAUSS_MGF)
        x = -(xl + xr) / c
        y = (a - xl) / c
        assert sol.u_star == pytest.approx(4 * x - 6 * y, abs=1e-8)
        assert sol.v_star == pytest.approx(-6 * x + 12 * y, abs=1e-8)


def test_duality_residuals_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        xl, xr, a = rng.uniform(-1.0, 1.0, size=3)
        sol = solve_tilts(xl, xr, a, 1.0, GAUSS_MGF)
        assert np.max(np.abs(sol.residual)) < 1e-9


def test_ld_rate_frozen_value():
    assert ld_rate(1.0, 0.0, 0.0, 1.0, GAUSS_MGF) == pytest.approx(2.0, abs=1e-8)
    # no constraint violation, no cost
    assert ld_rate(0.0, 0.0, 0.0, 1.0, GAUSS_MGF) == pytest.approx(0.0, abs=1e-10)


def test_ld_rate_nonnegative():
    rng = np.random.default_rng(23)
    for _ in range(10):
        xl, xr, a = rng.uniform(-0.8, 0.8, size=3)
        assert ld_rate(xl, xr, a, 1.0, GAUSS_MGF) >= -1e-12


def test_sharp_probability_zero_constraints():
    # rate 0, Hessian determinant 1/12: prefactor sqrt(12)/(2 pi N^2)
    for n in (50, 200):
        value = sharp_ld_probability(n, 0.0, 0.0, 0.0, 1.0, GAUSS_MGF)
        assert value == pytest.approx(math.sqrt(12.0) / (2.0 * math.pi * n * n),
                                      rel=1e-8)


def test_sharp_probability_decays_in_n():
    p50 = sharp_ld_probability(50, 0.3, 0.1, 0.0, 1.0, GAUSS_MGF)
    p100 = sharp_ld_probability(100, 0.3, 0.1, 0.0, 1.0, GAUSS_MGF)
    assert p100 < p50


def test_mean_profile_gaussian_cubic():
    ts = np.linspace(0.0, 1.0, 21)
    for xl, xr, a in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                      (0.7, -0.4, 0.2)):
        prof = mean_profile(ts, xl, xr, a, 1.0, GAUSS_MGF)
        assert_allclose(prof, _cubic(ts, xl, xr, a), atol=1e-10)


def test_mean_profile_endpoints():
    prof = mean_profile(np.array([0.0, 1.0]), 0.3, -0.2, 0.9, 1.5, GAUSS_MGF)
    assert prof[0] == 0.0
    assert prof[1] == pytest.approx(0.9, abs=1e-9)


def test_mean_profile_numerical_mgf():
    mgf = limit_log_mgf(PowerLawPotential(kappa=0.5, alpha=2.0))
    ts = np.array([0.25, 0.5, 0.75])
    prof = mean_profile(ts, 1.0, 0.0, 0.0, 1.0, mgf)
    assert_allclose(prof, _cubic(ts, 1.0, 0.0, 0.0), atol=1e-5)


@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8, 1e12, 1e16])
def test_stiff_quadratic_profile_is_the_gaussian_one(kappa):
    # the unit law exp(-kappa x^2) has sd 1 / sqrt(2 kappa), down to 7e-9:
    # its tilted window ends are found by halving from 1, and a window that
    # starts at 1 and only doubles was off by 1.6e-9 at kappa = 1e8
    mgf = limit_log_mgf(PowerLawPotential(kappa=kappa, alpha=2.0))
    ts = np.linspace(0.0, 1.0, 11)
    prof = mean_profile(ts, 0.7, -0.3, 0.2, 1.0, mgf)
    assert_allclose(prof, mean_profile(ts, 0.7, -0.3, 0.2, 1.0, GAUSS_MGF), rtol=0, atol=1e-14)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 4.0])
@pytest.mark.parametrize("triple", [(0.2, -0.1, 0.15), (-0.25, 0.05, -0.2),
                                    (0.1, 0.25, 0.05)])
def test_mean_profile_matches_adaptive_quad(alpha, triple):
    # the profile integrates the Legendre interpolant of L' on the solver's
    # nodes; the reference integrates L' itself, adaptively, on the same tilts
    mgf = limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=alpha))
    xl, xr, a = triple
    sol = solve_tilts(xl, xr, a, 1.0, mgf)
    assert max(abs(sol.u_star), abs(sol.u_star + sol.v_star)) < 10.0
    ts = np.linspace(0.0, 1.0, 11)

    def reference(t):
        def integrand(x):
            return (t - x) * mgf.d1(sol.u_star + (1.0 - x) * sol.v_star)

        return t * xl + integrate.quad(integrand, 0.0, t, epsabs=1e-14, epsrel=1e-13,
                                       limit=200)[0]

    prof = mean_profile(ts, xl, xr, a, 1.0, mgf, sol)
    assert_allclose(prof, [reference(t) for t in ts], rtol=0, atol=1e-12)


def test_mean_profile_error_at_strong_tilts():
    # the 64 nodes under-resolve the tilt profile as the tilts grow; at the
    # corners of the +-0.5 cube (tilts up to 47) the profile sits 1.2e-5 off
    # the adaptive one.  This pins that error; it does not mend it.
    mgf = limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=4.0))
    ts = np.linspace(0.0, 1.0, 11)
    for xl, xr, a in itertools.product((-0.5, 0.5), repeat=3):
        sol = solve_tilts(xl, xr, a, 1.0, mgf)

        def integrands(x):
            # (t - x)_+ L'(u* + (1 - x) v*) for every t, at each point x
            x = x[:, 0]
            d1 = mgf.d1(sol.u_star + (1.0 - x) * sol.v_star)
            return np.maximum(ts - x[:, None], 0.0) * d1[:, None]

        # adaptive Gauss-Kronrod on [0, 1], split at the times, where the
        # integrands have kinks
        ref = integrate.cubature(integrands, [0.0], [1.0], rtol=1e-12, atol=1e-12,
                                 points=[[t] for t in ts[1:-1]])
        assert ref.status == "converged"
        prof = mean_profile(ts, xl, xr, a, 1.0, mgf, sol)
        off = np.abs(prof - (ts * xl + ref.estimate))
        assert np.all(off <= 2e-5 * np.maximum(1.0, np.abs(prof)))


@pytest.mark.parametrize("pot, triple", [
    (GaussianPotential(1.0), (0.3, -0.2, 0.9)),
    (PowerLawPotential(1.0, 1.5), (0.7, -0.3, 0.2)),
    (PowerLawPotential(1.0, 4.0), (1.31, -0.40, -1.90)),
], ids=["gaussian", "alpha-1.5", "quartic-strong"])
def test_profile_projection_is_legfits_interpolant(pot, triple):
    # the Legendre projection, built once per process, gives the coefficients
    # legfit fits at the tilt nodes to 1e-13 of the largest, which reaches
    # 16.5 at tilts about 912
    mgf = limit_log_mgf(pot)
    sol = solve_tilts(*triple, 1.0, mgf)
    d1 = mgf.d1(ldp._tilt_nodes(sol.u_star, sol.v_star, mgf))
    fitted = np.polynomial.legendre.legfit(-ldp._GL_NODES, d1, ldp._GL_NODES.size - 1)
    assert_allclose(ldp._legendre_projection() @ d1, fitted, rtol=0,
                    atol=1e-13 * np.abs(fitted).max())


def _count_power_calls(monkeypatch):
    """From here on, record the argument size of every PowerLawPotential call."""
    calls = []
    power_call = PowerLawPotential.__call__

    def counting(self, x):
        calls.append(np.size(x))
        return power_call(self, x)

    monkeypatch.setattr(PowerLawPotential, "__call__", counting)
    return calls


def test_rate_and_profile_reuse_the_solver_evaluations(monkeypatch):
    # a fresh LogMgf: the rate and the profile read the log-MGF only at the
    # node set of the solver's last Newton step, which its cache still holds
    mgf = limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=4.0))
    xl, xr, a = 0.3, -0.2, 0.1
    sol = solve_tilts(xl, xr, a, 1.0, mgf)
    calls = _count_power_calls(monkeypatch)
    ld_rate(xl, xr, a, 1.0, mgf, sol)
    assert calls == []
    mean_profile(np.linspace(0.0, 1.0, 101), xl, xr, a, 1.0, mgf, sol)
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["xi_left", "xi_right", "slope"])
def test_tilt_solver_rejects_non_finite_boundary_data(name, bad):
    data = dict(xi_left=0.3, xi_right=0.1, slope=0.0, c=1.0)
    data[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        solve_tilts(mgf=GAUSS_MGF, **data)


def test_tilt_solver_reports_a_stalled_line_search():
    # the alpha = 1 log-MGF has a bounded domain, and the data (3, 0, 0)
    # needs tilts beyond it, so no damped step lowers the residual
    mgf = limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=1.0))
    with pytest.raises(ValueError) as err:
        solve_tilts(3.0, 0.0, 0.0, 1.0, mgf)
    assert str(err.value) == ("tilt solver line search stalled; boundary data "
                              "likely outside the admissible range")


def test_tilt_solver_reports_no_convergence(monkeypatch):
    # one Newton step from zero tilt does not solve the quartic's equations
    monkeypatch.setattr(ldp, "_TILT_MAX_ITER", 1)
    mgf = limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=4.0))
    with pytest.raises(ValueError) as err:
        solve_tilts(1.0, 0.0, 0.0, 1.0, mgf)
    head, _, residual = str(err.value).partition(": |r| = ")
    assert head == "tilt solver did not reach residual 1e-10"
    assert float(residual) > 1e-10


def test_tilt_solver_accepts_its_last_step(monkeypatch):
    # the Gaussian equations are linear, so one Newton step solves them; the
    # residual the last step reaches is tested before the solver gives up
    monkeypatch.setattr(ldp, "_TILT_MAX_ITER", 1)
    sol = solve_tilts(1.0, 0.0, 0.0, 1.0, GAUSS_MGF)
    assert np.max(np.abs(sol.residual)) < 1e-10
    assert sol.u_star == pytest.approx(2.0, abs=1e-9)
    assert sol.v_star == pytest.approx(-6.0, abs=1e-9)


@pytest.mark.parametrize("data, damped", [((2.0, -1.0, 0.5), 1), ((3.0, 3.0, -2.0), 2)])
def test_tilt_solver_damps_a_step_that_raises_the_residual(monkeypatch, data, damped):
    # on these alpha = 1.5 data a full Newton step raises the residual, so the
    # line search halves it: each residual call is the start, one per Newton
    # step taken, or one per rejected candidate, none of which left the domain
    calls, solves, raised = [], [], []
    residual, solve = ldp._tilt_residual, np.linalg.solve

    def counted_residual(*args):
        calls.append(args)
        try:
            return residual(*args)
        except ValueError:
            raised.append(args)
            raise

    monkeypatch.setattr(ldp, "_tilt_residual", counted_residual)
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a) or solve(*a))
    sol = solve_tilts(*data, 1.0, limit_log_mgf(PowerLawPotential(1.0, 1.5)))
    assert np.max(np.abs(sol.residual)) < ldp._TILT_TOL
    assert raised == []
    assert len(calls) - 1 - len(solves) == damped


def test_mean_profile_rejects_nan_times():
    # t < 0 and t > 1 are both False at NaN
    with pytest.raises(ValueError, match=r"times must lie in \[0, 1\]"):
        mean_profile([math.nan, 0.5], 0.3, 0.1, 0.0, 1.0, GAUSS_MGF)


def test_quartic_tilts_satisfy_constraints():
    # independent verification through the value function: differentiate
    # l_infinity numerically at the solution and compare with the targets
    mgf = limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=4.0))
    xl, xr, a, c = 1.0, 0.0, 0.0, 1.0
    sol = solve_tilts(xl, xr, a, c, mgf)
    assert np.max(np.abs(sol.residual)) < 1e-8
    step = 1e-5

    def l_inf(u, v):
        return l_infinity(u, v, mgf)

    du = (l_inf(sol.u_star + step, sol.v_star) - l_inf(sol.u_star - step, sol.v_star)) / (2 * step)
    dv = (l_inf(sol.u_star, sol.v_star + step) - l_inf(sol.u_star, sol.v_star - step)) / (2 * step)
    assert du == pytest.approx(-(xl + xr) / c, abs=1e-5)
    assert dv == pytest.approx((a - xl) / c, abs=1e-5)


def test_macro_boundary_scaling():
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    bc = macro_boundary(params, 30.0, -15.0, 10.0)
    assert bc.xi_left == pytest.approx(0.3)
    assert bc.xi_right == pytest.approx(-0.15)
    assert bc.endpoint == pytest.approx(0.01 * 10.0 * 101)


@pytest.mark.parametrize("alpha", [1.25, 1.5])
def test_power_law_domain_is_the_whole_line(alpha):
    # exp(-eps |x|^alpha + h x) is integrable for every h once alpha > 1, even
    # where eps is so small that a numerical probe loses the decay
    params = ModelParams(n_sites=100_000, epsilon=1e-5, macro_length=1.0)
    assert step_log_mgf(PowerLawPotential(kappa=1.0, alpha=alpha), params).h_max == math.inf


def test_tilt_beyond_float_range_names_precision(recwarn):
    # h = 1e4 lies inside the domain and the integral is finite, but the peak
    # exponent (about 1.5e21) leaves float64 no precision for O(1) changes
    params = ModelParams(n_sites=100_000, epsilon=1e-5, macro_length=1.0)
    mgf = step_log_mgf(PowerLawPotential(kappa=1.0, alpha=1.5), params)
    with pytest.raises(ValueError, match="exceeds float64 precision at h=10000.0"):
        mgf.value(1e4)
    assert len(recwarn) == 0


def test_log_mgf_domain_check_takes_arrays():
    mgf = LogMgf(value=abs, d1=abs, d2=abs, h_max=1.0)
    mgf.check(0.5)
    mgf.check(np.array([-0.99, 0.0, 0.99]))
    for bad in (1.0, np.array([0.2, -1.5])):
        with pytest.raises(ValueError, match="leaves the log-MGF domain"):
            mgf.check(bad)
    with pytest.raises(ValueError, match="leaves the log-MGF domain"):
        l_infinity(0.5, 1.0, mgf)


@pytest.mark.parametrize("pot", [GaussianPotential(1.0), PowerLawPotential(1.0, 1.5)])
def test_non_finite_tilts_rejected(pot):
    # nan >= h_max is False, so a NaN tilt would pass a bare domain test
    mgf = limit_log_mgf(pot)
    for u, v in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError, match=r"tilt (inf|nan) is not finite"):
            l_infinity(u, v, mgf)
    with pytest.raises(ValueError, match="tilt nan is not finite"):
        mgf.check(np.array([0.1, math.nan]))


def test_table_potential_rejected_up_front():
    params = ModelParams(n_sites=10, epsilon=0.1, macro_length=1.0)
    grid = np.linspace(-5.0, 5.0, 11)
    pot = TabulatedPotential(grid, 0.5 * grid**2)
    for build in (lambda: step_log_mgf(pot, params), lambda: limit_log_mgf(pot)):
        with pytest.raises(ValueError, match="'gaussian' or 'power'"):
            build()


def test_other_potentials_rejected_up_front():
    params = ModelParams(n_sites=10, epsilon=0.1, macro_length=1.0)
    with pytest.raises(ValueError, match="'gaussian' or 'power'"):
        step_log_mgf(lambda x: np.cosh(x), params)


# ---------------------------------------------------------------------------
# The tilted-moment kernel against adaptive quad.

def _reference_moments(pot, eps, h):
    """(log Z, mean, variance) of exp(-eps*Phi(x) + h x) by adaptive quad in
    the peak-centred, width-scaled variable u = (x - x0) / d."""

    def g(x):
        return -eps * float(pot(x)) + h * x

    b = 1.0
    g0 = g(0.0)
    while g(b) >= g0 or g(-b) >= g0:
        b *= 2.0
    peak = optimize.minimize_scalar(lambda x: -g(x), bounds=(-b, b), method="bounded")
    x0, shift = (0.0, g0) if g0 >= g(float(peak.x)) else (float(peak.x), g(float(peak.x)))
    d = 1.0
    while min(g(x0 + d), g(x0 - d)) - shift < -10.0 and d > 1e-12:
        d *= 0.5
    while max(g(x0 + d), g(x0 - d)) - shift > -0.1 and d < 2.0**60:
        d *= 2.0

    def w(u):
        return math.exp(min(g(x0 + u * d) - shift, 700.0))

    # finite windows that end where the exponent has fallen by 80, split at
    # the peak (u = 0) and at the kink of |x|^alpha (x = 0), at tolerances
    # well under the test's: on infinite ranges at quad's default tolerances
    # one call misjudges its own error (the variance came out 4.8e-8 relative
    # off at alpha = 1.5, eps = 1, h = 1.047 across the kink, and 6.8e-8 at
    # alpha = 1.25, eps = 1, frac = 0.9032764615318141)
    left = right = 1.0
    while g(x0 - left * d) - shift > -80.0:
        left *= 2.0
    while g(x0 + right * d) - shift > -80.0:
        right *= 2.0
    ends = sorted({-left, 0.0, right} | ({-x0 / d} if -left < -x0 / d < right else set()))

    def quad(f):
        return sum(integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-10, limit=200)[0]
                   for lo, hi in zip(ends, ends[1:]))

    z = quad(w)
    u1 = quad(lambda u: u * w(u)) / z
    u2 = quad(lambda u: u * u * w(u)) / z
    return math.log(z * d) + shift, x0 + d * u1, d * d * (u2 - u1 * u1)


@functools.cache
def _power_step_mgf(alpha, eps, kappa=1.0):
    n = max(2, round(1.0 / eps))
    params = ModelParams(n_sites=n, epsilon=eps, macro_length=n * eps)
    return step_log_mgf(PowerLawPotential(kappa=kappa, alpha=alpha), params)


def _tilt(mgf, frac):
    """frac in [-1, 1] of 0.9 h_max, or of 30 over the untilted standard
    deviation if that is smaller.  For alpha > 1 h_max is infinite and the
    second bound holds the tilt where float64 still resolves the exponent:
    at alpha = 1.5, eps = 1e-5 a tilt of 1e4 would put the peak beyond 1e17."""
    return frac * min(0.9 * mgf.h_max, 30.0 / math.sqrt(mgf.d2(0.0)))


# quad's default epsrel is 1.49e-8: the kernel must match it at that level
@pytest.mark.parametrize("eps", [1.0, 1e-5])
@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 4.0])
@settings(max_examples=25, deadline=None)
@given(frac=st.floats(-1.0, 1.0))
@example(frac=0.03)  # the alpha = 1.5, eps = 1 case an unsplit reference got wrong
@example(frac=0.9032764615318141)  # alpha = 1.25, eps = 1: an infinite-range reference got wrong
def test_moment_kernel_matches_adaptive_quad(alpha, eps, frac):
    mgf = _power_step_mgf(alpha, eps)
    pot = PowerLawPotential(kappa=1.0, alpha=alpha)
    h = _tilt(mgf, frac)
    logz, mean, var = _reference_moments(pot, eps, h)
    logz0, _, _ = _reference_moments(pot, eps, 0.0)
    # log Z to 1e-8 absolute is Z to 1e-8 relative, at h and at 0
    assert mgf.value(h) == pytest.approx(logz - logz0, rel=1e-8, abs=2e-8)
    assert mgf.d1(h) == pytest.approx(mean, rel=0, abs=1e-8 * (abs(mean) + math.sqrt(var)))
    assert mgf.d2(h) == pytest.approx(var, rel=1e-8)


@pytest.mark.parametrize("eps", [1.0, 0.1, 1e-5])
@pytest.mark.parametrize("kappa", [0.5, 2.0])
@settings(max_examples=25, deadline=None)
@given(frac=st.floats(-1.0, 1.0))
def test_moment_kernel_alpha2_is_gaussian(kappa, eps, frac):
    # kappa |x|^2 is the Gaussian potential with stiffness 2 kappa
    mgf = _power_step_mgf(2.0, eps, kappa)
    s2 = 1.0 / (2.0 * kappa * eps)
    h = _tilt(mgf, frac)
    assert mgf.value(h) == pytest.approx(0.5 * s2 * h * h, rel=1e-12, abs=1e-12)
    assert mgf.d1(h) == pytest.approx(s2 * h, rel=0, abs=1e-12 * (abs(s2 * h) + math.sqrt(s2)))
    assert mgf.d2(h) == pytest.approx(s2, rel=1e-12)


@pytest.mark.parametrize("eps", [1e-4, 1e-5])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
def test_limit_is_every_step_law_at_unit_variance(alpha, eps):
    # a power-law step at eps is eps^(-1/alpha) times the eps = 1 step, so the
    # step log-MGF at tilt x / sigma_N is the limit at x, for every N
    lim = limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=alpha))
    step = _power_step_mgf(alpha, eps)
    sd = math.sqrt(step.d2(0.0))
    for frac in np.linspace(-1.0, 1.0, 21):
        x = _tilt(lim, frac)
        assert lim.value(x) == pytest.approx(step.value(x / sd), rel=1e-12, abs=1e-15)
        assert lim.d1(x) == pytest.approx(step.d1(x / sd) / sd, rel=1e-12, abs=1e-12)
        assert lim.d2(x) == pytest.approx(step.d2(x / sd) / (sd * sd), rel=1e-12)


def test_moments_share_one_potential_evaluation(monkeypatch):
    # a fresh LogMgf, so no other test has filled its cache
    params = ModelParams(n_sites=100_000, epsilon=1e-5, macro_length=1.0)
    mgf = step_log_mgf(PowerLawPotential(kappa=1.0, alpha=4.0), params)
    sd = math.sqrt(mgf.d2(0.0))
    nodes = (40.0 * ldp._X01 - 10.0) / sd
    calls = _count_power_calls(monkeypatch)
    mgf.d1(nodes)
    # the search reads at most two points per tilt in one call; the node
    # set is one call per group of tilts (kink inside the window or not),
    # and these nodes hold both groups
    piece = model._TS_WEIGHT.size
    assert all(n <= 2 * nodes.size or n >= 2 * piece for n in calls)
    assert sum(n >= 2 * piece for n in calls) == 2
    del calls[:]
    mgf.d2(nodes)
    mgf.value(nodes)
    assert calls == []
    # one tilt: one call on its nodes, and value, d1 and d2 share it
    h = 0.37 / sd
    mgf.value(h)
    assert sum(n >= 2 * piece for n in calls) == 1
    n_value = len(calls)
    mgf.d1(h)
    mgf.d2(np.float64(h))
    assert len(calls) == n_value


# ---------------------------------------------------------------------------
# The batched tilted-moment kernel against the one-tilt kernel it replaced.

def _scalar_moments(pot, eps, h):
    """(log Z, mean, variance) of exp(-eps*Phi(x) + h x) at one tilt h, and
    the number of pieces of its rule: the kernel one tilt at a time, with
    scalar window searches.

    The closed-form peak goes through numpy's array power, as in the batched
    kernel.  C's pow, which the one-tilt kernel used, differs from it in the
    last bit at some tilts, and at strong tilts the variance follows that
    bit: by 1.8e-12 relative at alpha = 1.25, eps = 1, h = 17.9, where the
    exponent's terms |h x0| are 7.5e5."""

    def g(x):
        return -eps * pot(x) + h * x

    if pot.alpha == 1.0 and abs(h) >= eps * pot.kappa:
        raise ValueError(f"tilted normalizer diverges at h={h}")
    with np.errstate(over="ignore"):
        x0 = 0.0 if pot.alpha == 1.0 else float(np.copysign(
            (np.abs([h]) / (eps * pot.kappa * pot.alpha)) ** (1.0 / (pot.alpha - 1.0)), h)[0])
    if not abs(h * x0) <= 2.0**26:
        raise ValueError(
            f"the tilted exponent (peak {h * x0 * (1.0 - 1.0 / pot.alpha):.3g}) exceeds "
            f"float64 precision at h={h}; the integral is finite but cannot be "
            "evaluated there")
    shift = float(g(x0))

    def reach(side):  # the window end: halve from 1 past the fall, double short of it
        r = 1.0
        while g(x0 + side * r) - shift <= -60.0 and r > 1e-12:
            r *= 0.5
        while g(x0 + side * r) - shift > -60.0:
            r *= 2.0
        return r

    left, right = reach(-1.0), reach(1.0)
    kink = -x0
    cuts = sorted({-left, 0.0, right} | ({kink} if -left < kink < right else set()))
    u, w = model._tanh_sinh_pieces(np.array(cuts))
    w = w * np.exp(g(x0 + u) - shift)
    z = float(np.sum(w))
    u1 = float(np.dot(w, u)) / z
    var = float(np.dot(w, np.square(u - u1))) / z
    return math.log(z) + shift, x0 + u1, var, len(cuts) - 1


def _mixed_tilts(mgf):
    """101 tilts across the range of `_tilt`, zero among them, in shuffled
    order, so groups of two-piece and three-piece tilts interleave."""
    fracs = np.random.default_rng(5).permutation(np.append(np.linspace(-1.0, 1.0, 100), 0.0))
    return np.array([_tilt(mgf, f) for f in fracs])


@pytest.mark.parametrize("eps", [1.0, 1e-5])
@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 4.0])
def test_batched_kernel_matches_the_scalar_one(alpha, eps, monkeypatch):
    mgf = _power_step_mgf(alpha, eps)
    pot = PowerLawPotential(kappa=1.0, alpha=alpha)
    tilts = _mixed_tilts(mgf)
    logz0 = _scalar_moments(pot, eps, 0.0)[0]
    calls = _count_power_calls(monkeypatch)
    logz, mean, var, pieces = np.array([_scalar_moments(pot, eps, h) for h in tilts]).T
    # at alpha = 1 the kink is the peak; otherwise both groups are present
    assert set(pieces) == ({2.0} if alpha == 1.0 else {2.0, 3.0})
    # each tilt makes the same search decisions, so the batch reads the
    # potential at as many points as the tilts did one at a time; the moments
    # hardly depend on the window ends, so only this count would see a
    # changed search
    n_scalar = sum(calls)
    del calls[:]
    mgf.value(tilts)
    assert sum(calls) == n_scalar
    value = logz - logz0
    # a mean near 0 is rounding noise on the scale of the spread (1e-12 at
    # h = 0, where the sd is 1.6e5 at alpha = 1, eps = 1e-5)
    for read, want, floor in ((mgf.value, value, 1.0),
                              (mgf.d1, mean, np.maximum(1.0, np.sqrt(var))),
                              (mgf.d2, var, 1.0)):
        assert np.all(np.abs(read(tilts) - want) <= 1e-13 * np.maximum(floor, np.abs(want)))


@pytest.mark.parametrize("eps", [1.0, 1e-5])
@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 4.0])
def test_batched_tilt_is_its_one_tilt_call(alpha, eps):
    mgf = _power_step_mgf(alpha, eps)
    tilts = _mixed_tilts(mgf)
    for read in (mgf.value, mgf.d1, mgf.d2):
        batch = read(tilts)
        assert batch.tolist() == [read(float(h)) for h in tilts]


@pytest.mark.parametrize("alpha, eps, tilts, bad", [
    (1.0, 1.0, [0.5, 0.0, 1.5, -2.0, 0.3], 1.5),  # outside the domain |h| < eps kappa
    (1.5, 1e-5, [0.0, 0.01, 1e4, -2e4, 0.003], 1e4),  # past the precision guard
])
def test_batched_kernel_names_the_first_bad_tilt(alpha, eps, tilts, bad):
    with pytest.raises(ValueError) as ref:
        _scalar_moments(PowerLawPotential(kappa=1.0, alpha=alpha), eps, bad)
    assert f"at h={bad}" in str(ref.value)
    mgf = _power_step_mgf(alpha, eps)
    for read in (mgf.value, mgf.d1, mgf.d2):
        with pytest.raises(ValueError) as err:
            read(np.array(tilts))
        assert str(err.value) == str(ref.value)


# ---------------------------------------------------------------------------
# The node-set quadrature on its workspace against the allocating expressions
# it replaced.

def _allocating_node_set(pot, eps, h, x0, shift, ends):
    """`ldp._node_set` as it ran before its workspace: each intermediate a
    fresh array, and the tanh-sinh nodes from `np.where`."""
    width = np.diff(ends)[..., None]
    u = (np.where(model._TS_FROM_LEFT, ends[:, :-1, None], ends[:, 1:, None])
         + width * model._TS_OFFSET).reshape(h.size, -1)
    w = (width * model._TS_WEIGHT).reshape(h.size, -1)
    x = x0[:, None] + u
    w = w * np.exp(-eps * pot(x) + h[:, None] * x - shift[:, None])
    z = w.sum(axis=1)
    u1 = (w * u).sum(axis=1) / z
    var = (w * np.square(u - u1[:, None])).sum(axis=1) / z
    return np.log(z) + shift, x0 + u1, var


def _record_node_sets(monkeypatch):
    """From here on, record each `ldp._node_set` call: its tilt arrays
    (copied), its workspace and its result."""
    calls = []
    node_set = ldp._node_set

    def recording(pot, eps, *arrays):
        *inputs, work = arrays
        inputs = [a.copy() for a in inputs]
        result = node_set(pot, eps, *arrays)
        calls.append((pot, eps, inputs, work, result))
        return result

    monkeypatch.setattr(ldp, "_node_set", recording)
    return calls


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("eps", [1.0, 1e-5])
@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 4.0])
def test_node_sets_on_the_workspace_are_the_allocating_expressions(alpha, eps, monkeypatch):
    mgf = _power_step_mgf.__wrapped__(alpha, eps)
    tilts = _mixed_tilts(mgf)
    calls = _record_node_sets(monkeypatch)
    mgf.d1(tilts)
    # both piece counts (one at alpha = 1), 101 tilts in chunks of at most 64
    assert {c[2][-1].shape[1] - 1 for c in calls} == ({2} if alpha == 1.0 else {2, 3})
    assert sum(c[2][0].size for c in calls) == tilts.size
    for pot, eps, inputs, work, result in calls:
        assert inputs[0].size <= ldp._TILT_CHUNK
        assert _bits(*result) == _bits(*_allocating_node_set(pot, eps, *inputs))


def test_workspace_history_leaves_no_trace(monkeypatch):
    alpha, eps = 1.5, 1.0
    tilts = _mixed_tilts(_power_step_mgf(alpha, eps))
    fresh = _power_step_mgf.__wrapped__(alpha, eps)
    want = _bits(fresh.value(tilts), fresh.d1(tilts), fresh.d2(tilts))
    mgf = _power_step_mgf.__wrapped__(alpha, eps)

    def same():
        return _bits(mgf.value(tilts), mgf.d1(tilts), mgf.d2(tilts)) == want

    # each call below reads other tilts first, so the kernel's cache of the
    # last tilts cannot answer for the workspace
    mgf.d1(np.linspace(-1.0, 1.0, 301) * np.abs(tilts).max())  # a larger call
    assert same()
    mgf.d1(tilts[:5] / 3.0)  # a smaller one
    assert same()
    mgf.d1(tilts[:7] / 5.0)
    piece = model._TS_WEIGHT.size
    exponent = ldp._exponent

    def failing(pot, eps, h, x0, shift, x):  # fails on a node set, after its nodes are written
        if x.shape[-1] >= 2 * piece:
            raise FloatingPointError("injected")
        return exponent(pot, eps, h, x0, shift, x)

    with monkeypatch.context() as patch:
        patch.setattr(ldp, "_exponent", failing)
        with pytest.raises(FloatingPointError):
            mgf.d1(np.linspace(-2.0, 2.0, 150))  # a call that raised
    assert same()


@pytest.mark.parametrize("eps", [1.0, 1e-5])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 4.0])
def test_a_call_over_several_chunks_is_its_chunks_calls(alpha, eps, monkeypatch):
    mgf = _power_step_mgf(alpha, eps)
    fracs = np.random.default_rng(11).uniform(-1.0, 1.0, 3 * ldp._TILT_CHUNK + 17)
    tilts = np.array([_tilt(mgf, f) for f in fracs])
    calls = _record_node_sets(monkeypatch)
    whole = [read(tilts) for read in (mgf.value, mgf.d1, mgf.d2)]
    assert len(calls) > 2 and max(c[2][0].size for c in calls) == ldp._TILT_CHUNK
    step = ldp._TILT_CHUNK
    for read, joined in zip((mgf.value, mgf.d1, mgf.d2), whole):
        parts = [read(tilts[k:k + step]) for k in range(0, tilts.size, step)]
        assert _bits(joined) == _bits(np.concatenate(parts))


def test_the_workspace_holds_one_chunk_whatever_the_tilt_count(monkeypatch):
    mgf = _power_step_mgf.__wrapped__(4.0, 1.0)
    tilts = _tilt(mgf, 1.0) * np.linspace(-1.0, 1.0, 5000)
    calls = _record_node_sets(monkeypatch)
    mgf.d1(tilts[::50])
    size = {c[3].size for c in calls}
    assert size == {3 * ldp._TILT_CHUNK * 3 * model._TS_WEIGHT.size}
    monkeypatch.undo()
    # one chunk's arrays and a few floats per tilt: under an eighth of one
    # three-piece node-set array over all the tilts at once
    tracemalloc.start()
    try:
        mgf.d1(tilts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tilts.size * 3 * model._TS_WEIGHT.size * 8 / 8


@pytest.mark.parametrize("mgf", [
    GAUSS_MGF,
    step_log_mgf(GaussianPotential(kappa=2.0), ModelParams(n_sites=10, epsilon=0.1,
                                                           macro_length=1.0)),
    limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=4.0)),
], ids=["standard", "gaussian-step", "quartic"])
def test_log_mgf_reads_a_float_or_an_array(mgf):
    tilts = np.array([[0.0, -1.5], [2.0, 0.25]])
    for read in (mgf.value, mgf.d1, mgf.d2):
        assert type(read(0.25)) is float
        out = read(tilts)
        assert out.shape == tilts.shape
        assert out.tolist() == [[read(float(h)) for h in row] for row in tilts]


@pytest.mark.parametrize("call, error", [
    (lambda: step_log_mgf(PowerLawPotential(1.0, 1.5),
                          ModelParams(4, 1.0, 4.0, height_mode="discrete")),
     "log-MGF machinery is defined for continuous heights"),
    (lambda: solve_tilts(0.1, 0.0, 0.0, 0.0, GAUSS_MGF), "c must be positive"),
    (lambda: solve_tilts(0.1, 0.0, 0.0, math.nan, GAUSS_MGF), "c must be positive"),
    (lambda: sharp_ld_probability(0, 0.1, 0.0, 0.0, 1.0, GAUSS_MGF), "n_sites must be >= 1"),
], ids=["discrete-heights", "zero-c", "nan-c", "no-sites"])
def test_ldp_refusals(call, error):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == error
