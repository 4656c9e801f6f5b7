"""Tilted step integrals, boundary tilt equations, sharp asymptotics, profile."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, optimize

from semiflex import ldp
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
    # tilts of the solver's last Newton step, which its cache still holds
    mgf = limit_log_mgf(PowerLawPotential(kappa=1.0, alpha=4.0))
    xl, xr, a = 0.3, -0.2, 0.1
    sol = solve_tilts(xl, xr, a, 1.0, mgf)
    calls = _count_power_calls(monkeypatch)
    ld_rate(xl, xr, a, 1.0, mgf, sol)
    assert sum(n > 1 for n in calls) == 0
    mean_profile(np.linspace(0.0, 1.0, 101), xl, xr, a, 1.0, mgf, sol)
    assert sum(n > 1 for n in calls) == 0


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


def test_mean_profile_rejects_nan_times():
    # t < 0 and t > 1 are both False at NaN
    with pytest.raises(ValueError, match=r"profile times must lie in \[0, 1\]"):
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
    calls = _count_power_calls(monkeypatch)
    h = 0.37 / math.sqrt(mgf.d2(0.0))
    mgf.value(h)
    # one vectorized call on the whole node set; the rest is the scalar
    # width and window search
    assert sum(n > 1 for n in calls) == 1
    n_value = len(calls)
    mgf.d1(h)
    mgf.d2(np.float64(h))
    assert len(calls) == n_value
