"""Closed-form Gaussian statistics: moments, limit kernel, endpoint density."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semiflex.gaussian import (
    ConditionedSpec,
    GridTimes,
    exact_boundary_density,
    q_matrix,
    sigma2_increment,
    theta_cov,
    theta_mean,
    xy_moments,
)
from semiflex.model import GaussianPotential, ModelParams, PowerLawPotential, TabulatedPotential


def test_sigma2_gaussian_closed_form():
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    assert sigma2_increment(GaussianPotential(kappa=1.0), params) == pytest.approx(100.0)
    assert sigma2_increment(GaussianPotential(kappa=4.0), params) == pytest.approx(25.0)


def test_sigma2_quadrature_matches_closed_form():
    # the power law with alpha = 2 is the same weight, but takes the continuous
    # step-law path
    params = ModelParams(n_sites=50, epsilon=0.02, macro_length=1.0)
    exact = sigma2_increment(GaussianPotential(kappa=2.0), params)
    quad = sigma2_increment(PowerLawPotential(kappa=1.0, alpha=2.0), params)
    assert quad == pytest.approx(exact, rel=1e-9)


def _cellwise_sigma2(pot, eps):
    """Variance under exp(-eps * Phi) on the table's domain by 20-node
    Gauss-Legendre in every grid cell, where the interpolant is linear."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    lo, hi = pot.grid[:-1, None], pot.grid[1:, None]
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    w = 0.5 * (hi - lo) * weights * np.exp(-eps * pot(x))
    mean = np.sum(w * x) / np.sum(w)
    return float(np.sum(w * (x - mean) ** 2) / np.sum(w))


@pytest.mark.parametrize("grid, eps", [
    (np.linspace(-5.0, 5.0, 41), 0.1),
    (np.linspace(-5.0, 5.0, 41), 0.05),
    (np.linspace(-5.0, 5.0, 41), 1.0),
    (np.array([-3.0, -1.0, 0.0, 1.0, 3.0]), 0.05),
])
def test_sigma2_continuous_table_integrates_cell_by_cell(grid, eps):
    # the interpolated table kinks at every node; quad across the whole range
    # misjudges its error there unless it is told where the nodes are
    pot = TabulatedPotential(grid, 0.5 * grid**2)
    params = ModelParams(n_sites=10, epsilon=eps, macro_length=10 * eps)
    assert sigma2_increment(pot, params) == pytest.approx(_cellwise_sigma2(pot, eps),
                                                          rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0])
def test_sigma2_power_law_matches_the_gamma_closed_form(alpha):
    # E x^2 under exp(-eps kappa |x|^alpha) is
    # Gamma(3/alpha) / Gamma(1/alpha) * (eps kappa)^(-2/alpha), for N = 10 .. 10^6
    for kappa in (0.5, 1.0, 2.0):
        for n in (10, 100, 1000, 10**4, 10**5, 10**6):
            params = ModelParams(n_sites=n, epsilon=1.0 / n, macro_length=1.0)
            exact = (math.gamma(3.0 / alpha) / math.gamma(1.0 / alpha)
                     * (params.epsilon * kappa) ** (-2.0 / alpha))
            got = sigma2_increment(PowerLawPotential(kappa=kappa, alpha=alpha), params)
            assert got == pytest.approx(exact, rel=1e-12), (kappa, n)


def test_sigma2_steep_table_cell():
    # Phi = 1e4 |x| on [-1, 1] at eps = 1: a Laplace law of rate 1e4, cut where
    # its weight is exp(-1e4), so its variance is 2 / 1e4^2
    pot = TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.array([1e4, 0.0, 1e4]))
    params = ModelParams(n_sites=2, epsilon=1.0, macro_length=2.0)
    assert sigma2_increment(pot, params) == pytest.approx(2.0 / 1e8, rel=1e-12)


def test_sigma2_continuous_needs_a_potential_kind():
    params = ModelParams(n_sites=10, epsilon=0.1, macro_length=1.0)
    with pytest.raises(ValueError, match="'gaussian', 'power' or 'table'"):
        sigma2_increment(lambda x: np.abs(x), params)


def test_sigma2_discrete_needs_a_potential_kind():
    # the lattice law ends where `_step_bound` says, which knows the three kinds
    params = ModelParams(n_sites=10, epsilon=0.1, macro_length=1.0, height_mode="discrete")
    with pytest.raises(ValueError, match="'gaussian', 'power' or 'table'"):
        sigma2_increment(lambda x: np.abs(x), params)


def test_sigma2_discrete_flat_support():
    # zero potential on {-1, 0, 1}: uniform increments, variance 2/3
    params = ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0, height_mode="discrete")
    pot = TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.zeros(3))
    assert sigma2_increment(pot, params) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_sigma2_discrete_gaussian():
    params = ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0, height_mode="discrete")
    sig2 = sigma2_increment(GaussianPotential(kappa=2.0), params)
    # direct lattice sum with a generous cutoff
    ks = np.arange(-60, 61)
    w = np.exp(-ks.astype(float) ** 2)
    assert sig2 == pytest.approx(float(np.sum(ks**2 * w) / np.sum(w)), rel=1e-12)


def test_xy_moments_frozen_values():
    assert_allclose(xy_moments(2, 3, 1.0), (2.0, 0.75, 0.3125))
    assert_allclose(xy_moments(3, 3, 1.0), (3.0, 1.5, 0.875))
    assert xy_moments(1, 3, 1.0)[2] == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError):
        xy_moments(4, 3, 1.0)


def test_xy_moments_scale_with_sigma2():
    base = np.array(xy_moments(5, 9, 1.0))
    scaled = np.array(xy_moments(5, 9, 2.5))
    assert_allclose(scaled, 2.5 * base)


def test_q_matrix_endpoint_only():
    assert_allclose(q_matrix(GridTimes([])), [[1.0, 0.5], [0.5, 1.0 / 3.0]])


def test_q_matrix_midpoint():
    expect = [
        [1.0, 1.0 / 8.0, 1.0 / 2.0],
        [1.0 / 8.0, 1.0 / 24.0, 5.0 / 48.0],
        [1.0 / 2.0, 5.0 / 48.0, 1.0 / 3.0],
    ]
    assert_allclose(q_matrix([0.5]), expect, atol=1e-15)


def test_q_matrix_positive_definite():
    q = q_matrix(np.linspace(0.1, 0.9, 7))
    assert np.all(np.linalg.eigvalsh(q) > 0)


def test_grid_times_validation():
    with pytest.raises(ValueError):
        GridTimes([0.0, 0.5])
    with pytest.raises(ValueError):
        GridTimes([0.5, 0.25])


@pytest.mark.parametrize("times", [[math.nan], [0.25, math.nan]])
def test_grid_times_refuse_nan(times):
    with pytest.raises(ValueError, match="strictly inside"):
        GridTimes(times)


def test_theta_mean_frozen_values():
    assert theta_mean(0.5, ConditionedSpec(a=1.0, b=0.0)) == pytest.approx(-1.0 / 8.0)
    assert theta_mean(0.5, ConditionedSpec(a=0.0, b=1.0)) == pytest.approx(0.5)
    # pinned at both ends of [0, 1]
    spec = ConditionedSpec(a=0.7, b=-0.3)
    assert theta_mean(0.0, spec) == 0.0
    assert theta_mean(1.0, spec) == pytest.approx(spec.b)


def test_theta_cov_frozen_values():
    assert theta_cov(0.5, 0.5) == pytest.approx(1.0 / 192.0, abs=1e-16)
    assert theta_cov(0.25, 0.75) == pytest.approx(13.0 / 12288.0, abs=1e-16)
    assert theta_cov(0.75, 0.25) == pytest.approx(13.0 / 12288.0, abs=1e-16)
    # diagonal reduces to t^3 (1-t)^3 / 3
    ts = np.linspace(0.05, 0.95, 19)
    assert_allclose(theta_cov(ts, ts), ts**3 * (1 - ts) ** 3 / 3.0, atol=1e-15)


def _conditional_gaussian(times, spec):
    """Mean vector and covariance of (theta(t_1), ..., theta(t_k)) given the
    endpoint pair, by Schur complement of the covariance in q_matrix: the
    reference for the closed forms theta_mean and theta_cov."""
    q = q_matrix(times)
    k = len(times)
    obs = np.arange(1, k + 1)
    cond = np.array([0, k + 1])
    q_oo = q[np.ix_(obs, obs)]
    q_oc = q[np.ix_(obs, cond)]
    q_cc = q[np.ix_(cond, cond)]
    solve = np.linalg.solve(q_cc, q_oc.T)  # (2, k)
    mean = solve.T @ np.array([spec.a, spec.b])
    cov = q_oo - q_oc @ solve
    return mean, 0.5 * (cov + cov.T)


def test_conditional_gaussian_matches_polynomials():
    # Schur complement of the limit kernel must reproduce the closed forms
    times = np.array([0.2, 0.4, 0.6, 0.8])
    spec = ConditionedSpec(a=1.3, b=-0.4)
    mean, cov = _conditional_gaussian(times, spec)
    assert_allclose(mean, theta_mean(times, spec), atol=1e-13)
    expect = np.array([[theta_cov(s, t) for t in times] for s in times])
    assert_allclose(cov, expect, atol=1e-13)


def test_exact_boundary_density_frozen_value():
    # N=3, kappa=c=1, zero slopes: prefactor sqrt(24)/(18 pi)
    value = exact_boundary_density(3, 1.0, 1.0, 0.0, 0.0)
    assert value == pytest.approx(math.sqrt(24.0) / (18.0 * math.pi), rel=1e-14)
    with pytest.raises(ValueError):
        exact_boundary_density(1, 1.0, 1.0, 0.0, 0.0)


def test_exact_boundary_density_symmetry():
    # the quadratic form is symmetric under swapping the two slopes
    a = exact_boundary_density(6, 2.0, 1.5, 0.3, -0.1)
    b = exact_boundary_density(6, 2.0, 1.5, -0.1, 0.3)
    assert a == pytest.approx(b, rel=1e-15)
    # and any nonzero slope pair is exponentially suppressed
    assert a < exact_boundary_density(6, 2.0, 1.5, 0.0, 0.0)


@pytest.mark.parametrize("xi_left, xi_right", [(1e154, 1e154), (1e200, 0.0), (-1e300, 1e308)],
                         ids=["inf-minus-inf", "square-overflows", "both-huge"])
def test_exact_boundary_density_past_float_range_is_zero(xi_left, xi_right):
    # the form overflows (inf - inf, or a square past float range); it is
    # positive definite, so the density is 0.0, as it already is from
    # slopes of about 40 up on this config
    assert exact_boundary_density(100, 1.0, 1.0, xi_left, xi_right) == 0.0


def test_exact_boundary_density_past_float_range_keeps_its_scale():
    # slopes t times larger with c t^2 times larger leave the exponent as it
    # is: here the slopes' squares overflow while the density is 5.5e-8
    small = exact_boundary_density(4, 1e-3, 1.0, 20.0, -5.0)
    assert small > 0
    assert exact_boundary_density(4, 1e-3, 1e306, 2e154, -5e153) == pytest.approx(small,
                                                                                   rel=1e-13)


@pytest.mark.parametrize("c, xi_left, xi_right, small", [
    (1e308, 1e153, 0.0, (0.1, 0.0)),
    (1e308, 1.5e154, -0.5e154, (1.5, -0.5)),
], ids=["form-finite", "form-overflows"])
def test_exact_boundary_density_past_float_range_in_c_n_keeps_its_scale(c, xi_left, xi_right,
                                                                        small):
    # c (N - 1) = 3e308 overflows here: the exponent's scale is read as
    # (kappa / c) (N / (N - 1)), so slopes t times larger with c t^2 times
    # larger give the density at c = 1, 0.0394548 and 2.5577e-20, not the
    # zero-slope prefactor 0.04449
    ref = exact_boundary_density(4, 1.0, 1.0, *small)
    assert ref == pytest.approx({(0.1, 0.0): 0.0394548, (1.5, -0.5): 2.5577e-20}[small],
                                rel=1e-5)
    assert exact_boundary_density(4, 1.0, c, xi_left, xi_right) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("call, error", [
    (lambda: ConditionedSpec(math.nan, 0.0), "conditioning values must be finite"),
    (lambda: ConditionedSpec(0.0, math.inf), "conditioning values must be finite"),
    (lambda: exact_boundary_density(4, 0.0, 1.0, 0.1, 0.1), "kappa and c must be positive"),
    (lambda: exact_boundary_density(4, 1.0, -1.0, 0.1, 0.1), "kappa and c must be positive"),
], ids=["nan-a", "infinite-b", "zero-kappa", "negative-c"])
def test_gaussian_refusals(call, error):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == error
