"""Transfer operator for tube confinement: path sums, spectra, width scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semiflex.confinement import (
    TubeSpec,
    build_transfer,
    confinement_sweep,
    exponent_fit,
    free_energy,
    mc_survival,
    power_iteration,
    survival_probability,
    tube_radius,
)
from semiflex.gaussian import sigma2_increment
from semiflex.model import (
    GaussianPotential,
    ModelParams,
    PowerLawPotential,
    TabulatedPotential,
)
from semiflex.oracle import EnumerationSpec, enumerate_configs
from semiflex.sampling import ChainSettings, build_increment_dist

ZERO_POT = TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.zeros(3))
SUPPORT = (-1.0, 0.0, 1.0)


def _discrete_params(n):
    return ModelParams(n_sites=n, epsilon=1.0, macro_length=float(n),
                       height_mode="discrete")


def test_tube_radius_floor():
    params = _discrete_params(4)
    assert tube_radius(TubeSpec(0.7), params, 2.0 / 3.0) == 1.0
    assert tube_radius(TubeSpec(1.3), params, 2.0 / 3.0) == 2.0
    cont = ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0)
    assert tube_radius(TubeSpec(0.5), cont, 4.0) == pytest.approx(2.0)


def test_survival_matches_enumeration():
    # same tube, two routes: transfer path sum vs exhaustive enumeration
    for n in (4, 6):
        params = _discrete_params(n)
        for pot in (ZERO_POT, GaussianPotential(1.0)):
            for rho in (0.7, 1.3):
                op = build_transfer(params, pot, TubeSpec(rho), support=SUPPORT)
                lhs = survival_probability(op, n)
                radius = op.radius
                spec = EnumerationSpec(params, pot, support=SUPPORT)
                ref = enumerate_configs(
                    spec,
                    event=lambda phi: np.max(np.abs(phi[:, 1:n + 1]), axis=1) <= radius,
                )
                assert lhs == pytest.approx(ref.probability, abs=1e-13)


def test_power_iteration_matches_dense_spectrum():
    params = _discrete_params(4)
    for pot in (ZERO_POT, GaussianPotential(1.0)):
        op = build_transfer(params, pot, TubeSpec(1.3), support=SUPPORT)
        res = power_iteration(op, tol=1e-12)
        lam_dense = float(np.max(np.linalg.eigvals(op.dense()).real))
        assert res.lam_raw == pytest.approx(lam_dense, rel=1e-9)
        assert res.lam_norm == pytest.approx(lam_dense / op.z1, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), kappa=st.floats(0.1, 3.0), rho=st.floats(0.3, 2.0),
       support=st.sets(st.integers(-3, 3), min_size=2), seed=st.integers(0, 2**32))
def test_matvec_agrees_with_dense(n, kappa, rho, support, seed):
    op = build_transfer(_discrete_params(n), GaussianPotential(kappa), TubeSpec(rho),
                        support=sorted(support))
    v = np.random.default_rng(seed).normal(size=(2 * op.n_h + 1, 2 * op.n_g + 1))
    # each output sums at most seven products w * v with weights w <= 1
    assert_allclose(op.matvec(v).ravel(), op.dense() @ v.ravel(), rtol=0,
                    atol=1e-13 * np.max(np.abs(v)))


@settings(max_examples=60, deadline=None)
@given(eps=st.sampled_from([1.0, 0.5]),
       pot=st.one_of(
           st.builds(GaussianPotential, st.floats(0.2, 4.0)),
           st.builds(PowerLawPotential, st.floats(0.2, 4.0), st.floats(1.0, 4.0))),
       cut=st.one_of(st.none(), st.floats(1.0, 12.0)))
def test_one_step_law_for_sampler_variance_and_taps(eps, pot, cut):
    # the sampler's law, the lattice variance and the transfer taps come from
    # one table: equal bit for bit, with and without a truncation
    params = ModelParams(n_sites=4, epsilon=eps, macro_length=4.0 * eps,
                         height_mode="discrete")
    support = None
    if cut is not None:
        k_max = math.floor(cut)
        support = np.arange(-k_max, k_max + 1)
    dist = build_increment_dist(pot, params, truncation=None if cut is None else cut / eps)
    op = build_transfer(params, pot, TubeSpec(1.0), support=support)
    assert np.array_equal(dist.values * eps, op.tap_offsets)
    assert np.array_equal(dist.probs, op.tap_weights / op.tap_weights.sum())
    if cut is None:
        assert sigma2_increment(pot, params) == dist.sigma2
    else:
        assert np.array_equal(op.tap_offsets, support)


def test_support_must_be_on_the_grid_and_distinct():
    params = _discrete_params(4)
    with pytest.raises(ValueError, match="not on the grid"):
        build_transfer(params, ZERO_POT, TubeSpec(1.0), support=(-1.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="distinct"):
        build_transfer(params, ZERO_POT, TubeSpec(1.0), support=(-1.0, 0.0, 0.0, 1.0))


def test_free_energy_positive_and_decreasing():
    params = _discrete_params(2000)
    pot = GaussianPotential(1.0)
    fs = [free_energy(build_transfer(params, pot, TubeSpec(r))) for r in (0.3, 0.9, 2.7)]
    assert all(f > 0 for f in fs)
    assert fs[0] > fs[1] > fs[2]


def test_free_energy_epsilon_mismatch():
    params = _discrete_params(4)
    op = build_transfer(params, ZERO_POT, TubeSpec(1.0), support=SUPPORT)
    other = ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0)
    with pytest.raises(ValueError):
        free_energy(op, other)


def test_sweep_slope_near_minus_two_thirds():
    params = _discrete_params(2000)
    rhos = np.geomspace(0.3, 3.0, 6)
    rows = confinement_sweep(params, GaussianPotential(1.0), rhos)
    fs = [r.free_energy for r in rows]
    assert all(a > b for a, b in zip(fs, fs[1:]))
    fit = exponent_fit(rhos, fs)
    assert -0.9 < fit.slope < -0.4
    assert fit.r_squared > 0.98


def test_sweep_worker_invariance():
    params = _discrete_params(300)
    rhos = [0.5, 1.0, 2.0, 4.0, 5.0]
    rows1 = confinement_sweep(params, GaussianPotential(1.0), rhos, workers=1)
    rows2 = confinement_sweep(params, GaussianPotential(1.0), rhos, workers=3)
    for a, b in zip(rows1, rows2):
        assert a == b


def test_mc_survival_consistent_with_path_sum():
    params = _discrete_params(6)
    dist = build_increment_dist(ZERO_POT, params, truncation=1.0)
    tube = TubeSpec(1.0)
    op = build_transfer(params, ZERO_POT, tube, support=SUPPORT)
    exact = survival_probability(op, 6)
    mc = mc_survival(params, dist, tube, ChainSettings(seed=17, n_samples=60_000))
    assert mc.n_samples == 60_000
    assert not mc.underflow
    assert abs(mc.estimate - exact) < 4.0 * mc.stderr


def test_start_vector_validation():
    params = _discrete_params(4)
    op = build_transfer(params, ZERO_POT, TubeSpec(1.0), support=SUPPORT)
    with pytest.raises(ValueError):
        op.start_vector(0.5)  # off the integer grid
    with pytest.raises(ValueError):
        op.start_vector(1e6)  # beyond the gradient cut


def test_build_transfer_mode_guards():
    disc = _discrete_params(4)
    with pytest.raises(ValueError):
        build_transfer(disc, ZERO_POT, TubeSpec(1.0), support=SUPPORT, mesh=0.1)
    cont = ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0)
    with pytest.raises(ValueError):
        build_transfer(cont, GaussianPotential(1.0), TubeSpec(1.0), support=SUPPORT)
    with pytest.raises(ValueError):
        build_transfer(disc, ZERO_POT, TubeSpec(1.0), support=SUPPORT, state_cap=2)


def test_continuous_transfer_mesh_refinement():
    # once the mesh resolves the step kernel (eps*sigma = 0.1 here), halving
    # it must barely move the free energy
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    pot = GaussianPotential(1.0)
    tube = TubeSpec(0.05)
    f1 = free_energy(build_transfer(params, pot, tube, mesh=0.08))
    f2 = free_energy(build_transfer(params, pot, tube, mesh=0.04))
    assert f2 == pytest.approx(f1, rel=0.02)


def test_exponent_fit_exact_power_law():
    rhos = np.geomspace(0.1, 10.0, 9)
    fs = 3.0 * rhos ** (-2.0 / 3.0)
    fit = exponent_fit(rhos, fs)
    assert fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_exponent_fit_validation():
    with pytest.raises(ValueError):
        exponent_fit([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, 0.25, 0.125])  # 4 points
    with pytest.raises(ValueError):
        exponent_fit([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.9, 0.8, 0.7, 0.6])  # no decade
    with pytest.raises(ValueError):
        exponent_fit([0.1, 0.5, 1.0, 5.0, 10.0], [1.0, 0.5, -0.1, 0.2, 0.1])
