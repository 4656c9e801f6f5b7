"""Core model: difference operators, energy, change of variables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from semiflex.model import (
    BoundaryConditions,
    ContinuumProfile,
    GaussianPotential,
    IncrementPath,
    ModelParams,
    PolymerConfig,
    PowerLawPotential,
    TabulatedPotential,
    _heights,
    _laps,
    _walk_area,
    continuum_energy_check,
    discretize_profile,
    from_increments,
    gradient,
    hamiltonian,
    laplacian,
    map_boundary,
    partial_sums,
    theta_path,
    to_increments,
)


def test_gradient_frozen_values():
    assert_allclose(gradient(PolymerConfig([0.0, 1.0, 3.0])), [1.0, 2.0])
    assert_allclose(gradient(PolymerConfig([0.0, 1.0, 4.0, 9.0])), [1.0, 3.0, 5.0])


def test_laplacian_frozen_values():
    assert_allclose(laplacian(PolymerConfig([0.0, 0.0, 1.0, 0.0, 0.0])), [1.0, -2.0, 1.0])
    assert_allclose(laplacian(PolymerConfig([0.0, 1.0, 4.0, 9.0])), [2.0, 2.0])


def test_laplacian_needs_three_heights():
    with pytest.raises(ValueError):
        laplacian(PolymerConfig([0.0, 1.0]))


def test_hamiltonian_frozen_values():
    config = PolymerConfig([0.0, 0.0, 1.0, 0.0, 0.0])
    pot = GaussianPotential(kappa=1.0)
    params = ModelParams(n_sites=3, epsilon=1.0, macro_length=3.0)
    assert hamiltonian(config, params, pot) == pytest.approx(3.0, abs=1e-14)
    # halving eps doubles the energy of this fixed height vector
    params_half = ModelParams(n_sites=3, epsilon=0.5, macro_length=1.5)
    assert hamiltonian(config, params_half, pot) == pytest.approx(6.0, abs=1e-14)


def test_hamiltonian_rejects_wrong_length():
    params = ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0)
    with pytest.raises(ValueError):
        hamiltonian(PolymerConfig([0.0, 0.0, 0.0]), params, GaussianPotential(1.0))


def test_discrete_mode_requires_integer_heights():
    params = ModelParams(n_sites=2, epsilon=1.0, macro_length=2.0, height_mode="discrete")
    pot = GaussianPotential(1.0)
    assert hamiltonian(PolymerConfig([0.0, 1.0, 0.0, 0.0]), params, pot) > 0
    with pytest.raises(ValueError):
        hamiltonian(PolymerConfig([0.0, 0.5, 0.0, 0.0]), params, pot)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_sites=1, epsilon=1.0, macro_length=1.0)
    with pytest.raises(ValueError):
        ModelParams(n_sites=10, epsilon=0.5, macro_length=1.0)
    with pytest.raises(ValueError):
        ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0, height_mode="integer")
    assert ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0).n_heights == 6


def test_to_increments_frozen_values():
    params = ModelParams(n_sites=2, epsilon=1.0, macro_length=2.0)
    path = to_increments(PolymerConfig([0.0, 1.0, 2.0, 3.0]), params)
    assert path.xi1 == 1.0
    assert_allclose(path.etas, [0.0, 0.0])
    path = to_increments(PolymerConfig([0.0, 1.0, 4.0, 7.0]), params)
    assert path.xi1 == 1.0
    assert_allclose(path.etas, [2.0, 0.0])


def test_to_increments_requires_pinned_origin():
    params = ModelParams(n_sites=2, epsilon=1.0, macro_length=2.0)
    with pytest.raises(ValueError):
        to_increments(PolymerConfig([1.0, 2.0, 3.0, 4.0]), params)


def test_increment_roundtrip():
    rng = np.random.default_rng(3)
    params = ModelParams(n_sites=12, epsilon=0.25, macro_length=3.0)
    phi = np.concatenate(([0.0], rng.normal(size=13)))
    back = from_increments(to_increments(PolymerConfig(phi), params), params)
    assert_allclose(back.heights, phi, atol=1e-12)


def test_from_increments_explicit_sum():
    # phi_k = k*xi1 + eps * sum_{j<k} (k - j) eta_j
    params = ModelParams(n_sites=3, epsilon=0.5, macro_length=1.5)
    path = IncrementPath(xi1=2.0, etas=[1.0, -1.0, 2.0])
    phi = from_increments(path, params).heights
    expect = [
        k * 2.0 + 0.5 * sum((k - j) * e for j, e in enumerate([1.0, -1.0, 2.0], start=1) if j < k)
        for k in range(5)
    ]
    assert_allclose(phi, expect, atol=1e-14)


def test_partial_sums_frozen_values():
    sums = partial_sums(IncrementPath(xi1=0.0, etas=[1.0, -1.0, 2.0]))
    assert_allclose(sums.x, [1.0, 0.0, 2.0])
    assert_allclose(sums.y, [0.25, 0.25, 0.75])


def test_map_boundary_frozen_values():
    params = ModelParams(n_sites=99, epsilon=0.01, macro_length=1.0)
    bc = BoundaryConditions(xi_left=0.02, xi_right=-0.02, endpoint=0.0)
    assert_allclose(map_boundary(bc, params), (0.0, -2.0), atol=1e-12)
    bc = BoundaryConditions(xi_left=0.01, xi_right=0.01, endpoint=1.0)
    assert_allclose(map_boundary(bc, params), (-2.0, 0.0), atol=1e-12)


def test_theta_path_frozen_value():
    theta = theta_path(IncrementPath(xi1=0.0, etas=[1.0, -1.0, 2.0]), sigma=1.0)
    assert theta(0.0) == 0.0
    assert theta(2.0 / 3.0) == pytest.approx(0.25 / math.sqrt(3.0), abs=1e-14)
    with pytest.raises(ValueError):
        theta(1.5)


def test_theta_path_interpolates_linearly():
    theta = theta_path(IncrementPath(xi1=0.0, etas=[1.0, -1.0, 2.0]), sigma=2.0)
    mid = 0.5 * (theta(1.0 / 3.0) + theta(2.0 / 3.0))
    assert theta(0.5) == pytest.approx(mid, abs=1e-14)


def test_potential_shapes():
    pot = GaussianPotential(kappa=3.0)
    assert pot(2.0) == pytest.approx(6.0)
    power = PowerLawPotential(kappa=0.5, alpha=2.0)
    xs = np.linspace(-4, 4, 9)
    assert_allclose(power(xs), GaussianPotential(1.0)(xs), atol=1e-14)
    with pytest.raises(ValueError):
        PowerLawPotential(kappa=1.0, alpha=0.5)


def test_tabulated_potential():
    grid = np.linspace(-2.0, 2.0, 5)
    pot = TabulatedPotential(grid, 0.5 * grid**2)
    assert pot(1.0) == pytest.approx(0.5)
    assert pot(0.5) == pytest.approx(0.25)  # linear between the nodes
    with pytest.raises(ValueError):
        pot(2.5)
    with pytest.raises(ValueError):
        TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))


def test_discretize_profile_scaling():
    profile = ContinuumProfile(f=lambda x: x * x, gamma=1.0, delta=1.0)
    params = ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0)
    config = discretize_profile(profile, params)
    # phi_k = eps^-1 (k eps)^2 = k^2 eps
    assert_allclose(config.heights, 0.25 * np.arange(6) ** 2, atol=1e-14)


def test_continuum_energy_quadratic_profile():
    # f'' = 2 so the lattice energy is exactly 2*N*eps for every eps
    profile = ContinuumProfile(f=lambda x: x * x, gamma=1.0, delta=1.0,
                               d2f=lambda x: 2.0 + 0.0 * x)
    rows = continuum_energy_check(profile, GaussianPotential(1.0), [0.1, 0.05, 0.025])
    for row in rows:
        assert row.integral == pytest.approx(2.0, abs=1e-12)
        assert row.error < 10.0 * row.eps


def test_continuum_energy_cubic_halving():
    # exact error 9 eps + 3 eps^2, so halving eps cuts it roughly in half
    profile = ContinuumProfile(f=lambda x: x**3, gamma=1.0, delta=1.0,
                               d2f=lambda x: 6.0 * x)
    rows = continuum_energy_check(profile, GaussianPotential(1.0), [0.1, 0.05])
    assert rows[0].integral == pytest.approx(6.0, abs=1e-12)
    assert rows[0].error == pytest.approx(9 * 0.1 + 3 * 0.1**2, abs=1e-10)
    ratio = rows[1].error / rows[0].error
    assert 0.3 < ratio < 0.7


def test_continuum_energy_rejects_bad_scaling():
    profile = ContinuumProfile(f=lambda x: x * x, gamma=1.0, delta=0.5)
    with pytest.raises(ValueError):
        continuum_energy_check(profile, GaussianPotential(1.0), [0.1])


# ---------------------------------------------------------------------------
# property tests: the batched change-of-variables kernels the samplers use
# against the checked public maps, and the exact round trip between them

_EPS = st.sampled_from([1.0, 0.25, 0.01])
_ETA_ROWS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=24),
    elements=st.floats(-1e3, 1e3),
)


@settings(max_examples=50, deadline=None)
@given(etas=_ETA_ROWS, xi1=st.floats(-10.0, 10.0), eps=_EPS)
def test_batched_kernels_match_public_maps_bit_for_bit(etas, xi1, eps):
    n = etas.shape[1]
    params = ModelParams(n_sites=n, epsilon=eps, macro_length=n * eps)
    phi = _heights(xi1, etas, eps)
    laps = _laps(phi)
    x, y = _walk_area(etas)
    for i, row in enumerate(etas):
        path = IncrementPath(xi1=xi1, etas=row)
        config = from_increments(path, params)
        sums = partial_sums(path)
        assert np.array_equal(phi[i], config.heights)
        assert np.array_equal(laps[i], laplacian(config))
        assert np.array_equal(x[i], sums.x)
        assert np.array_equal(y[i], sums.y)


@settings(max_examples=50, deadline=None)
@given(etas=_ETA_ROWS.map(lambda a: a[0]), xi1=st.floats(-10.0, 10.0), eps=_EPS)
def test_increment_roundtrip_property(etas, xi1, eps):
    n = etas.size
    params = ModelParams(n_sites=n, epsilon=eps, macro_length=n * eps)
    config = from_increments(IncrementPath(xi1=xi1, etas=etas), params)
    back = to_increments(config, params)
    # laps difference heights of size max |phi|: a few ulps of that, over eps
    # (the worst of 20,000 random draws used 1/70 of these bounds)
    scale = np.max(np.abs(config.heights))
    assert back.xi1 == xi1
    assert_allclose(back.etas, etas, rtol=0, atol=1e-14 * n * scale / eps)
    again = from_increments(back, params)
    assert_allclose(again.heights, config.heights, rtol=0, atol=1e-14 * n * n * scale)
