"""Core model: energy, change-of-variables kernels, continuum check."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import semiflex
from semiflex.model import (
    BoundaryConditions,
    ContinuumProfile,
    GaussianPotential,
    ModelParams,
    PowerLawPotential,
    TabulatedPotential,
    _heights,
    _laps,
    _step_bound,
    _step_weights,
    _walk_area,
    continuum_energy_check,
    hamiltonian,
    map_boundary,
)
from semiflex.gaussian import sigma2_increment
from semiflex.sampling import estimate_theta_stats


def test_laplacian_frozen_values():
    assert_allclose(_laps(np.array([0.0, 0.0, 1.0, 0.0, 0.0])), [1.0, -2.0, 1.0])
    assert_allclose(_laps(np.array([0.0, 1.0, 4.0, 9.0])), [2.0, 2.0])


def test_hamiltonian_frozen_values():
    phi = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    pot = GaussianPotential(kappa=1.0)
    params = ModelParams(n_sites=3, epsilon=1.0, macro_length=3.0)
    assert hamiltonian(phi, params, pot) == pytest.approx(3.0, abs=1e-14)
    # halving eps doubles the energy of this fixed height vector
    params_half = ModelParams(n_sites=3, epsilon=0.5, macro_length=1.5)
    assert hamiltonian(phi, params_half, pot) == pytest.approx(6.0, abs=1e-14)


def test_hamiltonian_rejects_wrong_length():
    params = ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0)
    with pytest.raises(ValueError):
        hamiltonian(np.zeros(3), params, GaussianPotential(1.0))
    with pytest.raises(ValueError):
        hamiltonian(np.zeros((2, 6)), params, GaussianPotential(1.0))


def test_hamiltonian_rejects_non_finite_heights():
    params = ModelParams(n_sites=2, epsilon=1.0, macro_length=2.0)
    with pytest.raises(ValueError):
        hamiltonian([0.0, np.nan, 0.0, 0.0], params, GaussianPotential(1.0))


def test_discrete_mode_requires_integer_heights():
    params = ModelParams(n_sites=2, epsilon=1.0, macro_length=2.0, height_mode="discrete")
    pot = GaussianPotential(1.0)
    assert hamiltonian([0.0, 1.0, 0.0, 0.0], params, pot) > 0
    with pytest.raises(ValueError):
        hamiltonian([0.0, 0.5, 0.0, 0.0], params, pot)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_sites=1, epsilon=1.0, macro_length=1.0)
    with pytest.raises(ValueError):
        ModelParams(n_sites=10, epsilon=0.5, macro_length=1.0)
    with pytest.raises(ValueError):
        ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0, height_mode="integer")
    # n_sites is a count: a float or a bool is refused, not truncated
    for n_sites in (100.5, 4.0, True):
        with pytest.raises(ValueError, match="n_sites must be an integer"):
            ModelParams(n_sites=n_sites, epsilon=0.01, macro_length=1.0)
    assert ModelParams(n_sites=np.int64(4), epsilon=0.25, macro_length=1.0).n_sites == 4
    assert ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0).n_heights == 6


def test_to_increments_frozen_values():
    # xi1 = phi_1 - phi_0 and eta_j = lap_j / eps, here at eps = 0.5
    phi = np.array([0.0, 1.0, 2.0, 3.0])
    assert phi[1] - phi[0] == 1.0
    assert_allclose(_laps(phi) / 0.5, [0.0, 0.0])
    phi = np.array([0.0, 1.0, 4.0, 7.0])
    assert_allclose(_laps(phi) / 0.5, [4.0, 0.0])


def test_increment_roundtrip():
    rng = np.random.default_rng(3)
    eps = 0.25
    phi = np.concatenate(([0.0], rng.normal(size=13)))
    back = _heights(phi[1] - phi[0], _laps(phi) / eps, eps)
    assert_allclose(back, phi, atol=1e-12)


def test_from_increments_explicit_sum():
    # phi_k = k*xi1 + eps * sum_{j<k} (k - j) eta_j
    etas = [1.0, -1.0, 2.0]
    phi = _heights(2.0, np.array(etas), 0.5)
    expect = [
        k * 2.0 + 0.5 * sum((k - j) * e for j, e in enumerate(etas, start=1) if j < k)
        for k in range(5)
    ]
    assert_allclose(phi, expect, atol=1e-14)


def test_partial_sums_frozen_values():
    x, y = _walk_area(np.array([1.0, -1.0, 2.0]))
    assert_allclose(x, [1.0, 0.0, 2.0])
    assert_allclose(y, [0.25, 0.25, 0.75])


def test_map_boundary_frozen_values():
    params = ModelParams(n_sites=99, epsilon=0.01, macro_length=1.0)
    bc = BoundaryConditions(xi_left=0.02, xi_right=-0.02, endpoint=0.0)
    assert_allclose(map_boundary(bc, params), (0.0, -2.0), atol=1e-12)
    bc = BoundaryConditions(xi_left=0.01, xi_right=0.01, endpoint=1.0)
    assert_allclose(map_boundary(bc, params), (-2.0, 0.0), atol=1e-12)


def _theta_rows(sigma):
    """Four identical height rows with eta = (1, -1, 2) at eps = 1, so the
    theta statistics are those of one path: Y = (0.25, 0.25, 0.75)."""
    row = _heights(0.0, np.array([1.0, -1.0, 2.0]), 1.0)
    return lambda times: estimate_theta_stats(np.tile(row, (4, 1)), times,
                                              sigma=sigma, epsilon=1.0)


def test_theta_path_frozen_value():
    stats = _theta_rows(1.0)([0.0, 2.0 / 3.0])
    assert stats.mean[0] == 0.0
    assert stats.mean[1] == pytest.approx(0.25 / math.sqrt(3.0), abs=1e-14)
    with pytest.raises(ValueError):
        _theta_rows(1.0)([1.5])


def test_theta_path_interpolates_linearly():
    mean = _theta_rows(2.0)([1.0 / 3.0, 0.5, 2.0 / 3.0]).mean
    assert mean[1] == pytest.approx(0.5 * (mean[0] + mean[2]), abs=1e-14)


def test_potential_shapes():
    pot = GaussianPotential(kappa=3.0)
    assert pot(2.0) == pytest.approx(6.0)
    power = PowerLawPotential(kappa=0.5, alpha=2.0)
    xs = np.linspace(-4, 4, 9)
    assert_allclose(power(xs), GaussianPotential(1.0)(xs), atol=1e-14)
    with pytest.raises(ValueError):
        PowerLawPotential(kappa=1.0, alpha=0.5)


@pytest.mark.parametrize("make, error", [
    (lambda v: GaussianPotential(kappa=v), "kappa must be positive and finite"),
    (lambda v: PowerLawPotential(kappa=v, alpha=2.0), "kappa must be positive and finite"),
    (lambda v: PowerLawPotential(kappa=1.0, alpha=v), "alpha must be >= 1 and finite"),
], ids=["gaussian-kappa", "power-kappa", "power-alpha"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_potential_parameters_must_be_finite(make, error, value):
    # JSON 1e400 parses to inf: an infinitely stiff Gaussian has sigma^2 = 0
    with pytest.raises(ValueError, match=error):
        make(value)


def test_tabulated_potential():
    grid = np.linspace(-2.0, 2.0, 5)
    pot = TabulatedPotential(grid, 0.5 * grid**2)
    assert pot(1.0) == pytest.approx(0.5)
    assert pot(0.5) == pytest.approx(0.25)  # linear between the nodes
    assert pot(2.5) == np.inf  # off its grid a table is a hard wall
    with pytest.raises(ValueError):
        TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))


def test_hamiltonian_of_a_lap_off_the_table_is_infinite():
    pot = TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.zeros(3))
    params = ModelParams(n_sites=2, epsilon=1.0, macro_length=2.0, height_mode="discrete")
    assert hamiltonian([0.0, 0.0, 1.0, 1.0], params, pot) == 0.0  # laps 1, -1
    assert hamiltonian([0.0, 0.0, 2.0, 2.0], params, pot) == np.inf  # laps 2, -2


def test_continuum_energy_quadratic_profile():
    # f'' = 2: phi_k = (k eps)^2 / eps has every lap / eps = 2, so the
    # lattice energy is N eps Phi(2) = 2 N eps = 2 for every eps
    profile = ContinuumProfile(f=lambda x: x * x, d2f=lambda x: 2.0 + 0.0 * x)
    rows = continuum_energy_check(profile, GaussianPotential(1.0), [0.1, 0.05, 0.025])
    for row in rows:
        assert row.integral == pytest.approx(2.0, abs=1e-12)
        assert row.lattice_energy == pytest.approx(2.0, abs=1e-12)
        assert row.error < 10.0 * row.eps


def test_continuum_energy_cubic_halving():
    # exact error 9 eps + 3 eps^2, so halving eps cuts it roughly in half
    profile = ContinuumProfile(f=lambda x: x**3, d2f=lambda x: 6.0 * x)
    rows = continuum_energy_check(profile, GaussianPotential(1.0), [0.1, 0.05])
    assert rows[0].integral == pytest.approx(6.0, abs=1e-12)
    assert rows[0].error == pytest.approx(9 * 0.1 + 3 * 0.1**2, abs=1e-10)
    ratio = rows[1].error / rows[0].error
    assert 0.3 < ratio < 0.7


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_continuum_energy_needs_a_positive_finite_eps(eps):
    profile = ContinuumProfile(f=lambda x: x * x, d2f=lambda x: 2.0 + 0.0 * x)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        continuum_energy_check(profile, GaussianPotential(1.0), [0.1, eps])


@pytest.mark.parametrize("f", [
    lambda x: [math.sqrt(v - 0.5) for v in x],  # raises below x = 0.5
    lambda x: np.where(x < 0.5, np.nan, x),  # non-finite below x = 0.5
])
def test_continuum_energy_rejects_profile_undefined_on_grid(f):
    profile = ContinuumProfile(f=f, d2f=lambda x: 0.0 * x)
    with pytest.raises(ValueError, match="profile"):
        continuum_energy_check(profile, GaussianPotential(1.0), [0.1])


# ---------------------------------------------------------------------------
# property tests: the batched change-of-variables kernels give the same bits on
# a matrix as row by row, and invert each other up to rounding

_EPS = st.sampled_from([1.0, 0.25, 0.01])
_ETA_ROWS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=24),
    elements=st.floats(-1e3, 1e3),
)


@settings(max_examples=50, deadline=None)
@given(etas=_ETA_ROWS, xi1=st.floats(-10.0, 10.0), eps=_EPS)
def test_batched_kernels_match_row_by_row_bit_for_bit(etas, xi1, eps):
    phi = _heights(xi1, etas, eps)
    laps = _laps(phi)
    x, y = _walk_area(etas)
    for i, row in enumerate(etas):
        phi_row = _heights(xi1, row, eps)
        x_row, y_row = _walk_area(row)
        assert np.array_equal(phi[i], phi_row)
        assert np.array_equal(laps[i], _laps(phi_row))
        assert np.array_equal(x[i], x_row)
        assert np.array_equal(y[i], y_row)


@settings(max_examples=50, deadline=None)
@given(etas=_ETA_ROWS.map(lambda a: a[0]), xi1=st.floats(-10.0, 10.0), eps=_EPS)
def test_increment_roundtrip_property(etas, xi1, eps):
    n = etas.size
    phi = _heights(xi1, etas, eps)
    back = _laps(phi) / eps
    # laps difference heights of size max |phi|: a few ulps of that, over eps
    # (the worst of 20,000 random draws used 1/70 of these bounds); below the
    # smallest normal float the ulp stops shrinking, so the scale does too
    scale = max(np.max(np.abs(phi)), np.finfo(float).tiny)
    assert phi[1] - phi[0] == xi1
    assert_allclose(back, etas, rtol=0, atol=1e-14 * n * scale / eps)
    again = _heights(phi[1] - phi[0], back, eps)
    assert_allclose(again, phi, rtol=0, atol=1e-14 * n * n * scale)


# ---------------------------------------------------------------------------
# where a step law ends: one rule, `_step_bound`, for every law

_RULE_POTS = [GaussianPotential(0.5), GaussianPotential(1.0), GaussianPotential(4.0),
              PowerLawPotential(1.0, 1.0), PowerLawPotential(1.0, 1.5),
              PowerLawPotential(1.0, 2.0), PowerLawPotential(1.0, 4.0)]


def _scan(pot, eps, delta):
    """The outward scan, as an independent reference: d grows from 0 until
    both d+1 and -(d+1) weigh less than 1e-18 of the weight at d = 0."""
    def weight(d):
        return np.exp(-eps * np.asarray(pot(np.asarray(d) * delta / eps), dtype=float))

    cut = 1e-18 * weight(np.zeros(1))[0]
    d = 0
    while weight(np.array([d + 1, -d - 1])).max() >= cut:
        d += 1
    offsets = np.arange(-d, d + 1)
    return offsets, weight(offsets)


@pytest.mark.parametrize("pot", _RULE_POTS, ids=repr)
@pytest.mark.parametrize("eps", [1.0, 0.01])
@pytest.mark.parametrize("mesh", [False, True], ids=["lattice", "mesh"])
def test_step_weights_match_an_outward_scan_bit_for_bit(pot, eps, mesh):
    # Phi(0) = 0 is the peak of these laws, so the scan's raw weights are
    # already peak-scaled; the closed-form bound must keep exactly its offsets
    delta = 1.0
    if mesh:
        delta = eps * math.sqrt(sigma2_increment(pot, ModelParams(2, eps, 2.0 * eps))) / 40.0
    offsets, weights = _step_weights(pot, eps, delta)
    ref_offsets, ref_weights = _scan(pot, eps, delta)
    assert np.array_equal(offsets, ref_offsets)
    assert np.array_equal(weights, ref_weights)


@pytest.mark.parametrize("pot", [
    GaussianPotential(1.0),
    PowerLawPotential(1.0, 1.5),
    TabulatedPotential(np.linspace(-40.0, 40.0, 81), 0.5 * np.linspace(-40.0, 40.0, 81) ** 2),
], ids=["gaussian", "power", "table"])
def test_step_weights_make_one_potential_call(monkeypatch, pot):
    calls = []
    own_call = type(pot).__call__

    def counting(self, x):
        calls.append(np.size(x))
        return own_call(self, x)

    monkeypatch.setattr(type(pot), "__call__", counting)
    offsets, weights = _step_weights(pot, 0.5, 0.1)
    assert len(calls) == 1
    assert weights.max() == 1.0


def test_table_law_variance_does_not_depend_on_blas_threads():
    # |x|^1.5 on linspace(-40, 40, 161), plain and as the CI's confine table
    # (1e-10 off even): about 80 tanh-sinh pieces, whose variance summed in
    # one BLAS dot read other bits on one OpenBLAS thread than on two
    src = str(Path(semiflex.__path__[0]).parent)
    code = ("import numpy as n; from semiflex.model import *; "
            "g = n.linspace(-40, 40, 161); p = ModelParams(100, 0.01, 1.0); "
            "print([build_increment_dist(TabulatedPotential(g, abs(g) ** 1.5 + s * (g > 0)), p)"
            ".sigma2.hex() for s in (0.0, 1e-10)])")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path,
                                           "OPENBLAS_NUM_THREADS": threads}).stdout
           for threads in ("1", "2")]
    assert out[0] == out[1]


def test_step_bound_closed_forms():
    depth = math.log(1e18)
    assert _step_bound(GaussianPotential(2.0), 0.5) == pytest.approx(math.sqrt(depth / 0.5))
    assert _step_bound(PowerLawPotential(2.0, 4.0), 0.5) == pytest.approx(depth ** 0.25)
    assert _step_bound(PowerLawPotential(2.0, 4.0), 0.5, truncation=1.5) == 1.5
    # a table ends at the node just past its last node within depth/eps of
    # its minimum (here 1e4 above it from |x| = 3 on), else at the grid end
    grid = np.arange(-6.0, 7.0)
    steep = TabulatedPotential(grid, np.where(np.abs(grid) >= 3, 1e4, 0.0) + 7.0)
    assert _step_bound(steep, 1.0) == 3.0
    assert _step_bound(steep, 1e-4) == 6.0
    with pytest.raises(ValueError, match="'gaussian', 'power' or 'table'"):
        _step_bound(lambda x: np.abs(x), 1.0)


def test_step_weights_check_their_size_before_allocating():
    with pytest.raises(ValueError, match="coarsen the mesh"):
        _step_weights(GaussianPotential(1e-20), 1.0)


def test_barrier_table_keeps_its_wells():
    # Phi = 5000 at |x| = 100 and 0 at 200 and 300: at eps = 0.01 the barrier
    # weighs exp(-50) of the wells, inside the law, so the law runs to 300
    grid = np.arange(-300.0, 301.0, 100.0)
    pot = TabulatedPotential(grid, np.array([0.0, 0.0, 5000.0, 0.0, 5000.0, 0.0, 0.0]))
    offsets, weights = _step_weights(pot, 0.01)
    assert offsets.tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert weights[3] == 1.0
    assert weights[2] == pytest.approx(math.exp(-50.0), rel=1e-15)
    assert _step_bound(pot, 0.01) == 300.0


@pytest.mark.parametrize("build, error", [
    (lambda: ModelParams(4, 0.0, 1.0), "epsilon must be positive and finite, got 0.0"),
    (lambda: ModelParams(4, math.inf, 1.0), "epsilon must be positive and finite, got inf"),
    (lambda: ModelParams(4, 0.25, -1.0), "macro_length must be positive, got -1.0"),
    (lambda: ModelParams(4, 0.25, math.nan), "macro_length must be positive, got nan"),
    (lambda: TabulatedPotential([0.0], [0.0]),
     "grid and values must be 1d arrays of equal length >= 2"),
    (lambda: TabulatedPotential([-1.0, 0.0, 1.0], [0.0, 0.0]),
     "grid and values must be 1d arrays of equal length >= 2"),
    (lambda: TabulatedPotential([1.0, 0.0, -1.0], [0.0, 0.0, 0.0]),
     "grid must be strictly increasing"),
    (lambda: TabulatedPotential([-1.0, 0.0, 1.0], [math.inf, 0.0, math.inf]),
     "tabulated values must be finite"),
], ids=["zero-epsilon", "infinite-epsilon", "negative-length", "nan-length", "one-point",
        "unequal-lengths", "decreasing-grid", "infinite-value"])
def test_model_refusals(build, error):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == error
