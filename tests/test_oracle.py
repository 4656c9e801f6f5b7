"""Brute-force enumeration and exact endpoint densities at desk scale."""

import math
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semiflex.gaussian import exact_boundary_density
from semiflex.model import GaussianPotential, ModelParams, TabulatedPotential
from semiflex.oracle import (
    EnumerationSpec,
    enumerate_configs,
    gaussian_functional_density,
    mapped_boundary_density,
)

ZERO_POT = TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.zeros(3))


def _params(n, eps=1.0, mode="discrete"):
    return ModelParams(n_sites=n, epsilon=eps, macro_length=n * eps, height_mode=mode)


def test_partition_sum_flat_weights():
    # zero potential on {-1,0,1}: every tuple has weight 1, so Z = 3^N
    spec = EnumerationSpec(_params(2), ZERO_POT, support=(-1.0, 0.0, 1.0))
    assert enumerate_configs(spec).z == pytest.approx(9.0, abs=1e-14)


def test_partition_sum_gaussian_weights():
    # per-site weights 1 + 2 e^{-1}, independent across sites
    spec = EnumerationSpec(_params(2), GaussianPotential(kappa=2.0), support=(-1.0, 0.0, 1.0))
    assert enumerate_configs(spec).z == pytest.approx((1.0 + 2.0 * math.exp(-1.0)) ** 2,
                                                      rel=1e-14)


def test_bridge_event_probability():
    # flat weights, N=2: the only (phi_2, phi_3) = (0, 0) tuple is the flat one
    spec = EnumerationSpec(_params(2), ZERO_POT, support=(-1.0, 0.0, 1.0))
    result = enumerate_configs(
        spec,
        event=lambda phi: (phi[:, 2] == 0.0) & (phi[:, 3] == 0.0),
        statistic=lambda phi: phi[:, 1],
    )
    assert result.probability == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert result.conditional_mean == pytest.approx(0.0, abs=1e-15)


def test_enumeration_against_plain_loop():
    # independent in-test reference: plain nested loops, no numpy
    params = _params(3)
    pot = GaussianPotential(kappa=1.0)
    support = (-1.0, 0.0, 1.0)
    z_ref, ev_ref, st_ref = 0.0, 0.0, 0.0
    for laps in product(support, repeat=3):
        w = math.exp(-sum(0.5 * l * l for l in laps))
        xi = [0.0]
        for l in laps:
            xi.append(xi[-1] + l)
        phi = [0.0]
        for x in xi:
            phi.append(phi[-1] + x)
        z_ref += w
        if phi[4] >= 0.0:
            ev_ref += w
            st_ref += w * phi[2]
    spec = EnumerationSpec(params, pot, support=support)
    result = enumerate_configs(
        spec,
        event=lambda phi: phi[:, 4] >= 0.0,
        statistic=lambda phi: phi[:, 2],
    )
    assert result.z == pytest.approx(z_ref, rel=1e-14)
    assert result.probability == pytest.approx(ev_ref / z_ref, rel=1e-14)
    assert result.conditional_mean == pytest.approx(st_ref / ev_ref, rel=1e-14)


def test_enumeration_chunking_invariance():
    # a (rows, k) statistic gives, from one pass, what k scalar calls give,
    # bit for bit
    spec = EnumerationSpec(_params(5), GaussianPotential(1.0), support=(-1.0, 0.0, 1.0))
    event = lambda phi: np.abs(phi[:, 3]) <= 1.0
    stats = [lambda phi: phi[:, 2] ** 2, lambda phi: phi[:, 4] / 3.0,
             lambda phi: (phi[:, 5] == 1.0).astype(float)]
    base = [enumerate_configs(spec, event=event, statistic=f) for f in stats]
    vec = enumerate_configs(spec, event=event,
                            statistic=lambda phi: np.stack([f(phi) for f in stats], axis=1))
    assert (vec.z, vec.probability) == (base[0].z, base[0].probability)
    assert vec.conditional_mean.tolist() == [r.conditional_mean for r in base]


def test_partition_sum_is_exactly_rounded():
    # z is one exactly rounded sum of the per-tuple weights, each weight
    # computed here tuple by tuple from the potential, apart from the oracle
    params = _params(4, eps=0.5)
    pot = GaussianPotential(kappa=1.7)
    support = (-1.5, -0.25, 0.0, 0.5, 2.0)
    weights = [math.exp(-params.epsilon * sum(
        float(pot(np.array([lap / params.epsilon]))[0]) for lap in laps))
        for laps in product(support, repeat=params.n_sites)]
    assert enumerate_configs(EnumerationSpec(params, pot, support)).z == math.fsum(weights)


def test_enumeration_cap_is_one_pass():
    # 2^18 tuples fit in one pass; 5^8 = 390,625 are refused up front
    with pytest.raises(ValueError, match="390625 tuples exceed the enumeration cap 262144"):
        EnumerationSpec(_params(8), ZERO_POT, support=tuple(range(5)))
    spec = EnumerationSpec(_params(6), ZERO_POT, support=tuple(np.linspace(-1.0, 1.0, 8)))
    result = enumerate_configs(spec, event=lambda phi: phi[:, 2] < 0.0)  # lap_1 < 0
    assert result.z == 8.0 ** 6
    assert result.probability == 0.5


def test_enumeration_guards():
    with pytest.raises(ValueError):
        EnumerationSpec(_params(9, mode="continuous"), ZERO_POT, support=(-1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        EnumerationSpec(_params(2), ZERO_POT, support=())


def test_no_statistic_gives_nan():
    spec = EnumerationSpec(_params(2), ZERO_POT, support=(-1.0, 0.0, 1.0))
    assert math.isnan(enumerate_configs(spec).conditional_mean)


def test_functional_density_frozen_value():
    # N=3, sigma2=1: det = 3 * 7/8 - 1.5^2 = 0.375
    value = gaussian_functional_density(3, 1.0, 0.0, 0.0)
    assert value == pytest.approx(1.0 / (2.0 * math.pi * math.sqrt(0.375)), rel=1e-14)
    assert value == pytest.approx(0.2598989, abs=5e-8)


def test_functional_density_normalizes():
    # integrate the bivariate normal over a wide box
    n, sigma2 = 3, 1.0
    xs = np.linspace(-12, 12, 481)
    ys = np.linspace(-8, 8, 481)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    dens = gaussian_functional_density(n, sigma2, grid_x, grid_y)
    total = np.trapezoid(np.trapezoid(dens, ys, axis=1), xs)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_functional_density_moments():
    # second moments of the density match the stated covariance
    n, sigma2 = 4, 0.5
    xs = np.linspace(-15, 15, 601)
    ys = np.linspace(-10, 10, 601)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    dens = gaussian_functional_density(n, sigma2, grid_x, grid_y)

    def moment(values):
        return float(np.trapezoid(np.trapezoid(values * dens, ys, axis=1), xs))

    assert moment(grid_x * grid_x) == pytest.approx(n * sigma2, rel=1e-5)
    assert moment(grid_x * grid_y) == pytest.approx(0.5 * n * sigma2, rel=1e-5)
    assert moment(grid_y * grid_y) == pytest.approx(
        n * (2 * n + 1) * sigma2 / (6.0 * (n + 1)), rel=1e-5)


def test_mapped_density_constant_ratio():
    # the closed form takes slopes in standardized step units (a factor
    # sqrt(N) at kappa = c = 1); after that conversion the two densities
    # differ by the constant N^2 / (c (N+1)) at every slope pair
    for n in (3, 5, 10):
        for c in (1.0, 2.0):
            root = math.sqrt(n)
            ratios = [
                mapped_boundary_density(n, 1.0, c, root * xl, root * xr)
                / exact_boundary_density(n, 1.0, c, xl, xr)
                for xl, xr in ((0.0, 0.0), (0.02, -0.01), (0.05, 0.05), (0.3, 0.2))
            ]
            assert_allclose(ratios, n * n / (c * (n + 1)), rtol=1e-12)


@pytest.mark.parametrize("call, error", [
    (lambda: gaussian_functional_density(0, 1.0, 0.0, 0.0), "need n_sites >= 2 and sigma2 > 0"),
    (lambda: gaussian_functional_density(3, 0.0, 0.0, 0.0), "need n_sites >= 2 and sigma2 > 0"),
    (lambda: gaussian_functional_density(3, math.nan, 0.0, 0.0),
     "need n_sites >= 2 and sigma2 > 0"),
    # at N = 1 the area is half the walk: det = N^2 s^2 (N - 1) / (12 (N + 1)) = 0
    (lambda: gaussian_functional_density(1, 1.0, 0.0, 0.0), "need n_sites >= 2 and sigma2 > 0"),
    # det = N^2 s^2 (N - 1) / (12 (N + 1)) underflows to 0
    (lambda: gaussian_functional_density(3, 1e-200, 0.0, 0.0), "degenerate endpoint covariance"),
    # every weight exp(-0.5 * 1e4) underflows to zero
    (lambda: enumerate_configs(EnumerationSpec(_params(2), GaussianPotential(1e4), (1.0,))),
     "partition sum vanished; weights degenerate"),
], ids=["no-sites", "zero-variance", "nan-variance", "one-site", "underflow-variance",
        "zero-weights"])
def test_oracle_refusals(call, error):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == error
