"""Samplers: exact Gaussian bridge, free walk, Metropolis bridge, serialization."""

import hashlib
import math
import resource
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semiflex import sampling
from semiflex.confinement import TubeSpec, build_transfer
from semiflex.gaussian import sigma2_increment, theta_cov, xy_moments
from semiflex.model import (
    BoundaryConditions,
    GaussianPotential,
    ModelParams,
    PowerLawPotential,
    TabulatedPotential,
    _laps,
    _step_bound,
    _step_weights,
    _walk_area,
    build_increment_dist,
    map_boundary,
)
from semiflex.oracle import EnumerationSpec, enumerate_configs
from semiflex.sampling import (
    ChainSettings,
    estimate_theta_stats,
    sample_bridge_mcmc,
    sample_free,
    sample_gaussian_bridge,
    samples_from_csv,
    samples_from_frame,
    samples_to_csv,
    samples_to_frame,
)

ZERO_POT = TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.zeros(3))
ZERO_BC = BoundaryConditions(0.0, 0.0, 0.0)


def _discrete_params(n):
    return ModelParams(n_sites=n, epsilon=1.0, macro_length=float(n),
                       height_mode="discrete")


def test_increment_dist_frozen_values():
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    dist = build_increment_dist(GaussianPotential(1.0), params)
    assert dist.kind == "gaussian"
    assert dist.sigma2 == pytest.approx(100.0)
    dist = build_increment_dist(ZERO_POT, _discrete_params(4), truncation=1.0)
    assert dist.kind == "discrete"
    assert dist.sigma2 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert_allclose(sorted(dist.values), [-1.0, 0.0, 1.0])


def test_discrete_table_law_stops_at_the_grid():
    # without a truncation the lattice law ends at the table's last offset
    dist = build_increment_dist(ZERO_POT, _discrete_params(4))
    assert_allclose(dist.values, [-1.0, 0.0, 1.0], rtol=0, atol=0)
    assert_allclose(dist.probs, [1.0 / 3.0] * 3, rtol=0, atol=0)
    assert dist.sigma2 == 2.0 / 3.0
    assert dist.values[-1] == 1.0


def test_table_cut_keeps_only_offsets_evaluated_on_the_grid():
    # 30 * 0.7 rounds to 21.0, but 21 / 0.7 = 30.000000000000004 lies past the
    # grid, where Phi = inf, so the lattice law, the transfer taps and the
    # MCMC chain all stop at 20
    pot = TabulatedPotential(np.array([-30.0, 0.0, 30.0]), np.array([1.0, 0.0, 1.0]))
    params = ModelParams(n_sites=10, epsilon=0.7, macro_length=7.0, height_mode="discrete")
    dist = build_increment_dist(pot, params)
    assert dist.values[-1] == 20 / 0.7
    op = build_transfer(params, pot, TubeSpec(1.0))
    assert op.tap_offsets.tolist() == list(range(-20, 21))
    settings = ChainSettings(seed=1, n_samples=64, burn_in=20, n_chains=8)
    laps = _laps(sample_bridge_mcmc(params, pot, ZERO_BC, settings))
    assert np.abs(laps).max() <= 20.0


@settings(max_examples=30, deadline=None)
@given(eps=st.floats(0.05, 2.0), g=st.floats(1.0, 60.0), height=st.floats(0.0, 10.0))
@example(eps=0.7, g=30.0, height=1.0)  # 21 / 0.7 rounds just past the grid
def test_a_step_off_the_table_weighs_zero_everywhere(eps, g, height):
    # one rule: Phi = inf off the grid.  The lattice law ends at the last
    # offset with finite Phi, and chains without a truncation never leave it;
    # a lattice law on the one step 0 fails before any chain runs
    grid = np.array([-g, -0.5 * g, 0.0, 0.5 * g, g])
    pot = TabulatedPotential(grid, height * (grid / g) ** 2)
    offsets, _ = _step_weights(pot, eps)
    d = offsets[-1]
    assert np.isfinite(pot(d / eps))
    assert np.isinf(pot((d + 1) / eps)) or math.exp(-eps * pot((d + 1) / eps)) < 1e-18
    settings = ChainSettings(seed=4, n_samples=32, burn_in=10, n_chains=4)
    for mode in ("discrete", "continuous"):
        params = ModelParams(n_sites=6, epsilon=eps, macro_length=6 * eps, height_mode=mode)
        if mode == "discrete" and d == 0:
            with pytest.raises(ValueError, match="degenerate increment law"):
                sample_bridge_mcmc(params, pot, ZERO_BC, settings)
            continue
        laps = _laps(sample_bridge_mcmc(params, pot, ZERO_BC, settings))
        assert np.all(np.isfinite(pot(laps / eps)))


def test_lattice_truncation_is_one_cut_for_the_law_and_the_chain():
    # 3 - 5e-10 allows laps up to 2 on the integer lattice, for the free
    # sampler's law and the Metropolis chain alike
    params, pot, truncation = _discrete_params(6), GaussianPotential(0.1), 3.0 - 5e-10
    assert build_increment_dist(pot, params, truncation).values.max() == 2.0
    settings = ChainSettings(seed=5, n_samples=400, burn_in=20, n_chains=8)
    laps = _laps(sample_bridge_mcmc(params, pot, ZERO_BC, settings, truncation=truncation))
    assert np.abs(laps).max() == 2.0


def test_lattice_truncation_is_sized_before_allocating():
    # a cut of 1e8 laps each side would be 2e8 steps; it is refused at once
    with pytest.raises(ValueError, match="lower the truncation"):
        build_increment_dist(GaussianPotential(1.0), _discrete_params(6), 1e8)


def test_lattice_truncation_overflowing_its_lap_is_a_value_error():
    # 1e308 is finite but 1e308 * eps is not at eps = 2; the law and the
    # chain both refuse it as a value, not with an OverflowError from floor
    params = ModelParams(n_sites=2, epsilon=2.0, macro_length=4.0, height_mode="discrete")
    settings = ChainSettings(seed=0, n_samples=8)
    with pytest.raises(ValueError, match="truncation \\* eps must be finite"):
        build_increment_dist(GaussianPotential(1.0), params, 1e308)
    with pytest.raises(ValueError, match="truncation \\* eps must be finite"):
        sample_bridge_mcmc(params, GaussianPotential(1.0), ZERO_BC, settings, truncation=1e308)


def test_table_far_above_its_minimum_at_zero_is_degenerate_at_once():
    # Phi(0) = 1e5 over a minimum of 0 at the grid ends: on the lattice at
    # eps = 0.01 every step but 0 leaves the grid, so the law is one point
    pot = TabulatedPotential(np.array([-2.0, 0.0, 2.0]), np.array([0.0, 1e5, 0.0]))
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0, height_mode="discrete")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degenerate increment law"):
        build_increment_dist(pot, params)
    with pytest.raises(ValueError, match="degenerate increment law"):
        sigma2_increment(pot, params)
    assert time.perf_counter() - start < 1.0


def test_continuous_table_far_above_its_minimum_at_zero_draws_its_law():
    # the same table in continuous mode: its weight peaks at the grid ends,
    # exp(1000) times the weight at 0, and the inverse CDF must not overflow
    pot = TabulatedPotential(np.array([-2.0, 0.0, 2.0]), np.array([0.0, 1e5, 0.0]))
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    dist = build_increment_dist(pot, params)
    draws = dist.sample(np.random.default_rng(3), 200_000)
    assert np.all(np.isfinite(draws))
    assert draws.var() == pytest.approx(dist.sigma2, rel=0.01)


def test_barrier_table_transfer_taps_reach_the_continuous_bound():
    grid = np.arange(-300.0, 301.0, 100.0)
    pot = TabulatedPotential(grid, np.array([0.0, 0.0, 5000.0, 0.0, 5000.0, 0.0, 0.0]))
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    op = build_transfer(params, pot, TubeSpec(0.001))  # default mesh, a narrow tube
    step = op.delta / params.epsilon  # one mesh step in eta
    reach = op.tap_offsets.max() * step
    assert _step_bound(pot, params.epsilon) - step <= reach <= 300.0
    discrete = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0, height_mode="discrete")
    assert build_increment_dist(pot, discrete).values.tolist() == [-300.0, -200.0, -100.0,
                                                                   0.0, 100.0, 200.0, 300.0]


def test_table_wider_than_its_law_is_drawn_on_the_law():
    # Phi = x^2/2 on +-1e4 at eps = 1: the law ends near |x| = 9, and the
    # inverse CDF must resolve it rather than spread over the whole grid
    grid = np.linspace(-1e4, 1e4, 20001)
    pot = TabulatedPotential(grid, 0.5 * grid**2)
    params = ModelParams(n_sites=10, epsilon=1.0, macro_length=10.0)
    dist = build_increment_dist(pot, params)
    assert dist.values[-1] == 10.0
    draws = dist.sample(np.random.default_rng(4), 400_000)
    assert draws.var() == pytest.approx(dist.sigma2, rel=0.01)


def test_exact_gaussian_draw_takes_no_truncation():
    params = ModelParams(n_sites=10, epsilon=0.1, macro_length=1.0)
    with pytest.raises(ValueError, match="Gaussian increment is drawn exactly"):
        build_increment_dist(GaussianPotential(1.0), params, truncation=3.0)


def test_exact_bridge_pins_boundary():
    params = ModelParams(n_sites=20, epsilon=0.05, macro_length=1.0)
    bc = BoundaryConditions(xi_left=0.3, xi_right=-0.2, endpoint=1.5)
    s = sample_gaussian_bridge(params, GaussianPotential(1.0), bc,
                               ChainSettings(seed=1, n_samples=64))
    assert s.shape == (64, 22)
    assert_allclose(s[:, 0], 0.0, atol=0)
    assert_allclose(s[:, 1], bc.xi_left, atol=0)
    assert_allclose(s[:, 20], bc.endpoint + bc.xi_right, atol=1e-10)
    assert_allclose(s[:, 21], bc.endpoint, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 60), xi_left=st.floats(-5.0, 5.0), xi_right=st.floats(-5.0, 5.0),
       endpoint=st.floats(-20.0, 20.0), seed=st.integers(0, 2**32))
def test_exact_bridge_pins_random_boundary(n, xi_left, xi_right, endpoint, seed):
    params = ModelParams(n_sites=n, epsilon=1.0 / n, macro_length=1.0)
    bc = BoundaryConditions(xi_left=xi_left, xi_right=xi_right, endpoint=endpoint)
    s = sample_gaussian_bridge(params, GaussianPotential(1.0), bc,
                               ChainSettings(seed=seed, n_samples=16))
    # rounding scales with the unconditioned draws (eta ~ sigma = sqrt(N),
    # each adding eps * N of height) and with the pinned heights themselves;
    # the worst of 1,500 random cases used 1/75 of this bound
    tol = 1e-13 * n * (math.sqrt(n) + np.max(np.abs(s)))
    assert np.all(s[:, 0] == 0.0)
    assert np.all(s[:, 1] == xi_left)
    assert_allclose(s[:, n], endpoint + xi_right, rtol=0, atol=tol)
    assert_allclose(s[:, n + 1], endpoint, rtol=0, atol=tol)


def test_exact_bridge_midpoint_variance():
    params = ModelParams(n_sites=200, epsilon=0.005, macro_length=1.0)
    s = sample_gaussian_bridge(params, GaussianPotential(1.0), ZERO_BC,
                               ChainSettings(seed=5, n_samples=30_000))
    stats = estimate_theta_stats(s, [0.5], sigma=math.sqrt(200.0), epsilon=0.005)
    target = theta_cov(0.5, 0.5)
    assert abs(stats.cov[0, 0] - target) < 4.0 * stats.cov_se[0, 0] + 1e-4
    assert abs(stats.mean[0]) < 4.0 * stats.mean_se[0] + 1e-4


def test_exact_bridge_block_layout():
    # rows come in blocks of 8192, each from its own stream: a longer request
    # extends a shorter one and its second block is not a replay of the first
    params = ModelParams(n_sites=10, epsilon=0.1, macro_length=1.0)
    bc = BoundaryConditions(0.1, -0.05, 0.4)
    one, two = (sample_gaussian_bridge(params, GaussianPotential(2.0), bc,
                                       ChainSettings(seed=77, n_samples=m))
                for m in (8192, 8292))
    assert two.shape == (8292, 12)
    assert np.array_equal(two[:8192], one)
    assert not np.array_equal(two[8192:], one[:100])


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def test_exact_bridge_keeps_to_one_thread():
    # a one-thread computation uses no more CPU than wall time, whatever the
    # load on the machine.  A threaded BLAS product in the projection wakes a
    # second thread, which spins on after each call: the sleeps let a thread
    # woken before the draw fall asleep, and charge one woken by it
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    settings = ChainSettings(seed=1, n_samples=40_000)
    time.sleep(0.3)
    cpu, wall = _cpu_s(), time.perf_counter()
    sample_gaussian_bridge(params, GaussianPotential(1.0), ZERO_BC, settings)
    wall = time.perf_counter() - wall
    time.sleep(0.3)
    cpu = _cpu_s() - cpu
    assert cpu <= 1.2 * wall + 0.05, (cpu, wall)


def test_free_walk_moments():
    n = 50
    params = ModelParams(n_sites=n, epsilon=0.02, macro_length=1.0)
    dist = build_increment_dist(GaussianPotential(2.0), params)
    s = sample_free(params, dist, 0.0, ChainSettings(seed=9, n_samples=40_000))
    assert s.shape == (40_000, n + 2)
    assert_allclose(s[:, 0], 0.0, atol=0)
    assert_allclose(s[:, 1], 0.0, atol=0)  # xi1 = 0 start
    eps = params.epsilon
    x = (s[:, n + 1] - s[:, n]) / eps
    y = s[:, n + 1] / ((n + 1) * eps)
    var_x, cov_xy, var_y = xy_moments(n, n, dist.sigma2)
    assert np.mean(x * x) == pytest.approx(var_x, rel=0.03)
    assert np.mean(x * y) == pytest.approx(cov_xy, rel=0.03)
    assert np.mean(y * y) == pytest.approx(var_y, rel=0.03)


_TABLE_GRID = np.linspace(-40.0, 40.0, 81)


@pytest.mark.parametrize("pot", [
    PowerLawPotential(1.0, 1.5),
    PowerLawPotential(1.0, 4.0),
    TabulatedPotential(_TABLE_GRID, 0.5 * _TABLE_GRID**2),
], ids=["power-1.5", "power-4", "table"])
def test_free_walk_moments_of_continuous_laws(pot):
    # the inverse-CDF sampler draws the law whose variance sigma2_increment
    # reports, and carries that same variance bit for bit
    n = 50
    params = ModelParams(n_sites=n, epsilon=0.02, macro_length=1.0)
    dist = build_increment_dist(pot, params)
    assert dist.sigma2 == sigma2_increment(pot, params)
    s = sample_free(params, dist, 0.0, ChainSettings(seed=9, n_samples=40_000))
    eps = params.epsilon
    x = (s[:, n + 1] - s[:, n]) / eps
    y = s[:, n + 1] / ((n + 1) * eps)
    var_x, cov_xy, var_y = xy_moments(n, n, sigma2_increment(pot, params))
    assert np.mean(x * x) == pytest.approx(var_x, rel=0.03)
    assert np.mean(x * y) == pytest.approx(cov_xy, rel=0.03)
    assert np.mean(y * y) == pytest.approx(var_y, rel=0.03)


def test_free_walk_block_layout():
    params = _discrete_params(12)
    dist = build_increment_dist(ZERO_POT, params, truncation=1.0)
    one, two = (sample_free(params, dist, 0.0, ChainSettings(seed=3, n_samples=m))
                for m in (8192, 8292))
    assert two.shape == (8292, 14)
    assert np.array_equal(two[:8192], one)
    assert not np.array_equal(two[8192:], one[:100])


def test_mcmc_visits_all_bridge_states():
    # under the hard |lap| <= 1 cut the N=4 bridge has exactly three states,
    # (phi_2, phi_3) in {(0,0), (1,1), (-1,-1)}; single-site moves alone
    # freeze at the start state, so this guards the block-shift moves
    params = _discrete_params(4)
    settings = ChainSettings(seed=13, n_samples=64 * 400, burn_in=300, thin=2,
                             n_chains=64)
    s = sample_bridge_mcmc(params, ZERO_POT, ZERO_BC, settings, truncation=1.0)
    pairs = set(zip(s[:, 2].tolist(), s[:, 3].tolist()))
    assert pairs == {(0.0, 0.0), (1.0, 1.0), (-1.0, -1.0)}


def test_mcmc_marginal_matches_enumeration():
    # Gaussian weights on the same three-state bridge: P(phi_2 = 0) = 1/(1+2e^-2)
    params = _discrete_params(4)
    pot = GaussianPotential(1.0)
    spec = EnumerationSpec(params, pot, support=(-1.0, 0.0, 1.0))
    bridge = lambda phi: (phi[:, 4] == 0.0) & (phi[:, 5] == 0.0)
    exact = enumerate_configs(spec, event=bridge,
                              statistic=lambda phi: (phi[:, 2] == 0.0).astype(float))
    assert exact.conditional_mean == pytest.approx(1.0 / (1.0 + 2.0 * math.exp(-2.0)),
                                                   rel=1e-12)
    settings = ChainSettings(seed=21, n_samples=64 * 700, burn_in=400, thin=2,
                             n_chains=64)
    s = sample_bridge_mcmc(params, pot, ZERO_BC, settings, truncation=1.0)
    measured = float(np.mean(s[:, 2] == 0.0))
    assert measured == pytest.approx(exact.conditional_mean, abs=0.02)


def test_mcmc_respects_truncation():
    params = _discrete_params(6)
    settings = ChainSettings(seed=29, n_samples=2000, burn_in=100, thin=1)
    s = sample_bridge_mcmc(params, ZERO_POT, ZERO_BC, settings, truncation=1.0)
    laps = s[:, 2:] - 2.0 * s[:, 1:-1] + s[:, :-2]
    assert np.max(np.abs(laps)) <= 1.0


def test_mcmc_pins_boundary_heights():
    params = _discrete_params(6)
    bc = BoundaryConditions(1.0, -1.0, 2.0)
    settings = ChainSettings(seed=31, n_samples=500, burn_in=50, thin=1)
    s = sample_bridge_mcmc(params, GaussianPotential(1.0), bc, settings)
    assert_allclose(s[:, 0], 0.0, atol=0)
    assert_allclose(s[:, 1], 1.0, atol=0)
    assert_allclose(s[:, 6], 1.0, atol=0)  # endpoint + xi_right
    assert_allclose(s[:, 7], 2.0, atol=0)


def test_mcmc_fully_pinned_smallest_chain():
    # N = 2 leaves no free heights: the sampler returns the pinned bridge
    # without running a sweep, so a million burn-in sweeps cost nothing; a
    # pinned start outside the cut is still refused
    params = _discrete_params(2)
    settings = ChainSettings(seed=1, n_samples=32, burn_in=10 ** 6)
    start = time.perf_counter()
    s = sample_bridge_mcmc(params, ZERO_POT, BoundaryConditions(1.0, -1.0, 2.0), settings,
                           truncation=1.0)
    assert time.perf_counter() - start < 5.0
    assert np.array_equal(s, np.tile([0.0, 1.0, 1.0, 2.0], (32, 1)))
    with pytest.raises(ValueError, match="initial configuration violates the truncation"):
        sample_bridge_mcmc(params, ZERO_POT, BoundaryConditions(0.0, 0.0, 50.0), settings,
                           truncation=1.0)


def test_mcmc_single_state_n3():
    # N = 3, zero boundary, |lap| <= 1: lap_2 = -2 phi_2 forces phi_2 = 0
    params = _discrete_params(3)
    settings = ChainSettings(seed=2, n_samples=200, burn_in=20, thin=1)
    s = sample_bridge_mcmc(params, ZERO_POT, ZERO_BC, settings, truncation=1.0)
    assert np.array_equal(s, np.zeros((200, 5)))


def test_mcmc_rejects_infeasible_start():
    params = _discrete_params(8)
    bc = BoundaryConditions(0.0, 0.0, 50.0)
    settings = ChainSettings(seed=2, n_samples=4)
    with pytest.raises(ValueError):
        sample_bridge_mcmc(params, ZERO_POT, bc, settings, truncation=1.0)


def test_mcmc_worker_determinism():
    # 150 chains are three blocks of at most 64, so two workers share them
    params = _discrete_params(6)
    settings = ChainSettings(seed=43, n_samples=600, burn_in=60, thin=1, n_chains=150)
    runs = [
        sample_bridge_mcmc(params, GaussianPotential(1.0), ZERO_BC, settings,
                           workers=w, truncation=1.0)
        for w in (1, 2)
    ]
    assert runs[0].shape == (600, 8)
    assert np.array_equal(runs[0], runs[1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**32))
def test_block_rounds_are_legal_disjoint_and_cover_every_block(n, seed):
    rounds, per_round = sampling._block_layout(n)
    assert rounds * per_round >= n - 2  # block shifts per chain and sweep
    sweeps, chains = 30, 8
    uniforms = np.random.default_rng(seed).random((sweeps * rounds, chains, n - 2 * per_round))
    lo, hi = sampling._block_rounds(uniforms, n)
    assert lo.shape == hi.shape == (sweeps * rounds, chains, per_round)
    assert np.all((2 <= lo) & (lo < hi) & (hi <= n - 1))
    # a shift of heights lo..hi changes laps lo-1, lo, hi and hi+1; no lap
    # may appear twice in one round of one chain
    laps = np.sort(np.concatenate((lo - 1, lo, hi, hi + 1), axis=2), axis=2)
    assert np.all(np.diff(laps, axis=2) > 0)
    if n <= 7:
        seen = set(zip(lo.ravel().tolist(), hi.ravel().tolist()))
        assert seen == {(a, b) for a in range(2, n - 1) for b in range(a + 1, n)}


def test_block_rounds_can_hold_every_legal_block():
    # a round of k blocks is 2k positions at least 2 apart in 1..n-1; every
    # block (lo, hi) has positions lo-1 and hi, and the round can hold it if
    # a greedy left-to-right fill around those two reaches 2k positions
    for n in range(4, 41):
        k = sampling._block_layout(n)[1]
        for q1 in range(1, n - 2):
            for q2 in range(q1 + 2, n):
                taken = [q1, q2]
                for q in range(1, n):
                    if all(abs(q - t) >= 2 for t in taken):
                        taken.append(q)
                assert len(taken) >= 2 * k, (n, q1, q2)


def test_mcmc_continuous_gaussian_bridge_keeps_the_exact_variance():
    # continuous Gaussian chains start at exact equilibrium draws; any move
    # that breaks detailed balance drifts the per-site variance away from the
    # exact bridge's over these sweeps
    n, chains, draws = 10, 64, 150
    params = ModelParams(n_sites=n, epsilon=1.0, macro_length=float(n))
    pot = GaussianPotential(1.0)
    bc = BoundaryConditions(0.5, -0.3, 2.0)
    s = sample_bridge_mcmc(params, pot, bc, ChainSettings(seed=17, n_samples=chains * draws,
                                                          burn_in=300, thin=4, n_chains=chains))
    exact = sample_gaussian_bridge(params, pot, bc, ChainSettings(seed=18, n_samples=100_000))
    free = slice(2, n)
    mean = exact[:, free].mean(axis=0)
    dev2 = (exact[:, free] - mean) ** 2
    var_exact, se_exact = dev2.mean(axis=0), dev2.std(axis=0) / math.sqrt(len(dev2))
    # chains are independent; draws within one are not
    per_chain = ((s[:, free] - mean) ** 2).reshape(chains, draws, n - 2).mean(axis=1)
    var_mcmc = per_chain.mean(axis=0)
    se_mcmc = per_chain.std(axis=0, ddof=1) / math.sqrt(chains)
    z = np.abs(var_mcmc - var_exact) / np.hypot(se_mcmc, se_exact)
    assert float(z.max()) <= 4.0


@st.composite
def _mcmc_cases(draw, kinds=("lattice", "lattice_cut", "gaussian", "power")):
    """(params, pot, bc, truncation): lattice chains with and without a lap
    cut, continuous Gaussian and power-law chains, on random boundaries."""
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(kinds))
    if kind.startswith("lattice"):
        eps = draw(st.sampled_from([1.0, 0.5]))
        params = ModelParams(n_sites=n, epsilon=eps, macro_length=n * eps,
                             height_mode="discrete")
        xl, xr = (float(draw(st.integers(-3, 3))) for _ in range(2))
        bc = BoundaryConditions(xl, xr, float(draw(st.integers(-12, 12))))
        pot = draw(st.sampled_from([GaussianPotential(0.7), PowerLawPotential(1.0, 1.5)]))
        truncation = None
        if kind == "lattice_cut":
            # the smallest cut the clamped-cubic start satisfies, so some laps sit on it
            start = _laps(sampling._clamped_cubic_init(params, bc))
            truncation = max(1.0, float(np.max(np.abs(start)))) / eps
        return params, pot, bc, truncation
    params = ModelParams(n_sites=n, epsilon=1.0 / n, macro_length=1.0)
    xl, xr = (draw(st.floats(-2.0, 2.0)) for _ in range(2))
    bc = BoundaryConditions(xl, xr, draw(st.floats(-5.0, 5.0)))
    alpha = draw(st.sampled_from([1.5, 4.0]))
    pot = GaussianPotential(1.0) if kind == "gaussian" else PowerLawPotential(1.0, alpha)
    return params, pot, bc, None


@settings(max_examples=40, deadline=None)
@given(case=_mcmc_cases(), seed=st.integers(0, 2**32), burn_in=st.integers(0, 5),
       thin=st.integers(1, 2))
def test_mcmc_moves_keep_the_pinned_walk_and_area(case, seed, burn_in, thin):
    # every move changes laps by delta * c with sum c = sum j c_j = 0, so the
    # four pinned heights and the mapped boundary (X_N, Y_N) never move
    params, pot, bc, truncation = case
    n, eps = params.n_sites, params.epsilon
    s = sample_bridge_mcmc(params, pot, bc, ChainSettings(seed, 24, burn_in, thin, 8),
                           truncation=truncation)
    assert s.shape == (24, n + 2)
    assert np.all(s[:, 0] == 0.0)
    assert np.all(s[:, 1] == bc.xi_left)
    assert np.all(s[:, n] == bc.endpoint + bc.xi_right)
    assert np.all(s[:, n + 1] == bc.endpoint)
    x, y = _walk_area(_laps(s) / eps)
    scale = n * max(1.0, float(np.max(np.abs(s)))) / eps
    target = map_boundary(bc, params)
    assert_allclose(x[:, -1], target[0], rtol=0, atol=1e-12 * scale)
    assert_allclose(y[:, -1], target[1], rtol=0, atol=1e-12 * scale)
    if params.height_mode == "discrete":
        assert np.all(s == np.round(s))
    if truncation is not None:
        assert np.max(np.abs(_laps(s))) <= truncation * eps + 1e-9


def _table_entries(coeffs, lap_max):
    """(step, old laps) of each `_move_table` entry, decoded from its index."""
    side, m = 2 * lap_max + 1, len(coeffs)
    for code in range(2 * side ** m):
        digits = np.unravel_index(code, (2,) + (side,) * m)
        yield 2 * digits[0] - 1, np.array(digits[1:]) - lap_max


@pytest.mark.parametrize("coeffs", [sampling._FLIP, sampling._SHIFT], ids=["flip", "shift"])
@pytest.mark.parametrize("lap_max", [1, 2, 3])
@pytest.mark.parametrize("pot, eps", [(GaussianPotential(1.0), 1.0),
                                      (PowerLawPotential(1.0, 1.5), 0.5)],
                         ids=["gaussian", "power"])
def test_move_table_is_the_general_energy_change_bitwise(coeffs, lap_max, pot, eps):
    # every entry is the general move's energy change of its one move, to the
    # bit: the tabled lattice chain then makes every accept decision alike
    energy = sampling._lap_energy(pot, eps, float(lap_max))
    table = sampling._move_table(energy, eps, coeffs, lap_max)
    assert table.shape == (2 * (2 * lap_max + 1) ** len(coeffs),)
    for entry, (step, old) in zip(table, _table_entries(coeffs, lap_max)):
        new = old + step * coeffs
        general = sampling._energy_change(energy, eps, old[None], new[None])[0]
        assert entry.tobytes() == general.tobytes()
        assert np.isfinite(entry) == bool(np.all(np.abs(new) <= lap_max))


@pytest.mark.parametrize("coeffs", [sampling._FLIP, sampling._SHIFT], ids=["flip", "shift"])
def test_move_table_rejects_off_a_tabulated_grid_inside_the_cut(coeffs):
    # the grid ends at |lap| = 2 inside the cut at 3: a move to a lap of 3
    # is +inf, and a tuple holding a lap of 3, which no chain can occupy, is
    # nan; neither accepts at any threshold
    pot = TabulatedPotential(np.arange(-2.0, 3.0), np.array([3.0, 1.0, 0.0, 1.0, 3.0]))
    energy = sampling._lap_energy(pot, 1.0, 3.0)
    table = sampling._move_table(energy, 1.0, coeffs, 3)
    for entry, (step, old) in zip(table, _table_entries(coeffs, 3)):
        new = old + step * coeffs
        if np.any(np.abs(old) > 2):
            assert np.isnan(entry)
        elif np.any(np.abs(new) > 2):
            assert entry == np.inf
        else:
            general = sampling._energy_change(energy, 1.0, old[None], new[None])[0]
            assert entry.tobytes() == general.tobytes()
            continue
        assert not entry < np.finfo(float).max


def _tabled_and_general(params, pot, bc, settings, truncation):
    """sample_bridge_mcmc's bytes, and how many tables it built, once as it
    runs and once with the table cap at 0, which forces the general move."""
    built = []
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        make = sampling._move_table
        mp.setattr(sampling, "_move_table", lambda *a: built.append(a) or make(*a))
        for cap in (sampling._MOVE_TABLE_CAP, 0):
            mp.setattr(sampling, "_MOVE_TABLE_CAP", cap)
            runs.append(sample_bridge_mcmc(params, pot, bc, settings,
                                           truncation=truncation).tobytes())
    return runs, len(built)


@settings(max_examples=25, deadline=None)
@given(case=_mcmc_cases(kinds=("lattice_cut",)), seed=st.integers(0, 2**32),
       burn_in=st.integers(0, 5), thin=st.integers(1, 2))
def test_tabled_lattice_chain_is_the_general_chain(case, seed, burn_in, thin):
    (tabled, general), _ = _tabled_and_general(*case[:3], ChainSettings(seed, 24, burn_in,
                                                                         thin, 8), case[3])
    assert tabled == general


def test_tabled_lattice_chain_is_the_general_chain_at_the_unit_cut():
    # the oracle's chain: N = 6 on the lattice, laps cut at 1
    params = ModelParams(6, 1.0, 6.0, height_mode="discrete")
    settings = ChainSettings(seed=5, n_samples=2000, burn_in=50, thin=2, n_chains=64)
    (tabled, general), built = _tabled_and_general(params, GaussianPotential(1.0), ZERO_BC,
                                                   settings, 1.0)
    assert built == 2  # one table per move type, and only in the first run
    assert tabled == general


def test_lattice_chain_past_the_table_cap_takes_the_general_move():
    # a cut at 20 needs 2 * 41^4 shift entries, over the cap: no table is
    # built.  The potential is flat out to 30, so only the cut keeps the
    # laps, the start's steepest of which sit on it, from going past 20
    params = ModelParams(6, 1.0, 6.0, height_mode="discrete")
    bc = BoundaryConditions(0.0, 0.0, 140.0)
    assert np.max(np.abs(_laps(sampling._clamped_cubic_init(params, bc)))) == 20.0
    flat = TabulatedPotential(np.array([-30.0, 30.0]), np.zeros(2))
    settings = ChainSettings(seed=9, n_samples=512, burn_in=20, thin=1, n_chains=64)
    (s, _), built = _tabled_and_general(params, flat, bc, settings, 20.0)
    assert built == 0
    assert np.max(np.abs(_laps(np.frombuffer(s).reshape(-1, 8)))) == 20.0


_POWER_2 = PowerLawPotential(1.0, 2.0)


@settings(max_examples=40, deadline=None)
@given(case=_mcmc_cases(), seed=st.integers(0, 2**32), burn_in=st.integers(0, 9),
       thin=st.integers(1, 3), chains=st.integers(1, 9), budget=st.integers(1, 1 << 15))
@example(case=(ModelParams(2, 0.5, 1.0), _POWER_2, BoundaryConditions(0.3, -0.2, 0.5), None),
         seed=1, burn_in=3, thin=2, chains=3, budget=1)
@example(case=(ModelParams(3, 1 / 3, 1.0), _POWER_2, BoundaryConditions(0.3, -0.2, 0.5), None),
         seed=2, burn_in=5, thin=3, chains=4, budget=5000)
@example(case=(_discrete_params(4), GaussianPotential(0.7), BoundaryConditions(1.0, 0.0, 2.0),
               2.0), seed=3, burn_in=7, thin=2, chains=5, budget=9000)
def test_mcmc_bytes_do_not_depend_on_the_sweep_chunk(case, seed, burn_in, thin, chains, budget):
    # a chunk draws its sweeps in the stream order of single sweeps and
    # records the same draws, so the default chunk, one sweep per chunk and
    # chunks whose edges fall inside burn-in or between thinned draws all
    # give the same chains
    params, pot, bc, truncation = case
    settings = ChainSettings(seed, 3 * chains, burn_in, thin, chains)
    runs = set()
    with pytest.MonkeyPatch.context() as mp:
        for size in (sampling._SWEEP_CHUNK_BYTES, 1, budget):
            mp.setattr(sampling, "_SWEEP_CHUNK_BYTES", size)
            runs.add(sample_bridge_mcmc(params, pot, bc, settings,
                                        truncation=truncation).tobytes())
    assert len(runs) == 1


# sha256 of two lattice chains as the sampler drew them one sweep at a time.
# Their arithmetic is exact on any CPU: integer laps, Gaussian energies of
# small integers and a clamped-cubic start at least 0.25 from a rounding tie
_LATTICE_GOLDEN = {
    "cut 1, tabled": "0f6db9bfd20b6671ece7a32a10034e1101ecd78cc66c165773adba5d8d18a8e7",
    "uncut": "fe11d66283b1aebc5d3d6ce7e1922ca9805cf3a3388533865bd4fc6510901d25",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_lattice_chains_keep_their_bytes(workers):
    # 150 chains split 64 + 64 + 22, whose blocks chunk their 55 sweeps
    # differently; 16 uncut chains run 59 sweeps in several chunks
    cut = sample_bridge_mcmc(_discrete_params(6), GaussianPotential(1.0), ZERO_BC,
                             ChainSettings(5, 900, 37, 3, 150), workers=workers,
                             truncation=1.0)
    uncut = sample_bridge_mcmc(_discrete_params(8), GaussianPotential(0.7),
                               BoundaryConditions(-2.0, -2.0, 3.0),
                               ChainSettings(19, 400, 9, 2, 16), workers=workers)
    got = {name: hashlib.sha256(s.tobytes()).hexdigest()
           for name, s in (("cut 1, tabled", cut), ("uncut", uncut))}
    assert got == _LATTICE_GOLDEN


def test_mcmc_memory_does_not_grow_with_the_sweeps():
    # the draws, layouts and recorded laps live a chunk of sweeps at a time:
    # ten times the burn-in leaves the peak beside the output where it was
    params = _discrete_params(6)
    extra = []
    for burn_in in (200, 2270):
        settings = ChainSettings(seed=4, n_samples=64 * 30, burn_in=burn_in, n_chains=64)
        tracemalloc.start()
        try:
            out = sample_bridge_mcmc(params, GaussianPotential(1.0), ZERO_BC, settings,
                                     truncation=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - out.nbytes)
    assert extra[1] <= extra[0] + (16 << 10), extra


def test_mcmc_default_width_moves_steep_power_law_chains():
    # alpha = 4 at eps = 0.01: laps have standard deviation ~0.018, and the
    # default proposal width must be on that scale, so that without burn-in
    # most interior heights already change from one sweep to the next
    n = 100
    params = ModelParams(n_sites=n, epsilon=0.01, macro_length=1.0)
    settings = ChainSettings(seed=3, n_samples=16 * 4, burn_in=0, thin=1, n_chains=16)
    s = sample_bridge_mcmc(params, PowerLawPotential(1.0, 4.0), ZERO_BC, settings)
    chains = s.reshape(16, 4, n + 2)[:, :, 2:n]
    moved = float(np.mean(chains[:, 1:] != chains[:, :-1]))
    assert moved > 0.9


@pytest.mark.parametrize("pot", [PowerLawPotential(1.0, 1.5), GaussianPotential(1.0)],
                         ids=["power-1.5", "gaussian"])
def test_mcmc_burn_in_only_discards_sweeps(pot):
    # the proposal width never changes, so 64 burn-in sweeps are the first 64
    # draws of each chain of a run without burn-in; the untruncated Gaussian
    # starts from exact draws, which both runs take from the same stream
    n, chains, kept = 20, 8, 5
    params = ModelParams(n_sites=n, epsilon=0.05, macro_length=1.0)
    bc = BoundaryConditions(0.1, -0.2, 0.3)
    burnt = sample_bridge_mcmc(params, pot, bc, ChainSettings(7, chains * kept, 64, 1, chains))
    full = sample_bridge_mcmc(params, pot, bc,
                              ChainSettings(7, chains * (kept + 64), 0, 1, chains))
    full = full.reshape(chains, kept + 64, n + 2)[:, 64:].reshape(-1, n + 2)
    assert np.array_equal(burnt, full)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools `_pool_map` opens; a fake pool records its size
    and maps in-process, so no process starts."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(sampling.os, "cpu_count", lambda: 2)
    # _pool_map imports the executor when it needs one, so patch it at its source
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    return sizes


def test_pool_never_exceeds_cpu_count(pool_sizes):
    jobs = list(range(200))
    assert list(sampling._pool_map(abs, jobs, 200)) == jobs
    assert list(sampling._pool_map(abs, jobs[:1], 200)) == jobs[:1]
    assert list(sampling._pool_map(abs, jobs, 1)) == jobs
    assert pool_sizes == [2]


def test_pooled_chain_blocks_stream_into_the_output(pool_sizes):
    # each block is copied into the output as the pool yields it, so the
    # run holds one block's result and temporaries beside the output, not
    # all 16 blocks
    n, per_chain, chains = 10, 80, 16 * 64
    params = ModelParams(n_sites=n, epsilon=0.1, macro_length=1.0)
    settings = ChainSettings(seed=2, n_samples=chains * per_chain, n_chains=chains)
    block = 64 * per_chain * (n + 2) * 8
    tracemalloc.start()
    try:
        out = sample_bridge_mcmc(params, GaussianPotential(1.0), ZERO_BC, settings, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pool_sizes == [2]
    assert out.nbytes == 16 * block
    assert peak - out.nbytes < 10 * block, (peak - out.nbytes) / block


def test_theta_stats_shapes_and_constant_input():
    samples = np.zeros((100, 12))
    stats = estimate_theta_stats(samples, [0.25, 0.5, 0.75], sigma=1.0, epsilon=0.1)
    assert stats.times.shape == (3,)
    assert stats.mean.shape == (3,)
    assert stats.cov.shape == (3, 3)
    assert_allclose(stats.mean, 0.0, atol=0)
    assert_allclose(stats.cov, 0.0, atol=0)
    assert_allclose(stats.mean_se, 0.0, atol=0)
    assert_allclose(stats.cov_se, 0.0, atol=0)


@pytest.mark.parametrize("sigma, epsilon", [(0.0, 0.1), (-1.0, 0.1), (math.nan, 0.1),
                                            (math.inf, 0.1), (1.0, 0.0), (1.0, math.inf)])
def test_theta_stats_need_a_positive_finite_scale(sigma, epsilon):
    with pytest.raises(ValueError, match="must be positive and finite"):
        estimate_theta_stats(np.zeros((10, 12)), [0.5], sigma=sigma, epsilon=epsilon)


@pytest.mark.parametrize("times", [[math.nan], [0.5, math.nan]])
def test_theta_stats_refuse_nan_times(times):
    with pytest.raises(ValueError, match=r"times must lie in \[0, 1\]"):
        estimate_theta_stats(np.zeros((10, 12)), times, sigma=1.0, epsilon=0.1)


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("xi1", [math.inf, -math.inf, math.nan])
def test_sample_free_needs_a_finite_first_gradient(mode, xi1):
    params = ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0, height_mode=mode)
    dist = build_increment_dist(GaussianPotential(1.0), params)
    with pytest.raises(ValueError, match="xi1 must be finite"):
        sample_free(params, dist, xi1, ChainSettings(seed=0, n_samples=4))


@pytest.mark.parametrize("fields, error", [
    ({"seed": 2.5}, r"seed must be an integer in \[0, 2\^64\), got 2.5"),
    ({"seed": True}, r"seed must be an integer in \[0, 2\^64\), got True"),
    ({"seed": "3"}, r"seed must be an integer in \[0, 2\^64\), got '3'"),
    ({"seed": np.uint64(2**63), "n_samples": 4.7}, "n_samples must be an integer, got 4.7"),
    ({"n_chains": 2.9}, "n_chains must be an integer, got 2.9"),
    ({"thin": True}, "thin must be an integer, got True"),
    ({"burn_in": np.float64(3.0)}, "burn_in must be an integer"),
], ids=["float-seed", "bool-seed", "string-seed", "float-n-samples", "float-n-chains",
        "bool-thin", "numpy-float-burn-in"])
def test_chain_settings_take_integers_only(fields, error):
    # the library's rule is the CLI's: a count or seed is never truncated
    with pytest.raises(ValueError, match=error):
        ChainSettings(**{"seed": 0, "n_samples": 4, **fields})


def test_chain_settings_take_numpy_integers():
    params = ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0)
    dist = build_increment_dist(GaussianPotential(1.0), params)
    draws = [sample_free(params, dist, 0.0, ChainSettings(seed=s, n_samples=n))
             for s, n in ((np.uint64(2**64 - 1), np.int32(5)), (2**64 - 1, 5))]
    assert_allclose(draws[0], draws[1], rtol=0, atol=0)


def test_theta_stats_match_the_walk_area_route():
    # heights give the area path directly; the laps -> walk/area route is the reference
    n, eps, sigma, times = 100, 0.01, 10.0, np.array([0.0, 0.1, 0.33, 0.5, 0.97, 1.0])
    params = ModelParams(n_sites=n, epsilon=eps, macro_length=1.0)
    bc = BoundaryConditions(xi_left=0.3, xi_right=-0.2, endpoint=1.5)
    s = sample_gaussian_bridge(params, GaussianPotential(1.0), bc,
                               ChainSettings(seed=8, n_samples=2000))
    _, y = _walk_area(_laps(s) / eps)
    theta = np.concatenate([np.zeros((len(s), 1)), y / (sigma * math.sqrt(n))], axis=1)
    pos = times * n
    i0 = np.minimum(pos.astype(int), n - 1)
    vals = theta[:, i0] * (1.0 - (pos - i0)) + theta[:, i0 + 1] * (pos - i0)
    stats = estimate_theta_stats(s, times, sigma, eps)
    assert np.abs(vals.mean(axis=0)).max() > 0.1  # drifted
    assert_allclose(stats.mean, vals.mean(axis=0), rtol=0, atol=1e-13)
    assert_allclose(stats.cov, np.cov(vals.T), rtol=0, atol=1e-13)


def test_theta_stats_never_copy_the_sample_matrix():
    samples = np.random.default_rng(2).normal(size=(20_000, 102))
    tracemalloc.start()
    try:
        estimate_theta_stats(samples, np.linspace(0.1, 0.9, 9), sigma=1.0, epsilon=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples.nbytes / 2


def _jackknife_cov_se_reference(vals):
    """Jackknife standard error of the covariance from the full (m, k, k)
    stack of leave-one-out covariances."""
    m = vals.shape[0]
    u = vals - vals.mean(axis=0)
    cov = (u.T @ u) / (m - 1)
    prod = u[:, :, None] * u[:, None, :]
    loo = ((m - 1) * cov - prod * (m / (m - 1))) / (m - 2)
    loo_mean = loo.mean(axis=0)
    return np.sqrt((m - 1) / m * np.sum((loo - loo_mean) ** 2, axis=0))


@pytest.mark.parametrize("m, k", [(5, 1), (5, 3), (6, 9), (40, 2), (500, 9)])
def test_theta_cov_se_matches_leave_one_out_stack(m, k):
    n, eps, sigma = 10, 0.1, 2.0
    rng = np.random.default_rng(m * 100 + k)
    samples = np.concatenate([np.zeros((m, 1)), rng.normal(size=(m, n + 1))], axis=1)
    times = np.arange(1, k + 1) / 10.0
    stats = estimate_theta_stats(samples, times, sigma=sigma, epsilon=eps)
    # theta(t/N) = Y_t / (sigma sqrt(N)) with Y_t = (N+1)^-1 sum_{j<=t} (t+1-j) eta_j,
    # linearly interpolated
    grid = np.arange(n + 1) / n
    vals = np.empty((m, k))
    for i, row in enumerate(samples):
        eta = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / eps
        y = [sum((t + 1 - j) * eta[j - 1] for j in range(1, t + 1)) / (n + 1)
             for t in range(1, n + 1)]
        vals[i] = np.interp(times, grid, np.concatenate(([0.0], y)) / (sigma * math.sqrt(n)))
    assert_allclose(stats.cov_se, _jackknife_cov_se_reference(vals), rtol=1e-12, atol=0)


def test_samples_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(7, 5))
    target = tmp_path / "samples.csv"
    samples_to_csv(samples, target, comment="config=0011aabbccdd seed=7")
    with open(target) as fh:
        first = fh.readline()
    assert first.startswith("# config=")
    back = samples_from_csv(target)
    assert_allclose(back, samples, rtol=0, atol=0)


def test_read_table_needs_data_rows_that_fit_the_header(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# config=0011aabbccdd seed=7\nphi_0,phi_1\n")
    with pytest.raises(ValueError, match="no data rows"):
        samples_from_csv(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("phi_0,phi_1\n1,2,3\n")
    with pytest.raises(ValueError, match="3 columns, header has 2"):
        samples_from_csv(ragged)


def test_samples_frame_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(11, 8))
    target = tmp_path / "samples.bin"
    samples_to_frame(samples, target)
    with open(target, "rb") as fh:
        assert fh.read(6) == b"\x93NUMPY"
    back = samples_from_frame(target)
    assert back.dtype == np.float64
    assert_allclose(back, samples, rtol=0, atol=0)
    assert_allclose(back, np.load(target), rtol=0, atol=0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.bin"]


def test_samples_from_frame_rejects_anything_but_a_float_matrix(tmp_path):
    samples = np.arange(12.0).reshape(3, 4)
    npz = tmp_path / "samples.npz"
    np.savez(npz, samples=samples)
    truncated = tmp_path / "truncated.bin"
    samples_to_frame(samples, truncated)
    truncated.write_bytes(truncated.read_bytes()[:-8])
    flat = tmp_path / "flat.bin"
    samples_to_frame(samples.ravel(), flat)
    text = tmp_path / "samples.csv"
    samples_to_csv(samples, text)
    for path in (npz, truncated, flat, text):
        with pytest.raises(ValueError, match=str(path)):
            samples_from_frame(path)


_LATTICE4 = ModelParams(n_sites=4, epsilon=1.0, macro_length=4.0, height_mode="discrete")
_CONT4 = ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0)
_EIGHT = ChainSettings(seed=0, n_samples=8)


def _csv(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, error", [
    (lambda tmp: ChainSettings(seed=0, n_samples=0), "n_samples must be >= 1"),
    (lambda tmp: ChainSettings(seed=0, n_samples=1, thin=0),
     "thin must be >= 1 and burn_in >= 0"),
    (lambda tmp: ChainSettings(seed=0, n_samples=1, burn_in=-1),
     "thin must be >= 1 and burn_in >= 0"),
    (lambda tmp: ChainSettings(seed=0, n_samples=1, n_chains=0),
     "n_chains must be >= 1 when given"),
    (lambda tmp: sample_free(_LATTICE4, build_increment_dist(GaussianPotential(1.0), _LATTICE4,
                                                             2.0), 0.5, _EIGHT),
     "discrete mode needs an integer first gradient"),
    (lambda tmp: sample_gaussian_bridge(_CONT4, PowerLawPotential(1.0, 4.0), ZERO_BC, _EIGHT),
     "exact bridge sampling needs the Gaussian potential"),
    (lambda tmp: sample_gaussian_bridge(_LATTICE4, GaussianPotential(1.0), ZERO_BC, _EIGHT),
     "exact bridge sampling needs continuous heights"),
    (lambda tmp: sample_bridge_mcmc(_LATTICE4, GaussianPotential(1.0),
                                    BoundaryConditions(0.0, 0.5, 0.0), _EIGHT, truncation=2.0),
     "discrete mode needs integer boundary data, xi_right=0.5"),
    (lambda tmp: estimate_theta_stats(np.zeros((3, 6)), [0.5], 1.0, 0.25),
     "need a 2d sample matrix with at least 4 rows"),
    (lambda tmp: samples_from_csv(_csv(tmp / "h.csv", "h_0,h_1\n0,1\n")),
     "{tmp}/h.csv: expected phi_* header columns"),
], ids=["n-samples", "thin", "burn-in", "n-chains", "lattice-xi1", "bridge-power-law",
        "bridge-lattice", "mcmc-lattice-boundary", "theta-stats-rows", "csv-header"])
def test_sampling_refusals(tmp_path, call, error):
    with pytest.raises(ValueError) as err:
        call(tmp_path)
    assert str(err.value) == error.format(tmp=tmp_path)
