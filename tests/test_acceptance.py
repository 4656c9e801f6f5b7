"""Release gate: ten numbered end-to-end checks.

Each test prints one "[criterion N] PASS/FAIL" line (run pytest with -s
to see them) and carries the same tolerance in its assertion, so a bare
pytest -v also gives exactly one row per criterion.  Sampling checks use
fixed seeds and were sized so the statistical margins are comfortable at
those seeds.
"""

import json
import math
import time

import numpy as np

from semiflex.cli import main
from semiflex.confinement import confinement_sweep, exponent_fit
from semiflex.gaussian import exact_boundary_density, sigma2_increment, theta_cov
from semiflex.ldp import (
    limit_log_mgf,
    macro_boundary,
    mean_profile,
    sharp_ld_probability,
    solve_tilts,
)
from semiflex.model import (
    BoundaryConditions,
    ContinuumProfile,
    GaussianPotential,
    ModelParams,
    PowerLawPotential,
    TabulatedPotential,
    build_increment_dist,
    continuum_energy_check,
)
from semiflex.oracle import (
    bridge_marginal_check,
    mapped_boundary_density,
    path_sum_check,
)
from semiflex.sampling import (
    ChainSettings,
    estimate_theta_stats,
    sample_bridge_mcmc,
    sample_free,
    sample_gaussian_bridge,
)

GRID = np.array([0.25, 0.5, 0.75])


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_bridge_covariance():
    t0 = time.monotonic()
    params = ModelParams(n_sites=400, epsilon=1.0 / 400, macro_length=1.0)
    pot = GaussianPotential(1.0)
    settings = ChainSettings(seed=101, n_samples=100_000)
    samples = sample_gaussian_bridge(params, pot, BoundaryConditions(0.0, 0.0, 0.0),
                                     settings)
    sigma = math.sqrt(sigma2_increment(pot, params))
    stats = estimate_theta_stats(samples, GRID, sigma, params.epsilon)
    wall = time.monotonic() - t0

    target = np.array([[theta_cov(s, t) for t in GRID] for s in GRID])
    err_var = abs(stats.cov[1, 1] * 192.0 - 1.0)
    err_cov = float(np.max(np.abs(stats.cov / target - 1.0)))
    ok = err_var <= 0.05 and err_cov <= 0.05 and wall < 60.0
    _report(1, ok, f"Var theta(1/2) off by {err_var:.2%}, covariance entries off by "
                   f"at most {err_cov:.2%} (limit 5%), {wall:.1f} s (limit 60)")


def test_criterion_02_drift_mean_profile():
    params = ModelParams(n_sites=400, epsilon=1.0 / 400, macro_length=1.0)
    pot = GaussianPotential(1.0)
    sigma = math.sqrt(sigma2_increment(pot, params))
    scale = params.epsilon * sigma * math.sqrt(params.n_sites)
    # a = -(xi_l + xi_r)/scale and b = (endpoint/(N+1) - xi_l)/scale, so this
    # boundary realizes (a, b) = (1, 0) and the limit mean is t^2 (t - 1)
    bc = BoundaryConditions(0.0, -scale, 0.0)
    settings = ChainSettings(seed=202, n_samples=20_000)
    samples = sample_gaussian_bridge(params, pot, bc, settings)
    stats = estimate_theta_stats(samples, GRID, sigma, params.epsilon)
    z = np.abs(stats.mean - GRID**2 * (GRID - 1.0)) / stats.mean_se
    ok = float(z.max()) <= 4.0
    _report(2, ok, f"mean theta off t^2(t-1) by at most {float(z.max()):.2f} "
                   "standard errors (limit 4)")


def test_criterion_03_free_measure_clt():
    params = ModelParams(n_sites=400, epsilon=1.0 / 400, macro_length=1.0)
    pot = GaussianPotential(1.0)
    dist = build_increment_dist(pot, params)
    settings = ChainSettings(seed=303, n_samples=100_000)
    samples = sample_free(params, dist, 0.0, settings)
    scale = math.sqrt(sigma2_increment(pot, params) * params.n_sites)
    x = (samples[:, -1] - samples[:, -2]) / params.epsilon / scale
    y = samples[:, -1] / ((params.n_sites + 1) * params.epsilon) / scale
    emp = np.array([np.mean(x * x), np.mean(x * y), np.mean(y * y)])
    rel = float(np.max(np.abs(emp / np.array([1.0, 0.5, 1.0 / 3.0]) - 1.0)))
    ok = rel <= 0.03
    _report(3, ok, f"second moments of (X, Y)/(sigma sqrt(N)) within {rel:.2%} "
                   "of [[1, 1/2], [1/2, 1/3]] (limit 3%)")


def test_criterion_04_exact_density_vs_sharp_asymptotics():
    mgf = limit_log_mgf(GaussianPotential(1.0))
    ratios = [sharp_ld_probability(200, xl, xr, 0.0, 1.0, mgf)
              / exact_boundary_density(200, 1.0, 1.0, xl, xr)
              for xl, xr in ((0.0, 0.0), (0.01, 0.01), (0.02, -0.01), (0.05, 0.0))]
    off = float(np.max(np.abs(np.array(ratios) - 1.0)))

    # brute-force change of variables: the closed form takes slopes in
    # standardized step units, so feed it xi * sqrt(N); what remains is the
    # constant Jacobian N^2 / (c (N + 1)), identical for every slope pair
    consts = []
    for n in (3, 5, 10):
        root = math.sqrt(n)
        rs = [mapped_boundary_density(n, 1.0, 1.0, root * xl, root * xr)
              / exact_boundary_density(n, 1.0, 1.0, xl, xr)
              for xl, xr in ((0.0, 0.0), (0.02, -0.01), (0.05, 0.05), (0.3, 0.2))]
        consts.append((n, rs[0], (max(rs) - min(rs)) / rs[0]))
    ok_const = all(spread < 5e-7 and abs(ratio * (n + 1) / n**2 - 1.0) < 1e-9
                   for n, ratio, spread in consts)
    ok = off <= 0.05 and ok_const
    reported = ", ".join(f"N={n}: {ratio:.6f}" for n, ratio, _ in consts)
    _report(4, ok, f"sharp asymptotics / exact density off by at most {off:.2%} "
                   f"at N=200 (limit 5%); oracle ratio constant at {reported}")


def test_criterion_05_tilt_solver_duality():
    mgf = limit_log_mgf(GaussianPotential(1.0))
    sol_a = solve_tilts(1.0, 0.0, 0.0, 1.0, mgf)
    sol_b = solve_tilts(0.0, 0.0, 1.0, 1.0, mgf)
    err = max(abs(sol_a.u_star - 2.0), abs(sol_a.v_star + 6.0),
              abs(sol_b.u_star + 6.0), abs(sol_b.v_star - 12.0))
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        xl, xr, slope = rng.uniform(-2.0, 2.0, size=3)
        sol = solve_tilts(xl, xr, slope, rng.uniform(0.5, 2.0), mgf)
        worst = max(worst, float(np.max(np.abs(sol.residual))))
    ok = err <= 1e-10 and worst < 1e-9
    _report(5, ok, f"closed-form tilts (2, -6) and (-6, 12) off by {err:.1e} "
                   f"(limit 1e-10); worst duality residual {worst:.1e} over "
                   "100 random inputs (limit 1e-9)")


def test_criterion_06_mean_profile_quadrature_and_mcmc():
    mgf = limit_log_mgf(GaussianPotential(1.0))
    ts = np.linspace(0.0, 1.0, 21)
    worst_quad = 0.0
    for xl, xr in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3), (2.0, 1.0)):
        prof = mean_profile(ts, xl, xr, 0.0, 1.0, mgf)
        cubic = ts * (1.0 - ts) ** 2 * xl + ts**2 * (1.0 - ts) * xr
        worst_quad = max(worst_quad, float(np.max(np.abs(prof - cubic))))

    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    # the Gaussian spelled as a power law, so the conditioned mean runs
    # through the numerical moment generating function end to end
    pot = PowerLawPotential(0.5, 2.0)
    bc = macro_boundary(params, 30.0, -15.0, 10.0)
    settings = ChainSettings(seed=11, n_samples=64 * 80, burn_in=400, thin=5,
                             n_chains=64)
    samples = sample_bridge_mcmc(params, pot, bc, settings)
    n1 = params.n_sites + 1
    jj = np.rint(GRID * n1).astype(int)
    target = mean_profile(jj / n1, 30.0, -15.0, 10.0, 1.0, limit_log_mgf(pot))
    per = settings.n_samples // settings.n_chains
    chain_means = samples[:, jj].reshape(settings.n_chains, per, 3).mean(axis=1)
    chain_means /= params.epsilon * n1
    se = chain_means.std(axis=0, ddof=1) / math.sqrt(settings.n_chains)
    z = np.abs(chain_means.mean(axis=0) - target) / se
    ok = worst_quad <= 1e-10 and float(z.max()) <= 4.0
    _report(6, ok, f"quadrature profile off the cubic by {worst_quad:.1e} "
                   f"(limit 1e-10); MCMC conditional mean off by at most "
                   f"{float(z.max()):.2f} standard errors (limit 4)")


def test_criterion_07_confinement_exponent():
    t0 = time.monotonic()
    params = ModelParams(n_sites=250_000, epsilon=1.0, macro_length=250_000.0,
                         height_mode="discrete")
    rhos = np.geomspace(0.02, 0.2, 8)
    rows = confinement_sweep(params, GaussianPotential(1.0), rhos)
    fs = np.array([row.free_energy for row in rows])
    fit = exponent_fit(rhos, fs)
    wall = time.monotonic() - t0
    decreasing = bool(np.all(np.diff(fs) < 0.0))
    ok = decreasing and -0.77 <= fit.slope <= -0.57 and wall < 600.0
    _report(7, ok, f"log-log slope {fit.slope:.4f} (window [-0.77, -0.57]), "
                   f"F strictly decreasing: {decreasing}, {wall:.1f} s (limit 600)")


def test_criterion_08_oracle_equivalence():
    support = (-1.0, 0.0, 1.0)
    pots = (GaussianPotential(1.0),
            TabulatedPotential(np.array(support), np.zeros(3)))
    bc = BoundaryConditions(0.0, 0.0, 0.0)
    worst_path = worst_marg = 0.0
    for n in range(2, 7):
        params = ModelParams(n, 1.0, float(n), height_mode="discrete")
        for pot in pots:
            for rho in (0.7, 1.3):
                path_sum, enumerated = path_sum_check(params, pot, support, rho)
                worst_path = max(worst_path, abs(path_sum - enumerated))
            settings = ChainSettings(seed=7, n_samples=480_000, burn_in=501, thin=2,
                                     n_chains=64)
            samples = sample_bridge_mcmc(params, pot, bc, settings, truncation=1.0)
            if n == 2:
                # every height is pinned by the boundary, nothing free to compare
                assert np.all(samples == 0.0)
                continue
            check = bridge_marginal_check(samples, params, pot, support,
                                          range(2, n), range(-3, 4))
            worst_marg = max(worst_marg, float(check.error.max()))
    ok = worst_path <= 1e-12 and worst_marg <= 0.01
    _report(8, ok, f"transfer path sum vs enumeration off by {worst_path:.1e} "
                   f"(limit 1e-12); worst MCMC marginal error {worst_marg:.4f} "
                   "(limit 0.01)")


def test_criterion_09_continuum_energy():
    pot = GaussianPotential(1.0)
    square = ContinuumProfile(f=lambda x: x * x, d2f=lambda x: 2.0 + 0.0 * x)
    rows = continuum_energy_check(square, pot, [0.1, 0.05, 0.025, 0.0125])
    ok_square = all(row.error < 10.0 * row.eps and abs(row.integral - 2.0) < 1e-12
                    for row in rows)
    cubic = ContinuumProfile(f=lambda x: x**3, d2f=lambda x: 6.0 * x)
    first, second = continuum_energy_check(cubic, pot, [0.1, 0.05])
    ratio = second.error / first.error
    ok = ok_square and 0.3 <= ratio <= 0.7
    _report(9, ok, f"|H - 2c| < 10 eps for f = x^2 at four step sizes: {ok_square}; "
                   f"cubic halving ratio {ratio:.3f} (window [0.3, 0.7])")


def test_criterion_10_bridge_byte_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "model": {"n_sites": 100, "epsilon": 0.01, "macro_length": 1.0},
        "boundary": {"xi_left": 0.3, "xi_right": -0.2, "endpoint": 0.5},
    }))
    blobs = []
    for workers, name in ((1, "w1"), (4, "w4")):
        out = tmp_path / name
        code = main(["bridge", "--config", str(cfg_path), "--n", "2000",
                     "--seed", "42", "--workers", str(workers),
                     "--out", str(out)])
        assert code == 0
        blobs.append((out / "bridge.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(10, ok, "bridge.csv byte-identical for worker counts 1 and 4 at a "
                    "fixed seed" if ok else "bridge.csv bytes differ between "
                    "worker counts 1 and 4")
