"""Command-line front door: config handling, output stamps, determinism."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semiflex import confinement, oracle
from semiflex.cli import main
from semiflex.gaussian import exact_boundary_density, q_matrix
from semiflex.model import continuum_energy_check
from semiflex.sampling import _read_table, samples_from_csv, samples_from_frame


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _first_line(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as err:
        main(["sample", "--n", "10", "--workers", workers, "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "sample.csv").exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_profile_points_below_one_is_a_usage_error(tmp_path, capsys, points):
    with pytest.raises(SystemExit) as err:
        main(["profile", "--points", points, "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "--points" in capsys.readouterr().err
    assert not (tmp_path / "profile.csv").exists()


@pytest.mark.parametrize("command, output", [("profile", "profile.csv"),
                                             ("exact-gauss", "exact_gauss.json")])
def test_non_finite_boundary_data_rejected(tmp_path, capsys, command, output):
    assert main([command, "--xi-left", "nan", "--out", str(tmp_path)]) == 1
    assert "xi_left must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / output).exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"model": {"n_sights": 4}})
    assert main(["qmatrix", "--times", "0.5", "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_removed_sweeps_key_rejected(tmp_path, capsys):
    # sampler.sweeps never changed a run and is no longer a config key
    cfg = _write_config(tmp_path, {"sampler": {"sweeps": 1000}})
    assert main(["bridge", "--config", cfg, "--n", "10", "--out", str(tmp_path)]) == 1
    assert "unknown config key sampler.sweeps" in capsys.readouterr().err
    assert not (tmp_path / "bridge.csv").exists()


def test_removed_tube_rho_key_rejected(tmp_path, capsys):
    # confine takes its rhos from --rho-min/--rho-max/--rho-steps; tube.rho
    # was read by nothing and is no longer a config key
    cfg = _write_config(tmp_path, {"tube": {"rho": 0.1}})
    assert main(["confine", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown config key tube.rho" in capsys.readouterr().err
    assert not (tmp_path / "confine.csv").exists()


def test_malformed_config_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["qmatrix", "--times", "0.5", "--config", str(path),
                 "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"potential": {"kind": "power", "alpha": 2.0}})
    assert main(["exact-gauss", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "gaussian potential only" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tilts", "profile"])
def test_table_potential_rejected_by_ldp_commands(tmp_path, capsys, command):
    grid = np.linspace(-50.0, 50.0, 2001)
    cfg = _write_config(tmp_path, {"potential": {
        "kind": "table", "grid": grid.tolist(), "values": (0.5 * grid**2).tolist()}})
    assert main([command, "--xi-left", "1.0", "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "table" in err and "use potential kind 'gaussian' or 'power'" in err


def test_qmatrix_frozen_output(tmp_path):
    assert main(["qmatrix", "--times", "0.5", "--out", str(tmp_path)]) == 0
    path = tmp_path / "qmatrix.csv"
    stamp = _first_line(path)
    assert stamp.startswith("# config=") and "seed=0" in stamp
    labels, matrix = _read_table(path)
    assert labels == ["0", "0.5", "1"]
    assert_allclose(matrix, q_matrix([0.5]), atol=1e-16)


def test_qmatrix_csv_uses_newline_endings(tmp_path):
    assert main(["qmatrix", "--times", "0.25,0.5", "--out", str(tmp_path)]) == 0
    path = tmp_path / "qmatrix.csv"
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.count(b"\n") == 6  # comment, header, four rows
    labels, matrix = _read_table(path)
    assert labels == ["0", "0.25", "0.5", "1"]
    assert_allclose(matrix, q_matrix([0.25, 0.5]), atol=1e-16)


def test_config_hash_independent_of_output_dir(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["qmatrix", "--times", "0.25,0.75", "--out", str(d)]) == 0
    stamps = [_first_line(d / "qmatrix.csv") for d in dirs]
    assert stamps[0] == stamps[1]


def test_config_hash_tracks_seed(tmp_path):
    for seed, name in ((1, "a"), (2, "b")):
        assert main(["qmatrix", "--times", "0.5", "--seed", str(seed),
                     "--out", str(tmp_path / name)]) == 0
    a = _first_line(tmp_path / "a" / "qmatrix.csv")
    b = _first_line(tmp_path / "b" / "qmatrix.csv")
    assert a != b
    assert "seed=1" in a and "seed=2" in b


def test_exact_gauss_payload(tmp_path):
    cfg = _write_config(tmp_path, {"model": {"n_sites": 3, "epsilon": 1.0,
                                             "macro_length": 3.0}})
    assert main(["exact-gauss", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "exact_gauss.json").read_text())
    assert data["n_sites"] == 3
    assert data["density"] == pytest.approx(
        exact_boundary_density(3, 1.0, 3.0, 0.0, 0.0), rel=1e-15)
    assert len(data["config_hash"]) == 12


def test_tilts_frozen_solution(tmp_path):
    assert main(["tilts", "--xi-left", "1.0", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "tilts.json").read_text())
    assert data["u_star"] == pytest.approx(2.0, abs=1e-9)
    assert data["v_star"] == pytest.approx(-6.0, abs=1e-9)
    assert data["rate"] == pytest.approx(2.0, abs=1e-9)
    assert data["det_hessian"] == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert data["residual"] < 1e-10


def test_tilts_outside_the_admissible_range_fail_cleanly(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"potential": {"kind": "power", "kappa": 1.0,
                                                 "alpha": 1.0}})
    assert main(["tilts", "--config", cfg, "--xi-left", "3",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: tilt solver line search stalled; boundary data likely outside "
        "the admissible range"]
    assert not (tmp_path / "tilts.json").exists()


def test_profile_matches_cubic(tmp_path):
    assert main(["profile", "--xi-left", "1.0", "--points", "5",
                 "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "profile.csv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == ["t", "profile"]
    ts = np.array([float(r[0]) for r in rows[1:]])
    vals = np.array([float(r[1]) for r in rows[1:]])
    assert_allclose(ts, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    assert_allclose(vals, ts * (1 - ts) ** 2, atol=1e-9)
    assert (tmp_path / "tilts.json").exists()


def test_sample_csv_output(tmp_path):
    cfg = _write_config(tmp_path, {"model": {"n_sites": 10, "epsilon": 0.1,
                                             "macro_length": 1.0}})
    assert main(["sample", "--config", cfg, "--n", "50",
                 "--out", str(tmp_path)]) == 0
    samples = samples_from_csv(tmp_path / "sample.csv")
    assert samples.shape == (50, 12)
    assert _first_line(tmp_path / "sample.csv").startswith("# config=")


def test_sample_discrete_table_without_truncation(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 6, "epsilon": 1.0, "macro_length": 6.0,
                  "height_mode": "discrete"},
        "potential": {"kind": "table", "grid": [-1.0, 0.0, 1.0], "values": [0.0, 0.0, 0.0]}})
    assert main(["sample", "--config", cfg, "--n", "40", "--out", str(tmp_path)]) == 0
    samples = samples_from_csv(tmp_path / "sample.csv")
    assert samples.shape == (40, 8)
    assert set(np.diff(samples, n=2, axis=1).ravel()) <= {-1.0, 0.0, 1.0}


def test_bridge_binary_output(tmp_path):
    cfg = _write_config(tmp_path, {"model": {"n_sites": 10, "epsilon": 0.1,
                                             "macro_length": 1.0}})
    assert main(["bridge", "--config", cfg, "--n", "20", "--fmt", "bin",
                 "--out", str(tmp_path)]) == 0
    samples = samples_from_frame(tmp_path / "bridge.bin")
    assert samples.shape == (20, 12)


def test_bridge_worker_byte_identity(tmp_path):
    cfg = _write_config(tmp_path, {"model": {"n_sites": 20, "epsilon": 0.05,
                                             "macro_length": 1.0}})
    blobs = []
    for workers, name in ((1, "w1"), (4, "w4")):
        out = tmp_path / name
        assert main(["bridge", "--config", cfg, "--n", "256", "--seed", "42",
                     "--workers", str(workers), "--out", str(out)]) == 0
        blobs.append((out / "bridge.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_mcmc_bridge_worker_byte_identity(tmp_path):
    # 150 chains make three chain blocks spread over two processes; the output
    # matches only if the blocks come back in block order
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 6, "epsilon": 1.0, "macro_length": 6.0,
                  "height_mode": "discrete"},
        "sampler": {"burn_in": 20, "n_chains": 150},
    })
    blobs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main(["bridge", "--config", cfg, "--method", "mcmc", "--n", "300",
                     "--truncation", "1.0", "--seed", "8", "--workers", str(workers),
                     "--out", str(out)]) == 0
        blobs.append((out / "bridge.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].count(b"\n") == 302  # comment, header, 300 rows


def test_bridge_mcmc_smoke(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 6, "epsilon": 1.0, "macro_length": 6.0,
                  "height_mode": "discrete"},
        "potential": {"kind": "table", "grid": [-1.0, 0.0, 1.0],
                      "values": [0.0, 0.0, 0.0]},
        "sampler": {"burn_in": 50},
    })
    assert main(["bridge", "--config", cfg, "--method", "mcmc", "--n", "100",
                 "--truncation", "1.0", "--out", str(tmp_path)]) == 0
    samples = samples_from_csv(tmp_path / "bridge.csv")
    assert samples.shape == (100, 8)
    laps = samples[:, 2:] - 2.0 * samples[:, 1:-1] + samples[:, :-2]
    assert np.max(np.abs(laps)) <= 1.0


def test_bridge_mcmc_truncated_gaussian_starts_inside_the_cut(tmp_path):
    # an exact Gaussian draw has laps past a cut of 3 increment sds, so a
    # truncated Gaussian chain starts from the clamped cubic instead
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 20, "epsilon": 0.05, "macro_length": 1.0},
        "potential": {"kind": "gaussian"},
        "sampler": {"burn_in": 50},
    })
    assert main(["bridge", "--config", cfg, "--method", "mcmc", "--n", "100",
                 "--truncation", "3", "--out", str(tmp_path)]) == 0
    samples = samples_from_csv(tmp_path / "bridge.csv")
    assert samples.shape == (100, 22)
    laps = samples[:, 2:] - 2.0 * samples[:, 1:-1] + samples[:, :-2]
    assert np.max(np.abs(laps)) <= 3 * 0.05 + 1e-9


def test_bridge_mcmc_table_potential_stays_on_its_grid(tmp_path):
    # no --truncation: the lap cut defaults to the table's domain, so no
    # proposal evaluates the potential off its grid
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 8, "epsilon": 1.0, "macro_length": 8.0,
                  "height_mode": "discrete"},
        "potential": {"kind": "table", "grid": [-3.0, -1.0, 0.0, 1.0, 3.0],
                      "values": [2.0, 0.5, 0.0, 0.5, 2.0]},
        "sampler": {"burn_in": 50},
    })
    assert main(["bridge", "--config", cfg, "--method", "mcmc", "--n", "200",
                 "--out", str(tmp_path)]) == 0
    samples = samples_from_csv(tmp_path / "bridge.csv")
    laps = samples[:, 2:] - 2.0 * samples[:, 1:-1] + samples[:, :-2]
    assert np.max(np.abs(laps)) <= 3.0
    assert np.max(np.abs(laps)) > 1.0  # the cut is the grid's, not a tighter one


def test_bridge_mcmc_continuous_table_default_width(tmp_path):
    # no --width: the proposal scale comes from the table's increment
    # variance, integrated cell by cell between the grid's kinks
    grid = [-3.0, -1.0, 0.0, 1.0, 3.0]
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 8, "epsilon": 0.05, "macro_length": 0.4},
        "potential": {"kind": "table", "grid": grid,
                      "values": [0.5 * x * x for x in grid]},
        "sampler": {"burn_in": 50},
    })
    assert main(["bridge", "--config", cfg, "--method", "mcmc", "--n", "100",
                 "--out", str(tmp_path)]) == 0
    assert samples_from_csv(tmp_path / "bridge.csv").shape == (100, 10)


@pytest.mark.parametrize("argv", [
    ["bridge", "--method", "mcmc", "--n", "64"],
    ["theta-stats", "--method", "mcmc", "--n", "64"],
    ["confine", "--mesh", "0.5"],
], ids=["bridge", "theta-stats", "confine"])
def test_continuous_power_law_commands_read_the_step_variance(tmp_path, argv):
    # kappa |x|^3 at eps = 1: every command that reads the increment variance
    # (the proposal width, the theta scale, the tube radius) runs
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 10, "epsilon": 1.0, "macro_length": 10.0},
        "potential": {"kind": "power", "kappa": 1.0, "alpha": 3.0},
        "sampler": {"burn_in": 20},
    })
    assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 0


def test_theta_stats_payload(tmp_path):
    cfg = _write_config(tmp_path, {"model": {"n_sites": 50, "epsilon": 0.02,
                                             "macro_length": 1.0}})
    assert main(["theta-stats", "--config", cfg, "--n", "2000",
                 "--times", "0.5", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "theta_stats.json").read_text())
    assert data["times"] == [0.5]
    assert len(data["cov"]) == 1 and len(data["cov"][0]) == 1
    # zero boundary data: variance near the limit value 1/192
    assert data["cov"][0][0] == pytest.approx(1.0 / 192.0, rel=0.25)


def test_confine_outputs_and_exponent_fit(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 300, "epsilon": 1.0, "macro_length": 300.0,
                  "height_mode": "discrete"},
    })
    assert main(["confine", "--config", cfg, "--rho-min", "0.5", "--rho-max",
                 "5.0", "--rho-steps", "5", "--svg", "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "confine_fit.json").read_text())
    assert {"config_hash", "seed", "slope", "intercept", "r2"} <= set(fit)
    svg = (tmp_path / "confine.svg").read_text()
    assert svg.startswith("<!-- config=")
    assert "<svg" in svg

    # feed the sweep back through the standalone fitter
    assert main(["exponent-fit", "--data", str(tmp_path / "confine.csv"),
                 "--out", str(tmp_path)]) == 0
    refit = json.loads((tmp_path / "exponent_fit.json").read_text())
    assert refit["slope"] == pytest.approx(fit["slope"], abs=1e-12)
    assert refit["r2"] == pytest.approx(fit["r2"], abs=1e-12)


def test_confine_scaled_free_energy_column(tmp_path):
    # F_scaled = F rho^(2/3) c^(1/3) tends to 2^(-2/3) A = 0.69522 as the
    # tube widens (A = 1.1036, Burkhardt 1997); here R runs from 8 to 86
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 300, "epsilon": 1.0, "macro_length": 300.0,
                  "height_mode": "discrete"},
    })
    assert main(["confine", "--config", cfg, "--rho-min", "0.5", "--rho-max",
                 "5.0", "--rho-steps", "5", "--out", str(tmp_path)]) == 0
    header, values = _read_table(tmp_path / "confine.csv")
    assert header == ["rho", "F", "lambda_max", "states", "mesh_delta", "F_scaled"]
    rho, f, scaled = values[:, 0], values[:, 1], values[:, 5]
    assert_allclose(scaled, f * rho ** (2.0 / 3.0) * 300.0 ** (1.0 / 3.0), rtol=1e-15)
    assert_allclose(scaled, 0.69522, rtol=0.01)


def test_confine_default_config_fails_before_solving(tmp_path, capsys, monkeypatch):
    # the half-mesh operator of the first rho is over the state cap; the sweep
    # must say so up front instead of after a long power iteration
    calls = []
    monkeypatch.setattr(confinement, "power_iteration", lambda *a, **k: calls.append(a))
    assert main(["confine", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "rho=0.02, half-mesh check" in err
    assert "11123475 states, above the cap 4000000" in err
    assert "--mesh" in err
    assert calls == []
    assert not (tmp_path / "confine.csv").exists()


@pytest.mark.parametrize("flags, reason", [
    (["--rho-min", "0.05", "--rho-max", "0.1"], "span at least one decade"),
    (["--rho-steps", "4"], "at least 5 points"),
])
def test_confine_unfittable_sweep_fails_before_solving(tmp_path, capsys, monkeypatch,
                                                       flags, reason):
    # the exponent fit would refuse these rho points, so no operator is sized
    calls = []
    monkeypatch.setattr(confinement, "confinement_sweep", lambda *a, **k: calls.append(a))
    assert main(["confine", *flags, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert reason in err
    assert all(flag in err for flag in ("--rho-steps", "--rho-min", "--rho-max"))
    assert calls == []
    assert not (tmp_path / "confine.csv").exists()


@pytest.mark.parametrize("command", [["confine"], ["theta-stats", "--method", "mcmc"]],
                         ids=["confine", "theta-stats"])
def test_degenerate_lattice_law_fails_before_writing(tmp_path, capsys, command):
    # the default config on the lattice: at eps = 0.01 a unit lap weighs
    # exp(-50) of the zero lap, below the 1e-18 cut, so the law is one point
    cfg = _write_config(tmp_path, {"model": {"height_mode": "discrete"}})
    out = tmp_path / "out"
    assert main([*command, "--config", cfg, "--out", str(out)]) == 1
    assert "degenerate increment law" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("truncation", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", [["sample"], ["bridge", "--method", "mcmc"]],
                         ids=["sample", "bridge-mcmc"])
@pytest.mark.parametrize("model, potential", [
    ({"n_sites": 6, "epsilon": 1.0, "macro_length": 6.0, "height_mode": "discrete"},
     {"kind": "gaussian", "kappa": 1.0}),
    ({"n_sites": 6, "epsilon": 1.0, "macro_length": 6.0},
     {"kind": "power", "kappa": 1.0, "alpha": 1.5}),
], ids=["lattice-gaussian", "continuous-power"])
def test_truncation_outside_its_range_is_one_error_line(tmp_path, capsys, truncation,
                                                        command, model, potential):
    cfg = _write_config(tmp_path, {"model": model, "potential": potential})
    out = tmp_path / "out"
    assert main([*command, "--n", "8", "--truncation", truncation, "--config", cfg,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: truncation must be positive and finite, got {float(truncation)}"]
    assert not out.exists()


def test_exponent_fit_plain_columns(tmp_path):
    rhos = np.geomspace(0.1, 1.0, 6)
    path = tmp_path / "data.csv"
    path.write_text("rho,F\n" + "\n".join(
        f"{r:.17g},{2.0 * r ** (-2.0 / 3.0):.17g}" for r in rhos) + "\n")
    assert main(["exponent-fit", "--data", str(path), "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "exponent_fit.json").read_text())
    assert fit["slope"] == pytest.approx(-2.0 / 3.0, abs=1e-10)
    assert fit["intercept"] == pytest.approx(math.log(2.0), abs=1e-10)


def test_exponent_fit_needs_a_rho_and_f_header(tmp_path, capsys):
    # without a header the first data row would be taken for one and dropped
    rhos = np.geomspace(0.01, 1.0, 7)
    fs = 2.0 * rhos ** (-2.0 / 3.0)
    fs[0] *= 3.0
    path = tmp_path / "bare.csv"
    path.write_text("".join(f"{r:.17g},{f:.17g}\n" for r, f in zip(rhos, fs)))
    assert main(["exponent-fit", "--data", str(path), "--out", str(tmp_path)]) == 1
    assert "must name the rho and F columns" in capsys.readouterr().err
    assert not (tmp_path / "exponent_fit.json").exists()


def test_continuum_check_refuses_a_profile_off_the_table(tmp_path, capsys):
    # f'' = 2 lies past a table on [-1, 1], where the potential is +inf
    cfg = _write_config(tmp_path, {"potential": {"kind": "table", "grid": [-1, 0, 1],
                                                 "values": [0.5, 0, 0.5]}})
    assert main(["continuum-check", "--config", cfg, "--shape", "square",
                 "--out", str(tmp_path)]) == 1
    assert "domain where the potential is finite" in capsys.readouterr().err
    assert not (tmp_path / "continuum_check.csv").exists()


def test_bridge_width_is_a_usage_error(tmp_path, capsys):
    # the proposal width is eps times the increment sd, adapted in burn-in
    with pytest.raises(SystemExit) as err:
        main(["bridge", "--method", "mcmc", "--width", "0.1", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_continuum_check_square(tmp_path):
    assert main(["continuum-check", "--shape", "square",
                 "--eps", "0.1,0.05", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "continuum_check.csv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == ["eps", "lattice_energy", "integral", "error"]
    for row in rows[1:]:
        eps, energy, integral, error = map(float, row)
        assert integral == pytest.approx(2.0, abs=1e-12)
        assert error < 10.0 * eps


def test_oracle_check_passes(tmp_path):
    assert main(["oracle-check", "--n-max", "4", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "oracle_check.json").read_text())
    assert data["all_passed"] is True
    assert data["n_max"] == 4
    assert [check["name"] for check in data["checks"]] == [
        "transfer_vs_enumeration_gaussian_n3", "transfer_vs_enumeration_zero_n3",
        "transfer_vs_enumeration_gaussian_n4", "transfer_vs_enumeration_zero_n4",
        "moment_var_x_n4", "moment_cov_xy_n4", "moment_var_y_n4",
        "free_sampler_mean_n4", "free_sampler_var_n4", "mcmc_bridge_marginal_n4",
        "functional_density_normalization",
    ]
    for check in data["checks"]:
        assert {"name", "measured", "bound", "passed"} <= set(check)
        assert check["passed"] is True
        assert check["measured"] <= check["bound"]


@pytest.mark.parametrize("n_max", ["2", "9"])
def test_oracle_check_rejects_n_max_outside_its_range(tmp_path, capsys, monkeypatch, n_max):
    # below 3 nothing is left to check, above 8 enumeration is capped: both
    # fail before any check runs
    calls = []
    monkeypatch.setattr(oracle, "enumerate_configs", lambda *a, **k: calls.append(a))
    assert main(["oracle-check", "--n-max", n_max, "--out", str(tmp_path)]) == 1
    assert "3..8" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "oracle_check.json").exists()
