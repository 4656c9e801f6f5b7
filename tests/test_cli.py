"""Command-line front door: config handling, output stamps, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import semiflex
from semiflex import confinement, oracle, sampling
from semiflex.cli import _positive_int, _Run, build_parser, main
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


@pytest.mark.parametrize("value", ["0.25,abc", ""], ids=["malformed", "empty"])
@pytest.mark.parametrize("command, flag", [("qmatrix", "--times"), ("theta-stats", "--times"),
                                           ("continuum-check", "--eps")])
def test_malformed_number_list_is_a_usage_error(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as err:
        main([command, flag, value, "--out", str(tmp_path)])
    assert err.value.code == 2
    assert f"argument {flag}: expected comma-separated numbers, got {value!r}" in \
        capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_theta_stats_checks_its_times_before_drawing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(sampling, "sample_bridge_mcmc", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(sampling, "sample_gaussian_bridge", lambda *a, **k: calls.append(a))
    assert main(["theta-stats", "--method", "mcmc", "--n", "6400", "--times", "0.5,1.5",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: times must lie in [0, 1]"]
    assert calls == []
    assert not any(tmp_path.iterdir())


_SEED_COMMANDS = [["sample", "--n", "8"], ["qmatrix", "--times", "0.5"]]


_SEED_ERROR = "seed must be an integer in [0, 2^64), got "


@pytest.mark.parametrize("flags, sampler, error", [
    (["--seed", "-1"], {}, _SEED_ERROR + "-1"),
    (["--seed", str(2 ** 64)], {}, _SEED_ERROR + str(2 ** 64)),
    ([], {"seed": "abc"}, _SEED_ERROR + "'abc'"),
    ([], {"seed": 2.5}, _SEED_ERROR + "2.5"),
    ([], {"seed": True}, _SEED_ERROR + "True"),
    ([], {"seed": -1}, _SEED_ERROR + "-1"),
    ([], {"thin": True}, "thin must be an integer, got True"),
    ([], {"burn_in": 1.5}, "burn_in must be an integer, got 1.5"),
    ([], {"n_chains": 2.9}, "n_chains must be an integer, got 2.9"),
    ([], {"n_chains": "2"}, "n_chains must be an integer, got '2'"),
], ids=["flag-negative", "flag-65-bits", "config-string", "config-float",
        "config-bool", "config-negative", "config-bool-thin", "config-float-burn-in",
        "config-float-n-chains", "config-string-n-chains"])
@pytest.mark.parametrize("command", _SEED_COMMANDS, ids=["sample", "qmatrix"])
def test_seed_must_be_an_unsigned_64_bit_integer(tmp_path, capsys, command, flags,
                                                 sampler, error):
    # one rule for the whole sampler section, for every command, sampling or
    # not: nothing is stamped with, or silently truncated from, a value outside it
    cfg = {"model": {"n_sites": 4, "epsilon": 0.25}, "sampler": sampler}
    out = tmp_path / "out"
    assert main([*command, *flags, "--config", _write_config(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()


@pytest.mark.parametrize("command", _SEED_COMMANDS, ids=["sample", "qmatrix"])
def test_largest_seed_is_stamped_as_given(tmp_path, command):
    seed = str(2 ** 64 - 1)
    assert main([*command, "--seed", seed, "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.iterdir()
    assert _first_line(path).endswith(f" seed={seed}")


@pytest.mark.parametrize("argv, stamped, stamp", [
    (["qmatrix", "--times", "0.25,0.5"], ["qmatrix.csv"], "94588ff93055"),
    (["profile", "--xi-left", "1.0", "--points", "5"], ["profile.csv", "tilts.json"],
     "ba49de4aa22f"),
    (["bridge", "--n", "4", "--xi-left", "0.2", "--endpoint", "0.1"], ["bridge.csv"],
     "e6fe3f6a6630"),
    (["theta-stats", "--n", "8", "--times", "0.5"], ["theta_stats.json"], "af7500294ed7"),
], ids=["qmatrix", "profile", "bridge", "theta-stats"])
def test_config_hash_is_pinned(tmp_path, argv, stamped, stamp):
    # the hash covers the default config and the command's own flags; bridge's
    # boundary flags enter it through the config
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name in stamped:
        path = tmp_path / name
        if name.endswith(".csv"):
            assert _first_line(path) == f"# config={stamp} seed=0"
        else:
            data = json.loads(path.read_text())
            assert list(data)[:2] == ["config_hash", "seed"]
            assert (data["config_hash"], data["seed"]) == (stamp, 0)


@pytest.mark.parametrize("name, spelled, explicit", [
    ("model", {"macro_length": 1}, {"macro_length": 1.0}),
    ("potential", {"kind": "power"}, {"kind": "power", "kappa": 1.0, "alpha": 2.0}),
    ("tube", {"grad_cut": 3}, {"grad_cut": 3.0}),
], ids=["integer-float", "kind-defaults", "integer-grad-cut"])
def test_one_run_spelled_two_ways_stamps_one_hash(tmp_path, name, spelled, explicit):
    # the config is hashed in one form: float-typed values as floats, a named
    # potential kind with its own defaults filled in
    stamps = []
    for i, section in enumerate((spelled, explicit)):
        cfg = _write_config(tmp_path, {name: section}, name=f"config{i}.json")
        assert main(["qmatrix", "--times", "0.5", "--config", cfg,
                     "--out", str(tmp_path / str(i))]) == 0
        stamps.append(_first_line(tmp_path / str(i) / "qmatrix.csv"))
    assert stamps[0] == stamps[1]


def test_exact_bridge_refuses_a_truncation(tmp_path, capsys):
    # only the Metropolis chain cuts its steps; the exact bridge would ignore it
    assert main(["bridge", "--n", "4", "--truncation", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--method mcmc" in err[0]
    assert not (tmp_path / "bridge.csv").exists()


@pytest.mark.parametrize("command, output", [("profile", "profile.csv"),
                                             ("exact-gauss", "exact_gauss.json")])
def test_non_finite_boundary_data_rejected(tmp_path, capsys, command, output):
    assert main([command, "--xi-left", "nan", "--out", str(tmp_path)]) == 1
    assert "xi_left must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / output).exists()


# 10^17 rows of 102 heights: numpy refuses the matrix without allocating it
# ("array is too big"), so the refusal never touches real memory
_TOO_MANY = str(10 ** 17)
_UNALLOCATABLE = (f"{_TOO_MANY} samples of 102 heights are too many to allocate: "
                  "lower sampler.n_samples (--n)")


@pytest.mark.parametrize("command, cfg, error", [
    (["sample"], {"sampler": {"n_samples": 4.7}}, "n_samples must be an integer, got 4.7"),
    (["sample", "--n", "4"], {"model": {"n_sites": 100.5}},
     "n_sites must be an integer, got 100.5"),
    (["sample", "--n", "4"], {"output_dir": 5},
     "config key output_dir must be a string, got a number"),
    (["sample", "--n", "4"], {"model": {"n_sites": None}},
     "config key model.n_sites must be a number, got null"),
    (["confine"], {"tube": {"grad_cut": "x"}},
     "config key tube.grad_cut must be a number or null, got a string"),
    (["sample", "--n", "4"], {"potential": {"kind": []}},
     "config key potential.kind must be a string, got a list"),
    (["sample", "--n", "4"], {"boundary": {"xi_left": False}},
     "config key boundary.xi_left must be a number, got a boolean"),
    (["qmatrix", "--times", "0.5"], {"model": {"epsilon": 10 ** 400}},
     "config key model.epsilon is too large for a float"),
    # 64 chains of 10^400 / 64 rows each: integer sizes reach the refusal
    (["bridge", "--method", "mcmc"], {"sampler": {"n_samples": 10 ** 400}},
     _UNALLOCATABLE.replace(_TOO_MANY, str(10 ** 400))),
    (["sample", "--n", "4"],
     {"potential": {"kind": "gaussian", "kappa": json.loads("1e400")}},
     "kappa must be positive and finite, got inf"),
    (["sample", "--n", _TOO_MANY], {}, _UNALLOCATABLE),
    (["bridge", "--n", _TOO_MANY], {}, _UNALLOCATABLE),
    (["bridge", "--method", "mcmc", "--n", _TOO_MANY], {}, _UNALLOCATABLE),
    (["theta-stats", "--n", _TOO_MANY], {}, _UNALLOCATABLE),
    (["bridge", "--method", "mcmc"], {"sampler": {"n_chains": 10 ** 17}},
     _UNALLOCATABLE + " or sampler.n_chains"),
], ids=["float-n-samples", "float-n-sites", "number-output-dir", "null-n-sites",
        "string-grad-cut", "list-kind", "bool-xi-left", "huge-epsilon", "huge-n-samples",
        "infinite-kappa", "unallocatable-sample", "unallocatable-bridge",
        "unallocatable-bridge-mcmc", "unallocatable-theta-stats",
        "unallocatable-bridge-mcmc-chains"])
def test_config_value_of_the_wrong_type_is_one_error_line(tmp_path, capsys, command, cfg,
                                                          error):
    # refused before anything runs, so no value is truncated or hashed as given
    # but run as another
    out = tmp_path / "out"
    assert main([*command, "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sample", "--n", "4"], ["bridge", "--n", "4"], ["theta-stats", "--n", "8"],
    ["qmatrix", "--times", "0.5"], ["exact-gauss"], ["profile", "--points", "5"],
    ["confine"], ["oracle-check"], ["continuum-check"],
], ids=lambda argv: argv[0])
def test_unknown_potential_kind_is_one_error_line_on_every_command(tmp_path, capsys,
                                                                   command):
    # the kind is checked where the config is merged, before any command runs
    cfg = _write_config(tmp_path, {"potential": {"kind": "harmonic"}})
    out = tmp_path / "out"
    assert main([*command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: unknown potential kind 'harmonic'"]
    assert not out.exists()


# confine writes its own fit to confine_fit.json, profile writes tilts.json,
# and confine.csv and confine_fit.json hold every number a plot would draw
@pytest.mark.parametrize("argv, error", [
    (["exponent-fit", "--data", "x.csv"], "invalid choice: 'exponent-fit'"),
    (["tilts", "--xi-left", "1.0"], "invalid choice: 'tilts'"),
    (["confine", "--svg"], "unrecognized arguments: --svg"),
], ids=["exponent-fit", "tilts", "confine-svg"])
def test_removed_command_or_flag_is_a_usage_error(tmp_path, capsys, argv, error):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path)])
    assert err.value.code == 2
    assert error in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


def test_table_potential_rejected_by_profile(tmp_path, capsys):
    grid = np.linspace(-50.0, 50.0, 2001)
    cfg = _write_config(tmp_path, {"potential": {
        "kind": "table", "grid": grid.tolist(), "values": (0.5 * grid**2).tolist()}})
    assert main(["profile", "--xi-left", "1.0", "--config", cfg,
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


_SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
_REQUIRED = {"qmatrix": ["--times", "0.5"]}


def _other_value(action) -> str:
    """A valid value of the flag that is not its default."""
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    return "3" if action.type in (int, _positive_int) else "0.0625"


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_every_flag_but_config_workers_and_out_enters_the_hash(command):
    # directly, or through the config value it overrides
    base = [command, *_REQUIRED.get(command, [])]
    stamp = _Run(build_parser().parse_args(base)).hash
    unhashed = []
    for action in _SUBCOMMANDS[command]._actions:
        flag = action.option_strings[0]
        if flag in ("-h", "--config", "--workers", "--out"):
            continue
        args = build_parser().parse_args([*base, flag, _other_value(action)])
        if _Run(args).hash == stamp:
            unhashed.append(flag)
    assert unhashed == []


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


def test_main_calls_in_one_process_carry_no_state(tmp_path):
    # main parses with one parser per process: theta-stats on its default
    # --times, a quartic profile and theta-stats again write the files, and
    # exit with the codes, that each writes in an interpreter of its own
    quartic = _write_config(tmp_path, {"potential": {"kind": "power", "kappa": 1.0,
                                                     "alpha": 4.0}})
    commands = {"theta": ["theta-stats", "--n", "64"],
                "profile": ["profile", "--config", quartic, "--xi-left", "0.4",
                            "--xi-right", "-0.2", "--slope", "0.3", "--points", "11"]}
    src = str(Path(semiflex.__path__[0]).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys; from semiflex.cli import main; sys.exit(main(sys.argv[1:]))"
    alone = {name: subprocess.run([sys.executable, "-c", code, *argv, "--out",
                                   str(tmp_path / name)], env=env, capture_output=True).returncode
             for name, argv in commands.items()}
    assert alone == {"theta": 0, "profile": 0}

    def files(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    for k, name in enumerate(("theta", "profile", "theta")):
        out = tmp_path / f"in_process{k}"
        assert main([*commands[name], "--out", str(out)]) == alone[name]
        assert files(out) == files(tmp_path / name)


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


@pytest.mark.parametrize("slopes", [["--xi-left", "1e154", "--xi-right", "1e154"],
                                    ["--xi-left", "1e200"]], ids=["inf-minus-inf", "overflow"])
def test_exact_gauss_density_past_float_range(tmp_path, slopes):
    # slopes whose quadratic form overflows give density 0.0, not NaN or an error
    assert main(["exact-gauss", *slopes, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "exact_gauss.json").read_text())["density"] == 0.0


def test_exact_gauss_density_past_float_range_in_c(tmp_path):
    # N = 4 at c = 1e308: c (N - 1) overflows, and the slopes (1.5, -0.5)
    # scaled by 1e154 give the density at c = 1, not the zero-slope prefactor
    cfg = _write_config(tmp_path, {"model": {"n_sites": 4, "epsilon": 2.5e307,
                                             "macro_length": 1e308}})
    assert main(["exact-gauss", "--config", cfg, "--xi-left", "1.5e154",
                 "--xi-right=-0.5e154", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "exact_gauss.json").read_text())
    assert data["density"] == pytest.approx(exact_boundary_density(4, 1.0, 1.0, 1.5, -0.5),
                                            rel=1e-13)
    assert data["density"] == pytest.approx(2.5577e-20, rel=1e-4)


def test_tilts_frozen_solution(tmp_path):
    assert main(["profile", "--xi-left", "1.0", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "tilts.json").read_text())
    assert data["u_star"] == pytest.approx(2.0, abs=1e-9)
    assert data["v_star"] == pytest.approx(-6.0, abs=1e-9)
    assert data["rate"] == pytest.approx(2.0, abs=1e-9)
    assert data["det_hessian"] == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert data["residual"] < 1e-10


def test_tilts_outside_the_admissible_range_fail_cleanly(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"potential": {"kind": "power", "kappa": 1.0,
                                                 "alpha": 1.0}})
    assert main(["profile", "--config", cfg, "--xi-left", "3",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: tilt solver line search stalled; boundary data likely outside "
        "the admissible range"]
    assert not (tmp_path / "tilts.json").exists()
    assert not (tmp_path / "profile.csv").exists()


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
    # plain .npy bytes: numpy.load reads back the csv output's matrix exactly
    cfg = _write_config(tmp_path, {"model": {"n_sites": 10, "epsilon": 0.1,
                                             "macro_length": 1.0}})
    for fmt in ("bin", "csv"):
        assert main(["bridge", "--config", cfg, "--n", "20", "--fmt", fmt,
                     "--out", str(tmp_path)]) == 0
    samples = samples_from_frame(tmp_path / "bridge.bin")
    assert samples.shape == (20, 12)
    assert np.array_equal(np.load(tmp_path / "bridge.bin"),
                          samples_from_csv(tmp_path / "bridge.csv"))


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
    ["confine", "--mesh", "0.5", "--rho-min", "0.3", "--rho-max", "3"],
], ids=["bridge", "theta-stats", "confine"])
def test_continuous_power_law_commands_read_the_step_variance(tmp_path, argv):
    # kappa |x|^3 at eps = 1: every command that reads the increment variance
    # (the proposal width, the theta scale, the tube radius) runs.  R is
    # 1.93 rho here, so the tubes from rho 0.3 are at least one 0.5 cell wide
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


def test_confine_outputs_fit(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"n_sites": 300, "epsilon": 1.0, "macro_length": 300.0,
                  "height_mode": "discrete"},
    })
    assert main(["confine", "--config", cfg, "--rho-min", "0.5", "--rho-max",
                 "5.0", "--rho-steps", "5", "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "confine_fit.json").read_text())
    assert {"config_hash", "seed", "slope", "intercept", "r2"} <= set(fit)


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


def test_confine_default_config_writes_the_tube_law(tmp_path):
    # the default mesh, half the step sd, resolves every rho of the default
    # sweep: F falls as rho^(-2/3) and the half-mesh check moves it under 2%
    assert main(["confine", "--out", str(tmp_path)]) == 0
    header, values = _read_table(tmp_path / "confine.csv")
    f, mesh_delta = values[:, header.index("F")], values[:, header.index("mesh_delta")]
    assert len(values) == 8
    assert np.all(np.diff(f) < 0)
    assert np.max(mesh_delta / f) <= 0.02
    fit = json.loads((tmp_path / "confine_fit.json").read_text())
    assert -0.77 <= fit["slope"] <= -0.57


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


@pytest.mark.parametrize("command", [["confine"], ["theta-stats", "--method", "mcmc"],
                                     ["bridge", "--method", "mcmc"]],
                         ids=["confine", "theta-stats", "bridge-mcmc"])
def test_degenerate_lattice_law_fails_before_writing(tmp_path, capsys, command):
    # the default config on the lattice: at eps = 0.01 a unit lap weighs
    # exp(-50) of the zero lap, below the 1e-18 cut, so the law is one point
    cfg = _write_config(tmp_path, {"model": {"height_mode": "discrete"}})
    out = tmp_path / "out"
    assert main([*command, "--config", cfg, "--out", str(out)]) == 1
    assert "degenerate increment law" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("potential, mesh", [({"kind": "gaussian"}, "1"),
                                             ({"kind": "gaussian"}, "0.5"),
                                             ({"kind": "power", "alpha": 4.0}, "0.1")],
                         ids=["gaussian", "gaussian-three-taps", "alpha-4"])
def test_one_tap_continuous_mesh_fails_before_solving(tmp_path, capsys, monkeypatch,
                                                      potential, mesh):
    # a mesh above the step sd (eps * sd = 0.1 and 0.018 here) keeps the zero
    # step alone, or outer steps of weight 4e-6 at mesh 0.5, where F came out
    # 7.45e-4 at every rho; it is refused before any solve
    calls = []
    monkeypatch.setattr(confinement, "power_iteration", lambda *a, **k: calls.append(a))
    cfg = _write_config(tmp_path, {"potential": potential})
    out = tmp_path / "out"
    assert main(["confine", "--config", cfg, "--mesh", mesh, "--rho-min", "0.2",
                 "--rho-max", "2", "--rho-steps", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"mesh {float(mesh):g} must be positive and at most the step sd" in err
    assert "--mesh" in err and "eps * sqrt(sigma2)" in err
    assert calls == []
    assert not out.exists()


def test_sub_cell_tube_fails_before_solving(tmp_path, capsys, monkeypatch):
    # on the default config (mesh 0.05) a tube of radius 1e-298 has no height
    # row but 0, where every row read one F and the fit a slope of 1e-16
    calls = []
    monkeypatch.setattr(confinement, "power_iteration", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    assert main(["confine", "--rho-min", "1e-300", "--rho-max", "1e-299", "--rho-steps", "5",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("rho=1e-300, mesh 0.05: tube radius R = 1e-298 is narrower than one mesh cell"
            in err)
    assert "raise --rho-min, or set --mesh below R" in err
    assert calls == []
    assert not (out / "confine.csv").exists()


def test_lattice_tube_of_radius_0_fails_before_solving(tmp_path, capsys, monkeypatch):
    # N = 300 on the lattice: R = floor(rho * sigma * sqrt(N)) is 0 for the
    # four narrowest rhos, where every row read F 0.9189 with 15 states
    calls = []
    monkeypatch.setattr(confinement, "power_iteration", lambda *a, **k: calls.append(a))
    cfg = _write_config(tmp_path, {"model": {"n_sites": 300, "epsilon": 1.0,
                                             "macro_length": 300.0, "height_mode": "discrete"}})
    out = tmp_path / "out"
    assert main(["confine", "--config", cfg, "--rho-min", "0.01", "--rho-max", "0.1",
                 "--rho-steps", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "rho=0.01: lattice tube radius R = 0 holds height 0 alone" in err
    assert "raise --rho-min" in err
    assert calls == []
    assert not (out / "confine.csv").exists()


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


def test_continuum_check_refuses_a_profile_off_the_table(tmp_path, capsys):
    # f'' = 2 lies past a table on [-1, 1], where the potential is +inf
    cfg = _write_config(tmp_path, {"potential": {"kind": "table", "grid": [-1, 0, 1],
                                                 "values": [0.5, 0, 0.5]}})
    assert main(["continuum-check", "--config", cfg, "--shape", "square",
                 "--out", str(tmp_path)]) == 1
    assert "domain where the potential is finite" in capsys.readouterr().err
    assert not (tmp_path / "continuum_check.csv").exists()


def test_bridge_width_is_a_usage_error(tmp_path, capsys):
    # the proposal width is fixed at eps times the increment sd
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


# every float flag of every command, after the arguments that keep its run small
_FLOAT_FLAGS = [
    (["sample", "--n", "8"], ["--xi1", "--truncation"]),
    (["bridge", "--n", "8", "--method", "mcmc"],
     ["--xi-left", "--xi-right", "--endpoint", "--truncation"]),
    (["theta-stats", "--n", "8"], ["--times"]),
    (["qmatrix", "--times", "0.5"], ["--times"]),
    (["exact-gauss"], ["--xi-left", "--xi-right"]),
    (["profile", "--points", "5"], ["--xi-left", "--xi-right", "--slope"]),
    (["confine", "--rho-min", "0.05", "--rho-max", "0.5", "--rho-steps", "5", "--mesh", "0.3"],
     ["--rho-min", "--rho-max", "--mesh", "--grad-cut"]),
    (["continuum-check", "--eps", "0.1"], ["--eps"]),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _FLOAT_FLAGS for f in flags],
                         ids=lambda x: x if isinstance(x, str) else x[0])
def test_float_flags_refuse_or_write_finite_output(tmp_path, capsys, command, flag, value):
    # a value a command cannot use is one error line; a value it takes
    # writes no nan or inf (a traceback fails the test by itself)
    cfg = _write_config(tmp_path, {"model": {"n_sites": 10, "epsilon": 0.1},
                                   "sampler": {"burn_in": 2}})
    out = tmp_path / "out"
    try:
        code = main([*command, f"{flag}={value}", "--config", cfg, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    if code == 0:
        for path in out.iterdir():
            text = path.read_text()
            assert not re.search(r"(?i)\b(nan|inf|infinity)\b", text), path.name
    else:
        assert code in (1, 2)
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, error", [
    ({"models": {"n_sites": 4}}, "unknown config key 'models'"),
    ({"model": 4}, "config section 'model' must be a JSON object"),
    ([{"model": {"n_sites": 4}}], "config file must hold a JSON object"),
    ({"potential": {"kind": "gaussian", "alpha": 3.0}},
     "gaussian potential does not take ['alpha']"),
    ({"potential": {"kind": "table"}}, "table potential needs grid and values"),
], ids=["unknown-section", "section-not-object", "file-not-object", "extra-potential-key",
        "table-without-grid"])
def test_config_refusals_are_one_error_line(tmp_path, capsys, cfg, error):
    out = tmp_path / "out"
    assert main(["sample", "--n", "4", "--config", _write_config(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()
