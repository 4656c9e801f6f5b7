"""Batch command-line front door.

Subcommands cover sampling (sample, bridge, theta-stats), closed-form
analytics (qmatrix, exact-gauss), the large-deviation machinery (profile:
the tilts, their rate and the mean profile), tube confinement (confine),
and validation sweeps (oracle-check, continuum-check).

Configuration is a JSON file with sections model / potential / boundary /
sampler / tube plus output_dir; an unknown key or a value of the wrong JSON
type is rejected.  Flags override config values.  `main` builds one run per
command (`_Run`): it merges the config into one form (a named potential
kind filled in with its own defaults, every float-typed value a float),
hashes it together with the command's flags, and builds the sampler
settings (`sampling.ChainSettings`, whose integer rule holds for every
command).  So `"macro_length": 1` and `1.0`, or `{"kind": "power"}` and the
same kind with its defaults spelled out, stamp one hash.  Every text output
starts with a comment line (or leading JSON fields) carrying that
12-hex-digit hash and the seed.  Every flag enters the hash except
--config, --workers and --out: a flag that overrides a config value
declares that value as its dest (--n is `sampler.n_samples`) and enters
through the config, every other flag directly.  Repeated runs with
the same configuration and seed are byte-identical regardless of
--workers, which only MCMC chain blocks and confine sweep points use.  Exit
codes: 0 success, 1 domain or validation error (message on stderr), 2
usage error, malformed or empty number lists (--times, --eps) included.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import confinement, gaussian, ldp, oracle, sampling
from .model import (
    BoundaryConditions,
    ContinuumProfile,
    GaussianPotential,
    ModelParams,
    PowerLawPotential,
    TabulatedPotential,
    build_increment_dist,
    continuum_energy_check,
)

__all__ = ["main", "build_parser"]

# each potential kind: the class it builds and its keys with their defaults;
# a table's grid and values have none (each is a required list of numbers)
_POTENTIALS = {"gaussian": (GaussianPotential, {"kappa": 1.0}),
               "power": (PowerLawPotential, {"kappa": 1.0, "alpha": 2.0}),
               "table": (TabulatedPotential, {"grid": list, "values": list})}

# the defaults a run starts from: a potential section that names no kind is
# a Gaussian, and each kind fills in its own defaults after the merge
_DEFAULTS = {
    "model": {"n_sites": 100, "epsilon": 0.01, "macro_length": 1.0,
              "height_mode": "continuous"},
    "potential": {"kind": "gaussian"},
    "boundary": {"xi_left": 0.0, "xi_right": 0.0, "endpoint": 0.0},
    "sampler": {"seed": 0, "n_samples": 10_000, "burn_in": 0, "thin": 1,
                "n_chains": None},
    "tube": {"grad_cut": None},
    "output_dir": ".",
}
# every key a config takes, with the default whose type fixes the key's JSON
# type and number form; the potential section takes every kind's keys
_SCHEMA = {**_DEFAULTS, "potential": {**_DEFAULTS["potential"], **{
    k: v for _, keys in _POTENTIALS.values() for k, v in keys.items()}}}

_JSON_TYPES = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


# ---------------------------------------------------------------------------
# configuration

def _check_type(key: str, value, default) -> None:
    """value must be of its default's JSON type: a number or null where that
    is null, a list where it is the list type."""
    if default is None:
        takes = ("a number", "null")
    else:
        takes = (_JSON_TYPES[default if default is list else type(default)],)
    got = _JSON_TYPES[type(value)]
    if got not in takes:
        raise ValueError(f"config key {key} must be {' or '.join(takes)}, got {got}")


def _check_keys(data: dict) -> None:
    for key, sub in data.items():
        if key not in _SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if not isinstance(allowed, dict):
            _check_type(key, sub, allowed)
            continue
        if not isinstance(sub, dict):
            raise ValueError(f"config section {key!r} must be a JSON object")
        for inner, value in sub.items():
            if inner not in allowed:
                raise ValueError(f"unknown config key {key}.{inner}")
            if key != "sampler":  # the sampler's values are ChainSettings' to check
                _check_type(f"{key}.{inner}", value, allowed[inner])


def _merge_config(args) -> dict:
    """The effective config in one form per run: the named potential kind
    filled in with its defaults, every float-typed value a float (a list entry
    by entry); integers stay as given for the integer rule of ModelParams and
    ChainSettings."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in _DEFAULTS.items()}
    if args.config:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        _check_keys(data)
        for key, sub in data.items():
            if isinstance(sub, dict):
                cfg[key].update(sub)
            else:
                cfg[key] = sub
    # a flag that overrides a config value has that value's section.key as dest
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            cfg[section][key] = value
    if args.out is not None:
        cfg["output_dir"] = args.out
    kind = cfg["potential"]["kind"]
    if kind not in _POTENTIALS:
        raise ValueError(f"unknown potential kind {kind!r}")
    defaults = {k: v for k, v in _POTENTIALS[kind][1].items() if v is not list}
    cfg["potential"] = {**defaults, **cfg["potential"]}
    # float-typed: a key whose default is a float, null or a list
    for section in ("model", "potential", "boundary", "tube"):
        for key, value in cfg[section].items():
            if value is not None and not isinstance(_SCHEMA[section][key], (int, str)):
                try:
                    cfg[section][key] = np.asarray(value, dtype=float).tolist()
                except OverflowError:
                    raise OverflowError(f"config key {section}.{key} is too large "
                                        "for a float") from None
    return cfg


def _potential(cfg: dict):
    p = dict(cfg["potential"])
    kind = p.pop("kind")
    cls, keys = _POTENTIALS[kind]
    extras = set(p) - set(keys)
    if extras:
        raise ValueError(f"{kind} potential does not take {sorted(extras)}")
    if len(p) < len(keys):  # only a table has keys without defaults
        raise ValueError(f"{kind} potential needs {' and '.join(keys)}")
    return cls(**p)


# ---------------------------------------------------------------------------
# the run: config, hash, seed and the writers that stamp them

class _Run:
    """One command's run: the effective config, its hash with every other flag
    but --config, --workers and --out, the checked sampler settings, and the
    writers that stamp the hash and seed on every output."""

    def __init__(self, args):
        self.cfg = _merge_config(args)
        flags = {k: v for k, v in vars(args).items()
                 if "." not in k and k not in ("command", "func", "config", "workers", "out")}
        cmd = {"name": args.command, **flags}
        cfg = {k: v for k, v in self.cfg.items() if k != "output_dir"}
        payload = json.dumps({"cfg": cfg, "cmd": cmd}, sort_keys=True, separators=(",", ":"))
        self.hash = hashlib.sha256(payload.encode()).hexdigest()[:12]
        self.settings = sampling.ChainSettings(**self.cfg["sampler"])
        self.seed = self.settings.seed
        self.stamp = f"config={self.hash} seed={self.seed}"

    def path(self, name: str) -> Path:
        out = Path(self.cfg["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        return out / name

    def csv(self, name: str, header: list[str], rows) -> None:
        path = self.path(name)
        sampling._write_table(path, header, rows, self.stamp)
        print(f"wrote {path}")

    def json(self, name: str, /, **fields) -> None:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump({"config_hash": self.hash, "seed": self.seed, **fields}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")

    def samples(self, name: str, fmt: str, samples: np.ndarray) -> None:
        if fmt == "csv":
            path = self.path(f"{name}.csv")
            sampling.samples_to_csv(samples, path, comment=self.stamp)
        else:
            # .npy bytes, which have no room for the stamp's comment line
            path = self.path(f"{name}.bin")
            sampling.samples_to_frame(samples, path)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed flags and the run, writes through the
# run, and returns None or an exit code

def _run_sample(args, run: _Run) -> None:
    params, pot = ModelParams(**run.cfg["model"]), _potential(run.cfg)
    dist = build_increment_dist(pot, params, truncation=args.truncation)
    run.samples("sample", args.fmt, sampling.sample_free(params, dist, args.xi1, run.settings))


def _bridge_draws(args, run: _Run, params, pot, truncation=None) -> np.ndarray:
    """Pinned-bridge draws by --method: exact Gaussian blocks or Metropolis
    chains, the only route that takes a truncation."""
    if truncation is not None and args.method != "mcmc":
        raise ValueError("--truncation cuts the Metropolis chain's steps; "
                         "use it with --method mcmc")
    bc = BoundaryConditions(**run.cfg["boundary"])
    if args.method == "exact":
        return sampling.sample_gaussian_bridge(params, pot, bc, run.settings)
    return sampling.sample_bridge_mcmc(params, pot, bc, run.settings, workers=args.workers,
                                       truncation=truncation)


def _run_bridge(args, run: _Run) -> None:
    params, pot = ModelParams(**run.cfg["model"]), _potential(run.cfg)
    run.samples("bridge", args.fmt, _bridge_draws(args, run, params, pot, args.truncation))


def _run_theta_stats(args, run: _Run) -> None:
    params, pot = ModelParams(**run.cfg["model"]), _potential(run.cfg)
    # before sampling, so a law without a variance or a time off the path
    # fails at once
    sigma = math.sqrt(gaussian.sigma2_increment(pot, params))
    sampling._check_times(args.times)
    samples = _bridge_draws(args, run, params, pot)
    stats = sampling.estimate_theta_stats(samples, args.times, sigma, params.epsilon)
    run.json("theta_stats.json", times=list(stats.times), mean=list(stats.mean),
             mean_se=list(stats.mean_se), cov=[list(r) for r in stats.cov],
             cov_se=[list(r) for r in stats.cov_se])


def _run_qmatrix(args, run: _Run) -> None:
    q = gaussian.q_matrix(np.asarray(args.times))
    labels = ["0"] + [f"{t:.17g}" for t in args.times] + ["1"]
    run.csv("qmatrix.csv", labels, (row.tolist() for row in q))


def _run_exact_gauss(args, run: _Run) -> None:
    params, pot = ModelParams(**run.cfg["model"]), _potential(run.cfg)
    if not isinstance(pot, GaussianPotential):
        raise ValueError("exact-gauss is defined for the gaussian potential only")
    value = gaussian.exact_boundary_density(params.n_sites, pot.kappa,
                                            params.macro_length,
                                            args.xi_left, args.xi_right)
    run.json("exact_gauss.json", n_sites=params.n_sites, kappa=pot.kappa,
             c=params.macro_length, xi_left=args.xi_left, xi_right=args.xi_right,
             density=value)


def _run_profile(args, run: _Run) -> None:
    """The tilts, their rate and the mean profile they give."""
    params, pot = ModelParams(**run.cfg["model"]), _potential(run.cfg)
    data = (args.xi_left, args.xi_right, args.slope, params.macro_length,
            ldp.limit_log_mgf(pot))
    sol = ldp.solve_tilts(*data)
    rate = ldp.ld_rate(*data, sol)
    ts = np.linspace(0.0, 1.0, args.points)
    run.csv("profile.csv", ["t", "profile"], zip(ts, ldp.mean_profile(ts, *data, sol)))
    run.json("tilts.json", u_star=float(sol.u_star), v_star=float(sol.v_star),
             residual=float(np.max(np.abs(sol.residual))),
             det_hessian=float(np.linalg.det(sol.hessian)), rate=float(rate))


def _run_confine(args, run: _Run) -> None:
    params, pot = ModelParams(**run.cfg["model"]), _potential(run.cfg)
    try:
        if not all(0 < r < math.inf for r in (args.rho_min, args.rho_max)):
            raise ValueError("rho values must be positive and finite")
        rhos = np.geomspace(args.rho_min, args.rho_max, args.rho_steps)
        confinement._check_fit_rhos(rhos)
    except ValueError as exc:
        raise ValueError(f"{exc}; the exponent fit needs --rho-steps >= 5 and "
                         "0 < --rho-min <= --rho-max / 10") from None
    rows = confinement.confinement_sweep(
        params, pot, rhos, grad_cut=run.cfg["tube"]["grad_cut"], mesh=args.mesh,
        workers=args.workers)
    run.csv("confine.csv", ["rho", "F", "lambda_max", "states", "mesh_delta", "F_scaled"],
            rows)
    fit = confinement.exponent_fit([r.rho for r in rows],
                                   [r.free_energy for r in rows])
    run.json("confine_fit.json", slope=fit.slope, intercept=fit.intercept,
             r2=fit.r_squared)


def _run_continuum_check(args, run: _Run) -> None:
    pot = _potential(run.cfg)
    if args.shape == "square":
        profile = ContinuumProfile(f=lambda x: x * x,
                                   d2f=lambda x: 2.0 * np.ones_like(np.asarray(x)))
    else:
        profile = ContinuumProfile(f=lambda x: x ** 3, d2f=lambda x: 6.0 * np.asarray(x))
    c = run.cfg["model"]["macro_length"]
    run.csv("continuum_check.csv", ["eps", "lattice_energy", "integral", "error"],
            continuum_energy_check(profile, pot, args.eps, macro_length=c))


def _run_oracle_check(args, run: _Run) -> int:
    checks = oracle.cross_check_sweep(args.n_max, run.seed)
    passed = all(c["passed"] for c in checks)
    run.json("oracle_check.json", n_max=args.n_max, all_passed=passed, checks=checks)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser and dispatch

def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _floats(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line; `main` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="semiflex",
        description="Discrete semiflexible polymer toolkit: samplers, "
                    "Gaussian analytics, large-deviation solvers, and tube "
                    "confinement.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, helptext, func):
        """A subcommand; a flag that overrides a config value takes its
        section.key as dest and keeps its plain metavar."""
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", dest="sampler.seed", metavar="SEED", type=int,
                       help="RNG seed (unsigned 64-bit)")
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="processes for MCMC chain blocks and confine points")
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)
        return p

    p = command("sample", "free-measure sampler", _run_sample)
    p.add_argument("--n", dest="sampler.n_samples", metavar="N", type=int,
                   help="number of samples")
    p.add_argument("--xi1", type=float, default=0.0, help="first gradient")
    p.add_argument("--truncation", type=float, help="increment truncation")
    p.add_argument("--fmt", choices=("csv", "bin"), default="csv")

    p = command("bridge", "boundary-pinned sampler", _run_bridge)
    p.add_argument("--n", dest="sampler.n_samples", metavar="N", type=int,
                   help="number of samples")
    p.add_argument("--method", choices=("exact", "mcmc"), default="exact")
    p.add_argument("--xi-left", dest="boundary.xi_left", metavar="XI_LEFT", type=float)
    p.add_argument("--xi-right", dest="boundary.xi_right", metavar="XI_RIGHT", type=float)
    p.add_argument("--endpoint", dest="boundary.endpoint", metavar="ENDPOINT", type=float)
    p.add_argument("--burn-in", dest="sampler.burn_in", metavar="BURN_IN", type=int)
    p.add_argument("--thin", dest="sampler.thin", metavar="THIN", type=int)
    p.add_argument("--truncation", type=float)
    p.add_argument("--fmt", choices=("csv", "bin"), default="csv")

    p = command("theta-stats", "rescaled bridge statistics", _run_theta_stats)
    p.add_argument("--n", dest="sampler.n_samples", metavar="N", type=int,
                   help="number of samples")
    p.add_argument("--times", type=_floats, default="0.25,0.5,0.75",
                   help="comma-separated grid in [0, 1]")
    p.add_argument("--method", choices=("exact", "mcmc"), default="exact")

    p = command("qmatrix", "limit covariance matrix on a grid", _run_qmatrix)
    p.add_argument("--times", type=_floats, required=True,
                   help="comma-separated grid in (0,1)")

    p = command("exact-gauss", "exact Gaussian endpoint density", _run_exact_gauss)
    p.add_argument("--xi-left", dest="xi_left", type=float, default=0.0)
    p.add_argument("--xi-right", dest="xi_right", type=float, default=0.0)

    p = command("profile", "tilts and the conditioned mean profile", _run_profile)
    p.add_argument("--xi-left", dest="xi_left", type=float, default=0.0)
    p.add_argument("--xi-right", dest="xi_right", type=float, default=0.0)
    p.add_argument("--slope", type=float, default=0.0)
    p.add_argument("--points", type=_positive_int, default=101)

    p = command("confine", "tube free-energy sweep", _run_confine)
    p.add_argument("--rho-min", dest="rho_min", type=float, default=0.02)
    p.add_argument("--rho-max", dest="rho_max", type=float, default=0.2)
    p.add_argument("--rho-steps", dest="rho_steps", type=int, default=8)
    p.add_argument("--grad-cut", dest="tube.grad_cut", metavar="GRAD_CUT", type=float)
    p.add_argument("--mesh", type=float)

    p = command("oracle-check", "desk-scale validation sweep", _run_oracle_check)
    p.add_argument("--n-max", dest="n_max", type=int, default=6)

    p = command("continuum-check", "lattice energy vs integral", _run_continuum_check)
    p.add_argument("--shape", choices=("square", "cubic"), default="square")
    p.add_argument("--eps", type=_floats, default="0.1,0.05,0.025,0.0125",
                   help="comma-separated lattice spacings")

    return parser


# main's parser, built on its first call: parsing leaves a parser as it was,
# so one serves every call in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, _Run(args)) or 0
    except (ValueError, RuntimeError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
