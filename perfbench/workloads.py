"""The four benchmark workloads.

Every call into semiflex goes through a module attribute
(`sampling.samples_from_csv`, not a name imported from it), so the traced
run sees it.  Each workload turns the benchmark seed into CLI inputs (config files and
argument lists), runs its operations through `semiflex.cli.main` or the
public readers, and checks every output against a reference that does not
come from the operation itself.  Operations are timed by the harness;
references and checks are not.

A workload's `ops()` are identical on every pass of a run, so passes repeat
the same work on the same inputs and their outputs must agree byte for
byte.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from semiflex import cli, confinement, ldp, oracle, sampling
from semiflex.model import (
    BoundaryConditions,
    GaussianPotential,
    ModelParams,
    PowerLawPotential,
    TabulatedPotential,
)

from .ess import bulk_ess


@dataclass
class Op:
    """One timed operation doing `items` units of work.

    Ops of one `group` (default: the op's own name) are reported together,
    as the sum of their times and of their items.
    """

    name: str
    run: Callable[[], object]
    items: float
    group: str = ""

    def __post_init__(self):
        self.group = self.group or self.name


@dataclass
class Check:
    name: str
    ops: tuple[str, ...]
    ok: bool
    detail: str


@dataclass
class CheckReport:
    checks: list[Check]
    facts: dict = field(default_factory=dict)


class CliFailed(RuntimeError):
    pass


def run_cli(argv: list[str]) -> None:
    """Run one CLI command in-process; a nonzero exit raises CliFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CliFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def guarded(name: str, ops: tuple[str, ...], fn: Callable[[], tuple[bool, str]]) -> Check:
    """A check that raises counts as failed, with the exception as detail."""
    try:
        ok, detail = fn()
    except Exception as exc:  # a broken output must fail its ops, not the run
        return Check(name, ops, False, f"{type(exc).__name__}: {exc}")
    return Check(name, ops, bool(ok), detail)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV file: `#` comment lines, one header, numbers."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header, rows = lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    cols = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: cols[:, i] for i, name in enumerate(header)}


def latin_hypercube(rng: random.Random, count: int, lo: float, hi: float,
                    dims: int = 3) -> list[tuple[float, ...]]:
    """`count` draws from U(lo, hi)^dims with exactly one draw in each of
    `count` equal strata of every coordinate.

    Each draw is still uniform on the cube, but the set covers it evenly,
    so the work of the whole set varies less from seed to seed than with
    independent draws.
    """
    cols = []
    for _ in range(dims):
        cells = list(range(count))
        rng.shuffle(cells)
        cols.append([lo + (hi - lo) * (c + rng.random()) / count for c in cells])
    return list(zip(*cols))


class Workload:
    """Inputs, operations and checks of one workload.

    `main_op` and `side_op` name the two operations whose throughput is
    reported as `main_op_per_s` and `side_op_per_s`: the first exercises
    the workload's dominant mechanism, the second a neighbour that an
    optimisation of the first should leave alone.
    """

    name = ""
    main_op = ""
    side_op = ""

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        self.seed = seed
        self.work = Path(work)
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cli_seed = self.rng.getrandbits(32)

    def path(self, *parts) -> Path:
        return self.work.joinpath(*parts)

    def write_inputs(self) -> None:
        raise NotImplementedError

    def references(self) -> dict:
        """Untimed references that must be built before the first pass."""
        return {}

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, results: dict, refs: dict) -> CheckReport:
        raise NotImplementedError

    def named_metrics(self, seconds: dict[str, float], facts: dict) -> dict:
        """The workload-specific rates printed by name: name -> (value, unit)."""
        raise NotImplementedError

    def common(self) -> list[str]:
        return ["--seed", str(self.cli_seed), "--workers", "1"]


# ---------------------------------------------------------------------------

class BridgeIO(Workload):
    name = "bridge_io"
    main_op = "bridge_csv"
    side_op = "bridge_bin"
    times = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    boundary = (0.3, -0.2, 0.5)

    def __init__(self, seed, work, smoke=False):
        super().__init__(seed, work, smoke)
        self.n_csv, self.n_bin, self.n_theta = (200, 2000, 20_000) if smoke else \
            (3000, 40_000, 50_000)

    def write_inputs(self):
        xl, xr, end = self.boundary
        _write_json(self.path("bridge.json"), {
            "model": {"n_sites": 100, "epsilon": 0.01, "macro_length": 1.0},
            "potential": {"kind": "gaussian", "kappa": 1.0},
            "boundary": {"xi_left": xl, "xi_right": xr, "endpoint": end}})

    def _draw(self, n: int) -> np.ndarray:
        params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
        return sampling.sample_gaussian_bridge(
            params, GaussianPotential(1.0), BoundaryConditions(*self.boundary),
            sampling.ChainSettings(seed=self.cli_seed, n_samples=n))

    def references(self):
        return {"csv": self._draw(self.n_csv), "bin": self._draw(self.n_bin)}

    def _bridge(self, fmt: str, n: int) -> None:
        run_cli(["bridge", "--config", self.path("bridge.json"), "--fmt", fmt,
                 "--n", n, *self.common(), "--out", self.path(fmt)])

    def ops(self):
        times = ",".join(repr(t) for t in self.times)
        return [
            Op("bridge_csv", lambda: self._bridge("csv", self.n_csv), self.n_csv),
            Op("bridge_bin", lambda: self._bridge("bin", self.n_bin), self.n_bin),
            Op("theta_stats", lambda: run_cli(
                ["theta-stats", "--config", self.path("bridge.json"), "--n", self.n_theta,
                 "--times", times, *self.common(), "--out", self.path("theta")]),
               self.n_theta),
            Op("csv_read", lambda: sampling.samples_from_csv(self.path("csv", "bridge.csv")),
               self.n_csv),
        ]

    def check(self, results, refs):
        def same(a, b):
            a = np.asarray(a)
            return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

        def csv_roundtrip():
            return same(results["csv_read"], refs["csv"]), \
                f"{self.n_csv} CSV rows read back bit for bit equal to the in-process bridge"

        def bin_roundtrip():
            back = sampling.samples_from_frame(self.path("bin", "bridge.bin"))
            return same(back, refs["bin"]), \
                f"{self.n_bin} binary rows bit for bit equal to the in-process bridge"

        def theta_var():
            stats = json.loads(self.path("theta", "theta_stats.json").read_text())
            if stats["times"] != list(self.times):
                return False, f"times {stats['times']} differ from the request"
            i = self.times.index(0.5)
            err = abs(stats["cov"][i][i] * 192.0 - 1.0)
            return err <= 0.05, f"Var theta(1/2)*192 off 1 by {err:.3%} (limit 5%)"

        return CheckReport([
            guarded("csv_roundtrip", ("bridge_csv", "csv_read"), csv_roundtrip),
            guarded("bin_roundtrip", ("bridge_bin",), bin_roundtrip),
            guarded("theta_variance", ("theta_stats",), theta_var),
        ])

    def named_metrics(self, seconds, facts):
        return {
            "bridge_csv_rows_per_s": (self.n_csv / seconds["bridge_csv"], "rows/s"),
            "bridge_bin_rows_per_s": (self.n_bin / seconds["bridge_bin"], "rows/s"),
            "theta_stats_rows_per_s": (self.n_theta / seconds["theta_stats"], "rows/s"),
            "csv_read_rows_per_s": (self.n_csv / seconds["csv_read"], "rows/s"),
        }


# ---------------------------------------------------------------------------

class McmcBridge(Workload):
    name = "mcmc_bridge"
    main_op = "mcmc_continuous"
    side_op = "mcmc_lattice"
    chains = 64
    macro = (30.0, -15.0, 10.0)
    grid = np.array([0.25, 0.5, 0.75])

    def __init__(self, seed, work, smoke=False):
        super().__init__(seed, work, smoke)
        # (burn-in, thin, draws per chain)
        self.cont = (4, 2, 8) if smoke else (30, 5, 12)
        self.lattice = (100, 2, 200) if smoke else (300, 2, 1000)

    def write_inputs(self):
        eps, n = 0.01, 100
        xl, xr, slope = self.macro
        _write_json(self.path("continuous.json"), {
            "model": {"n_sites": n, "epsilon": eps, "macro_length": 1.0},
            "potential": {"kind": "power", "kappa": 0.5, "alpha": 2.0},
            "boundary": {"xi_left": eps * xl, "xi_right": eps * xr,
                         "endpoint": eps * slope * (n + 1)},
            "sampler": {"n_chains": self.chains}})
        _write_json(self.path("lattice.json"), {
            "model": {"n_sites": 6, "epsilon": 1.0, "macro_length": 6.0,
                      "height_mode": "discrete"},
            "potential": {"kind": "gaussian", "kappa": 1.0},
            "boundary": {"xi_left": 0.0, "xi_right": 0.0, "endpoint": 0.0},
            "sampler": {"n_chains": self.chains}})

    def _sweeps(self, spec) -> int:
        burn, thin, draws = spec
        return self.chains * (burn + draws * thin)

    def _mcmc(self, cfg: str, spec, extra=()) -> None:
        burn, thin, draws = spec
        run_cli(["bridge", "--method", "mcmc", "--config", self.path(cfg), "--fmt", "bin",
                 "--n", self.chains * draws, "--burn-in", burn, "--thin", thin, *extra,
                 *self.common(), "--out", self.path(cfg.split(".")[0])])

    def ops(self):
        return [
            Op("mcmc_continuous", lambda: self._mcmc("continuous.json", self.cont),
               self._sweeps(self.cont)),
            Op("mcmc_lattice", lambda: self._mcmc("lattice.json", self.lattice,
                                                  ("--truncation", 1)),
               self._sweeps(self.lattice)),
        ]

    def check(self, results, refs):
        facts = {}

        def profile():
            draws = self.cont[2]
            samples = sampling.samples_from_frame(self.path("continuous", "bridge.bin"))
            n1 = 101
            jj = np.rint(self.grid * n1).astype(int)
            chains = samples.reshape(self.chains, draws, -1)
            facts["ess"] = bulk_ess(chains[:, :, n1 // 2])
            facts["draws"] = self.chains * draws
            mgf = ldp.limit_log_mgf(PowerLawPotential(0.5, 2.0))
            target = ldp.mean_profile(jj / n1, *self.macro, 1.0, mgf)
            means = chains[:, :, jj].mean(axis=1) / (0.01 * n1)
            se = means.std(axis=0, ddof=1) / math.sqrt(self.chains)
            z = float(np.max(np.abs(means.mean(axis=0) - target) / se))
            return z <= 4.0, f"chain means off ldp.mean_profile by {z:.2f} SE (limit 4)"

        def marginals():
            n = 6
            samples = sampling.samples_from_frame(self.path("lattice", "bridge.bin"))
            params = ModelParams(n, 1.0, float(n), height_mode="discrete")
            spec = oracle.EnumerationSpec(params, GaussianPotential(1.0), (-1.0, 0.0, 1.0))
            pinned = lambda h: (h[:, n] == 0.0) & (h[:, n + 1] == 0.0)  # noqa: E731
            worst = 0.0
            for j in range(2, n):
                for v in range(-3, 4):
                    exact = oracle.enumerate_configs(
                        spec, event=pinned,
                        statistic=lambda h: (h[:, j] == float(v)).astype(float))
                    p_hat = float(np.mean(samples[:, j] == float(v)))
                    worst = max(worst, abs(p_hat - exact.conditional_mean))
            return worst <= 0.01, f"worst marginal off enumeration by {worst:.4f} (limit 0.01)"

        checks = [guarded("mcmc_mean_profile", ("mcmc_continuous",), profile),
                  guarded("mcmc_lattice_marginals", ("mcmc_lattice",), marginals)]
        return CheckReport(checks, facts)

    def named_metrics(self, seconds, facts):
        t = seconds["mcmc_continuous"]
        return {
            "mcmc_chain_sweeps_per_s": (self._sweeps(self.cont) / t, "chain-sweeps/s"),
            "mcmc_ess_per_s": (facts.get("ess", math.nan) / t, "1/s"),
            "mcmc_lattice_chain_sweeps_per_s": (
                self._sweeps(self.lattice) / seconds["mcmc_lattice"], "chain-sweeps/s"),
        }


# ---------------------------------------------------------------------------

class ConfineSweep(Workload):
    name = "confine_sweep"
    main_op = "confine_continuous"
    side_op = "confine_lattice"
    lattice_sites = 250_000
    lattice_points = 8

    def __init__(self, seed, work, smoke=False):
        super().__init__(seed, work, smoke)
        # continuous sweep: rho-min, rho-max, steps, mesh; a coarser mesh
        # fails the 2% half-mesh check and fewer sites fail the slope window
        self.cont = ("0.01", "0.1", 5 if smoke else 6, "0.08")
        self.repeats = 1 if smoke else 2

    def write_inputs(self):
        _write_json(self.path("continuous.json"), {
            "model": {"n_sites": 100, "epsilon": 0.01, "macro_length": 1.0,
                      "height_mode": "continuous"},
            "potential": {"kind": "gaussian", "kappa": 1.0}})
        n = self.lattice_sites
        _write_json(self.path("lattice.json"), {
            "model": {"n_sites": n, "epsilon": 1.0, "macro_length": float(n),
                      "height_mode": "discrete"},
            "potential": {"kind": "gaussian", "kappa": 1.0}})

    def _continuous(self):
        lo, hi, steps, mesh = self.cont
        run_cli(["confine", "--config", self.path("continuous.json"), "--rho-min", lo,
                 "--rho-max", hi, "--rho-steps", steps, "--mesh", mesh, *self.common(),
                 "--out", self.path("continuous")])

    def _lattice(self):
        run_cli(["confine", "--config", self.path("lattice.json"),
                 "--rho-steps", self.lattice_points, *self.common(),
                 "--out", self.path("lattice")])

    def ops(self):
        return [Op("confine_continuous", self._continuous, self.cont[2])] + [
            Op(f"confine_lattice_{k}", self._lattice, self.lattice_points, "confine_lattice")
            for k in range(self.repeats)]

    def _sweep_ok(self, out: str, mesh_check: bool):
        rows = read_table(self.path(out, "confine.csv"))
        fit = json.loads(self.path(out, "confine_fit.json").read_text())
        fs = rows["F"]
        ok = -0.77 <= fit["slope"] <= -0.57 and bool(np.all(np.diff(fs) < 0))
        detail = f"slope {fit['slope']:.4f} (window [-0.77, -0.57]), F decreasing: " \
                 f"{bool(np.all(np.diff(fs) < 0))}"
        if mesh_check:
            worst = float(np.max(rows["mesh_delta"] / fs))
            ok = ok and worst <= 0.02
            detail += f", mesh_delta/F at most {worst:.2%} (limit 2%)"
        return ok, detail

    def check(self, results, refs):
        def path_sums():
            support = (-1.0, 0.0, 1.0)
            pots = (GaussianPotential(1.0), TabulatedPotential(np.array(support), np.zeros(3)))
            worst = 0.0
            for n in range(2, 7):
                params = ModelParams(n, 1.0, float(n), height_mode="discrete")
                for pot in pots:
                    spec = oracle.EnumerationSpec(params, pot, support)
                    for rho in (0.7, 1.3):
                        op = confinement.build_transfer(
                            params, pot, confinement.TubeSpec(rho), support=support)
                        radius = op.radius
                        exact = oracle.enumerate_configs(
                            spec, event=lambda h: np.max(np.abs(h[:, 1:n + 1]), axis=1) <= radius)
                        worst = max(worst, abs(confinement.survival_probability(op, n)
                                               - exact.probability))
            return worst <= 1e-12, f"transfer path sums off enumeration by {worst:.1e} " \
                                   "at N <= 6 (limit 1e-12)"

        return CheckReport([
            guarded("confine_continuous", ("confine_continuous",),
                    lambda: self._sweep_ok("continuous", True)),
            guarded("confine_lattice", ("confine_lattice",),
                    lambda: self._sweep_ok("lattice", False)),
            guarded("transfer_vs_oracle", ("confine_lattice",), path_sums),
        ])

    def named_metrics(self, seconds, facts):
        return {
            "confine_points_per_s": (self.cont[2] / seconds["confine_continuous"],
                                     "points/s"),
            "confine_lattice_points_per_s": (
                self.lattice_points * self.repeats / seconds["confine_lattice"], "points/s"),
        }


# ---------------------------------------------------------------------------

class LdpProfile(Workload):
    name = "ldp_profile"
    main_op = "profile_quartic"
    side_op = "profile_alpha2"
    alpha2_boundary = (0.7, -0.3, 0.0)

    def __init__(self, seed, work, smoke=False):
        super().__init__(seed, work, smoke)
        spread, count = (0.2, 1) if smoke else (2.0, 4)
        self.triples = latin_hypercube(self.rng, count, -spread, spread)
        self.points = 5 if smoke else 11
        self.alpha2_repeats = 1 if smoke else 3

    def write_inputs(self):
        _write_json(self.path("quartic.json"), {
            "potential": {"kind": "power", "kappa": 1.0, "alpha": 4.0}})
        _write_json(self.path("alpha2.json"), {
            "potential": {"kind": "power", "kappa": 0.5, "alpha": 2.0}})

    def _profile(self, cfg: str, triple, out: str) -> None:
        xl, xr, slope = triple
        run_cli(["profile", "--config", self.path(cfg), "--xi-left", repr(xl),
                 "--xi-right", repr(xr), "--slope", repr(slope), "--points", self.points,
                 *self.common(), "--out", self.path(out)])

    def ops(self):
        quartic = [Op(f"profile_quartic_{k}",
                      functools.partial(self._profile, "quartic.json", t, f"quartic{k}"),
                      1, "profile_quartic")
                   for k, t in enumerate(self.triples)]
        alpha2 = [Op(f"profile_alpha2_{k}",
                     functools.partial(self._profile, "alpha2.json", self.alpha2_boundary,
                                       "alpha2"), 1, "profile_alpha2")
                  for k in range(self.alpha2_repeats)]
        return quartic + alpha2

    def _read(self, out: str):
        tilts = json.loads(self.path(out, "tilts.json").read_text())
        prof = read_table(self.path(out, "profile.csv"))
        return tilts, prof["t"], prof["profile"]

    def _profile_ok(self, out: str, slope: float):
        tilts, ts, vals = self._read(out)
        ends = max(abs(vals[0]), abs(vals[-1] - slope))
        ok = tilts["residual"] <= 1e-9 and ts[0] == 0.0 and ts[-1] == 1.0 and ends <= 1e-8
        return ok, f"Newton residual {tilts['residual']:.1e} (limit 1e-9), " \
                   f"profile ends off (0, slope) by {ends:.1e} (limit 1e-8)"

    def check(self, results, refs):
        def cubic():
            ok, detail = self._profile_ok("alpha2", self.alpha2_boundary[2])
            _, ts, vals = self._read("alpha2")
            xl, xr, _ = self.alpha2_boundary
            off = float(np.max(np.abs(vals - (ts * (1 - ts) ** 2 * xl + ts ** 2 * (1 - ts) * xr))))
            return ok and off <= 1e-10, f"{detail}; off the cubic by {off:.1e} (limit 1e-10)"

        checks = [guarded(f"profile_quartic{k}", (f"profile_quartic_{k}",),
                          lambda k=k, s=t[2]: self._profile_ok(f"quartic{k}", s))
                  for k, t in enumerate(self.triples)]
        checks.append(guarded("profile_alpha2_cubic", ("profile_alpha2",), cubic))
        return CheckReport(checks)

    def named_metrics(self, seconds, facts):
        runs = len(self.triples) + self.alpha2_repeats
        return {"profile_runs_per_s": (
            runs / (seconds["profile_quartic"] + seconds["profile_alpha2"]), "runs/s")}


WORKLOADS = {w.name: w for w in (BridgeIO, McmcBridge, ConfineSweep, LdpProfile)}
