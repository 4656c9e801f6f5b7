"""Tests of the benchmark itself (not of semiflex).

    python3 -m pytest perfbench/tests -q

The smoke runs start real benchmark processes at small sizes, so this file
takes about a minute.  Smoke sizes still pass every check at
the default seed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.ess import bulk_ess  # noqa: E402
from perfbench.spans import MODULES, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, BridgeIO  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every end-to-end figure printed by name, each by the workload it applies to
NAMED = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ops_failed_frac": "ratio",
    "bridge_csv_rows_per_s": "rows/s", "bridge_bin_rows_per_s": "rows/s",
    "theta_stats_rows_per_s": "rows/s", "csv_read_rows_per_s": "rows/s",
    "mcmc_chain_sweeps_per_s": "chain-sweeps/s", "mcmc_ess_per_s": "1/s",
    "mcmc_lattice_chain_sweeps_per_s": "chain-sweeps/s",
    "confine_points_per_s": "points/s", "confine_lattice_points_per_s": "points/s",
    "profile_runs_per_s": "runs/s",
}


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _metric_lines(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ", 1)
            out.setdefault(name, rest.rsplit(" ", 1)[1])
    return out


def test_bulk_ess_matches_known_chains():
    rng = np.random.default_rng(3)
    iid = rng.normal(size=(32, 400))
    assert bulk_ess(iid) == pytest.approx(iid.size, rel=0.15)

    rho = 0.9
    ar = np.empty((32, 2000))
    ar[:, 0] = rng.normal(size=32) / math.sqrt(1 - rho * rho)
    for t in range(1, ar.shape[1]):
        ar[:, t] = rho * ar[:, t - 1] + rng.normal(size=32)
    assert bulk_ess(ar) == pytest.approx(ar.size * (1 - rho) / (1 + rho), rel=0.25)


def test_wrong_reference_counts_as_failed_op(tmp_path):
    wl = BridgeIO(seed=4, work=tmp_path, smoke=True)
    wl.write_inputs()
    refs = wl.references()
    ops = wl.ops()
    p = harness.run_pass(ops)
    assert not p.errors
    assert harness.failed_ops(ops, p, wl.check(p.results, refs)) == set()

    wrong = dict(refs, bin=refs["bin"].copy())
    wrong["bin"][3, 7] += 1e-9
    assert harness.failed_ops(ops, p, wl.check(p.results, wrong)) == {"bridge_bin"}


def test_tracer_restores_every_patched_attribute():
    import semiflex.ldp
    import semiflex.model
    import semiflex.sampling

    before = (semiflex.sampling.sample_bridge_mcmc, semiflex.ldp.integrate,
              semiflex.model.GaussianPotential.__call__)
    tracer = Tracer()
    with tracer.installed():
        assert semiflex.sampling.sample_bridge_mcmc is not before[0]
        assert semiflex.ldp.integrate is not before[1]
    after = (semiflex.sampling.sample_bridge_mcmc, semiflex.ldp.integrate,
             semiflex.model.GaussianPotential.__call__)
    assert after == before


def test_smoke_run_prints_every_metric_with_its_unit():
    proc = _bench("--workload", "all", "--smoke", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    printed = _metric_lines(proc.stdout)
    for name, unit in NAMED.items():
        assert printed.get(name) == unit, name
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name in WORKLOADS:
        for m in SPEC["end_to_end"]:
            entry = result["metrics"][f"{name}.{m['name']}"]
            assert entry["unit"] == m["unit"] and entry["value"] > 0


def test_smoke_trace_has_every_module_and_repeatable_counts():
    proc = _bench("--workload", "all", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    printed = _metric_lines(proc.stdout)
    for m in SPEC["per_layer"]:
        assert printed.get(m["name"]) == m["unit"], m["name"]
    assert proc.stdout.count("check count_repeat ok") == len(WORKLOADS)
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 0
    assert "tracing overhead" in proc.stdout

    modules = set()
    for name in WORKLOADS:
        trace = json.loads((ROOT / ".bench_build" / "perfbench" /
                            f"trace-{name}-seed0-smoke.json").read_text())
        assert trace["stamp"]["workload"] == name
        for p in trace["passes"]:
            modules |= {s["name"].split(".")[0] for s in p["spans"]}
    assert set(MODULES) <= modules


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bridge_io", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
