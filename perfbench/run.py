"""Benchmark for semiflex: end-to-end figures per workload, per-layer
figures from a traced run.

    python3 perfbench/run.py --workload bridge_io --seed 1 --seconds 20
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload ldp_profile --trace 1
    python3 perfbench/run.py --workload all --smoke --seconds 1

Run it from the root of a checkout.  Every run starts fresh interpreters:
a few set-up probes that only import `semiflex.cli` and write the
workload's config files (their median, with the worker's own set-up, is
`setup_s`), then one worker that measures.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it name every metric with its unit, list each
check, and stamp the machine and program versions.  Metric names and
units are read from BENCHMARK.json, so the JSON line carries exactly the
metrics the benchmark declares.

This file imports only the standard library; numpy, scipy and semiflex are
loaded in the child processes it starts, so their import is what set-up
measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bridge_io", "mcmc_bridge", "confine_sweep", "ldp_profile")
SETUP_PROBES = 2
RUN_DEADLINE_S = 170.0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="how long one run measures (trace runs make a fixed 3 passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    # internal: the child processes this script starts
    p.add_argument("--role", choices=("launch", "setup", "worker"), default="launch",
                   help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    return p


def _child(args, role: str, work: Path, deadline: float, name: str) -> str:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work)]
    if args.smoke:
        argv.append("--smoke")
    launched = time.monotonic()
    argv += ["--launched", repr(launched)]
    left = deadline - launched
    if left <= 0:
        raise RuntimeError("run deadline passed before the worker started")
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=left, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout


def _run_one(args, name: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ROOT / ".bench_build" / "perfbench" / f"{name}-seed{args.seed}-{os.getpid()}"
    try:
        setup = []
        for i in range(1 if args.smoke else SETUP_PROBES):
            out = _child(args, "setup", base / f"probe{i}", deadline, name)
            setup.append(json.loads(out.split("SETUP ", 1)[1]))
        out = _child(args, "worker", base / "run", deadline, name)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    result = json.loads(out.rsplit("RESULT ", 1)[1])
    setup.append(result["setup"])
    result["values"]["setup_s"] = statistics.median(s["reference_s"] for s in setup)
    result["setup_samples"] = setup
    return result


def _report(args, name: str, spec: dict, result: dict) -> dict:
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    for line in result["lines"]:
        print(line)
    metrics = {}
    for m in declared:
        value = result["values"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value!r} {m['unit']}")
    if not args.trace:
        samples = ", ".join(f"{s['reference_s']:.4f} ({s['measured_s']:.4f})"
                            for s in result["setup_samples"])
        print(f"setup_s samples, reference (measured): {samples}")
        for key, (value, unit) in result["named"].items():
            print(f"metric {key} = {value!r} {unit}")
    print(f"ops attempted {result['attempted']}, failed {result['failed']}")
    return metrics


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.role != "launch":
        from perfbench.calibrate import calibrate

        loop = calibrate()  # before numpy and scipy load; harness.main subtracts it
        from perfbench import harness

        harness.main(args, ROOT, loop)
        return 0

    if not (ROOT / "src" / "semiflex" / "__init__.py").is_file():
        print(f"perfbench: no semiflex sources under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failed = {}, 0, 0
    for name in names:
        try:
            result = _run_one(args, name)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = _report(args, name, spec, result)
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
