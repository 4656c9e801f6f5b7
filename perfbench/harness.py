"""Worker side of one benchmark run.

`run.py` starts this in a fresh interpreter per run.  The worker writes the
workload's inputs (the end of set-up), builds untimed references, then
repeats passes of the workload's operations until the run's seconds are
used up.  Op times are reported in reference seconds (see calibrate.py).
Every pass is checked; a pass whose output files are byte identical to an
already-checked pass shares that pass's verdict.  With tracing on it makes
one untraced pass and two traced ones instead, and reports per-layer
figures from the traced passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import semiflex

from .calibrate import calibrate, scale
from .spans import COUNT_METRICS, Tracer, layer_metrics
from .workloads import WORKLOADS, Workload

MAX_PASSES = 50
TRACED_PASSES = 2


@dataclass
class Pass:
    """One pass: per-op seconds (reference and measured), CPU, results."""

    seconds: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    cpu: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    @property
    def wall_raw(self) -> float:
        return sum(self.raw.values())

    def group(self, ops, name: str) -> float:
        return sum(self.seconds[op.name] for op in ops if op.group == name)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(ops, tracer: Tracer | None = None) -> Pass:
    """Run every op once, each bracketed by calibration loops."""
    p = Pass()
    loop = calibrate()
    for op in ops:
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            if tracer is None:
                p.results[op.name] = op.run()
            else:
                with tracer.root("op", op.name):
                    p.results[op.name] = op.run()
        except Exception as exc:  # a failed op is counted, the run goes on
            p.errors[op.name] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        dt, dcpu = time.perf_counter() - t0, _cpu() - cpu0
        after = calibrate()
        ref = 0.5 * (loop + after)
        p.raw[op.name] = dt
        p.seconds[op.name] = scale(dt, ref)
        p.cpu[op.name] = scale(dcpu, ref)
        loop = after
    return p


def digest(work: Path, results: dict) -> str:
    """Fingerprint of everything a pass produced: output files and arrays."""
    h = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(work)).encode())
        h.update(path.read_bytes())
    for name in sorted(results):
        if isinstance(results[name], np.ndarray):
            h.update(name.encode())
            h.update(results[name].tobytes())
    return h.hexdigest()


def failed_ops(ops, p: Pass, report) -> set[str]:
    """Ops that raised, or that a failed check names directly or by group."""
    bad = set(p.errors) | {name for c in report.checks if not c.ok for name in c.ops}
    return {op.name for op in ops if op.name in bad or op.group in bad}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(root: Path, wl: Workload) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "semiflex").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "workload": wl.name, "seed": wl.seed, "smoke": wl.smoke,
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(root),
        "src_sha256": src.hexdigest()[:16],
    }


def _checks_lines(report, label: str) -> list[str]:
    return [f"check {c.name} [{label}] {'ok' if c.ok else 'FAILED'}: {c.detail}"
            for c in report.checks]


def timed(wl: Workload, refs: dict, seconds: float) -> dict:
    ops = wl.ops()
    passes, lines, attempted, failed = [], [], 0, 0
    verdicts: dict[str, object] = {}
    facts: dict = {}
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        p = run_pass(ops)
        length = time.monotonic() - t0
        key = digest(wl.work, p.results)
        if key not in verdicts:
            verdicts[key] = wl.check(p.results, refs)
            lines += _checks_lines(verdicts[key], f"pass {len(passes) + 1}")
        report = verdicts[key]
        facts = facts or report.facts
        bad = failed_ops(ops, p, report)
        attempted += len(ops)
        failed += len(bad)
        lines += [f"error {name}: {msg}" for name, msg in p.errors.items()]
        passes.append(p)
        # start another pass only if at least half of one as long as the
        # last still fits
        if time.monotonic() - start + length / 2 > seconds or len(passes) >= MAX_PASSES:
            break

    groups = {op.group: 0 for op in ops}
    items = {g: sum(op.items for op in ops if op.group == g) for g in groups}
    med = {g: statistics.median(p.group(ops, g) for p in passes) for g in groups}
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(sum(p.cpu.values()) for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "main_op_per_s": items[wl.main_op] / med[wl.main_op],
        "side_op_per_s": items[wl.side_op] / med[wl.side_op],
    }
    named = wl.named_metrics(med, facts)
    named["ops_failed_frac"] = (failed / attempted, "ratio")
    lines.append(f"ops_failed_frac: {failed} of {attempted} ops failed")
    lines.append(f"passes {len(passes)}; wall s per pass, reference (measured): "
                 + ", ".join(f"{p.wall:.3f} ({p.wall_raw:.3f})" for p in passes))
    lines.append("op reference seconds (median over passes): "
                 + ", ".join(f"{g} {v:.4f}" for g, v in med.items()))
    return {"attempted": attempted, "failed": failed, "lines": lines,
            "values": values, "named": named}


def traced(wl: Workload, refs: dict, trace_path: Path, stamp_: dict) -> dict:
    ops = wl.ops()
    lines, attempted, failed = [], 0, 0

    base = run_pass(ops)
    report = wl.check(base.results, refs)
    lines += _checks_lines(report, "untraced")
    attempted += len(ops)
    failed += len(failed_ops(ops, base, report))

    runs, dumps = [], []
    for k in range(TRACED_PASSES):
        tracer = Tracer()
        with tracer.installed():
            p = run_pass(ops, tracer)
            with tracer.root("check", wl.name):
                report = wl.check(p.results, refs)
        lines += _checks_lines(report, f"traced {k + 1}")
        attempted += len(ops)
        failed += len(failed_ops(ops, p, report))
        m = layer_metrics(tracer)
        ess, draws = report.facts.get("ess"), report.facts.get("draws")
        m["sampling.mcmc_ess_ratio"] = ess / draws if ess is not None else 0.0
        m["trace.wall_s"] = p.wall
        runs.append(m)
        dumps.append({"pass": k + 1, "wall_s": p.wall, "wall_measured_s": p.wall_raw,
                      **tracer.dump()})

    differ = [name for name in COUNT_METRICS if len({m[name] for m in runs}) > 1]
    attempted += 1
    if differ:
        failed += 1
        lines.append("error count_repeat: counts differ between traced passes: "
                     + ", ".join(f"{n} {[m[n] for m in runs]}" for n in differ))
    else:
        lines.append(f"check count_repeat ok: {len(COUNT_METRICS)} counts identical "
                     f"across {TRACED_PASSES} traced passes")

    values = {}
    for name in runs[0]:
        vals = [m[name] for m in runs]
        values[name] = vals[0] if name in COUNT_METRICS else statistics.median(vals)
    values["trace.overhead_s"] = values.pop("trace.wall_s") - base.wall
    lines.append(f"tracing overhead {values['trace.overhead_s']:.4f} reference s on an "
                 f"untraced pass of {base.wall:.4f} reference s")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"stamp": stamp_, "untraced_wall_s": base.wall,
                                      "untraced_wall_measured_s": base.wall_raw,
                                      "passes": dumps}) + "\n")
    lines.append(f"trace written to {trace_path}")
    return {"attempted": attempted, "failed": failed, "lines": lines,
            "values": values, "named": {}}


def main(args, root: Path, loop_before: float) -> None:
    """Worker or set-up probe.  Set-up time runs from the moment the parent
    launched this process to the moment the inputs are written, less
    `loop_before`, a calibration loop run at process start before the
    imports that set-up measures."""
    src = (root / "src" / "semiflex").resolve()
    if Path(semiflex.__file__).resolve().parent != src:
        raise SystemExit(f"perfbench: imported semiflex from {semiflex.__file__}, "
                         f"expected {src}")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, work, smoke=args.smoke)
    wl.write_inputs()
    measured = time.monotonic() - args.launched - loop_before
    loop = 0.5 * (loop_before + calibrate())
    setup = {"measured_s": measured, "reference_s": scale(measured, loop)}
    if args.role == "setup":
        print("SETUP " + json.dumps(setup))
        return

    refs = wl.references()
    stamp_ = stamp(root, wl)
    if args.trace:
        trace_path = root / ".bench_build" / "perfbench" / \
            f"trace-{wl.name}-seed{wl.seed}{'-smoke' if wl.smoke else ''}.json"
        out = traced(wl, refs, trace_path, stamp_)
    else:
        out = timed(wl, refs, args.seconds)
    out["setup"] = setup
    out["stamp"] = stamp_
    print("RESULT " + json.dumps(out))
