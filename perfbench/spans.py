"""Spans and counters for the traced benchmark run.

The tracer wraps semiflex from the outside: while `Tracer.installed()` is
active, every public function of the seven modules (`model`, `gaussian`,
`sampling`, `ldp`, `confinement`, `oracle`, `cli`) records a span (name,
start, end, parent, root), and a few hot callables are counted without a
span of their own:

* `model.potential`  -- `__call__` of the three potential classes,
* `confinement.matvec` -- `TransferOperator.matvec`,
* `ldp.quad` -- `scipy.integrate.quad` as seen from `semiflex.ldp`,
* `ldp.mgf_eval` -- the value/d1/d2 callables of every `LogMgf` that
  `ldp.limit_log_mgf` or `ldp.step_log_mgf` returns.

Those hot callables run up to millions of times per pass, so they are
aggregated (calls, seconds, points, flops) instead of kept as spans; their
time still counts as child time of the span they ran under, so self time
stays honest.  Spans are kept in memory and written out at the end of the
run.  Nothing under src/ is edited; uninstalling restores every attribute.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import weakref
from contextlib import contextmanager
from time import perf_counter

MODULES = ("model", "gaussian", "sampling", "ldp", "confinement", "oracle", "cli")
LEAVES = ("model.potential", "confinement.matvec", "ldp.quad", "ldp.mgf_eval")


class Span:
    __slots__ = ("id", "name", "kind", "root", "parent", "start", "end",
                 "child_s", "info")

    def __init__(self, sid, name, kind, root, parent):
        self.id, self.name, self.kind, self.root, self.parent = sid, name, kind, root, parent
        self.start = perf_counter()
        self.end = None
        self.child_s = 0.0
        self.info = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self, t0: float) -> dict:
        return {"id": self.id, "name": self.name, "kind": self.kind,
                "root": self.root, "parent": self.parent,
                "start_s": self.start - t0, "end_s": self.end - t0,
                "self_s": self.self_s, "info": self.info}


FIELDS = ("calls", "s", "points", "flops")


def _new_leaves() -> dict:
    # one [calls, seconds, points, flops] list per leaf; lists keep the hot
    # wrapper cheap
    return {name: [0, 0.0, 0, 0] for name in LEAVES}


class Tracer:
    """Collects the spans of one traced pass.

    `root(kind, name)` opens the top-level span of one benchmark step; kind
    is "op" for a timed operation and "check" for an untimed correctness
    check, so layer metrics can tell the two apart.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.leaves = {"op": _new_leaves(), "check": _new_leaves()}
        self._cur = self.leaves["check"]
        self._stack: list[Span] = []
        self._leaf_depth = 0
        self._check_ops = weakref.WeakSet()
        self._seen_tubes: set = set()
        self._t0 = perf_counter()

    # -- spans ---------------------------------------------------------
    def _open(self, name: str, kind: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name,
                    kind if parent is None else parent.kind,
                    None if parent is None else parent.root,
                    None if parent is None else parent.id)
        if parent is None:
            span.root = span.id
        span.info["leaf_depth"] = self._leaf_depth
        self._leaf_depth = 0
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self._leaf_depth = span.info.pop("leaf_depth")
        # inside a leaf call the leaf's own time already covers this span
        if self._stack and not self._leaf_depth:
            self._stack[-1].child_s += span.seconds

    @contextmanager
    def root(self, kind: str, name: str):
        if self._stack:
            raise RuntimeError(f"root span {name} opened inside {self._stack[-1].name}")
        self._cur = self.leaves[kind]
        span = self._open(f"{kind}:{name}", kind)
        try:
            yield span
        finally:
            self._close(span)

    def leaf(self, kind: str, name: str) -> dict:
        return dict(zip(FIELDS, self.leaves[kind][name]))

    def dump(self) -> dict:
        return {"spans": [s.as_dict(self._t0) for s in self.spans],
                "leaves": {kind: {name: self.leaf(kind, name) for name in LEAVES}
                           for kind in self.leaves}}

    # -- wrappers ------------------------------------------------------
    def _leaf(self, name: str, fn, size_of=None, flops_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = tracer._leaf_depth
            tracer._leaf_depth = depth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._leaf_depth = depth
                agg = tracer._cur[name]
                agg[0] += 1
                agg[1] += dt
                if size_of is not None:
                    agg[2] += size_of(args)
                if flops_of is not None:
                    agg[3] += flops_of(args)
                if not depth and tracer._stack:
                    tracer._stack[-1].child_s += dt

        return wrapper

    def _function(self, qualname: str, fn, hook=None):
        tracer = self
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(qualname)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    result = hook(span, bound.arguments, result)
                return result
            finally:
                tracer._close(span)

        return wrapper

    def _wrap_mgf(self, mgf):
        return dataclasses.replace(
            mgf, value=self._leaf("ldp.mgf_eval", mgf.value),
            d1=self._leaf("ldp.mgf_eval", mgf.d1), d2=self._leaf("ldp.mgf_eval", mgf.d2))

    def _hooks(self, mods) -> dict:
        ldp = mods["ldp"]

        def mcmc(span, a, result):
            s = a["settings"]
            n_chains = s.n_chains or min(64, s.n_samples)
            per_chain = -(-s.n_samples // n_chains)
            span.info["mode"] = a["params"].height_mode
            span.info["chain_sweeps"] = n_chains * (s.burn_in + per_chain * s.thin)
            return result

        def file_bytes(span, a, result):
            span.info["bytes"] = os.path.getsize(a["path"])
            return result

        def log_mgf(span, a, result):
            return self._wrap_mgf(result) if isinstance(result, ldp.LogMgf) else result

        def tilts(span, a, result):
            span.info["residual"] = float(max(abs(float(r)) for r in result.residual))
            return result

        def build(span, a, op):
            # the first operator built for a tube inside one sweep is the
            # result; any later one for the same tube is the half-mesh check
            sweep = next((s.id for s in reversed(self._stack)
                          if s.name == "confinement.confinement_sweep"), None)
            key = (sweep, a["tube"].rho, a["tube"].grad_cut)
            check = sweep is not None and key in self._seen_tubes
            self._seen_tubes.add(key)
            if check:
                self._check_ops.add(op)
            span.info.update(states=op.n_states, taps=int(op.tap_offsets.size),
                             mesh_check=check)
            return op

        def power(span, a, result):
            span.info.update(iterations=int(result.iterations),
                             mesh_check=a["op"] in self._check_ops)
            return result

        def enumerate_configs(span, a, result):
            spec = a["spec"]
            span.info["configs"] = len(spec.support) ** spec.params.n_sites
            return result

        return {
            "sampling.sample_bridge_mcmc": mcmc,
            "sampling.samples_to_csv": file_bytes,
            "sampling.samples_to_frame": file_bytes,
            "ldp.limit_log_mgf": log_mgf,
            "ldp.step_log_mgf": log_mgf,
            "ldp.solve_tilts": tilts,
            "confinement.build_transfer": build,
            "confinement.power_iteration": power,
            "oracle.enumerate_configs": enumerate_configs,
        }

    @contextmanager
    def installed(self):
        """Patch semiflex for the duration of the block, then restore it."""
        import importlib

        mods = {m: importlib.import_module(f"semiflex.{m}") for m in MODULES}
        hooks = self._hooks(mods)
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            wrapped = {}
            for m, mod in mods.items():
                for name in mod.__all__:
                    fn = getattr(mod, name)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        wrapped[fn] = self._function(f"{m}.{name}", fn,
                                                     hooks.get(f"{m}.{name}"))
            # also rebind names imported with `from .x import f`
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrapped:
                        patch(mod, attr, wrapped[val])

            model = mods["model"]
            for cls in (model.GaussianPotential, model.PowerLawPotential,
                        model.TabulatedPotential):
                patch(cls, "__call__", self._leaf(
                    "model.potential", cls.__call__,
                    size_of=lambda a: getattr(a[1], "size", 1)))

            op_cls = mods["confinement"].TransferOperator
            patch(op_cls, "matvec", self._leaf(
                "confinement.matvec", op_cls.matvec,
                flops_of=lambda a: 2 * a[0].n_states * int(a[0].tap_offsets.size)))

            patch(mods["ldp"], "integrate",
                  _QuadProxy(mods["ldp"].integrate, self._leaf("ldp.quad",
                                                              mods["ldp"].integrate.quad)))
            yield self
        finally:
            for owner, attr, val in reversed(saved):
                setattr(owner, attr, val)


class _QuadProxy:
    """Stands in for `scipy.integrate` inside `semiflex.ldp` only, so quad
    calls from other modules (e.g. `gaussian.sigma2_increment`) are not
    counted as ldp work."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

COUNT_METRICS = (
    "sampling.csv_bytes", "sampling.frame_bytes", "sampling.mcmc_chain_sweeps",
    "model.potential_calls", "model.potential_points", "ldp.quad_calls",
    "ldp.mgf_evals", "confinement.n_states", "confinement.n_taps",
    "confinement.power_iterations", "confinement.matvec_calls", "oracle.configs",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    Everything counts the work under the timed operations only, except
    `oracle.*`: the enumeration oracle never runs inside a timed operation,
    so its figures come from the untimed checks.
    """
    ops = [s for s in tracer.spans if s.kind == "op"]
    by_id = {s.id: s for s in tracer.spans}

    def total(name, pred=lambda s: True, spans=ops):
        return sum(s.seconds for s in spans if s.name == name and pred(s))

    def info_sum(name, key, pred=lambda s: True, spans=ops):
        return sum(s.info.get(key, 0) for s in spans if s.name == name and pred(s))

    def continuous(s):
        return s.info.get("mode") == "continuous"

    def outermost(prefix):
        out = 0.0
        for s in ops:
            parent = by_id.get(s.parent)
            if s.name.startswith(prefix) and not (parent and parent.name.startswith(prefix)):
                out += s.seconds
        return out

    leaf = {name: tracer.leaf("op", name) for name in LEAVES}
    residuals = [s.info["residual"] for s in ops if s.name == "ldp.solve_tilts"]
    sweep_s = total("confinement.confinement_sweep")
    check_s = sum(s.seconds for s in ops
                  if s.name in ("confinement.build_transfer", "confinement.power_iteration")
                  and s.info.get("mesh_check"))
    matvec = leaf["confinement.matvec"]
    checks = [s for s in tracer.spans if s.kind == "check"]
    return {
        "sampling.bridge_draw_s": total("sampling.sample_gaussian_bridge"),
        "sampling.csv_write_s": total("sampling.samples_to_csv"),
        "sampling.csv_bytes": info_sum("sampling.samples_to_csv", "bytes"),
        "sampling.csv_read_s": total("sampling.samples_from_csv"),
        "sampling.frame_write_s": total("sampling.samples_to_frame"),
        "sampling.frame_bytes": info_sum("sampling.samples_to_frame", "bytes"),
        "sampling.theta_stats_s": total("sampling.estimate_theta_stats"),
        "sampling.mcmc_s": total("sampling.sample_bridge_mcmc", continuous),
        "sampling.mcmc_chain_sweeps": info_sum("sampling.sample_bridge_mcmc",
                                               "chain_sweeps", continuous),
        "sampling.mcmc_lattice_s": total("sampling.sample_bridge_mcmc",
                                         lambda s: not continuous(s)),
        "model.potential_calls": leaf["model.potential"]["calls"],
        "model.potential_points": leaf["model.potential"]["points"],
        "model.potential_s": leaf["model.potential"]["s"],
        "gaussian.s": outermost("gaussian."),
        "ldp.limit_log_mgf_s": total("ldp.limit_log_mgf"),
        "ldp.solve_tilts_s": total("ldp.solve_tilts"),
        "ldp.mean_profile_s": total("ldp.mean_profile"),
        "ldp.quad_calls": leaf["ldp.quad"]["calls"],
        "ldp.mgf_evals": leaf["ldp.mgf_eval"]["calls"],
        "ldp.newton_residual_max": max(residuals, default=0.0),
        "confinement.build_s": total("confinement.build_transfer"),
        "confinement.n_states": info_sum("confinement.build_transfer", "states"),
        "confinement.n_taps": info_sum("confinement.build_transfer", "taps"),
        "confinement.power_s": total("confinement.power_iteration"),
        "confinement.power_iterations": info_sum("confinement.power_iteration",
                                                 "iterations"),
        "confinement.matvec_calls": matvec["calls"],
        "confinement.matvec_s": matvec["s"] / matvec["calls"] if matvec["calls"] else 0.0,
        "confinement.matvec_gflops": matvec["flops"] / matvec["s"] / 1e9 if matvec["s"] else 0.0,
        "confinement.mesh_check_share": check_s / sweep_s if sweep_s else 0.0,
        "oracle.enumerate_s": total("oracle.enumerate_configs", spans=checks),
        "oracle.configs": info_sum("oracle.enumerate_configs", "configs", spans=checks),
        "cli.self_s": sum(s.self_s for s in ops if s.name.startswith("cli.")),
    }
