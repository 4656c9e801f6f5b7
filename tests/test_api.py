"""Public surface: every `__all__` name exists, and the package re-exports
only names that some module lists.  The benchmark tracer wraps each function
named in a module's `__all__`, so a stale name breaks it as surely as a stale
re-export breaks `import semiflex`.  The demos and the benchmark import only
names that exist and pass only keywords their callees take, which no other
fast test checks.  Also stands in for a linter: no module imports a name it
never uses.  A failing property test must report its falsifying example
under the repo's pytest config."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from scipy import integrate

import semiflex
from semiflex import ldp

MODULES = sorted(m.name for m in pkgutil.iter_modules(semiflex.__path__))
ROOT = Path(__file__).resolve().parents[1]
OUTSIDE = sorted(str(p.relative_to(ROOT))
                 for p in [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/**/*.py")])

# imported without a caller on purpose: the benchmark tracer counts the quad
# calls made through `semiflex.ldp.integrate`, which ldp's module `__getattr__`
# imports on first read
KEPT_IMPORTS = {("ldp", "integrate")}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    mod = importlib.import_module(f"semiflex.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_only_listed_names():
    listed = set()
    for name in MODULES:
        listed.update(importlib.import_module(f"semiflex.{name}").__all__)
    exported = {n for n in vars(semiflex) if not n.startswith("_") and n not in MODULES}
    assert sorted(exported - listed) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_imports(name):
    tree = ast.parse(Path(semiflex.__path__[0], f"{name}.py").read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(n for n in imported - used if (name, n) not in KEPT_IMPORTS)
    assert unused == []


def test_no_module_imports_scipy():
    # adaptive quadrature stays out of the package: the step laws and the
    # tilted moments integrate on model's tanh-sinh rule.  The one scipy
    # import is ldp's lazy `integrate`, which only the benchmark tracer reads
    found = set()
    for name in MODULES:
        for node in ast.walk(ast.parse(Path(semiflex.__path__[0], f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                found.update((name, a.asname or a.name) for a in node.names
                             if a.name.split(".")[0] == "scipy")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found.update((name, a.asname or a.name) for a in node.names)
    assert sorted(found - KEPT_IMPORTS) == []


def _names_read(node):
    """Names, attributes and whole-string constants under node: every way
    code here refers to a module-level name."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_no_orphaned_private_helpers():
    # a module-level _name must be read somewhere besides its own definition
    reads = Counter()
    for d in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / d).rglob("*.py"):
            reads.update(_names_read(ast.parse(path.read_text())))
    orphans = []
    for name in MODULES:
        for node in ast.parse(Path(semiflex.__path__[0], f"{name}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = Counter(_names_read(node))
            orphans += [f"{name}.{d}" for d in defined
                        if d.startswith("_") and not d.startswith("__") and reads[d] == own[d]]
    assert orphans == []


def test_cli_import_leaves_convolution_modules_unloaded():
    # every command pays for what `import semiflex.cli` loads; no command
    # needs scipy (the convolution modules included: the transfer operator is
    # BLAS GEMM), and only a run on several workers needs multiprocessing
    src = str(Path(semiflex.__path__[0]).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, semiflex.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_ldp_binds_integrate_on_first_read():
    # the benchmark tracer wraps `semiflex.ldp.integrate.quad`
    assert ldp.integrate.quad is integrate.quad
    assert vars(ldp)["integrate"] is integrate


def test_ldp_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ldp.no_such_name  # noqa: B018


def test_failing_property_test_reports_its_example(tmp_path):
    # on failure hypothesis imports libcst to print a patch; under the repo's
    # warnings-as-errors config that import must not crash the pytest run
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True)
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "Falsifying example" in report
    assert "INTERNALERROR" not in report


def _module(path):
    try:
        return importlib.import_module(path)
    except ImportError:
        return None


def _has(mod, name):
    # a submodule counts before anything has imported it
    return hasattr(mod, name) or (hasattr(mod, "__path__") and importlib.util.find_spec(
        f"{mod.__name__}.{name}") is not None)


def _resolve(node, bound):
    """The semiflex object a Name or Attribute chain refers to, else None."""
    if isinstance(node, ast.Name):
        path = bound.get(node.id)
        return _module(path) or _attr(path) if path else None
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound)
        return getattr(owner, node.attr, None) if owner is not None else None
    return None


def _attr(path):
    mod, _, name = path.rpartition(".")
    return getattr(_module(mod), name, None) if mod else None


def _unknown_keywords(call, bound):
    fn = _resolve(call.func, bound)
    if fn is None or not callable(fn):
        return []
    params = inspect.signature(fn).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return []
    return [f"{fn.__qualname__}({k.arg}=)" for k in call.keywords
            if k.arg is not None and k.arg not in params]


@pytest.mark.parametrize("path", OUTSIDE)
def test_outside_callers_use_existing_names(path):
    # every name imported from semiflex or one of its modules, and every
    # attribute read off a name bound to such a module, must exist; every
    # keyword passed to a semiflex callable must be one of its parameters
    tree = ast.parse((ROOT / path).read_text())
    refs, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "semiflex":
            for a in node.names:
                refs.append((node.module, a.name))
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "semiflex":
                    refs.append((a.name, None))
                    # `import semiflex.x` binds semiflex, `import semiflex.x as y` binds y
                    bound[a.asname or "semiflex"] = a.name if a.asname else "semiflex"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound and _module(bound[node.value.id]):
            refs.append((bound[node.value.id], node.attr))
    missing = set()
    for mod_path, name in refs:
        mod = _module(mod_path)
        if mod is None or (name and not _has(mod, name)):
            missing.add(f"{mod_path}.{name}" if name else mod_path)
    assert sorted(missing) == []
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert sorted(k for c in calls for k in _unknown_keywords(c, bound)) == []
