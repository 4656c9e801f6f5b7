"""Public surface: every `__all__` name exists, and the package re-exports
only names that some module lists.  The benchmark tracer wraps each function
named in a module's `__all__`, so a stale name breaks it as surely as a stale
re-export breaks `import semiflex`.  Also stands in for a linter: no module
imports a name it never uses."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import semiflex

MODULES = sorted(m.name for m in pkgutil.iter_modules(semiflex.__path__))

# bound without a caller on purpose: the benchmark tracer counts the quad calls
# made through `semiflex.ldp.integrate`
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


def test_cli_import_leaves_convolution_modules_unloaded():
    # every command pays for what `import semiflex.cli` loads; the transfer
    # operator imports scipy.ndimage when it first runs
    src = str(Path(semiflex.__path__[0]).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, semiflex.cli; "
            "print(sorted(m for m in ('scipy.ndimage', 'scipy.signal') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
