"""Public surface: every `__all__` name exists, and the package re-exports
only names that some module lists.  The benchmark tracer wraps each function
named in a module's `__all__`, so a stale name breaks it as surely as a stale
re-export breaks `import semiflex`."""

import importlib
import pkgutil

import pytest

import semiflex

MODULES = sorted(m.name for m in pkgutil.iter_modules(semiflex.__path__))


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
