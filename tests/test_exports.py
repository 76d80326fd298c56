import importlib
import pkgutil

import pytest

import piecewise_prox

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(piecewise_prox.__path__))


@pytest.mark.parametrize("module", ["piecewise_prox", *(f"piecewise_prox.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_submodules_found():
    assert {"certificate", "harness", "piecewise", "prox", "smooth", "solvers"} <= set(SUBMODULES)
