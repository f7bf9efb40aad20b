"""Every exported name of ``eprsim`` and of each of its modules exists."""

import importlib
import pkgutil

import pytest

import eprsim

MODULES = ["eprsim", *(f"eprsim.{m.name}" for m in pkgutil.iter_modules(eprsim.__path__))]


@pytest.mark.parametrize("modname", MODULES)
def test_every_name_in_all_resolves(modname):
    mod = importlib.import_module(modname)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import():
    namespace = {}
    exec("from eprsim import *", namespace)
    assert set(eprsim.__all__) <= set(namespace)
