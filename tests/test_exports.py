"""Every public name a bitarq module lists in ``__all__`` exists, so a
deletion that leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import bitarq

MODULES = sorted(m.name for m in pkgutil.iter_modules(bitarq.__path__))


def test_every_module_is_checked():
    assert {"analytic", "feedback", "fusion", "mc", "model", "optimize"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"bitarq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"bitarq.{name}.__all__ lists undefined names {missing}"
    namespace = {}
    exec(f"from bitarq.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
