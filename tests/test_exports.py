"""Every public name a bitarq module lists in ``__all__`` exists, so a
deletion that leaves a stale export fails here."""

import ast
import importlib
import pathlib
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


def _private_imports(path):
    """``module.name`` of every ``_``-prefixed (not dunder) name ``path`` imports from bitarq."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bitarq")):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield f"{node.module}.{alias.name}"


def test_no_module_imports_a_private_name_of_another():
    # every call across a module boundary goes through a public name
    offenders = {
        path.name: names
        for path in sorted(pathlib.Path(bitarq.__file__).parent.glob("*.py"))
        if (names := list(_private_imports(path)))
    }
    assert offenders == {}
