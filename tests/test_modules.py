"""Package surface: every eqlines module exports only names it defines."""

import importlib
import pkgutil

import pytest

import eqlines

MODULES = sorted(m.name for m in pkgutil.iter_modules(eqlines.__path__))


def test_all_seven_modules_found():
    assert MODULES == [
        "cli", "exact", "groebner", "polyring", "sicgen", "solver", "verify",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"eqlines.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"eqlines.{name}.__all__ names undefined {missing}"
