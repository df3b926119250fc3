"""Package surface: every eqlines module exports only names it defines."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_does_not_load_numpy():
    # numpy is loaded only by spectral_reconstruct, when it is called
    src = Path(eqlines.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import eqlines, eqlines.cli; "
            "assert 'numpy' not in sys.modules, 'numpy imported'")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
