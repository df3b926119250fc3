"""Package surface: every eqlines module exports only names it defines,
imports only from the layers below it, and loads only what it runs."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import random
import re
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


SRC = Path(eqlines.__file__).resolve().parent.parent


def _loaded_after(code, tmp_path):
    """Run ``code`` in a fresh interpreter in tmp_path and return the
    eqlines, mpmath, numpy, hashlib and _hashlib modules it left
    loaded."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
             "print(' '.join(m for m in sys.modules "
             "if m.split('.')[0] in "
             "('eqlines', 'mpmath', 'numpy', 'hashlib', '_hashlib')))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                         check=True, timeout=60, capture_output=True, text=True)
    return set(out.stdout.split())


def test_import_does_not_load_numpy(tmp_path):
    # nor mpmath, nor any layer: each loads on first use
    assert _loaded_after("import eqlines, eqlines.cli", tmp_path) == {
        "eqlines", "eqlines.cli",
    }


def test_exact_loads_without_mpmath(tmp_path):
    assert _loaded_after("from eqlines import CycloField", tmp_path) == {
        "eqlines", "eqlines.exact",
    }


def test_gen_and_groebner_load_no_numeric_layer(tmp_path):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from eqlines.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['gen', '--kind', 'wh', '--d', '2', '--out', 's.json']) == 0\n"
        "    assert main(['groebner', '--in', 's.json', '--out', 'b.json']) == 0",
        tmp_path,
    )
    assert "eqlines.groebner" in loaded
    assert not loaded & {"mpmath", "numpy", "eqlines.solver", "eqlines.verify"}


@pytest.mark.parametrize("source", [
    ["--preset", "hexagon"],
    ["--in", "signs.json"],
])
def test_gen_real_loads_no_numeric_layer(source, tmp_path):
    (tmp_path / "signs.json").write_text(
        json.dumps({"signs": [[0, 1, 1], [1, 0, -1], [1, -1, 0]]}))
    argv = ["gen", "--kind", "real", "--d", "2", "--n", "3", *source,
            "--out", "r.json"]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from eqlines.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0",
        tmp_path,
    )
    assert "eqlines.sicgen" in loaded
    assert not loaded & {"mpmath", "numpy", "eqlines.solver",
                         "eqlines.verify", "eqlines.groebner"}


def test_gram_loads_no_numpy(tmp_path):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from eqlines.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['gram', '--preset', 'hexagon', '--d', '2',\n"
        "                 '--out', 'g.json']) == 0",
        tmp_path,
    )
    assert {"eqlines.verify", "mpmath"} <= loaded
    assert not {m for m in loaded if m.split(".")[0] == "numpy"}


def test_d2_chain_loads_no_openssl(tmp_path):
    """The chain hashes with CPython's builtin SHA-256: hashlib, and
    with it OpenSSL's libcrypto, stays unloaded."""
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from eqlines.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in [\n"
        "        ['gen', '--kind', 'wh', '--d', '2', '--out', 's.json'],\n"
        "        ['groebner', '--in', 's.json', '--out', 'b.json'],\n"
        "        ['solve', '--in', 'b.json', '--system', 's.json',\n"
        "         '--out', 'p.json'],\n"
        "        ['verify', '--in', 'p.json', '--system', 's.json',\n"
        "         '--out', 'v.json'],\n"
        "        ['overlaps', '--zauner', '1', '--out', 'o.json'],\n"
        "    ]:\n"
        "        assert main(argv) == 0, argv",
        tmp_path,
    )
    assert {"eqlines.solver", "eqlines.verify", "mpmath"} <= loaded
    assert not loaded & {"hashlib", "_hashlib"}


def test_cli_hash_is_sha256(tmp_path):
    from eqlines.cli import main, read_json, sha256

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--kind", "wh", "--d", "2",
                     "--out", str(tmp_path / "s.json")]) == 0
    system = (tmp_path / "s.json").read_bytes()
    for data in [b"", random.Random(1).randbytes(1 << 20), system]:
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert read_json(tmp_path / "s.json")[1] == hashlib.sha256(system).hexdigest()


def test_basis_file_reads_without_cli(tmp_path):
    """A groebner --out file reads back through the library alone."""
    from eqlines.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--kind", "wh", "--d", "2",
                     "--out", str(tmp_path / "s.json")]) == 0
        assert main(["groebner", "--in", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "b.json")]) == 0
    loaded = _loaded_after(
        "import json\n"
        "from eqlines.groebner import GroebnerBasis\n"
        "gb = GroebnerBasis.from_json(json.load(open('b.json')))\n"
        "assert len(gb) == 4 and gb.order == 'lex'",
        tmp_path,
    )
    assert "eqlines.groebner" in loaded
    assert not loaded & {"eqlines.cli", "mpmath", "numpy"}


# each module imports only from modules of a lower rank; groebner and
# sicgen share a rank, so neither imports the other
LAYER_RANK = {"exact": 0, "polyring": 1, "groebner": 2, "sicgen": 2,
              "solver": 3, "verify": 4, "cli": 5}


def _eqlines_imports(path):
    """The eqlines modules that the file at ``path`` imports anywhere,
    inside functions too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:
                    found.update(a.name for a in node.names)
            elif node.module and node.module.split(".")[0] == "eqlines":
                parts = node.module.split(".")
                found.update(parts[1:2] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "eqlines" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_modules_import_only_lower_layers():
    assert set(LAYER_RANK) == set(MODULES)
    pkg = Path(eqlines.__file__).resolve().parent
    upward = {
        name: sorted(dep for dep in _eqlines_imports(pkg / f"{name}.py")
                     if LAYER_RANK[dep] >= LAYER_RANK[name])
        for name in MODULES
    }
    assert upward == {name: [] for name in MODULES}


def _hashlib_imports(path):
    """Each import of hashlib or _hashlib in the file at ``path``, as
    (line, inside an ``except ImportError`` handler)."""
    tree = ast.parse(path.read_text())
    handled = {
        id(node)
        for h in ast.walk(tree)
        if isinstance(h, ast.ExceptHandler)
        and isinstance(h.type, ast.Name) and h.type.id == "ImportError"
        for node in ast.walk(h)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if {n.split(".")[0] for n in names} & {"hashlib", "_hashlib"}:
            found.append((node.lineno, id(node) in handled))
    return found


def test_only_the_cli_fallback_imports_hashlib():
    """hashlib maps OpenSSL into the process; the chain hash comes from
    the builtin module, and hashlib only backs it up in cli.py on an
    interpreter built without it."""
    pkg = Path(eqlines.__file__).resolve().parent
    imports = {p.stem: _hashlib_imports(p) for p in sorted(pkg.glob("*.py"))}
    cli = imports.pop("cli")
    assert imports == {name: [] for name in imports}
    assert len(cli) == 1 and cli[0][1], cli


def _identifiers(path):
    """Every name the file at ``path`` uses in code: variables,
    attributes and imported names (string literals do not count)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[0])
    return found


def _absolute_imports(path):
    """The top-level module of every absolute import in the file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
    return found


# CPython's builtin SHA-256 module, named _sha256 before 3.12 and _sha2
# since; sys.stdlib_module_names lists only the running version's name
_BUILTIN_SHA = {"_sha2", "_sha256"}


def _dependencies():
    """Top-level module names of the pyproject.toml dependencies."""
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
            for dep in deps}


def test_imports_are_stdlib_eqlines_or_dependencies():
    """Every import under src/eqlines, function-local ones included,
    names the standard library, eqlines itself or a declared
    dependency: a test-only package such as numpy cannot creep back."""
    allowed = (set(sys.stdlib_module_names) | _BUILTIN_SHA | {"eqlines"}
               | _dependencies())
    pkg = Path(eqlines.__file__).resolve().parent
    stray = sorted((path.name, name) for path in pkg.glob("*.py")
                   for name in _absolute_imports(path) - allowed)
    assert stray == []
    assert "numpy" not in _dependencies()


def test_field_descriptors_own_the_scalars():
    """Only exact names CycloNum; the layers that handle polynomials
    generically reach scalars through ``ring.field`` and never import
    fractions."""
    pkg = Path(eqlines.__file__).resolve().parent
    naming = sorted(
        name for name in MODULES
        if name != "exact" and "CycloNum" in _identifiers(pkg / f"{name}.py")
    )
    assert naming == []
    importing = sorted(
        name for name in ("polyring", "groebner", "solver")
        if "fractions" in _absolute_imports(pkg / f"{name}.py")
    )
    assert importing == []


def test_only_polyring_names_the_monomial_table():
    """``Ring._monos`` belongs to polyring: the other layers move
    polynomials between rings with ``rehome``."""
    pkg = Path(eqlines.__file__).resolve().parent
    naming = sorted(
        name for name in MODULES
        if "_monos" in _identifiers(pkg / f"{name}.py")
    )
    assert naming == ["polyring"]


def test_only_polyring_builds_polynomials_from_raw_tuples():
    """``Poly._raw`` takes two tuples already in canonical form, so
    the canonical-form invariant has one owner: the other layers build
    polynomials from (monomial, coefficient) pairs."""
    pkg = Path(eqlines.__file__).resolve().parent
    naming = sorted(
        name for name in MODULES if "_raw" in _identifiers(pkg / f"{name}.py")
    )
    assert naming == ["polyring"]


def test_only_groebner_builds_groebner_bases():
    """A ``GroebnerBasis`` is the reduced basis of its ideal: only
    groebner, which computes or checks it, calls the constructor."""
    pkg = Path(eqlines.__file__).resolve().parent
    calling = sorted({
        name for name in MODULES
        for node in ast.walk(ast.parse((pkg / f"{name}.py").read_text()))
        if isinstance(node, ast.Call) and "GroebnerBasis" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    })
    assert calling == ["groebner"]


def test_only_solution_sets_decide_realness():
    """A ``SolutionSet`` derives every point tag from its coordinates
    when it is built, and everything else reads the tags: the helpers
    that decide realness, sign pairs, orbits and Zauner matches are
    called in the class only."""
    pkg = Path(eqlines.__file__).resolve().parent
    helpers = ("_is_real_point", "_sign_canonical", "_orbit_id", "_is_zauner")
    calling = sorted(
        (callee, name, getattr(top, "name", None))
        for name in MODULES
        for top in ast.parse((pkg / f"{name}.py").read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        for callee in helpers
        if callee in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )
    assert calling == sorted((h, "solver", "SolutionSet") for h in helpers)


def test_package_names_resolve_to_their_modules():
    wrong = [
        name for name in eqlines.__all__
        if getattr(eqlines, name) is not getattr(
            importlib.import_module(f"eqlines.{eqlines._OWNER[name]}"), name)
    ]
    assert not wrong, f"eqlines names bound to the wrong object: {wrong}"
    assert set(eqlines.__all__) <= set(dir(eqlines))


def test_package_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        eqlines.no_such_name
