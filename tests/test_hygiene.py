"""Source hygiene of the library modules, checked by parsing them."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "heckezero").glob("*.py"))
LIBRARY = [path for path in SOURCES if path.name != "__init__.py"]
# outside the library, a public name is reached from a demo or an
# acceptance test of a paper claim
READERS = sorted((ROOT / "demos").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]


def _parse(path):
    text = path.read_text()
    return text, ast.parse(text, filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    # an assert vanishes under `python -O`; library checks raise instead
    _, tree = _parse(path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # a name counts as used when it occurs anywhere outside the import
    # statements, doctests and __all__ included
    text, tree = _parse(path)
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    lines = text.splitlines()
    for node in imports:
        for r in range(node.lineno - 1, node.end_lineno):
            lines[r] = ""
    rest = "\n".join(lines)
    names = [(alias.asname or alias.name).split(".")[0]
             for node in imports for alias in node.names]
    unused = [name for name in names
              if not re.search(rf"\b{re.escape(name)}\b", rest)]
    assert unused == []


def _reads(tree, skip=None):
    """Every name that `tree` loads, bare or as an attribute, outside the
    top-level definition named `skip`."""
    tops = [node for node in tree.body
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name == skip)]
    return {node.id if isinstance(node, ast.Name) else node.attr
            for top in tops for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _public(tree):
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["__all__"])


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_public_name_is_reached(path):
    # the re-exports of __init__.py do not count as a use
    _, tree = _parse(path)
    elsewhere = set().union(*(_reads(_parse(other)[1])
                              for other in LIBRARY + READERS if other != path))
    unreached = [name for name in _public(tree)
                 if name not in elsewhere and name not in _reads(tree, name)]
    assert unreached == []


def test_oracles_import_nothing_from_the_library():
    # the oracles are the independent side of every comparison
    _, tree = _parse(ROOT / "tests" / "oracles.py")
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "heckezero"] == []


def test_importing_the_cli_loads_every_module_and_no_dataclasses():
    # the benchmark's tracer wraps functions in every module after one
    # `import heckezero.cli`; `dataclasses` (and with it `inspect`) would
    # add to the start-up of every CLI process
    code = ("import heckezero.cli, json, sys; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('heckezero') or m in ('dataclasses', 'inspect'))))")
    # -S: no site hooks, so the check sees the package's own imports only
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    expected = {"heckezero"} | {f"heckezero.{path.stem}" for path in LIBRARY}
    assert set(json.loads(proc.stdout)) == expected
