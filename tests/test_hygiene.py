"""Source hygiene of the library modules, checked by parsing them."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "heckezero")
                 .glob("*.py"))


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
