"""Source hygiene of the library modules, checked by parsing them, and the
benchmark's commands, checked by the CLI parser."""

import ast
import doctest
import inspect
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "heckezero").glob("*.py"))
LIBRARY = [path for path in SOURCES if path.name != "__init__.py"]
# outside the library, a public name is reached from a demo or an
# acceptance test of a paper claim
DEMOS = sorted((ROOT / "demos").glob("*.py"))
READERS = DEMOS + [ROOT / "tests" / "test_acceptance.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


def _loads(tree):
    """Every bare name that code in `tree` loads, the base of an attribute
    included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", SOURCES + TESTS + DEMOS,
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # a name counts as used where code or a doctest example loads it, or
    # as a string in __all__; prose in docstrings and comments does not
    _, tree = _parse(path)
    used = _loads(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            for example in doctest.DocTestParser().get_examples(
                    ast.get_docstring(node, clean=False) or ""):
                used |= _loads(ast.parse(example.source))
    used |= {node.value for top in tree.body if isinstance(top, ast.Assign)
             and any(getattr(t, "id", None) == "__all__" for t in top.targets)
             for node in ast.walk(top.value) if isinstance(node, ast.Constant)}
    names = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    assert [name for name in names if name not in used] == []


def test_no_import_in_a_function_body():
    # every import is at the top of its module, so the import graph below
    # is the whole of what the library imports
    found = [(path.stem, func.name, getattr(node, "module", None))
             for path in SOURCES for func in ast.walk(_parse(path)[1])
             if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def _imports(path):
    """The library modules that `path` imports relatively."""
    return {alias.name if node.module is None else node.module
            for node in ast.walk(_parse(path)[1])
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_the_brute_half_rests_on_the_shared_base_and_imports_run_one_way():
    graph = {path.stem: _imports(path) for path in LIBRARY}
    assert graph["cyclic_shift"] == {"errors", "compositions", "permutations"}
    # repeatedly drop the modules that import no module left: a cycle
    # never empties
    while graph:
        leaves = {name for name, deps in graph.items() if not deps & graph.keys()}
        assert leaves, sorted(graph)
        graph = {name: deps for name, deps in graph.items()
                 if name not in leaves}


@pytest.mark.parametrize("module, name", [("cyclic_shift", "approx_class"),
                                          ("inductive_product", "iprod")])
def test_the_constructive_half_calls_its_neighbours_once(module, name):
    # outside cli and verify, the one name a library module reads of the
    # brute half, or of the tuple product, is read in sigma_class off the
    # lazily registered module object, so no other label executes it
    reads = set()
    for path in LIBRARY:
        if path.stem in ("cli", "verify", module):
            continue
        tree = _parse(path)[1]
        local = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module is None
                 for alias in node.names if alias.name == module}
        reads |= {(path.stem, None, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module == module for alias in node.names}
        reads |= {(path.stem, getattr(top, "name", None), node.attr)
                  for top in tree.body for node in ast.walk(top)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in local}
    assert reads == {("stair_classes", "sigma_class", name)}


def test_the_rank_walk_has_one_entry():
    # `center_ideals` is the one library caller of the rank walk, and
    # `order_ideal` of the tuple walk; `verify_center_basis` and the
    # `basis` command reach the rank walk through `center_ideals`
    calls = []
    for path in LIBRARY:
        tree = _parse(path)[1]
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "_ideal_masks"):
                    calls.append((path.stem, getattr(top, "name", None),
                                  len(node.args), sorted(
                                      (k.arg, ast.literal_eval(k.value))
                                      for k in node.keywords)))
    assert sorted(calls) == [
        ("hecke", "center_ideals", 1, [("by_rank", True)]),
        ("hecke", "order_ideal", 1, [])]


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


def test_every_benchmark_command_parses():
    # the benchmark counts a command the parser rejects as failed, so an
    # option it passes (such as `sigma --force`) must stay; the workloads
    # file is compiled from its source, which leaves no bytecode beside it
    from heckezero import cli
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    argvs = [command.argv for workload in workloads["WORKLOADS"].values()
             for command in workload.commands]
    assert argvs
    parser = cli._build_parser()
    for argv in argvs:
        assert parser.parse_args(list(argv)).fn, argv


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # under the repo's warning filters, the report of a failing @given
    # test must not raise inside pytest, or every later test goes unrun
    (tmp_path / "test_a_property.py").write_text(_FAILING_PROPERTY)
    (tmp_path / "test_b_plain.py").write_text("def test_passes():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_a_property.py"), str(tmp_path / "test_b_plain.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]


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


# a lazily registered module turns into a plain module when it starts to
# execute; type() reads the class without triggering that
_EXECUTED = """
import contextlib, io, json, sys, types
import heckezero.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = heckezero.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(
    name for name, module in sys.modules.items()
    if name.startswith("heckezero.") and type(module) is types.ModuleType)]))
"""
_MODULES = {path.stem for path in LIBRARY} - {"cli"}
# a hook or empty odd tail is built without the brute half's search, and
# on a label's byte-column route without the tuple product
_BYTE_ROUTE = _MODULES - {"cyclic_shift", "inductive_product"}
_REACHED = [
    ("", {"errors"}),
    ("dim --n 6", {"compositions", "counting", "errors"}),
    ("sigma --alpha 2,5,5", _MODULES - {"hecke", "verify"}),
    ("sigma --alpha 19", _BYTE_ROUTE - {"hecke", "verify"}),
    ("sigma --alpha 4,2", _BYTE_ROUTE - {"hecke", "verify"}),
    ("count --alpha 2,8,4,5,1,1,1", _BYTE_ROUTE - {"hecke", "verify"}),
    ("classes --n 5", {"errors", "compositions", "permutations",
                       "cyclic_shift"}),
    ("stairform --alpha 4,2", {"errors", "compositions", "permutations"}),
    ("verify --n 5 --suite hooks", _MODULES - {"hecke", "inductive_product"}),
    ("verify --n 5 --suite center", _BYTE_ROUTE),
    ("basis --n 6 --alpha 6", _BYTE_ROUTE - {"verify"}),
]


@pytest.mark.parametrize("command, may_execute", _REACHED,
                         ids=[command or "import" for command, _ in _REACHED])
def test_a_command_executes_only_the_modules_it_reaches(command, may_execute):
    # every submodule but errors is registered lazily, and compiled only
    # when a command reaches it
    proc = subprocess.run([sys.executable, "-S", "-c", _EXECUTED,
                           *command.split()],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    code, names = json.loads(proc.stdout)
    executed = {name.removeprefix("heckezero.") for name in names} - {"cli"}
    assert code == 0
    assert "errors" in executed and executed <= may_execute


# Every callable that `heckezero` exports, with the gate that keeps it from
# exponential work by surprise ("force": it takes force=False and refuses
# past a soft limit), or why it needs none.
_POLYNOMIAL = "its work is polynomial in the size of its input"
GATES = {
    "DegreeLimitError": "an exception type",
    "InvariantError": "an exception type",
    "EquivClass": "a record of the elements it is given",
    "HeckeElement": "a record of the terms it is given",
    "approx_class": "force",
    "compose": _POLYNOMIAL,
    "conj_w0": _POLYNOMIAL,
    "cycle_class": "force",
    "cycle_string": _POLYNOMIAL,
    "cycle_type": _POLYNOMIAL,
    "cycles": _POLYNOMIAL,
    "dim_center": "an O(n^2) count that lists nothing",
    "enumerate_maximal": "force",
    "equiv_classes": "force",
    "even_orbits": _POLYNOMIAL,
    "from_cycles": _POLYNOMIAL,
    "has_connected_intervals": _POLYNOMIAL,
    "hook_kind": _POLYNOMIAL,
    "hook_properties": _POLYNOMIAL,
    "identity": _POLYNOMIAL,
    "inverse": _POLYNOMIAL,
    "iprod": _POLYNOMIAL,
    "iprod_length_law": _POLYNOMIAL,
    "is_central": "n - 1 generator products, each linear in the terms",
    "is_maximal": _POLYNOMIAL,
    "is_oscillating": _POLYNOMIAL,
    "label_max_classes": "force",
    "length": _POLYNOMIAL,
    "lift_cycle_class": _POLYNOMIAL,
    "longest_element": _POLYNOMIAL,
    "lower_cycle_class": _POLYNOMIAL,
    "member_sigma_alpha": _POLYNOMIAL,
    "min_representatives": "force",
    "mul": "each term of a acts by a reduced word, at most n(n-1)/2 "
           "generator products, each linear in the terms of b",
    "odd_hook_embed": _POLYNOMIAL,
    "one_step": _POLYNOMIAL,
    "order_ideal": "force",
    "sigma_class": "force",
    "size_sigma_formula": "a closed count, its powers polynomial in the "
                          "label",
    "sort_to_partition": _POLYNOMIAL,
    "split_even_odd": _POLYNOMIAL,
    "stair_form": _POLYNOMIAL,
    "t_basis": _POLYNOMIAL,
    "t_leq_sigma": "force",
    "verify_center_basis": "force",
}


def test_every_public_callable_has_a_gate_or_a_reason():
    # a new public name fails here until it is listed
    import heckezero
    callables = {name for name in heckezero.__all__
                 if callable(getattr(heckezero, name))}
    assert callables == GATES.keys()
    for name, gate in GATES.items():
        if gate == "force":
            force = inspect.signature(
                getattr(heckezero, name)).parameters.get("force")
            assert force is not None and force.default is False, name
