"""Static guards over the package source, read with ast.

- Internal checks raise InvariantViolation and must not vanish under
  ``python -O``, so no ``assert`` is allowed anywhere in the package.
- No memoization (functools.cache, lru_cache, cached_property): a measured
  speed-up must come from less work per call, not from reusing earlier calls.
- The package is stdlib-only: every absolute import, function-local ones
  included, names a standard-library module.
- No module imports a ``_``-prefixed name from another module of the
  package: a helper two modules share is public in one of them.
- Every fixed mutant of ``tests/mutation_check.py`` still applies: its module
  exists and its old text occurs there exactly once.  That check runs the
  test suite once per mutant; this guard reads the source in milliseconds.
- Every name the benchmark patches is still bound where it patches it:
  ``LIBRARY_SPANS`` in ``bench/tracing.py`` (read as a literal, not run), the
  ``Poly`` and ``HilbertFunction`` methods it wraps on the class, and the two
  names ``bench/cli_child.py`` times.  A dropped import would otherwise show
  only in a traced benchmark run.
"""

import ast
import sys
from pathlib import Path

import mutation_check

import fanoblowup
from fanoblowup import catalog, cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fanoblowup"
MEMOIZERS = {"cache", "lru_cache", "cached_property"}


def _trees() -> list[tuple[str, ast.Module]]:
    paths = sorted(SRC.glob("*.py"))
    assert {"geometry", "invariants", "refinement", "cli"} <= {path.stem for path in paths}
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in paths]


def test_no_assert_outside_allowed_functions():
    """The allow-list is empty: no function may assert."""
    stray = [
        f"{module}.py:{node.lineno}"
        for module, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert stray == []


def test_no_memoization():
    found = []
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [f"{module}.py:{node.lineno} {name}" for name in names if name in MEMOIZERS]
    assert found == []


def test_imports_only_the_standard_library():
    foreign = []
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = [name.partition(".")[0] for name in names]
            foreign += [f"{module}.py:{node.lineno} {name}" for name in top if name not in sys.stdlib_module_names]
    assert foreign == []


def test_no_module_imports_a_private_name():
    private = [
        f"{module}.py:{node.lineno} {alias.name}"
        for module, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == "fanoblowup")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_mutant_still_applies():
    stale = [f"{mutant.key} {reason}" for mutant in mutation_check.MUTANTS if (reason := mutation_check.stale(mutant, SRC))]
    assert stale == []


def _library_spans() -> list:
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LIBRARY_SPANS" for t in node.targets)
    ]
    return ast.literal_eval(value)


def test_traced_functions_are_bound_where_patched():
    spans = _library_spans()
    missing = [
        f"{where or 'fanoblowup'}.{func}"
        for _, home, func, others in spans
        for where in [home, *others]
        if func not in vars(getattr(fanoblowup, where) if where else fanoblowup)
    ]
    assert spans and missing == []


def test_traced_methods_are_defined_on_their_class():
    methods = {
        fanoblowup.Poly: ["__mul__", "__rmul__", "__pow__", "__init__", "integrate"],
        fanoblowup.HilbertFunction: ["__call__"],
    }
    assert [f"{owner.__name__}.{name}" for owner, names in methods.items() for name in names if name not in vars(owner)] == []


def test_cli_child_names_are_bound():
    # bench/cli_child.py times cli.load_catalog and catalog.report by rebinding them.
    assert "load_catalog" in vars(cli) and "report" in vars(catalog)
