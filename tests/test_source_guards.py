"""Static guards over the package source, read with ast.

- Internal checks raise InvariantViolation and must not vanish under
  ``python -O``, so no ``assert`` is allowed anywhere in the package.
- No memoization (functools.cache, lru_cache, cached_property): a measured
  speed-up must come from less work per call, not from reusing earlier calls.
- The package is stdlib-only: every absolute import, function-local ones
  included, names a standard-library module.
- Every fixed mutant of ``tests/mutation_check.py`` still applies: its module
  exists and its old text occurs there exactly once.  That check runs the
  test suite once per mutant; this guard reads the source in milliseconds.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import mutation_check

SRC = Path(__file__).resolve().parent.parent / "src" / "fanoblowup"
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


def test_every_mutant_still_applies():
    stale = [f"{mutant.key} {reason}" for mutant in mutation_check.MUTANTS if (reason := mutation_check.stale(mutant, SRC))]
    assert stale == []
