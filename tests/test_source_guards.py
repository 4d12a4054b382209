"""Static guards over the package source, read with ast.

- Internal checks raise InvariantViolation and must not vanish under
  ``python -O``, so ``assert`` is allowed only in the two refinement functions
  still waiting for their rewrite.
- No memoization (functools.cache, lru_cache, cached_property): a measured
  speed-up must come from less work per call, not from reusing earlier calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fanoblowup"
ASSERTS_ALLOWED = {("refinement", "basis_profile"), ("refinement", "convergence_table")}
MEMOIZERS = {"cache", "lru_cache", "cached_property"}


def _trees() -> list[tuple[str, ast.Module]]:
    paths = sorted(SRC.glob("*.py"))
    assert {"geometry", "invariants", "refinement", "cli"} <= {path.stem for path in paths}
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in paths]


def test_no_assert_outside_allowed_functions():
    stray = []
    for module, tree in _trees():
        for top in tree.body:
            func = getattr(top, "name", None) if isinstance(top, ast.FunctionDef) else None
            stray += [
                f"{module}.py:{node.lineno} in {func}"
                for node in ast.walk(top)
                if isinstance(node, ast.Assert) and (module, func) not in ASSERTS_ALLOWED
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
