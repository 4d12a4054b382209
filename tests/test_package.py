"""The package namespace and the README's library example."""

from fractions import Fraction
from pathlib import Path

import fanoblowup
from fanoblowup import ReducesToPair, catalog, exactmath, geometry, invariants, nef, refinement

MODULES = [exactmath, geometry, nef, invariants, refinement, catalog]
README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_re_exports_every_module_name_once():
    homes = {}
    for module in MODULES:
        for name in module.__all__:
            homes.setdefault(name, []).append(module.__name__)
            assert getattr(fanoblowup, name) is getattr(module, name)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}
    assert sorted(fanoblowup.__all__) == sorted([*homes, "__version__"])


def test_readme_library_example():
    """Run the README's Library block and check each commented result."""
    block = README.read_text(encoding="utf-8").split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    shown = [line.split("  # ") for line in block.splitlines() if "  # " in line]
    assert len(shown) == 5
    values = [eval(code, namespace) for code, _ in shown]
    comments = [comment.strip() for _, comment in shown]
    assert values[:4] == [
        Fraction(-15, 128),
        "k-unstable destabilizer=infinity-section beta=-15/128",
        ReducesToPair(a=Fraction(33, 152)),
        {"kind": "reduces-to-pair", "a": "33/152"},
    ]
    assert comments[:4] == [repr(value) for value in values[:4]]
    assert values[4][:2] == [(1, Fraction(3, 11)), (2, Fraction(51, 200))]
    assert comments[4] == "[(1, 3/11), (2, 51/200), ...]"
