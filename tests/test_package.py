"""The package namespace against the README, and the README's examples."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import fanoblowup
from fanoblowup import ReducesToPair, catalog, cli, exactmath, geometry, invariants, nef, refinement

MODULES = [exactmath, geometry, nef, invariants, refinement, catalog]
README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> str:
    """The README text from the heading ``## title`` to the next ``## `` heading."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


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


def test_readme_library_section_lists_each_export_once():
    """Each name the package exports has one line of its own in the Library section, and no other name does."""
    listed = re.findall(r"^- `(\w+)", readme_section("Library"), re.MULTILINE)
    assert sorted(listed) == sorted(name for name in fanoblowup.__all__ if name != "__version__")


def test_readme_command_line_examples(tmp_path, capsys, monkeypatch):
    """Run each command of the README's sh block; each shown output line without "..." is in its stdout.

    The block's ``my_entries.cfg`` is the README's ini example.
    """
    section = readme_section("Command line")
    (tmp_path / "my_entries.cfg").write_text(section.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    examples: list[tuple[list[str], list[str]]] = []
    for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines():
        if line.startswith("fanoblowup "):
            examples.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    assert len(examples) == 6
    for argv, shown in examples:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        for text in shown:
            assert "..." in text or text in out, (argv, text)
