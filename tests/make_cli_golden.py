"""Write tests/data/cli_golden.json: argv, exact stdout and exit code of a fixed
set of CLI commands, for tests/test_cli_golden.py to compare byte for byte.

    PYTHONPATH=src python tests/make_cli_golden.py

Regenerate only when a change of the printed output is intended, and say so
where the change is recorded.  The command set covers:

- `invariants` as text (with --vol-v 7/3) and as --json, at n 2, 3, 6, 16,
  l 0, 1/2, 1, 3/2, 2, 5/2 and r 2, 5/2, 11184811/8388608 (a 24-bit r whose
  l = 5/2 points are inadmissible);
- 14 `coeff` calls, 2 of them invalid;
- 3 `refine` tables;
- `catalog` as text, --json and --quiet;
- `invariants --quiet`, the global --json and --quiet before each subcommand,
  and --json with --quiet;
- tests/data/mismatch_catalog.cfg, whose second entry fails, as text, --quiet
  and --json (exit 1).  Its path is relative to the repository root, which
  `capture` runs in.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from fanoblowup.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
MISMATCH_CATALOG = "tests/data/mismatch_catalog.cfg"

DIMS = ("2", "3", "6", "16")
LS = ("0", "1/2", "1", "3/2", "2", "5/2")
RS = ("2", "5/2", "11184811/8388608")


def commands() -> list[list[str]]:
    out = []
    for n in DIMS:
        for r in RS:
            for l in LS:
                base = ["invariants", "--dim", n, "--index", r, "--l", l]
                out.append(base + ["--vol-v", "7/3"])
                out.append(base + ["--json"])
    for n, r in (("2", "2"), ("3", "3/2"), ("3", "3"), ("4", "2"), ("6", "5/2"), ("16", "11184811/8388608")):
        out.append(["coeff", "--dim", n, "--index", r])
    out += [
        ["coeff", "--dim", "3", "--index", "2", "--json"],
        ["coeff", "--dim", "5", "--index", "7/3", "--json"],
        ["coeff", "--dim", "16", "--index", "5/2", "--json"],
        ["coeff", "--dim", "4", "--index", "2", "--quiet"],
        ["coeff", "--dim", "8", "--index", "9/4", "--quiet"],
        ["--json", "coeff", "--dim", "6", "--index", "3"],
        ["coeff", "--dim", "3", "--index", "1"],
        ["coeff", "--dim", "1", "--index", "2"],
    ]
    out += [
        ["refine", "--dim", "3", "--index", "3", "--base", "ps:2:1", "--m", "1,2,4,8"],
        ["refine", "--dim", "3", "--index", "3/2", "--base", "ps:2:2", "--m", "2,4,8,16", "--json"],
        ["refine", "--dim", "4", "--index", "2", "--base", "ps:3:2", "--m", "1,3,9", "--quiet"],
    ]
    out += [["catalog"], ["catalog", "--json"], ["catalog", "--quiet"]]
    pair = ["invariants", "--dim", "3", "--index", "2", "--l", "2"]
    unstable = ["invariants", "--dim", "6", "--index", "5/2", "--l", "3/2", "--vol-v", "7/3"]
    refine = ["refine", "--dim", "3", "--index", "3", "--base", "ps:2:1", "--m", "1,2"]
    coeff = ["coeff", "--dim", "4", "--index", "2"]
    out += [pair + ["--quiet"], unstable + ["--quiet"]]
    for flag in ("--json", "--quiet"):
        out += [[flag, *pair], [flag, *unstable], [flag, *refine], [flag, "catalog"]]
    out.append(["--quiet", *coeff])
    out += [
        coeff + ["--json", "--quiet"],
        ["--quiet", *pair, "--json"],
        ["--json", "--quiet", *refine],
        ["catalog", "--json", "--quiet"],
    ]
    out += [["catalog", MISMATCH_CATALOG], ["catalog", MISMATCH_CATALOG, "--quiet"], ["catalog", MISMATCH_CATALOG, "--json"]]
    return out


def capture(argv: list[str]) -> tuple[str, int]:
    """stdout and exit code of one in-process `cli.main(argv)` call.

    An argparse exit counts by its code; stderr is discarded.  The call runs
    in the repository root, so relative paths in argv resolve from there.
    """
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return out.getvalue(), code


def main() -> None:
    records = []
    for argv in commands():
        stdout, code = capture(argv)
        records.append({"argv": argv, "stdout": stdout, "exit": code})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} commands to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
