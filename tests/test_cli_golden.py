"""CLI stdout and exit codes, byte for byte, against tests/data/cli_golden.json.

The golden file is written by tests/make_cli_golden.py; a change that alters
any printed output fails here until the file is deliberately regenerated.
"""

import json

from make_cli_golden import GOLDEN, capture, commands


def test_stdout_and_exit_codes_match_golden():
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [rec["argv"] for rec in records] == commands()
    assert len(records) == 182
    differ = [rec["argv"] for rec in records if capture(rec["argv"]) != (rec["stdout"], rec["exit"])]
    assert differ == []
