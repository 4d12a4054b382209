"""Traced CLI process: `python3 bench/cli_child.py <fanoblowup argv>`.

Behaves like the `fanoblowup` console script (same stdout, same exit code)
and writes its spans as one JSON line to stderr: the package import,
cli.main, and inside it the catalog load and each catalog entry's report.
"""

import sys
from time import perf_counter

start = perf_counter()
import fanoblowup.cli as cli  # noqa: E402
from fanoblowup import catalog  # noqa: E402

spans = {"import": [start, perf_counter()], "inner": []}


def timed(name, fn):
    def wrapper(*args, **kwargs):
        begin = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans["inner"].append([name, begin, perf_counter()])
    return wrapper


# cli binds load_catalog by name; run_catalog calls catalog.report per entry.
cli.load_catalog = timed("catalog.load", cli.load_catalog)
catalog.report = timed("catalog.run_entry", catalog.report)

begin = perf_counter()
code = cli.main(sys.argv[1:])
spans["main"] = [begin, perf_counter()]
sys.stdout.flush()
import json  # noqa: E402  (after the timed region, so it is not counted as package import)

print(json.dumps(spans), file=sys.stderr)
sys.exit(code)
