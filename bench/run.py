"""Benchmark for fanoblowup; see bench/README.md.

    python3 bench/run.py --workload report-sweep --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload's operations until --seconds have passed,
checks every output against the independent oracle in bench/oracle.py, and
prints one JSON object as the last line of stdout: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The package
is imported from src/ of the checkout this file sits in; without it the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, Library

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 10
FLOOR_REPS = 5
MIN_OPS = 100  # so that at least ten ops lie beyond the 90th percentile


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def interp_floor_ms() -> float:
    """Median wall time of a bare `python3 -c pass`, the floor under every CLI op."""
    times = []
    for _ in range(FLOOR_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((perf_counter() - start) * 1000.0)
    return statistics.median(times)


def layer_metrics(workload, tracer: Tracer, ops: int) -> dict:
    """Per-layer figures of a traced run, per operation unless named otherwise."""
    self_ms, total_ms, counts = tracer.self_ms(), tracer.total_ms(), tracer.counts
    reports = counts["invariants.report_calls"]
    s_calls = counts["invariants.s_invariant_calls"]
    library = isinstance(workload, Library)
    values = {
        "exactmath.poly_mul_calls": (counts["exactmath.poly_mul"] / ops, "count"),
        "exactmath.poly_pow_calls": (counts["exactmath.poly_pow"] / ops, "count"),
        "exactmath.poly_new_calls": (counts["exactmath.poly_new"] / ops, "count"),
        "exactmath.integrate_self_ms": (self_ms["exactmath.integrate"] / ops, "ms"),
        "geometry.top_power_calls": (counts["geometry.top_power_calls"] / ops, "count"),
        "geometry.top_power_self_ms": (self_ms["geometry.top_power"] / ops, "ms"),
        "nef.volume_profile_calls": (counts["nef.volume_profile_calls"] / ops, "count"),
        "nef.volume_profile_self_ms": (self_ms["nef.volume_profile"] / ops, "ms"),
        "nef.decompose_self_ms": (self_ms["nef.decompose"] / ops, "ms"),
        "invariants.s_invariant_calls": (s_calls / ops, "count"),
        "invariants.vol_y_calls": (counts["invariants.vol_y_calls"] / ops, "count"),
        "invariants.s_useful_ratio": (2 * reports / s_calls if s_calls else 0.0, "ratio"),
        "invariants.report_self_ms": (self_ms["invariants.report"] / ops, "ms"),
        "invariants.max_bits": (workload.max_bits if workload.name == "report-sweep" else 0, "bits"),
        "refinement.a_m_self_ms": (self_ms["refinement.a_m"] / ops, "ms"),
        "refinement.basis_profile_self_ms": (self_ms["refinement.basis_profile"] / ops, "ms"),
        "refinement.hilbert_calls": (counts["refinement.hilbert"] / ops, "count"),
        "refinement.max_bits": (workload.max_bits if workload.name == "refine-ladder" else 0, "bits"),
        "catalog.load_ms": (total_ms["catalog.load"] / ops, "ms"),
        "catalog.run_entry_ms": (total_ms["catalog.run_entry"] / ops, "ms"),
        "cli.interp_floor_ms": (interp_floor_ms(), "ms"),
        # Library workloads import the package in set-up; cli-mix in every process.
        "cli.import_ms": (statistics.median(workload.import_s) * 1000.0 if library
                          else total_ms["cli.import"] / ops, "ms"),
        "cli.main_ms": (total_ms["cli.main"] / ops, "ms"),
        "cli.process_ms": (total_ms["cli.process"] / ops, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "fanoblowup" / "__init__.py").is_file():
        print(f"error: no fanoblowup package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    oracle.self_check()

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    setups = []

    def set_up() -> None:
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)

    # The machine's speed drifts over spans of seconds, so an untraced run
    # repeats set-up at evenly spaced round boundaries and reports the median.
    # A traced run sets up before tracing starts.
    tracer = Tracer() if args.trace else None
    set_up()
    if tracer is not None:
        while len(setups) < SETUP_REPS:
            set_up()
        if isinstance(workload, Library):
            tracer.install_library(workload.pkg)
        else:
            workload.tracer = tracer
    latencies, failed, errors, rounds = [], 0, [], 0
    began = perf_counter()
    try:
        while len(latencies) + failed < MIN_OPS or perf_counter() - began < args.seconds:
            if tracer is None and perf_counter() - began >= len(setups) * args.seconds / SETUP_REPS:
                set_up()
            for run, check in workload.make_round(workload.rng):
                span = tracer.open("op") if tracer is not None else None
                start = perf_counter()
                try:
                    output = run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    errors.append(f"failed: {exc!r}")
                    continue
                finally:
                    if span is not None:
                        tracer.close(span)
                latencies.append(perf_counter() - start)
                try:
                    check(output)
                except CheckFailed as exc:
                    errors.append(f"wrong: {exc}")
            rounds += 1
    finally:
        if tracer is not None:
            tracer.restore()
    elapsed = perf_counter() - began
    while len(setups) < SETUP_REPS:
        set_up()
    try:
        workload.finish()
    except CheckFailed as exc:
        errors.append(f"wrong: {exc}")

    attempted = len(latencies) + failed
    if len(latencies) < 2:
        print("error: too few operations completed to measure", *errors[:5], sep="\n", file=sys.stderr)
        return 1
    wrong = sum(e.startswith("wrong") for e in errors)
    ops_per_s = len(latencies) / sum(latencies)
    if tracer is not None:
        metrics = layer_metrics(workload, tracer, len(latencies))
        tracer.write(WORK / f"{args.workload}.trace.json")
    else:
        who = resource.RUSAGE_SELF if isinstance(workload, Library) else resource.RUSAGE_CHILDREN
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(latencies, n=10)[8] * 1000.0, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "elapsed_s": elapsed,
              "ops_per_s": ops_per_s,
              "setup_s": setups, "errors": errors[:20], "result": result}
    (WORK / f"{args.workload}.trace{args.trace}.result.json").write_text(json.dumps(detail, indent=1))
    for line in errors[:5]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
