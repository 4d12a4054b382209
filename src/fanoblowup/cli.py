"""Command-line front end.

Subcommands:
    coeff       print the pair coefficient a(n, r)
    invariants  print the full invariant report for one construction
    catalog     run a catalog of named entries and check their expectations
    refine      print the finite-m convergence table toward a(n, r)

Flags --json (machine-readable output, one document per run) and --quiet
(suppress non-essential text) are accepted globally or per subcommand.
Rationals cross the boundary as exact "p/q" strings; decimals are display
only.  Input is bounded: --dim and the sizes of --base by catalog.MAX_DIM,
the numerator and denominator of each rational flag by catalog.MAX_BITS
bits, and the sum of the --m levels by MAX_M.  Exit codes: 0 success,
1 expectation mismatch, 2 invalid input (a bound included), 3 internal fault
of any kind, 4 the result could not be written to stdout.
"""

import argparse
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .catalog import (
    MAX_DIM,
    bounded_dim,
    bounded_rational,
    default_catalog_path,
    load_catalog,
    run_catalog,
)
from .exactmath import excerpt, parse_integer
from .geometry import Construction
from .invariants import InvariantReport, classification_fields, classification_text, coefficient_a, report
from .refinement import HilbertFunction, convergence_table, hilbert_projective_space

__all__ = ["main", "entrypoint"]

OK, MISMATCH, INVALID, INTERNAL, UNWRITABLE = 0, 1, 2, 3, 4
# refine builds 2m + 1 rows at each level m, so the levels' total is bounded.
MAX_M = 65536


def _decimal(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _flag(parse):
    """An argparse type that reports the reason of parse's ValueError."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _m_list(text: str) -> list[int]:
    values = [parse_integer(part, "m") for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("need at least one m value")
    if sum(map(abs, values)) > MAX_M:
        raise ValueError(f"the levels are limited to a total of {MAX_M}, got {excerpt(text)}")
    return values


def _base_flag(text: str) -> HilbertFunction:
    kind, *sizes = text.split(":")
    unknown = f"unknown base {excerpt(text)}; supported form: ps:<s>:<d>"
    if kind != "ps" or len(sizes) != 2:
        raise ValueError(unknown)
    try:
        s, d = (parse_integer(size, name) for name, size in zip("sd", sizes))
    except ValueError as exc:
        raise ValueError(f"{unknown}; {exc}") from None
    if not (1 <= s <= MAX_DIM and 1 <= d <= MAX_DIM):
        raise ValueError(f"the sizes s and d must be from 1 to {MAX_DIM}, got {excerpt(text)}")
    return hilbert_projective_space(s, d)


def _report_dict(c: Construction, rep: InvariantReport) -> dict:
    return {
        "n": c.n,
        "r": str(c.r),
        "l": str(c.l),
        "vol_v": str(c.vol_v),
        "vol_y": str(rep.vol_y),
        "s_v0": str(rep.s_v0),
        "s_vinf": str(rep.s_vinf),
        "beta_v0": str(rep.beta_v0),
        "beta_vinf": str(rep.beta_vinf),
        "classification": classification_fields(rep.classification),
    }


# What each subcommand returns: its exit code, its JSON document, and its text
# lines as pairs (essential, text); --quiet prints only the essential lines.
_Output = tuple[int, dict, list[tuple[bool, str]]]


def _cmd_coeff(args) -> _Output:
    value = coefficient_a(args.dim, args.index)
    document = {"n": args.dim, "r": str(args.index), "a": str(value), "decimal": _decimal(value)}
    return OK, document, [(True, str(value)), (False, f"decimal: {document['decimal']}")]


def _cmd_invariants(args) -> _Output:
    c = Construction(n=args.dim, r=args.index, l=args.l, vol_v=args.vol_v)
    rep = report(c)
    document = _report_dict(c, rep)
    lines = [(False, f"{key:<10} {value}") for key, value in document.items() if key != "classification"]
    return OK, document, lines + [(True, f"classification {classification_text(rep.classification)}")]


def _cmd_catalog(args) -> _Output:
    results = run_catalog(load_catalog(args.path))
    passed = sum(res.passed for res in results)
    document = {
        "entries": [
            {"name": res.entry.name, **_report_dict(res.entry.construction, res.report), "pass": res.passed}
            for res in results
        ],
        "passed": passed,
        "total": len(results),
    }
    lines = [
        (not res.passed, f"{'PASS' if res.passed else 'FAIL'} {res.entry.name}: {res.detail}")
        for res in results
    ]
    lines.append((passed < len(results), f"{passed}/{len(results)} entries passed"))
    return OK if passed == len(results) else MISMATCH, document, lines


def _cmd_refine(args) -> _Output:
    c = Construction(n=args.dim, r=args.index, l=Fraction(2), vol_v=Fraction(1))
    rows = [
        {"m": row.m, "a_m": str(row.a_m), "error": _decimal(row.error)}
        for row in convergence_table(c, args.base, args.m)
    ]
    target = coefficient_a(args.dim, args.index)
    document = {
        "n": args.dim,
        "r": str(args.index),
        "base": args.base.description,
        "target": str(target),
        "rows": rows,
    }
    lines = [(False, f"base: {args.base.description}"), (False, f"target a({args.dim},{args.index}) = {target}")]
    lines += [(True, f"m={row['m']:<4d} a_m={row['a_m']}  error={row['error']}") for row in rows]
    return OK, document, lines


def _write(args, document: dict, lines: list[tuple[bool, str]]) -> None:
    """The one output path: the JSON document, or the text lines --quiet keeps."""
    if args.json:
        print(json.dumps(document, ensure_ascii=False))
        return
    for essential, text in lines:
        if essential or not args.quiet:
            print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanoblowup",
        description="Exact K-stability invariants for blow-ups of P^1-bundles over Fano varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_coeff = sub.add_parser("coeff", help="pair coefficient a(n, r)")
    p_inv = sub.add_parser("invariants", help="full invariant report")
    p_cat = sub.add_parser("catalog", help="run a catalog of entries")
    p_ref = sub.add_parser("refine", help="finite-m convergence toward a(n, r); l is fixed at 2")
    for p in (parser, p_coeff, p_inv, p_cat, p_ref):
        # A subcommand's flags default to SUPPRESS, so a global --json/--quiet
        # given before the subcommand is not clobbered by it.
        default = False if p is parser else argparse.SUPPRESS
        p.add_argument("--json", action="store_true", default=default, help="emit one machine-readable JSON document")
        p.add_argument("--quiet", action="store_true", default=default, help="suppress non-essential output")
    rational = _flag(bounded_rational)
    for p in (p_coeff, p_inv, p_ref):
        p.add_argument("--dim", type=_flag(bounded_dim), required=True, metavar="N", help=f"dimension n of Y, 2 to {MAX_DIM}")
        p.add_argument("--index", type=rational, required=True, metavar="R", help="proportionality r > 1, as p/q")
    p_coeff.set_defaults(func=_cmd_coeff)
    p_inv.add_argument("--l", type=rational, required=True, metavar="L", help="branch proportionality, 0 <= l < r+1")
    p_inv.add_argument("--vol-v", type=rational, default=Fraction(1), metavar="V", help="anti-canonical volume of the base (default 1)")
    p_inv.set_defaults(func=_cmd_invariants)
    p_cat.add_argument("path", nargs="?", default=default_catalog_path(), help="catalog file (default: the shipped catalog)")
    p_cat.set_defaults(func=_cmd_catalog)
    p_ref.add_argument("--base", type=_flag(_base_flag), required=True, metavar="BASE", help="section counter for V, e.g. ps:2:1 for P^2 with L = O(1)")
    p_ref.add_argument("--m", type=_flag(_m_list), required=True, metavar="MS", help=f"comma-separated refinement levels, total at most {MAX_M}")
    p_ref.set_defaults(func=_cmd_refine)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, document, lines = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    try:
        _write(args, document, lines)
        sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        if isinstance(exc, OSError):
            # A closed pipe or a full device: what is still buffered cannot be
            # delivered, so send it to devnull, or the interpreter's final
            # flush fails again and exits 120.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return UNWRITABLE
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
