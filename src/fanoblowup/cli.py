"""Command-line front end.

Subcommands:
    coeff       print the pair coefficient a(n, r)
    invariants  print the full invariant report for one construction
    catalog     run a catalog of named entries and check their expectations
    refine      print the finite-m convergence table toward a(n, r)

Flags --json (machine-readable output, one document per run) and --quiet
(suppress non-essential text) are accepted globally or per subcommand.
Rationals cross the boundary as exact "p/q" strings; decimals are display
only.  Exit codes: 0 success, 1 expectation mismatch, 2 invalid input,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .catalog import CatalogError, default_catalog_path, load_catalog, run_catalog
from .exactmath import InvariantViolation, as_rational
from .geometry import Construction
from .invariants import InvariantReport, KUnstable, ReducesToPair, coefficient_a, report
from .refinement import HilbertFunction, convergence_table, hilbert_projective_space

__all__ = ["main", "entrypoint"]

OK, MISMATCH, INVALID, INTERNAL = 0, 1, 2, 3


def _decimal(value: Fraction, digits: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _rational_flag(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 7 or 3/2, got {text!r}") from exc


def _m_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one m value")
    return values


def _base_flag(text: str) -> HilbertFunction:
    parts = text.split(":")
    if len(parts) == 3 and parts[0] == "ps":
        try:
            return hilbert_projective_space(int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"unknown base {text!r}; supported form: ps:<s>:<d>")


def _classification_dict(cls) -> dict:
    if isinstance(cls, ReducesToPair):
        return {"kind": cls.kind, "a": str(cls.a)}
    if isinstance(cls, KUnstable):
        return {"kind": cls.kind, "destabilizer": cls.destabilizer.value, "beta": str(cls.beta)}
    raise InvariantViolation(f"unknown classification {cls!r}")


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
        "classification": _classification_dict(rep.classification),
    }


def _emit_json(document: dict) -> None:
    print(json.dumps(document, ensure_ascii=False))


def _cmd_coeff(args) -> int:
    value = coefficient_a(args.dim, args.index)
    if args.json:
        _emit_json({"n": args.dim, "r": str(args.index), "a": str(value), "decimal": _decimal(value)})
        return OK
    print(value)
    if not args.quiet:
        print(f"decimal: {_decimal(value)}")
    return OK


def _cmd_invariants(args) -> int:
    c = Construction(n=args.dim, r=args.index, l=args.l, vol_v=args.vol_v)
    rep = report(c)
    if args.json:
        _emit_json(_report_dict(c, rep))
        return OK
    rows = [
        ("n", c.n), ("r", c.r), ("l", c.l), ("vol_v", c.vol_v), ("vol_y", rep.vol_y),
        ("s_v0", rep.s_v0), ("s_vinf", rep.s_vinf),
        ("beta_v0", rep.beta_v0), ("beta_vinf", rep.beta_vinf),
    ]
    if not args.quiet:
        for key, val in rows:
            print(f"{key:<10} {val}")
    print(f"classification {rep.classification.describe()}")
    return OK


def _cmd_catalog(args) -> int:
    path = args.path if args.path is not None else default_catalog_path()
    entries = load_catalog(path)
    results = run_catalog(entries)
    passed = sum(res.passed for res in results)
    if args.json:
        _emit_json({
            "entries": [
                dict(
                    name=res.entry.name,
                    **_report_dict(res.entry.construction, res.report),
                    **{"pass": res.passed},
                )
                for res in results
            ],
            "passed": passed,
            "total": len(results),
        })
    else:
        for res in results:
            if res.passed and args.quiet:
                continue
            print(f"{'PASS' if res.passed else 'FAIL'} {res.entry.name}: {res.detail}")
        if not args.quiet or passed < len(results):
            print(f"{passed}/{len(results)} entries passed")
    return OK if passed == len(results) else MISMATCH


def _cmd_refine(args) -> int:
    c = Construction(n=args.dim, r=args.index, l=Fraction(2), vol_v=Fraction(1))
    rows = convergence_table(c, args.base, args.m)
    target = coefficient_a(args.dim, args.index)
    if args.json:
        _emit_json({
            "n": args.dim,
            "r": str(args.index),
            "base": args.base.description,
            "target": str(target),
            "rows": [{"m": row.m, "a_m": str(row.a_m), "error": _decimal(row.error)} for row in rows],
        })
        return OK
    if not args.quiet:
        print(f"base: {args.base.description}")
        print(f"target a({args.dim},{args.index}) = {target}")
    for row in rows:
        print(f"m={row.m:<4d} a_m={row.a_m}  error={_decimal(row.error)}")
    return OK


def _common_flags() -> argparse.ArgumentParser:
    # Fresh parser per use: argparse shares parent action objects, and the
    # subcommand flags must keep SUPPRESS defaults so a global --json/--quiet
    # placed before the subcommand is not clobbered afterwards.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit one machine-readable JSON document")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress non-essential output")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanoblowup",
        description="Exact K-stability invariants for blow-ups of P^1-bundles over Fano varieties.",
        parents=[_common_flags()],
    )
    parser.set_defaults(json=False, quiet=False)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p_coeff = sub.add_parser("coeff", parents=[common], help="pair coefficient a(n, r)")
    p_coeff.add_argument("--dim", type=int, required=True, metavar="N", help="dimension n of Y (>= 2)")
    p_coeff.add_argument("--index", type=_rational_flag, required=True, metavar="R", help="proportionality r > 1, as p/q")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_inv = sub.add_parser("invariants", parents=[common], help="full invariant report")
    p_inv.add_argument("--dim", type=int, required=True, metavar="N")
    p_inv.add_argument("--index", type=_rational_flag, required=True, metavar="R")
    p_inv.add_argument("--l", type=_rational_flag, required=True, metavar="L", help="branch proportionality, 0 <= l < r+1")
    p_inv.add_argument("--vol-v", type=_rational_flag, default=Fraction(1), metavar="V", help="anti-canonical volume of the base (default 1)")
    p_inv.set_defaults(func=_cmd_invariants)

    p_cat = sub.add_parser("catalog", parents=[common], help="run a catalog of entries")
    p_cat.add_argument("path", nargs="?", default=None, help="catalog file (default: the shipped catalog)")
    p_cat.set_defaults(func=_cmd_catalog)

    p_ref = sub.add_parser("refine", parents=[common], help="finite-m convergence toward a(n, r); l is fixed at 2")
    p_ref.add_argument("--dim", type=int, required=True, metavar="N")
    p_ref.add_argument("--index", type=_rational_flag, required=True, metavar="R")
    p_ref.add_argument("--base", type=_base_flag, required=True, metavar="BASE", help="section counter for V, e.g. ps:2:1 for P^2 with L = O(1)")
    p_ref.add_argument("--m", type=_m_list, required=True, metavar="MS", help="comma-separated refinement levels")
    p_ref.set_defaults(func=_cmd_refine)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    except (ValueError, CatalogError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
