"""Catalog files: named parameter sets with optional expected classifications.

A catalog is a UTF-8 INI-style document, one section per entry, and may
start with a byte-order mark.  Section names are entry names; keys are flat
``key = value`` pairs with rationals written as ``p/q``:

    [family-4.2]
    n = 3
    r = 2
    l = 2
    vol_v = 8
    expect_a = 11/56

Recognized keys: ``n`` (integer, 2 <= n <= MAX_DIM), ``r``, ``l``, ``vol_v``
(optional, default 1), and the optional expectations ``expect_a`` (the entry
must reduce to a pair with exactly this coefficient) and
``expect_destabilizer`` (``zero-section`` or ``infinity-section``; the entry
must be K-unstable with exactly this destabilizer).  l decides which one an
entry may set: l = 2 reduces to a pair, so only ``expect_a``, and any other
l is K-unstable, so only ``expect_destabilizer``; the other key is refused
at load.  Any other key is refused too, and the reason names the first three
unknown keys, sorted, and counts the rest.  Entries without expectations are
report-only.  Rationals are read by ``exactmath.as_rational``, with at most
MAX_BITS bits above and below the line, and ``n`` by ``parse_integer``.  A
line whose first character other than a blank is ``#`` or ``;`` is a
comment; after a value, only ``;`` with a blank before it starts one, so
``n = 3 # x`` is refused.
A ``[DEFAULT]`` section with keys is refused, since INI readers merge its
keys into every other section; an empty one merges nothing and is ignored.
"""

from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .exactmath import as_rational, excerpt, parse_integer
from .geometry import Construction
from .invariants import InvariantReport, classification_fields, classification_text, report
from .nef import HorizontalDivisor

__all__ = [
    "MAX_DIM",
    "MAX_BITS",
    "CatalogError",
    "load_catalog",
    "run_catalog",
]

_KNOWN_KEYS = {"n", "r", "l", "vol_v", "expect_a", "expect_destabilizer"}

# Bounds on values read from outside the program, in catalog files and CLI
# flags.  The cost of exact arithmetic grows with n and with the bit length of
# the rationals, so larger values are refused instead of run without bound.
# The library functions themselves take any value.
MAX_DIM = 64
MAX_BITS = 64


class CatalogError(ValueError):
    """Malformed catalog file: syntax, unknown keys, or inadmissible parameters."""


class CatalogEntry(NamedTuple):
    name: str
    construction: Construction
    # The classification_fields key that l selects ("a" or "destabilizer")
    # and its exact expected value, or None for a report-only entry.
    expect: tuple[str, str] | None = None


class EntryResult(NamedTuple):
    entry: CatalogEntry
    report: InvariantReport
    passed: bool
    detail: str


def bounded_dim(text: str) -> int:
    """The integer n written in text; ValueError for other text and above MAX_DIM."""
    n = parse_integer(text, "n")
    if n > MAX_DIM:
        raise ValueError(f"n is limited to {MAX_DIM}, got {excerpt(text)}")
    return n


def bounded_rational(text: str) -> Fraction:
    """as_rational(text), with a ValueError also past MAX_BITS bits above or below the line."""
    value = as_rational(text)
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_BITS:
        raise ValueError(f"numerator and denominator are limited to {MAX_BITS} bits, got {excerpt(text)}")
    return value


def default_catalog_path() -> Path:
    """The catalog shipped with the package."""
    return Path(__file__).parent / "data" / "default_catalog.cfg"


def _parse_entry(name: str, section: Mapping[str, str]) -> CatalogEntry:
    # The name as written, unless excerpt would cut it.
    entry = f"entry [{name if len(name) <= 24 else excerpt(name)}]"
    unknown = set(section) - _KNOWN_KEYS
    if unknown:
        # The first three keys, then a count, so the reason stays one short line.
        named = list(map(excerpt, sorted(unknown)))
        more = f" and {len(named) - 3} more" if len(named) > 3 else ""
        raise CatalogError(f"{entry}: unknown key(s) [{', '.join(named[:3])}]{more}")
    for key in ("n", "r", "l"):
        if key not in section:
            raise CatalogError(f"{entry}: missing required key '{key}'")
    try:
        construction = Construction(
            n=bounded_dim(section["n"]),
            r=bounded_rational(section["r"]),
            l=bounded_rational(section["l"]),
            vol_v=bounded_rational(section.get("vol_v", "1")),
        )
        expect_a = bounded_rational(section["expect_a"]) if "expect_a" in section else None
    except ValueError as exc:
        raise CatalogError(f"{entry}: {exc}") from exc
    # l alone decides the kind of verdict, so it rules out one expectation key.
    unmeetable = "expect_destabilizer" if construction.l == 2 else "expect_a"
    if unmeetable in section:
        raise CatalogError(
            f"{entry}: {unmeetable} cannot be met at l = {construction.l}; "
            "l = 2 reduces to a pair (expect_a) and any other l is K-unstable (expect_destabilizer)"
        )
    expect = None if expect_a is None else ("a", str(expect_a))
    if "expect_destabilizer" in section:
        raw = section["expect_destabilizer"].strip()
        try:
            expect = ("destabilizer", HorizontalDivisor(raw).value)
        except ValueError as exc:
            raise CatalogError(
                f"{entry}: expect_destabilizer must be 'zero-section' or "
                f"'infinity-section', got {excerpt(raw)}"
            ) from exc
    return CatalogEntry(name, construction, expect)


def load_catalog(path: str | Path) -> list[CatalogEntry]:
    """Parse a catalog file into ordered entries.

    Raises CatalogError for a file that cannot be read or is not UTF-8, for
    a syntax error, with its line number and that line, and for keys in a
    section named DEFAULT, which the INI format merges into every other entry.
    Every text read from the file is quoted by excerpt.
    """
    import configparser  # only catalog runs parse INI; keeps it off every CLI start-up

    parser = configparser.ConfigParser(interpolation=None, strict=True, inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        # A ParsingError lists every malformed line, its subclasses one line,
        # and the duplicate errors the line of the repeated name.
        lineno = exc.errors[0][0] if type(exc) is configparser.ParsingError else exc.lineno
        line = excerpt(text.split("\n")[lineno - 1])
        if isinstance(exc, configparser.DuplicateOptionError):
            reason = f"option {excerpt(exc.option)} in section {excerpt(exc.section)} already exists"
        elif isinstance(exc, configparser.DuplicateSectionError):
            reason = f"section {excerpt(exc.section)} already exists"
        elif isinstance(exc, configparser.MissingSectionHeaderError):
            reason = f"no [section] header before {line}"
        else:
            reason = f"cannot parse {line}"
        raise CatalogError(f"catalog parse error: While reading from {str(path)!r} [line {lineno:2d}]: {reason}") from exc
    if parser.defaults():
        raise CatalogError(f"{path}: section [DEFAULT] is reserved in INI files; give the entry another name")
    return [_parse_entry(name, parser[name]) for name in parser.sections()]


def _check_expectations(entry: CatalogEntry, rep: InvariantReport) -> tuple[bool, str]:
    got = classification_text(rep.classification)
    if entry.expect is None:
        return True, got
    key, expected = entry.expect
    value = classification_fields(rep.classification)[key]
    return (True, got) if value == expected else (False, f"{key} = {value} ≠ {expected}")


def run_catalog(entries: list[CatalogEntry]) -> list[EntryResult]:
    """Evaluate every entry and check its expectations exactly."""
    results = []
    for entry in entries:
        rep = report(entry.construction)
        passed, detail = _check_expectations(entry, rep)
        results.append(EntryResult(entry, rep, passed, detail))
    return results
