"""Fixed-list mutation check of the library's exact kernels, text grammar,
verdict, refinement sums and input bounds.

Each mutant is one textual edit to one file of ``src/fanoblowup``.  It is
applied to a temporary copy of ``src/``, never in place, and the library and
CLI test modules are run against that copy with ``pytest -x``, the module that
holds the mutated module's tests first.  A mutant is killed when the run
fails.  The check fails when a mutant survives that is not listed as
equivalent, when a listed equivalent mutant is killed (the list is stale), or
when an edit no longer matches the source exactly once.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutation_check.py

Pytest does not collect this file: its name does not match ``test_*.py``.
``tests/test_source_guards.py`` imports it and fails fast on a stale mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TEST_MODULES = [
    "test_exactmath.py",
    "test_geometry.py",
    "test_nef.py",
    "test_invariants.py",
    "test_refinement.py",
    "test_acceptance.py",
    "test_cli.py",
]
# The module that holds a source module's tests, where it is not test_<module>.
FIRST = {"catalog.py": "test_cli.py", "cli.py": "test_cli.py"}


class Mutant(NamedTuple):
    key: str
    module: str  # file under src/fanoblowup
    old: str
    new: str
    equivalent: str | None = None  # why no test can kill it, if none can


MUTANTS = [
    Mutant("H1", "exactmath.py", "        num *= a\n", "        num *= b\n"),
    Mutant(
        "H2", "exactmath.py", "        g = gcd(den, q)\n", "        g = 1\n",
        equivalent="only skips a reduction: the unreduced pair has the same value",
    ),
    Mutant(
        "H3", "exactmath.py", "p * (den // g)", "p * den // g",
        equivalent="g divides den, so p * den // g == p * (den // g)",
    ),
    Mutant("I1", "exactmath.py", "cs[i].denominator * (i + 1)", "cs[i].denominator * (i + 1 if i < 30 else i)"),
    Mutant("I2", "exactmath.py", "        pairs.append((0, 1))\n", ""),
    Mutant("I3", "exactmath.py", "Fraction(u * q - v * p, p * q)", "Fraction(u * q + v * p, p * q)"),
    Mutant("I4", "exactmath.py", "        if lo > hi:\n", "        if lo >= hi:\n"),
    Mutant(
        "P1", "exactmath.py", "        if self.degree < 1:\n", "        if self.degree < 0:\n",
        equivalent="a nonzero constant base is then raised by binary powering, to the same value",
    ),
    Mutant("P2", "exactmath.py", "            if e & 1:\n", "            if not e & 1:\n"),
    Mutant("P3", "exactmath.py", "            e >>= 1\n", "            e >>= 2\n"),
    Mutant("P4", "exactmath.py", "if type(exponent) is not int or", "if not isinstance(exponent, int) or"),
    Mutant("S1", "exactmath.py", "                twice = 2 * ca\n", "                twice = ca\n"),
    Mutant("S2", "exactmath.py", "for j in range(i + 1, len(a)):", "for j in range(i, len(a)):"),
    Mutant(
        "S3", "exactmath.py", "        if other is self:\n", "        if other == self:\n",
        equivalent="an equal operand has the same coefficients, so the square path gives the same product",
    ),
    # A constant factor scales in one pass; a difference subtracts in one pass.
    Mutant("C1", "exactmath.py", "Poly([k * c for c in a]) if k", "Poly(list(a)) if k"),
    Mutant("C2", "exactmath.py", "            k = b[0]\n", "            k = a[0]\n"),
    Mutant("D1", "exactmath.py", "            out[i] -= c\n", "            out[i] += c\n"),
    Mutant("D2", "exactmath.py", "        out += [Fraction(0)] * (len(b) - len(out))\n", ""),
    # coefficient_a's closed form: the tail's antiderivative, its s^n strip,
    # the factor 2 of vol_y, the sign of r^n - s^n, s itself, and the
    # Construction checks on (n, r).
    Mutant("A1", "invariants.py", ") / (n + 1) - s ** n)", ") / n - s ** n)"),
    Mutant("A2", "invariants.py", ") / (n + 1) - s ** n)", ") / (n + 1))"),
    Mutant("A3", "invariants.py", "/ (2 * (r ** n - s ** n))", "/ (1 * (r ** n - s ** n))"),
    Mutant("A4", "invariants.py", "/ (2 * (r ** n - s ** n))", "/ (2 * (r ** n + s ** n))"),
    Mutant("A5", "invariants.py", "    s = r - 1\n", "    s = r - 2\n"),
    Mutant("A6", "invariants.py", "(r ** (n + 1) - s ** (n + 1))", "(r ** (n + 1) - s ** n)"),
    Mutant("A7", "invariants.py", "    r = Construction(n, r, 2).r\n", "    r = Fraction(r)\n"),
    Mutant("G1", "geometry.py", "q0 = Fraction(-1) / c.r", "q0 = Fraction(1) / c.r"),
    Mutant("G2", "geometry.py", "qinf = (1 - c.l) / c.r", "qinf = (c.l - 1) / c.r"),
    Mutant("G3", "geometry.py", "(_affine(q0, x, z) ** n - zn)", "(_affine(q0, x, z) ** n)"),
    Mutant("G4", "geometry.py", "(_affine(qinf, y, z) ** n - zn)", "(_affine(qinf, y, z) ** n)"),
    Mutant("G5", "geometry.py", "z_t ** (n - 1)", "z_t ** n"),
    # Each ladder's one scale, its affine base, and the one sum of the ladders.
    Mutant("G6", "geometry.py", "(vol_v / q0)", "(vol_v * q0)"),
    Mutant("G7", "geometry.py", "(vol_v / qinf)", "(vol_v * qinf)"),
    Mutant("G8", "geometry.py", "(n * vol_v)", "(vol_v)"),
    Mutant("G9", "geometry.py", "Poly([q * w[0] + z[0],", "Poly([w[0] + z[0],"),
    Mutant("G10", "geometry.py", "sum(ladders[1:], ladders[0])", "ladders[-1]"),
    # Classes are (constant, slope) pairs: a base's slope, a ladder's test for a
    # zero coefficient, and z's slope.
    Mutant("G11", "geometry.py", ", q * w[1] + z[1]])", "])"),
    Mutant("G12", "geometry.py", "q * w[1] + z[1]", "z[1]"),
    Mutant("G13", "geometry.py", "any(x)", "x[0]"),
    Mutant("G14", "geometry.py", "any(y)", "y[0]"),
    Mutant("G15", "geometry.py", "z_t = Poly(z)", "z_t = Poly(z[:1])"),
    # The A-coefficients of E and F.
    Mutant("G16", "geometry.py", "(one / c.r, zero)", "(one, zero)"),
    Mutant("G17", "geometry.py", "((c.l - 1) / c.r, zero)", "((c.l + 1) / c.r, zero)"),
    Mutant(
        "N1", "nef.py",
        "der.e if d is HorizontalDivisor.INFINITY_SECTION else der.f",
        "der.f if d is HorizontalDivisor.INFINITY_SECTION else der.e",
    ),
    Mutant("N2", "nef.py", "any(a < b for", "any(a <= b for"),
    # P = -K_Y - t*D - N on each coordinate's (constant, slope).
    Mutant("N3", "nef.py", "[(k - nk, s - ns) for", "[(k + nk, s - ns) for"),
    Mutant("N4", "nef.py", "[(k - nk, s - ns) for", "[(k - nk, s + ns) for"),
    Mutant("N5", "nef.py", "[(-e, e) for", "[(e, e) for"),
    Mutant("N6", "nef.py", "[(k, s - u) for", "[(k, s + u) for"),
    # volume_profile's continuity and vanishing guards.
    Mutant("N7", "nef.py", "    if left_values[-1] != right_values[0]:\n", "    if False:\n"),
    Mutant("N8", "nef.py", "    if right_values[-1] != 0:\n", "    if False:\n"),
    # The text grammar of as_rational: the "_" rule and the exponent rule.
    Mutant("T1", "exactmath.py", '    if "_" in text:\n', '    if "__" in text:\n'),
    Mutant("T2", "exactmath.py", "    if _EXPONENT.fullmatch(value):\n", "    if False:\n"),
    Mutant("T3", "exactmath.py", "_EXPONENT.fullmatch(value)", "_EXPONENT.match(value)"),
    Mutant("T4", "exactmath.py", r'\d+\s*", re.IGNORECASE)', r'\d+\s*")'),
    Mutant("T5", "exactmath.py", r"(?:\.\d*)?e", r"(?:\.\d+)?e"),
    Mutant("T6", "exactmath.py", r"(?=\d|\.\d)\d*", r"(?=\d|\.\d)[0-9]*"),
    Mutant("T7", "exactmath.py", r"[-+]?(?=\d|\.\d)", r"[-+]?"),
    Mutant("T8", "exactmath.py", "    except (ValueError, ZeroDivisionError):\n", "    except ValueError:\n"),
    # parse_integer: its "_" and length refusal, int's reading, and the refusal naming the flag.
    Mutant("T9", "exactmath.py", "    _refuse_digits(text)\n    try:\n", "    try:\n"),
    Mutant("T10", "exactmath.py", "        return int(text)\n", "        return int(text, 0)\n"),
    Mutant("T11", "exactmath.py", "    except ValueError:\n        raise ValueError(f\"{name}", "    except TypeError:\n        raise ValueError(f\"{name}"),
    # A digit run longer than int converts: the refusal, its bound, the test of
    # each run, the echo by excerpt, and Unicode digits.
    Mutant("L1", "exactmath.py", "    if limit and max(", "    if False and max("),
    Mutant("L2", "exactmath.py", "default=0) > limit:", "default=0) > limit + 1:"),
    Mutant("L3", "exactmath.py", "default=0) > limit:", "default=0) >= limit:"),
    Mutant("L4", "exactmath.py", "max(map(len, _DIGITS.findall(text)), default=0)", "len(text)"),
    Mutant("L8", "exactmath.py", "digits, got {excerpt(text)}", "digits, got {text!r}"),
    Mutant("L7", "exactmath.py", r'_DIGITS = re.compile(r"\d+")', r'_DIGITS = re.compile(r"[0-9]+")'),
    # A refusal's excerpt of the text: its bound, and the cut of longer text;
    # and the refusal of a bool, which isinstance reads as an int.
    Mutant("E1", "exactmath.py", "    if len(text) <= 24:\n", "    if len(text) <= 25:\n"),
    Mutant("E2", "exactmath.py", '    return f"{len(text)} characters starting {text[:24]!r}"', '    return f"{len(text)} characters starting {text!r}"'),
    Mutant("T12", "exactmath.py", "(float, Decimal, bool)", "(float, Decimal)"),
    Mutant("T13", "exactmath.py", "        if type(other) is bool or not", "        if not"),
    # Construction's three boundary checks.
    Mutant("V1", "geometry.py", "        if r <= 1:\n", "        if r < 1:\n"),
    Mutant("V2", "geometry.py", "if not (0 <= l < r + 1):", "if not (0 < l < r + 1):"),
    Mutant("V3", "geometry.py", "        if vol_v <= 0:\n", "        if vol_v < 0:\n"),
    # The verdict: which branch l takes, the beta checks, and which beta a KUnstable carries;
    # the profile kernel's vol(-K_Y) and vol_y's degree guard.
    Mutant("R1", "invariants.py", "    if c.l == 2:\n", "    if c.l != 2:\n"),
    Mutant("R2", "invariants.py", "    elif beta_v0 + beta_vinf:\n", "    elif False:\n"),
    Mutant("R3", "invariants.py", "    elif beta_v0 < 0:\n", "    elif beta_v0 <= 0:\n"),
    Mutant("R4", "invariants.py", "(HorizontalDivisor.ZERO_SECTION, beta_v0)", "(HorizontalDivisor.ZERO_SECTION, beta_vinf)"),
    Mutant("R5", "invariants.py", "(HorizontalDivisor.INFINITY_SECTION, beta_vinf)", "(HorizontalDivisor.INFINITY_SECTION, beta_v0)"),
    Mutant("R6", "invariants.py", "profile[0][2](0), [poly", "profile[0][2](1), [poly"),
    Mutant("R7", "invariants.py", "    if value.degree > 0:\n", "    if value.degree > 1:\n"),
    # report()'s one pass: the two profiles must agree at t = 0 (one direction
    # of the check, and vol_y read from one profile only), and a is the
    # Vbar_inf profile's [1, 2] integral.
    Mutant("R8", "invariants.py", "    if vol != vol_inf:\n", "    if vol > vol_inf:\n"),
    Mutant("R9", "invariants.py", "    if vol != vol_inf:\n", "    if vol != vol:\n"),
    Mutant("R10", "invariants.py", "ReducesToPair(vinf_parts[1] / vol)", "ReducesToPair(vinf_parts[0] / vol)"),
    # classification_fields: each kind's fields, and the refusal of any other value.
    Mutant("R11", "invariants.py", '{"kind": cls.kind, "a": str(cls.a)}', '{"kind": cls.kind, "a": repr(cls.a)}'),
    Mutant("R12", "invariants.py", '"destabilizer": cls.destabilizer.value,', '"destabilizer": str(cls.destabilizer),'),
    Mutant("R13", "invariants.py", "    if isinstance(cls, KUnstable):\n", "    if True:\n"),
    # A level's m+1 counts, N_m, its rows' sections and fixed weights, a_m's
    # denominator, the table's distinct sorted levels, and the base check.
    Mutant("M1", "refinement.py", "total = 2 * sum(counts) - counts[0]", "total = 2 * sum(counts)"),
    Mutant("M2", "refinement.py", "for i in range(m + 1)]", "for i in range(m)]"),
    Mutant("M3", "refinement.py", "chain(counts[:0:-1], counts)", "chain(counts[::-1], counts)"),
    Mutant("M4", "refinement.py", "chain(repeat(0, m), range(m + 1))", "chain(repeat(1, m), range(m + 1))"),
    Mutant("M5", "refinement.py", "chain(repeat(0, m), range(m + 1))", "chain(repeat(0, m), range(1, m + 2))"),
    Mutant("M6", "refinement.py", "Fraction(weighted, m * profile.total_sections)", "Fraction(weighted, profile.total_sections)"),
    Mutant("M7", "refinement.py", "sorted(set(ms))", "sorted(ms)"),
    Mutant("M8", "refinement.py", "if h.dim != c.n - 1 or h.index != c.r:", "if h.dim != c.n - 1:"),
    Mutant("M9", "refinement.py", "if h.dim != c.n - 1 or h.index != c.r:", "if h.index != c.r:"),
    # basis_profile's l, stride and no-sections checks; the table's equal-limit guard.
    Mutant("M10", "refinement.py", "    if c.l != 2:\n", "    if c.l > 2:\n"),
    Mutant("M11", "refinement.py", "    if mr.denominator != 1:\n", "    if mr.denominator > 2:\n"),
    Mutant("M12", "refinement.py", "    if total <= 0:\n", "    if total < 0:\n"),
    Mutant("M13", "refinement.py", "    if not error:\n", "    if False:\n"),
    # Sizes and levels are ints, never a float, a Fraction or a bool.
    Mutant("M14", "refinement.py", "if type(s) is not int or type(d)", "if type(d)"),
    Mutant("M15", "refinement.py", " or type(d) is not int or s < 1", " or s < 1"),
    Mutant("M16", "refinement.py", "if type(m) is not int or m < 1:", "if not isinstance(m, int) or m < 1:"),
    # HilbertFunction refuses a negative degree.
    Mutant("M17", "refinement.py", "        if k < 0:\n", "        if k < -1:\n"),
    # hilbert_projective_space refuses a size below 1.
    Mutant("M18", "refinement.py", " or s < 1 or d < 1:", " or s < 0 or d < 1:"),
    Mutant("M19", "refinement.py", " or s < 1 or d < 1:", " or s < 1 or d < 0:"),
    # The input bounds of the catalog and the CLI: n, each rational's bits,
    # the sizes of --base at either end, and the --m total.
    Mutant("B1", "catalog.py", "    if n > MAX_DIM:\n", "    if n > MAX_DIM + 1:\n"),
    Mutant("B2", "catalog.py", "bit_length()) > MAX_BITS:", "bit_length()) > MAX_BITS + 1:"),
    Mutant("B3", "cli.py", "1 <= s <= MAX_DIM and", "1 <= s <= MAX_DIM + 1 and"),
    Mutant("B4", "cli.py", "1 <= s <= MAX_DIM and", "0 <= s <= MAX_DIM and"),
    Mutant("B5", "cli.py", "and 1 <= d <= MAX_DIM)", "and 1 <= d <= MAX_DIM + 1)"),
    Mutant("B6", "cli.py", "    if sum(map(abs, values)) > MAX_M:\n", "    if sum(map(abs, values)) > MAX_M + 1:\n"),
    # Catalog refusals quote what they read by excerpt: a malformed line, an
    # entry's name (cut only past 24 characters), unknown keys and repeated
    # names; a result past the digit limit is unwritable, not invalid input.
    Mutant("Q1", "catalog.py", 'line = excerpt(text.split("\\n")[lineno - 1])', 'line = repr(text.split("\\n")[lineno - 1])'),
    Mutant("Q2", "catalog.py", "name if len(name) <= 24 else excerpt(name)", "name"),
    Mutant("Q3", "catalog.py", "name if len(name) <= 24 else", "name if len(name) < 24 else"),
    Mutant("Q4", "catalog.py", "map(excerpt, sorted(unknown))", "map(repr, sorted(unknown))"),
    Mutant("Q5", "catalog.py", 'reason = f"section {excerpt(exc.section)}', 'reason = f"section {exc.section!r}'),
    Mutant("Q6", "catalog.py", "option {excerpt(exc.option)} in", "option {exc.option!r} in"),
    # An entry's unknown keys: the first three are named and the rest counted.
    Mutant("Q7", "catalog.py", "', '.join(named[:3])", "', '.join(named)"),
    Mutant("W1", "cli.py", "            return UNWRITABLE\n", "            return INVALID\n"),
]


def run_tests(src: Path, workdir: Path, first: str = "") -> bool:
    """True when the library test modules pass against the package in src;
    the module named first runs first."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    args += [str(ROOT / "tests" / name) for name in sorted(TEST_MODULES, key=lambda name: name != first)]
    # The working directory is temporary, so hypothesis keeps no example database between mutants.
    done = subprocess.run(args, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def stale(mutant: Mutant, package: Path) -> str | None:
    """Why the mutant's edit does not apply to the package directory, or None
    when its old text occurs exactly once in its module."""
    path = package / mutant.module
    if not path.is_file():
        return f"stale: no module {mutant.module}"
    count = path.read_text(encoding="utf-8").count(mutant.old)
    return None if count == 1 else f"stale: {mutant.old!r} occurs {count} times in {mutant.module}"


def check(mutant: Mutant, scratch: Path) -> str:
    """Apply one mutant to a fresh copy of src/ and return its verdict."""
    src = scratch / mutant.key / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    reason = stale(mutant, src / "fanoblowup")
    if reason:
        return reason
    path = src / "fanoblowup" / mutant.module
    path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
    survived = run_tests(src, src.parent, first=FIRST.get(mutant.module, f"test_{mutant.module}"))
    if survived and mutant.equivalent is None:
        return "SURVIVED"
    if not survived and mutant.equivalent is not None:
        return "killed, but listed as equivalent"
    return "ok, equivalent" if survived else "ok, killed"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        scratch = Path(tmp)
        baseline = scratch / "baseline"
        shutil.copytree(ROOT / "src", baseline / "src", ignore=shutil.ignore_patterns("__pycache__"))
        if not run_tests(baseline / "src", baseline):
            print("the unmutated library fails its tests; nothing to compare against", file=sys.stderr)
            return 1
        bad = []
        for mutant in MUTANTS:
            start = time.perf_counter()
            verdict = check(mutant, scratch)
            print(f"{mutant.key} {mutant.module}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
            if not verdict.startswith("ok"):
                bad.append(mutant.key)
    if bad:
        print(f"mutation check failed: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
