"""Exact rational arithmetic and dense univariate polynomials.

Every scalar in this package is a ``fractions.Fraction`` (arbitrary precision,
always normalized, exact comparisons).  Polynomials are dense coefficient
tuples over those rationals, in the single variable ``t`` used by the Zariski
decompositions; they support exact ring arithmetic, Horner evaluation and
exact definite integration.  Evaluation and integration run on plain integers
over one common denominator and normalize once, into a single Fraction.  No
floating point enters anywhere in this module.  It also holds the one grammar
of numbers written as text: as_rational and parse_integer read it, and
excerpt quotes the text a refusal echoes.
"""

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

__all__ = ["RationalLike", "InvariantViolation", "as_rational", "parse_integer", "excerpt", "Poly", "ZERO", "ONE"]


class InvariantViolation(ArithmeticError):
    """An exact identity that a correct computation satisfies has failed.

    Raised by explicit checks, never by ``assert``, so it also fires under
    ``python -O``; it signals an internal fault, not invalid input.
    """


# The text that Fraction reads with an exponent, which it expands: "1e999999999" is 10**999999999.
_EXPONENT = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:\.\d*)?e[-+]?\d+\s*", re.IGNORECASE)
_DIGITS = re.compile(r"\d+")


def excerpt(text: str) -> str:
    """text as a refusal quotes it: whole up to 24 characters, else its length and first 24."""
    if len(text) <= 24:
        return repr(text)
    return f"{len(text)} characters starting {text[:24]!r}"


def _refuse_digits(text: str) -> None:
    # int accepts "3_0" and Fraction does from Python 3.11 on; refused on all.
    if "_" in text:
        raise ValueError(f"digit separators '_' are not accepted, got {excerpt(text)}")
    # int refuses a longer run of digits (0: no limit).  A nonzero limit is at
    # least 640, so the refused text is longer than excerpt quotes whole.
    limit = sys.get_int_max_str_digits()
    if limit and max(map(len, _DIGITS.findall(text)), default=0) > limit:
        raise ValueError(f"numbers are limited to {limit} digits, got {excerpt(text)}")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or text like ``"3/2"`` to an exact Fraction.

    Floats, Decimals and bools are rejected with TypeError: a binary float
    would smuggle rounding into an exact pipeline, Fraction expands a
    Decimal's exponent, so ``Decimal("1e999999999")`` would not return, and
    a bool is a flag, not a number.  An exact Fraction (not a subclass) is
    returned as it is.  Text is an integer, decimal or p/q on every Python,
    without ``_`` separators or exponents; other text raises ValueError,
    which quotes it by ``excerpt``.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, Decimal, bool)):
        raise TypeError(f"refusing {type(value).__name__} {value!r}; pass an exact rational (int, Fraction, or 'p/q')")
    if not isinstance(value, str):
        return Fraction(value)
    _refuse_digits(value)
    if _EXPONENT.fullmatch(value):
        raise ValueError(f"exponent notation is not accepted, got {excerpt(value)}; write an integer or p/q")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational like 7 or 3/2, got {excerpt(value)}") from None


def parse_integer(text: str, name: str) -> int:
    """The integer written in text; ValueError naming ``name`` for other text."""
    _refuse_digits(text)
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {excerpt(text)}") from None


def _horner(pairs: Iterable[tuple[int, int]], a: int, b: int) -> tuple[int, int]:
    """Horner's rule at a/b (b > 0) on the coefficients p/q given as integer
    pairs (p, q), leading one first.  Returns the value as an unreduced
    numerator and positive denominator; each step widens the denominator only
    by the part of q it does not already contain.
    """
    num, den = 0, 1
    for p, q in pairs:
        num *= a
        den *= b
        g = gcd(den, q)
        s = q // g
        num = num * s + p * (den // g)
        den *= s
    return num, den


class Poly:
    """Dense univariate polynomial in t with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of ``t**i``; trailing zeros are stripped,
    so the zero polynomial is the empty tuple and otherwise the leading
    coefficient is nonzero.  Instances are immutable and hashable.  A Poly
    equals, adds and subtracts only another Poly, never a scalar, so ``==``
    agrees with ``hash``; a scalar enters only as a factor of a product.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()) -> None:
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        b = other._coeffs
        out = list(self._coeffs)
        out += [Fraction(0)] * (len(b) - len(out))
        for i, c in enumerate(b):
            out[i] -= c
        return Poly(out)

    def __mul__(self, other) -> "Poly":
        # A bool is a flag, not a number: as_rational refuses it too.
        if type(other) is bool or not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        a, b = self._coeffs, other._coeffs if isinstance(other, Poly) else (other,)
        if len(b) == 1:
            # A constant right factor, a scalar included, scales the left one in one pass.
            k = b[0]
            return Poly([k * c for c in a]) if k else ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        if other is self:
            # A square by symmetry: each cross product a_i a_j (i < j) once, doubled.
            for i, ca in enumerate(a):
                out[2 * i] += ca * ca
                twice = 2 * ca
                for j in range(i + 1, len(a)):
                    out[i + j] += twice * a[j]
            return Poly(out)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"polynomial exponent must be a nonnegative integer, got {exponent!r}")
        if self.degree < 1:
            # A constant base, zero included, is one rational power (0 ** 0 == 1).
            return Poly([(self._coeffs[0] if self else Fraction(0)) ** exponent])
        # Binary powering; the result starts from the first factor it needs.
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return ONE if result is None else result

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact evaluation at x by Horner's rule."""
        x = as_rational(x)
        pairs = ((c.numerator, c.denominator) for c in reversed(self._coeffs))
        return Fraction(*_horner(pairs, x.numerator, x.denominator))

    def integrate(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        """Exact definite integral over [lo, hi].

        The antiderivative sum c_i x^(i+1)/(i+1), with c_i = p_i/q_i, is the
        integer pairs (p_i, q_i (i+1)), leading term first, then (0, 1) for its
        zero constant term; it is evaluated at hi and at lo by the Horner
        kernel that __call__ uses.
        """
        lo, hi = as_rational(lo), as_rational(hi)
        if lo > hi:
            raise ValueError(f"integration bounds out of order: {lo} > {hi}")
        cs = self._coeffs
        pairs = [(cs[i].numerator, cs[i].denominator * (i + 1)) for i in reversed(range(len(cs)))]
        pairs.append((0, 1))
        u, p = _horner(pairs, hi.numerator, hi.denominator)
        v, q = _horner(pairs, lo.numerator, lo.denominator)
        return Fraction(u * q - v * p, p * q)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self._coeffs]})"


ZERO = Poly()
ONE = Poly([1])
