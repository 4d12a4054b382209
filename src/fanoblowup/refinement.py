"""Finite-m refinement data along Vbar_inf and its limit coefficient a(n, r).

Restricting the graded sections of -m K_Y to Vbar_inf (the l = 2 setting) and
splitting each weight-j piece into movable and fixed parts gives

    movable degree  (m r - |m - j|) L     for 0 <= j <= 2m,
    fixed part      (j - m) B             for m < j <= 2m, else 0,

so with N_{m,j} = h^0(V, (m r - |m - j|) L) the fixed-part coefficient of an
m-basis-type divisor is

    a_m = (1 / (m N_m)) * sum_j N_{m,j} a_{m,j},      N_m = sum_j N_{m,j},

which converges to the pair coefficient a(n, r) as m grows.  The dimension
counts h^0 are pluggable so bases other than projective space can be added
without touching the summation.
"""

from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import chain, repeat
from math import comb
from typing import NamedTuple

from .exactmath import InvariantViolation
from .geometry import Construction
from .invariants import coefficient_a

__all__ = [
    "HilbertFunction",
    "hilbert_projective_space",
    "basis_profile",
    "a_m",
    "convergence_table",
]


class HilbertFunction(NamedTuple):
    """Section-dimension counter k -> dim H^0(V, kL) for one polarized base.

    dim is the dimension of V and index the proportionality r with
    -K_V ~ index * L; both are checked against a Construction before use.
    The shipped counter agrees with a degree-dim polynomial for every k >= 0
    (Kawamata-Viehweg: h^0(kL) = chi(kL) for V Fano and L ample).
    """

    description: str
    dim: int
    index: Fraction
    h: Callable[[int], int]

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"section count needs a nonnegative degree, got {k}")
        return self.h(k)


def hilbert_projective_space(s: int, d: int) -> HilbertFunction:
    """P^s polarized by L = O(d): h(k) = C(kd + s, s), index r = (s+1)/d.

    s and d must be ints (a bool is not one), as Construction's n must be.
    """
    if type(s) is not int or type(d) is not int or s < 1 or d < 1:
        raise ValueError(f"need integers s >= 1 and d >= 1, got s={s!r}, d={d!r}")
    return HilbertFunction(
        description=f"P^{s} with L = O({d})",
        dim=s,
        index=Fraction(s + 1, d),
        h=lambda k: comb(k * d + s, s),
    )


class ProfileRow(NamedTuple):
    j: int
    sections: int  # N_{m,j}, dimension of the movable part
    fixed: int     # a_{m,j}, multiple of B split off as fixed part


class BasisProfile(NamedTuple):
    """Weight-by-weight refinement data (N_{m,j}, a_{m,j}) at level m."""

    m: int
    rows: tuple[ProfileRow, ...]
    total_sections: int  # N_m, the total dimension over all weights


def _check_base(c: Construction, h: HilbertFunction) -> None:
    if h.dim != c.n - 1 or h.index != c.r:
        raise ValueError(
            f"base mismatch: {h.description} realizes r = {h.index} in dimension {h.dim}, "
            f"but the construction needs r = {c.r} in dimension {c.n - 1}"
        )


def basis_profile(c: Construction, h: HilbertFunction, m: int) -> BasisProfile:
    """Rows (j, N_{m,j}, a_{m,j}) for j = 0..2m.

    Defined only at l = 2, and only for m with m*r integral so that every
    movable twist (m r - |m - j|) L is an honest line-bundle power; the
    smallest valid stride is the denominator of r.  A profile without
    sections raises InvariantViolation.
    """
    if c.l != 2:
        raise ValueError(f"refinement data is only defined at l = 2, got l = {c.l}")
    _check_base(c, h)
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    mr = m * c.r
    if mr.denominator != 1:
        raise ValueError(
            f"m*r = {mr} is not an integer for m = {m}; use multiples of {c.r.denominator}"
        )
    # N_{m,j} = N_{m,2m-j} depends on j only through |m - j|: one count per distance.
    counts = [h(int(mr) - i) for i in range(m + 1)]
    total = 2 * sum(counts) - counts[0]  # N_m = h(mr) + 2 sum_{i=1..m} h(mr - i)
    if total <= 0:
        raise InvariantViolation(f"no sections at level m = {m} for {h.description}")
    # Row j < m has distance m - j and a_{m,j} = 0; row j = m + i has distance i and a_{m,j} = i.
    sections = chain(counts[:0:-1], counts)
    fixed = chain(repeat(0, m), range(m + 1))
    return BasisProfile(m, tuple(map(ProfileRow, range(2 * m + 1), sections, fixed)), total)


def a_m(c: Construction, h: HilbertFunction, m: int) -> Fraction:
    """Exact fixed-part coefficient a_m = sum_j N_{m,j} a_{m,j} / (m N_m)."""
    profile = basis_profile(c, h, m)
    weighted = sum(sections * fixed for _, sections, fixed in profile.rows)
    return Fraction(weighted, m * profile.total_sections)


class ConvergenceRow(NamedTuple):
    m: int
    a_m: Fraction
    error: Fraction  # |a_m - a(n, r)|, strictly positive at finite m


def convergence_table(c: Construction, h: HilbertFunction, ms: Iterable[int]) -> list[ConvergenceRow]:
    """a_m against the limit a(n, r) for each distinct requested m, sorted by m.

    A finite-m value equal to the limit raises InvariantViolation.
    """
    target = coefficient_a(c.n, c.r)
    rows = []
    for m in sorted(set(ms)):
        value = a_m(c, h, m)
        error = abs(value - target)
        if not error:
            raise InvariantViolation(f"finite-m value unexpectedly equals the limit at m = {m}")
        rows.append(ConvergenceRow(m=m, a_m=value, error=error))
    return rows
