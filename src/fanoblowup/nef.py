"""Piecewise Zariski decomposition of -K_Y - t*D for the horizontal divisors.

The only horizontal divisors on Y are the zero section V_0 and the strict
transform Vbar_inf of the infinity section.  For both, -K_Y - t*D is nef on
[0, 1]; on [1, 2] a multiple of the contracted divisor (E for Vbar_inf, F for
V_0) splits off as the rigid negative part, and the pseudo-effective
threshold is t = 2.  The decomposition is transcribed as closed data rather
than computed by a nef-cone algorithm; cheap exact checks (the class identity
P + N = -K_Y - t*D, continuity at t = 1, vanishing at t = 2, sampled
monotonicity) guard each call against transcription errors.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .exactmath import Poly, T
from .geometry import ClassPoly, Construction, derived_classes, top_power

__all__ = ["HorizontalDivisor", "Segment", "decompose", "volume_profile"]

# Breakpoint and pseudo-effective threshold shared by both divisors.
BREAK = Fraction(1)
TAU = Fraction(2)


class HorizontalDivisor(enum.Enum):
    """The two torus-fixed horizontal divisors on Y."""

    ZERO_SECTION = "zero-section"
    INFINITY_SECTION = "infinity-section"


class Segment(NamedTuple):
    """One piece [t_lo, t_hi] of a Zariski decomposition.

    positive + negative equals -K_Y - t*D as an identity of ClassPoly
    coefficients on the segment; negative is a nonnegative multiple of E or F
    there (or zero).
    """

    t_lo: Fraction
    t_hi: Fraction
    positive: ClassPoly
    negative: ClassPoly


def _divisor_class(d: HorizontalDivisor) -> ClassPoly:
    if d is HorizontalDivisor.ZERO_SECTION:
        return ClassPoly(1, 0, 0)
    return ClassPoly(0, 1, 0)


def decompose(c: Construction, d: HorizontalDivisor) -> list[Segment]:
    """Zariski decomposition of -K_Y - t*D, as two segments covering [0, 2].

    For D = Vbar_inf:
        [0,1]  P = V_0 + (1-t) Vbar_inf + A                  N = 0
        [1,2]  P = (2-t) V_0 + ((r+1-t)/r) A                 N = (t-1) E
    For D = V_0:
        [0,1]  P = (1-t) V_0 + Vbar_inf + A                  N = 0
        [1,2]  P = (2-t) Vbar_inf + ((r-(t-1)(l-1))/r) A     N = (t-1) F

    The same formulas serve every admissible l, including l = 1 and the
    degenerate l = 0 bundle case.
    """
    r, l = c.r, c.l
    der = derived_classes(c)
    one_minus_t = 1 - T
    two_minus_t = 2 - T
    t_minus_one = T - 1

    if d is HorizontalDivisor.INFINITY_SECTION:
        p1 = ClassPoly(Poly([1]), one_minus_t, Poly([1]))
        p2 = ClassPoly(two_minus_t, Poly(), (Poly([r + 1]) - T) * (Fraction(1) / r))
        n2 = der.e * t_minus_one
    else:
        p1 = ClassPoly(one_minus_t, Poly([1]), Poly([1]))
        p2 = ClassPoly(Poly(), two_minus_t, (Poly([r]) - t_minus_one * (l - 1)) * (Fraction(1) / r))
        n2 = der.f * t_minus_one

    segments = [
        Segment(Fraction(0), BREAK, p1, ClassPoly.zero()),
        Segment(BREAK, TAU, p2, n2),
    ]

    # Transcription guard: P + N + t*D = -K_Y coefficientwise on each segment.
    dcls = _divisor_class(d)
    for seg in segments:
        total = seg.positive + seg.negative + dcls * T
        assert total == der.anti_k, f"Zariski pieces do not sum to -K_Y - t*D on [{seg.t_lo}, {seg.t_hi}]"
    return segments


def volume_profile(c: Construction, d: HorizontalDivisor) -> list[tuple[Fraction, Fraction, Poly]]:
    """vol(-K_Y - t*D) as an exact polynomial in t on each segment.

    The volume of the nef positive part is its top power.  Guards: the two
    segment polynomials agree at the breakpoint, the profile vanishes at the
    pseudo-effective threshold t = 2, and it is nonincreasing at quarter-
    integer sample points.
    """
    profile = [(seg.t_lo, seg.t_hi, top_power(c, seg.positive)) for seg in decompose(c, d)]

    left, right = profile[0][2], profile[1][2]
    assert left(BREAK) == right(BREAK), "volume profile discontinuous at t = 1"
    assert right(TAU) == 0, "volume must vanish at the pseudo-effective threshold t = 2"
    samples = [Fraction(k, 4) for k in range(9)]
    values = [(left if s <= BREAK else right)(s) for s in samples]
    assert all(a >= b for a, b in zip(values, values[1:])), "volume profile not nonincreasing"
    return profile
