"""Piecewise Zariski decomposition of -K_Y - t*D for the horizontal divisors.

The only horizontal divisors on Y are the zero section V_0 and the strict
transform Vbar_inf of the infinity section.  For both, -K_Y - t*D is nef on
[0, 1]; on [1, 2] a multiple of the contracted divisor (E for Vbar_inf, F for
V_0) splits off as the rigid negative part, and the pseudo-effective
threshold is t = 2.  Only the negative part is transcribed, as closed data
rather than computed by a nef-cone algorithm; the positive part is derived
from it.  Cheap exact checks on the volume profile (continuity at t = 1,
vanishing at t = 2, sampled monotonicity) guard each call against
transcription errors.
"""

import enum
from fractions import Fraction
from typing import NamedTuple

from .exactmath import InvariantViolation, Poly
from .geometry import ClassPoly, Construction, derived_classes, top_power

__all__ = ["HorizontalDivisor", "Segment", "decompose", "volume_profile"]

# Breakpoint and pseudo-effective threshold shared by both divisors.
BREAK = Fraction(1)
TAU = Fraction(2)
# Quarter-integer sample points of [0, TAU] for the guards; index 4 is BREAK.
_SAMPLES = tuple(Fraction(k, 4) for k in range(9))


class HorizontalDivisor(enum.Enum):
    """The two torus-fixed horizontal divisors on Y."""

    ZERO_SECTION = "zero-section"
    INFINITY_SECTION = "infinity-section"


class Segment(NamedTuple):
    """One piece [t_lo, t_hi] of a Zariski decomposition.

    positive + negative equals -K_Y - t*D as an identity of the classes'
    (constant, slope) pairs on the segment; negative is a nonnegative multiple
    of E or F there (or zero).
    """

    t_lo: Fraction
    t_hi: Fraction
    positive: ClassPoly
    negative: ClassPoly


def decompose(c: Construction, d: HorizontalDivisor) -> list[Segment]:
    """Zariski decomposition of -K_Y - t*D, as two segments covering [0, 2].

    The negative part is N = 0 on [0, 1], and on [1, 2] it is N = (t-1) E for
    D = Vbar_inf and N = (t-1) F for D = V_0.  The positive part is
    P = -K_Y - t*D - N, so P + N = -K_Y - t*D holds by construction.  Every
    class here is affine in t, so P is derived on each coordinate's
    (constant, slope) pair.  On [1, 2] this gives
        D = Vbar_inf:  P = (2-t) V_0 + ((r+1-t)/r) A
        D = V_0:       P = (2-t) Vbar_inf + ((r-(t-1)(l-1))/r) A

    The same formulas serve every admissible l, including l = 1 and the
    degenerate l = 0 bundle case.
    """
    der = derived_classes(c)
    contracted = der.e if d is HorizontalDivisor.INFINITY_SECTION else der.f
    along_d = (1, 0, 0) if d is HorizontalDivisor.ZERO_SECTION else (0, 1, 0)
    # One (constant, slope) pair per coordinate of (V_0, Vbar_inf, A); -K_Y, E and F are constant.
    k_minus_td = [(k, s - u) for (k, s), u in zip(der.anti_k, along_d)]
    negative = [(-e, e) for e, _ in contracted]
    positive = [(k - nk, s - ns) for (k, s), (nk, ns) in zip(k_minus_td, negative)]
    zero = (Fraction(0), Fraction(0))
    return [
        Segment(Fraction(0), BREAK, ClassPoly(*k_minus_td), ClassPoly(zero, zero, zero)),
        Segment(BREAK, TAU, ClassPoly(*positive), ClassPoly(*negative)),
    ]


def volume_profile(c: Construction, d: HorizontalDivisor) -> list[tuple[Fraction, Fraction, Poly]]:
    """vol(-K_Y - t*D) as an exact polynomial in t on each segment.

    The volume of the nef positive part is its top power.  Guards: the two
    segment polynomials agree at the breakpoint, the profile vanishes at the
    pseudo-effective threshold t = 2, and it is nonincreasing at quarter-
    integer sample points.  Each segment is evaluated once at each of its
    sample points, its ends included.  A failed guard raises
    InvariantViolation.
    """
    profile = [(seg.t_lo, seg.t_hi, top_power(c, seg.positive)) for seg in decompose(c, d)]

    left, right = profile[0][2], profile[1][2]
    left_values = [left(s) for s in _SAMPLES[:5]]
    right_values = [right(s) for s in _SAMPLES[4:]]
    if left_values[-1] != right_values[0]:
        raise InvariantViolation("volume profile discontinuous at t = 1")
    if right_values[-1] != 0:
        raise InvariantViolation("volume must vanish at the pseudo-effective threshold t = 2")
    values = left_values + right_values[1:]
    if any(a < b for a, b in zip(values, values[1:])):
        raise InvariantViolation("volume profile not nonincreasing")
    return profile
