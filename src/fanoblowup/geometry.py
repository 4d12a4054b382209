"""Divisor-class calculus on the blow-up Y of a P^1-bundle over a Fano base.

Setup: V is a Fano variety of dimension n-1 with an ample line bundle L such
that -K_V ~ r*L (r > 1), and B ~ l*L is a smooth divisor (0 <= l < r+1).
X = P(L + O) is the P^1-bundle over V and Y is the blow-up of X along the
copy of B sitting on the infinity section.  All intersection numbers used by
the invariants live in the span of three divisor classes on Y:

    V_0      the (strict transform of the) zero section,
    Vbar_inf the strict transform of the infinity section,
    A        the pullback to Y of -K_V.

The calculus is generated by three monomial rules (adopted as axioms):

    V_0^k . A^(n-k)      = (-1/r)^(k-1)    * vol(V)   for k >= 1,
    Vbar^k . A^(n-k)     = ((1-l)/r)^(k-1) * vol(V)   for k >= 1,
    V_0 . Vbar_inf = 0,   A^n = 0.

Everything else (vol Y, the volume profiles, S and beta) factors through the
top-power functional these rules define.
"""

from fractions import Fraction
from typing import NamedTuple

from .exactmath import ZERO, Poly, RationalLike, as_rational

__all__ = ["Construction", "ClassPoly", "DerivedClasses", "derived_classes", "top_power"]


class _ConstructionFields(NamedTuple):
    n: int
    r: Fraction
    l: Fraction
    vol_v: Fraction


class Construction(_ConstructionFields):
    """Parameters (n, r, l, vol_v) of the blow-up Y.

    n      dimension of Y (>= 2); the base V has dimension n-1
    r      Fano proportionality of the base: -K_V ~ r*L, r > 1
    l      proportionality of the branch divisor: B ~ l*L, 0 <= l < r+1
    vol_v  anti-canonical volume (-K_V)^(n-1) of the base, > 0
    """

    __slots__ = ()

    def __new__(cls, n: int, r: RationalLike, l: RationalLike, vol_v: RationalLike = 1) -> "Construction":
        if type(n) is not int or n < 2:
            raise ValueError(f"n must be an integer >= 2, got {n!r}")
        r, l, vol_v = as_rational(r), as_rational(l), as_rational(vol_v)
        if r <= 1:
            raise ValueError(f"r must exceed 1, got {r}")
        if not (0 <= l < r + 1):
            raise ValueError(f"l must satisfy 0 <= l < r+1 = {r + 1}, got {l}")
        if vol_v <= 0:
            raise ValueError(f"vol_v must be positive, got {vol_v}")
        return super().__new__(cls, n, r, l, vol_v)

    @classmethod
    def _make(cls, fields) -> "Construction":
        # _replace builds through _make; route it through the checks above.
        return cls(*fields)


class ClassPoly(NamedTuple):
    """A divisor class x*V_0 + y*Vbar_inf + z*A whose coordinates are affine in
    the Zariski parameter t, each a (constant, slope) pair: x = x[0] + x[1] t."""

    v0: tuple[Fraction, Fraction]
    vinf: tuple[Fraction, Fraction]
    a: tuple[Fraction, Fraction]


class DerivedClasses(NamedTuple):
    """Named classes derived from the basis: E, F and -K_Y."""

    e: ClassPoly
    f: ClassPoly
    anti_k: ClassPoly


def derived_classes(c: Construction) -> DerivedClasses:
    """Classes derived from (n, r, l) in the {V_0, Vbar_inf, A} basis, each
    coordinate with slope 0.

        E      = V_0 + (1/r) A - Vbar_inf     exceptional divisor of Y -> X
        F      = Vbar_inf + ((l-1)/r) A - V_0 strict transform of the pullback of B
        -K_Y   = V_0 + Vbar_inf + A

    At l = 0 there is no blow-up and E, F are returned as written even though
    the zero class is the geometric truth there; callers must not treat them
    as effective in that degenerate case.
    """
    zero, one = Fraction(0), Fraction(1)
    return DerivedClasses(
        e=ClassPoly((one, zero), (-one, zero), (one / c.r, zero)),
        f=ClassPoly((-one, zero), (one, zero), ((c.l - 1) / c.r, zero)),
        anti_k=ClassPoly((one, zero), (one, zero), (one, zero)),
    )


def _affine(q: Fraction, w: tuple[Fraction, Fraction], z: tuple[Fraction, Fraction]) -> Poly:
    """The base q w + z of a ladder, formed from the (constant, slope) pairs of w and z."""
    return Poly([q * w[0] + z[0], q * w[1] + z[1]])


def top_power(c: Construction, cls: ClassPoly) -> Poly:
    """Exact top intersection power (x V_0 + y Vbar_inf + z A)^n as a Poly in t.

    Expanding multinomially, the mixed V_0.Vbar_inf terms and A^n vanish, and
    each of the two ladders sum_{k=1..n} C(n,k) x^k z^(n-k) q^(k-1) is a
    binomial expansion, so with q0 = -1/r and qinf = (1-l)/r

        vol(V) * [ ((q0 x + z)^n - z^n) / q0 + ((qinf y + z)^n - z^n) / qinf ].

    q0 is never zero; at l = 1, where qinf = 0, only the k = 1 rung of the
    second ladder survives and the second term is n y z^(n-1).  A ladder whose
    coefficient (x or y) is zero vanishes and is not expanded; on [1, 2] each
    Zariski positive part has one such coefficient.  z^n is raised only when
    a remaining ladder uses it.  Each ladder is scaled once, by vol(V) / q or
    by n vol(V), and the ladders are summed once.  This is where a class's
    pairs become Poly: z, each ladder's base and, at l = 1, y.
    """
    n, (x, y, z), vol_v = c.n, cls, c.vol_v
    q0 = Fraction(-1) / c.r
    qinf = (1 - c.l) / c.r
    has_x, has_y = any(x), any(y)
    z_t = Poly(z)
    zn = z_t ** n if has_x or (has_y and qinf) else None
    ladders = []
    if has_x:
        ladders.append((_affine(q0, x, z) ** n - zn) * (vol_v / q0))
    if has_y and qinf:
        ladders.append((_affine(qinf, y, z) ** n - zn) * (vol_v / qinf))
    elif has_y:
        ladders.append(Poly(y) * (n * vol_v) * z_t ** (n - 1))
    return sum(ladders[1:], ladders[0]) if ladders else ZERO
