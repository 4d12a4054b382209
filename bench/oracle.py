"""Exact closed-form oracle for the benchmark, sharing no code with fanoblowup.

Every class on Y is x V_0 + y Vbar_inf + z A, and its top power sums by the
binomial theorem to

    vol(V) * [ ((q0 x + z)^n - z^n) / q0 + ((qi y + z)^n - z^n) / qi ],

with q0 = -1/r and qi = (1-l)/r; at l = 1 (qi = 0) the second term is
n y z^(n-1).  On each Zariski segment the positive part has x, y, z affine in
t, so every volume profile is a power of an affine form and S is a ratio of
exact antiderivatives.  Nothing here expands a polynomial.

Run this file to check the oracle against values from the literature:

    python3 bench/oracle.py
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _pieces(n: int, r: Fraction, l: Fraction):
    """(c1, c2, q) with vol_y / vol_v = c1 + c2.

    c1 = r (1 - rho^n), rho = (r-1)/r, is the V_0 ladder at x = z = 1;
    c2 = ((1+q)^n - 1)/q, or n at l = 1, is the Vbar_inf ladder at y = z = 1.
    """
    rho = (r - 1) / r
    q = (1 - l) / r
    c1 = r * (1 - rho ** n)
    c2 = Fraction(n) if q == 0 else ((1 + q) ** n - 1) / q
    return c1, c2, q, rho


def vol_y(n: int, r: Fraction, l: Fraction, vol_v: Fraction) -> Fraction:
    """(-K_Y)^n in closed form (both branches, l = 1 and l != 1)."""
    c1, c2, _, _ = _pieces(n, r, l)
    return vol_v * (c1 + c2)


def s_pair(n: int, r: Fraction, l: Fraction) -> tuple[Fraction, Fraction]:
    """(S(V_0), S(Vbar_inf)) from the antiderivatives of the volume profiles.

    Vbar_inf: on [0,1] vol = c1 + ((1 + q(1-t))^n - 1)/q, on [1,2]
    vol = r(((r+1-t)/r)^n - rho^n).  V_0: on [0,1] vol = r(1 - (1-(1-t)/r)^n)
    + c2, on [1,2] vol = ((1+q)^n - (1 + q(t-1))^n)/q.  Both in units of
    vol(V), which cancels in S.  At l = 1 each q-term tends to n(1-t) or
    n(2-t), whose integrals are n/2.
    """
    c1, c2, q, rho = _pieces(n, r, l)
    w = r * (1 - rho ** (n + 1)) / (n + 1)  # integral of ((r+1-t)/r)^n over [1, 2]
    if q == 0:
        tail_inf = tail_zero = Fraction(n, 2)
    else:
        u = ((1 + q) ** (n + 1) - 1) / ((n + 1) * q)  # integral of (1 + q s)^n over [0, 1]
        tail_inf = (u - 1) / q
        tail_zero = ((1 + q) ** n - u) / q
    total = c1 + c2
    s_inf = (c1 + tail_inf + r * (w - rho ** n)) / total
    s_zero = (r - r * w + c2 + tail_zero) / total
    return s_zero, s_inf


def coefficient_a(n: int, r: Fraction) -> Fraction:
    """a(n, r) as the ratio of integrals of x (r - x)^(n-1) and (r - |x|)^(n-1).

    It is the m -> infinity limit of a_m with the Hilbert function replaced
    by its leading term: numerator int_0^1 u (r-u)^(n-1) du, denominator
    2 int_0^1 (r-u)^(n-1) du.
    """
    d = (r ** n - (r - 1) ** n) / n
    num = r * d - (r ** (n + 1) - (r - 1) ** (n + 1)) / (n + 1)
    return num / (2 * d)


def a_m(s: int, d: int, m: int) -> Fraction:
    """a_m for V = P^s, L = O(d) by a direct math.comb sum, folded at j = m.

    N_{m,j} = C((m r - |m - j|) d + s, s) with r = (s+1)/d; the fixed part
    weight is j - m above the middle, so only the upper half carries weight.
    """
    k = Fraction(m * (s + 1), d)
    if k.denominator != 1:
        raise ValueError(f"m*r = {k} is not an integer")
    k = k.numerator
    total = comb(k * d + s, s)
    weighted = 0
    for i in range(1, m + 1):
        sections = comb((k - i) * d + s, s)
        total += 2 * sections
        weighted += i * sections
    return Fraction(weighted, m * total)


def a_m_hockey_stick(s: int, m: int) -> Fraction:
    """a_m for V = P^s, L = O(1) by the hockey-stick identity, in O(1) binomials.

    With K = m(s+1): sum_{i=0..m} C(K-i+s, s) = C(K+s+1, s+1) - C(K-m+s, s+1),
    and sum_i i C(K-i+s, s) = C(K+s+1, s+2) - C(K-m+s+1, s+2) - m C(K-m+s, s+1).
    """
    k = m * (s + 1)
    weighted = comb(k + s + 1, s + 2) - comb(k - m + s + 1, s + 2) - m * comb(k - m + s, s + 1)
    total = 2 * (comb(k + s + 1, s + 1) - comb(k - m + s, s + 1)) - comb(k + s, s)
    return Fraction(weighted, m * total)


def self_check() -> None:
    """Pin the oracle to values from the literature; raise on any mismatch."""
    f = Fraction
    pins = [
        # a(n, r) for Mori-Mukai 3.9, 3.19, 4.2 and a quartic-surface fourfold.
        ("a(3, 3/2)", coefficient_a(3, f(3, 2)), f(9, 52)),
        ("a(3, 3)", coefficient_a(3, f(3)), f(33, 152)),
        ("a(3, 2)", coefficient_a(3, f(2)), f(11, 56)),
        ("a(4, 2)", coefficient_a(4, f(2)), f(13, 75)),
        # Anti-canonical degrees of Mori-Mukai 3.9, 3.19, 4.2, 3.14, 3.31.
        ("deg 3.9", vol_y(3, f(3, 2), f(2), f(9)), 26),
        ("deg 3.19", vol_y(3, f(3), f(2), f(9)), 38),
        ("deg 4.2", vol_y(3, f(2), f(2), f(8)), 28),
        ("deg 3.14", vol_y(3, f(3), f(3), f(9)), 32),
        ("deg 3.31", vol_y(3, f(2), f(0), f(8)), 52),
        # Bl_p P^2: the exceptional curve has S = 7/6 (delta = 6/7).
        ("S(V_0) at (2, 2, 0)", s_pair(2, f(2), f(0))[0], f(7, 6)),
        # Family 3.31, the moment-polytope barycenter.
        ("beta(V_0) at (3, 2, 0)", 1 - s_pair(3, f(2), f(0))[0], f(-4, 13)),
        # a_1 for P^2, O(1) by hand: sections 6, 10, 6 and weight 6.
        ("a_1(ps:2:1)", a_m(2, 1, 1), f(3, 11)),
    ]
    for label, got, want in pins:
        if got != want:
            raise AssertionError(f"oracle pin {label}: got {got}, want {want}")
    for s in range(1, 7):
        for m in (1, 2, 3, 5, 8, 64, 256):
            if a_m(s, 1, m) != a_m_hockey_stick(s, m):
                raise AssertionError(f"hockey-stick a_m differs at s={s}, m={m}")
    for n, r, l in ((2, f(3), f(1)), (4, f(5, 2), f(1)), (3, f(2), f(3, 2))):
        s_zero, s_inf = s_pair(n, r, l)
        if s_zero + s_inf != 2:
            raise AssertionError(f"S(V_0) + S(Vbar_inf) != 2 at {(n, r, l)}")


if __name__ == "__main__":
    self_check()
    print("oracle self-check passed")
