import random
from fractions import Fraction

import pytest

from fanoblowup import nef
from fanoblowup import (
    ClassPoly,
    Construction,
    HorizontalDivisor,
    InvariantViolation,
    Poly,
    decompose,
    derived_classes,
    top_power,
    volume_profile,
)

from oracles import (
    admissible_grid,
    chow_curve_number,
    ladder_top_power,
    projective_bases,
    projective_construction,
)

ZS = HorizontalDivisor.ZERO_SECTION
IS = HorizontalDivisor.INFINITY_SECTION


ZERO_PAIR = (Fraction(0), Fraction(0))
ZERO_CLASS = ClassPoly(ZERO_PAIR, ZERO_PAIR, ZERO_PAIR)


def t_times_divisor(d):
    """The class t D, as (constant, slope) pairs."""
    along = (Fraction(0), Fraction(1))
    return ClassPoly(along, ZERO_PAIR, ZERO_PAIR) if d is ZS else ClassPoly(ZERO_PAIR, along, ZERO_PAIR)


def class_sum(*classes):
    """The componentwise sum of classes given as (constant, slope) pairs."""
    return ClassPoly(*((sum(k for k, _ in pairs), sum(u for _, u in pairs)) for pairs in zip(*classes)))


def t_minus_1_times(cls):
    """(t - 1) times a constant class: each constant k becomes -k + k t."""
    assert all(u == 0 for _, u in cls)
    return ClassPoly(*((-k, k) for k, _ in cls))


class TestDecompose:
    def test_segments_partition_0_2(self):
        for d in (ZS, IS):
            segs = decompose(Construction(3, 2, 2), d)
            assert [(s.t_lo, s.t_hi) for s in segs] == [(0, 1), (1, 2)]

    def test_at_t0_positive_is_anti_k(self):
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            for d in (ZS, IS):
                first = decompose(c, d)[0]
                assert first.negative == ZERO_CLASS
                at0 = ClassPoly(*((k, 0) for k, _ in first.positive))
                assert at0 == derived_classes(c).anti_k

    def test_infinity_section_outer_segment(self):
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            seg = decompose(c, IS)[1]
            assert seg.positive == ClassPoly((2, -1), ZERO_PAIR, ((r + 1) / r, -1 / r))
            assert seg.negative == t_minus_1_times(derived_classes(c).e)

    def test_zero_section_outer_segment(self):
        c = Construction(3, 3, 3)
        seg = decompose(c, ZS)[1]
        # A-coefficient (r - (t-1)(l-1))/r = (5 - 2t)/3
        assert seg.positive.a == (Fraction(5, 3), Fraction(-2, 3))
        assert seg.negative == t_minus_1_times(derived_classes(c).f)

    def test_symbolic_identity_on_grid(self):
        # Besides the small grid, seeded 24-bit r and l in every branch of l,
        # where the coefficient arithmetic does not reduce.
        rng = random.Random(24)

        def wide() -> Fraction:
            q = rng.getrandbits(24) | 1 << 23
            return Fraction(rng.randrange(1, q), q)

        points = list(admissible_grid())
        for n in (2, 3, 6, 9):
            for branch in range(6):
                r, u = 1 + 4 * wide(), wide()
                points.append((n, r, (0, u, 1, 1 + u, 2, 2 + u * (r - 1))[branch]))
        for n, r, l in points:
            c = Construction(n, r, l)
            anti_k = derived_classes(c).anti_k
            for d in (ZS, IS):
                for seg in decompose(c, d):
                    assert class_sum(seg.positive, seg.negative, t_times_divisor(d)) == anti_k

    def test_negative_part_is_nonneg_multiple_on_segment(self):
        c = Construction(4, Fraction(5, 4), Fraction(3, 2))
        der = derived_classes(c)
        for d, contracted in ((IS, der.e), (ZS, der.f)):
            inner, outer = decompose(c, d)
            assert inner.negative == ZERO_CLASS
            # outer negative = (t-1) * contracted, and t-1 >= 0 on [1, 2]
            assert outer.negative == t_minus_1_times(contracted)

    def test_builds_no_poly(self, monkeypatch):
        # Classes stay (constant, slope) pairs until top_power raises them.
        built = []
        init = Poly.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Poly, "__init__", counting)
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            derived_classes(c)
            for d in (ZS, IS):
                decompose(c, d)
        assert built == []
        top_power(c, derived_classes(c).anti_k)
        assert built, "the count must see the Poly that top_power builds"


class TestZariskiOrthogonality:
    """P^(n-1) . N = 0 on [1, 2], by an intersection route that shares no code
    with the library: the s-linear coefficient of the ladder oracle's
    (P + s N)^n is n P^(n-1) . N."""

    def test_positive_part_is_orthogonal_to_negative_part(self):
        nonzero = []
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            for d in (ZS, IS):
                _, outer = decompose(c, d)
                for t in (Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(2)):
                    p, neg = ([k + u * t for k, u in cls] for cls in (outer.positive, outer.negative))
                    pencil = ladder_top_power(n, r, l, c.vol_v, *zip(p, neg))
                    linear = pencil[1] if len(pencil) > 1 else 0
                    if linear:
                        nonzero.append((n, r, l, d, t, linear))
        assert nonzero == []


CURVES = ("A^(n-1)", "V_0", "Vbar_inf", "E", "F")


def curve_numbers(c, x, y, z) -> dict:
    """(x V_0 + y Vbar_inf + z A) . C for the curve C = A^(n-1) and for
    C = X . A^(n-2) with X = V_0, Vbar_inf, E and F (keyed by X), by the three
    monomial rules: V_0^2 A^(n-2) = -vol/r, Vbar_inf^2 A^(n-2) = (1-l) vol/r,
    V_0 A^(n-1) = Vbar_inf A^(n-1) = vol, V_0 Vbar_inf = A^n = 0."""
    r, l = c.r, c.l
    values = (x + y, z - x / r, z + (1 - l) * y / r, l * y / r, l * x / r)
    return {name: c.vol_v * value for name, value in zip(CURVES, values)}


def positive_parts(c):
    """(divisor, segment, t, (x, y, z)) at both ends of every Zariski segment of both divisors."""
    for d in (ZS, IS):
        for seg in decompose(c, d):
            for t in (seg.t_lo, seg.t_hi):
                yield d, seg, t, tuple(k + u * t for k, u in seg.positive)


class TestCurvesCertifyNef:
    """The positive part of each Zariski segment meets five curves with no
    negative number, and on [1, 2] it meets the contracted divisor's curve (E for
    Vbar_inf, F for V_0) in exactly 0 when l > 0: there it contracts that curve."""

    def test_positive_parts_meet_the_curves_nonnegatively(self):
        negative, uncontracted = [], []
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            for d, seg, t, xyz in positive_parts(c):
                numbers = curve_numbers(c, *xyz)
                negative += [(n, r, l, d, t, name) for name, value in numbers.items() if value < 0]
                contracted = "E" if d is IS else "F"
                if seg.t_lo == 1 and l > 0 and numbers[contracted] != 0:
                    uncontracted.append((n, r, l, d, t))
        assert negative == [] and uncontracted == []

    def test_monomial_rules_agree_with_the_chow_ring(self):
        # The curves' divisors X as coordinates (V_0, Vbar_inf, A, E); F = Vbar_inf + ((l-1)/r) A - V_0.
        for s, d, l in projective_bases():
            c = projective_construction(s, d, l)
            divisors = [(0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (-1, 1, (l - 1) / c.r, 0)]
            for _, _, _, (x, y, z) in positive_parts(c):
                chow = [chow_curve_number(s, d, l, (x, y, z, 0), divisor) for divisor in divisors]
                assert chow == list(curve_numbers(c, x, y, z).values()), (s, d, l, x, y, z)


class TestVolumeProfile:
    def test_l2_infinity_section_closed_forms(self):
        for n, r in [(3, Fraction(2)), (4, Fraction(3)), (5, Fraction(5, 4))]:
            c = Construction(n, r, 2, Fraction(3))
            (lo1, hi1, p1), (lo2, hi2, p2) = volume_profile(c, IS)
            scale = c.vol_v / r ** (n - 1)
            inner = (Poly([2 * r ** n - (r - 1) ** n]) - Poly([r - 1, 1]) ** n) * scale
            outer = (Poly([r + 1, -1]) ** n - Poly([(r - 1) ** n])) * scale
            assert (lo1, hi1, p1) == (0, 1, inner)
            assert (lo2, hi2, p2) == (1, 2, outer)

    def test_vanishes_at_threshold(self):
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            for d in (ZS, IS):
                assert volume_profile(c, d)[-1][2](2) == 0

    def test_continuous_at_breakpoint(self):
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            for d in (ZS, IS):
                (_, _, p1), (_, _, p2) = volume_profile(c, d)
                assert p1(1) == p2(1)

    def test_value_at_zero_is_vol_y(self):
        for n, r, l in admissible_grid():
            c = Construction(n, r, l, Fraction(5, 2))
            expected = top_power(c, derived_classes(c).anti_k)(0)
            for d in (ZS, IS):
                assert volume_profile(c, d)[0][2](0) == expected

    def test_nonincreasing_at_samples(self):
        samples = [Fraction(k, 8) for k in range(17)]
        for n, r, l in [(3, Fraction(2), Fraction(1)), (5, Fraction(3), Fraction(5, 2)), (2, Fraction(5, 4), Fraction(0))]:
            c = Construction(n, r, l)
            for d in (ZS, IS):
                (_, _, p1), (_, _, p2) = volume_profile(c, d)
                values = [(p1 if s <= 1 else p2)(s) for s in samples]
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_involution_swaps_profiles_at_l2(self):
        for n, r in [(2, Fraction(3, 2)), (3, Fraction(2)), (6, Fraction(3))]:
            c = Construction(n, r, 2, Fraction(11, 4))
            assert volume_profile(c, ZS) == volume_profile(c, IS)

    def test_discontinuity_raises_invariant_violation(self, monkeypatch):
        # An explicit check, not an assert: the suite also runs under python -O.
        shifts = iter([0, 1])
        real = nef.top_power
        monkeypatch.setattr(nef, "top_power", lambda c, cls: real(c, cls) + Poly([next(shifts)]))
        with pytest.raises(InvariantViolation, match="discontinuous at t = 1"):
            volume_profile(Construction(3, 2, 1), ZS)

    @pytest.mark.parametrize(
        "volume, reason",
        [
            (Poly([1]), "volume must vanish at the pseudo-effective threshold t = 2"),
            (Poly([0, 2, -1]), "volume profile not nonincreasing"),  # rises on [0, 1], vanishes at 2
        ],
    )
    def test_failed_guard_raises_invariant_violation(self, monkeypatch, volume, reason):
        # Each wrong profile is continuous at t = 1, so it reaches the guard named.
        monkeypatch.setattr(nef, "top_power", lambda c, cls: volume)
        with pytest.raises(InvariantViolation, match=f"^{reason}$"):
            volume_profile(Construction(3, 2, 1), IS)

    def test_flat_stretch_is_nonincreasing(self, monkeypatch):
        # Equal neighbouring samples pass: the guard refuses a rise, not a plateau.
        volumes = iter([Poly([1]), Poly([2, -1])])
        monkeypatch.setattr(nef, "top_power", lambda c, cls: next(volumes))
        assert [p for _, _, p in volume_profile(Construction(3, 2, 1), IS)] == [Poly([1]), Poly([2, -1])]
