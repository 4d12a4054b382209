import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fanoblowup import (
    ClassPoly,
    Construction,
    HorizontalDivisor,
    Poly,
    decompose,
    derived_classes,
    top_power,
    vol_y,
)

from oracles import (
    admissible_grid,
    chow_top_power,
    closed_form_vol_x,
    closed_form_vol_y,
    ladder_top_power,
    projective_bases,
    projective_construction,
)

scalars_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestConstructionValidation:
    def test_accepts_admissible(self):
        c = Construction(3, Fraction(3, 2), Fraction(2), Fraction(9))
        assert (c.n, c.r, c.l, c.vol_v) == (3, Fraction(3, 2), 2, 9)

    def test_accepts_string_rationals(self):
        c = Construction(3, "3/2", "2", "22/7")
        assert c.r == Fraction(3, 2) and c.vol_v == Fraction(22, 7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, r=2, l=2),
            dict(n=3, r=1, l=0),
            dict(n=3, r=Fraction(1, 2), l=0),
            dict(n=3, r=2, l=-1),
            dict(n=3, r=2, l=3),          # l = r + 1 is out
            dict(n=3, r=2, l=2, vol_v=0),
            dict(n=3, r=2, l=2, vol_v=-1),
            # Fraction reads "3_0/2" as 15 from Python 3.11 on, and the rest as powers of ten.
            *(dict(n=3, r=text, l=2) for text in ["3_0/2", "1e1", "2E0", "1.e2", "\u0661e1"]),
        ],
    )
    def test_rejects_inadmissible(self, kwargs):
        with pytest.raises(ValueError):
            Construction(**kwargs)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Construction(3, 1.5, 2)
        # Not l = 1: a bool is refused as a float is.
        with pytest.raises(TypeError, match="^refusing bool True"):
            Construction(3, 2, True)

    def test_keyword_strings_coerce_to_fraction(self):
        # The catalog builds constructions by keyword from the strings it parsed.
        c = Construction(n=3, r="3/2", l="1/2", vol_v="22/7")
        assert (c.r, c.l, c.vol_v) == (Fraction(3, 2), Fraction(1, 2), Fraction(22, 7))
        assert all(type(value) is Fraction for value in (c.r, c.l, c.vol_v, Construction(3, 2, 2).vol_v))

    def test_replace_is_checked(self):
        c = Construction(3, 2, 2)
        assert c._replace(l="1/2") == Construction(3, 2, Fraction(1, 2))
        with pytest.raises(ValueError):
            c._replace(n=1)


def _pairs(x, y, z) -> ClassPoly:
    """The class x V_0 + y Vbar_inf + z A from (constant, slope) pairs or constants."""
    return ClassPoly(*(w if isinstance(w, tuple) else (Fraction(w), Fraction(0)) for w in (x, y, z)))


def _scaled(s: Fraction, cls: ClassPoly) -> ClassPoly:
    return ClassPoly(*((s * k, s * u) for k, u in cls))


class TestDerivedClasses:
    def test_anti_k_is_sum_of_basis(self):
        der = derived_classes(Construction(3, 2, 2))
        assert der.anti_k == _pairs(1, 1, 1)

    def test_e_plus_f_is_l_over_r_times_a(self):
        for n, r, l in admissible_grid():
            der = derived_classes(Construction(n, r, l))
            summed = [(ek + fk, eu + fu) for (ek, eu), (fk, fu) in zip(der.e, der.f)]
            assert summed == list(_pairs(0, 0, l / r))

    def test_f_at_l2_r2(self):
        der = derived_classes(Construction(3, 2, 2))
        assert der.f == _pairs(-1, 1, Fraction(1, 2))

    def test_e(self):
        der = derived_classes(Construction(4, 3, 1))
        assert der.e == _pairs(1, -1, Fraction(1, 3))


class TestTopPower:
    def test_pullback_class_is_nilpotent(self):
        c = Construction(3, 2, 2)
        assert top_power(c, _pairs(0, 0, 1)) == Poly()

    def test_anti_k_l2_closed_form(self):
        for n, r in [(3, Fraction(2)), (5, Fraction(5, 4)), (4, Fraction(3))]:
            c = Construction(n, r, 2, Fraction(7, 3))
            expected = 2 * (r ** n - (r - 1) ** n) / r ** (n - 1) * c.vol_v
            assert top_power(c, derived_classes(c).anti_k) == Poly([expected])

    def test_anti_k_l1_closed_form(self):
        for n, r in [(2, Fraction(3)), (4, Fraction(3, 2))]:
            c = Construction(n, r, 1, Fraction(5))
            expected = (n * r ** (n - 1) + r ** n - (r - 1) ** n) * c.vol_v / r ** (n - 1)
            assert top_power(c, derived_classes(c).anti_k) == Poly([expected])

    def test_anti_k_full_grid_both_branches(self):
        for n, r, l in admissible_grid():
            c = Construction(n, r, l, Fraction(22, 7))
            value = top_power(c, derived_classes(c).anti_k)
            assert value == Poly([closed_form_vol_y(n, r, l, c.vol_v)])

    def test_positive_on_grid(self):
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            assert top_power(c, derived_classes(c).anti_k)(0) > 0

    @given(s=scalars_st)
    def test_multilinear_scaling(self, s):
        c = Construction(3, Fraction(3, 2), Fraction(1, 2), Fraction(2))
        for cls in [derived_classes(c).anti_k, _pairs(1, (1, -1), 1), _pairs((2, -1), 0, Fraction(1, 3))]:
            assert top_power(c, _scaled(s, cls)) == s ** c.n * top_power(c, cls)

    def test_polynomial_output_in_t(self):
        c = Construction(2, 2, 2, 1)
        # (x, y, z) = (1, 1-t, 1): vol = (2r^n - (r-1)^n - (r+t-1)^n)/r^{n-1}
        value = top_power(c, _pairs(1, (1, -1), 1))
        assert value == Poly([Fraction(6, 2), Fraction(-2, 2), Fraction(-1, 2)])


def _assert_matches_ladder(c: Construction, cls: ClassPoly) -> None:
    ladder = ladder_top_power(c.n, c.r, c.l, c.vol_v, *cls)
    assert top_power(c, cls) == Poly(ladder)


class TestTopPowerAgainstLadder:
    """The binomial closed form against the rung-by-rung ladder sum it replaces."""

    def test_pipeline_classes_on_grid(self):
        # The grid holds l = 0 and l = 1 (qinf = 0) alongside the generic branches.
        for n, r, l in admissible_grid():
            c = Construction(n, r, l, Fraction(22, 7))
            _assert_matches_ladder(c, derived_classes(c).anti_k)
            for d in HorizontalDivisor:
                for seg in decompose(c, d):
                    _assert_matches_ladder(c, seg.positive)

    @pytest.mark.parametrize("l", [Fraction(0), Fraction(1), Fraction(2), Fraction(11184811, 8388608)])
    def test_24_bit_rationals(self, l):
        r = Fraction(16777213, 8388608)
        cls = ClassPoly(
            (Fraction(9437183, 16777216), Fraction(-5, 3)),
            (Fraction(1), Fraction(-12582911, 8388608)),
            (Fraction(16777215, 12582912), Fraction(3, 16777213)),
        )
        # A zero x or y skips that ladder; at l = 1 a zero y also drops n y z^(n-1).
        zero = (Fraction(0), Fraction(0))
        no_v0, no_vinf, no_both = cls._replace(v0=zero), cls._replace(vinf=zero), cls._replace(v0=zero, vinf=zero)
        # x = t and y = -t: no pipeline class has a zero constant with a nonzero
        # slope, and neither ladder may be skipped for it.
        through_origin = cls._replace(v0=(Fraction(0), Fraction(1)), vinf=(Fraction(0), Fraction(-1)))
        for n in (2, 3, 5, 8):
            c = Construction(n, r, l, Fraction(16777199, 12582917))
            _assert_matches_ladder(c, derived_classes(c).anti_k)
            for case in (cls, no_v0, no_vinf, no_both, through_origin):
                _assert_matches_ladder(c, case)
            assert top_power(c, no_both) == Poly()


class TestChowRing:
    """The three monomial rules that top_power adopts as axioms agree with the
    Chow ring of the blow-up over P^s (tests/oracles.py::chow_top_power), for
    every s <= 7, every d and every l = k/d > 0."""

    def test_top_power_at_seeded_classes(self):
        rng = random.Random(13)
        for s, d, l in projective_bases():
            c = projective_construction(s, d, l)
            for _ in range(3):
                x, y, z = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3))
                value = top_power(c, ClassPoly((x, 0), (y, 0), (z, 0)))
                assert value.degree <= 0 and value(0) == chow_top_power(s, d, l, x, y, z), (s, d, l, x, y, z)

    def test_vol_y(self):
        for s, d, l in projective_bases():
            assert vol_y(projective_construction(s, d, l)) == chow_top_power(s, d, l, 1, 1, 1), (s, d, l)


class TestVolX:
    def test_example_3_2(self):
        assert vol_y(Construction(3, 2, 0, 8)) == 52

    def test_example_2_2(self):
        # ((r+1)^2 - (r-1)^2)/r = 4, so 4*vol_v; for V = P^1 this is K^2 of the
        # blow-up of P^2 at a point: 4 * 2 = 8
        v = Fraction(22, 7)
        assert vol_y(Construction(2, 2, 0, v)) == 4 * v
        assert vol_y(Construction(2, 2, 0, 2)) == 8

    def test_matches_top_power_at_l0(self):
        for n in range(2, 7):
            for r in [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 2)]:
                c = Construction(n, r, 0, Fraction(3, 5))
                assert vol_y(c) == top_power(c, derived_classes(c).anti_k)(0)
                assert vol_y(c) == closed_form_vol_x(n, r, c.vol_v)
