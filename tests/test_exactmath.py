import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

from fanoblowup import Construction, Poly, as_rational, excerpt, hilbert_projective_space, parse_integer
from fanoblowup.exactmath import ONE, ZERO

from oracles import binom_int, coeff_difference, coeff_product, naive_eval, naive_integral

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=9)
polys_st = st.lists(fractions_st, max_size=6).map(Poly)
# The integer kernels behind evaluation and integration, at the sizes the
# volume profiles reach: degree up to 40, 24-bit denominators, and the
# quarter-integer guard points, 0 and negative rationals as arguments.
wide_coeffs_st = st.builds(Fraction, st.integers(-(2 ** 24), 2 ** 24), st.integers(1, 2 ** 24))
wide_polys_st = st.lists(wide_coeffs_st, max_size=41).map(Poly)
any_polys_st = st.one_of(polys_st, wide_polys_st)
points_st = st.one_of(
    fractions_st,
    st.integers(-8, 8).map(lambda k: Fraction(k, 4)),
    st.builds(Fraction, st.integers(-(2 ** 24), 0), st.integers(1, 2 ** 24)),
)


class TestBinom:
    def test_against_product_formula(self):
        for s in range(1, 8):
            h = hilbert_projective_space(s, 1)
            for k in range(0, 25):
                assert h(k) == binom_int(k + s, s)
        assert hilbert_projective_space(30, 1)(30) == binom_int(60, 30)


class TestRational:
    def test_always_normalized_with_positive_denominator(self):
        q = as_rational("6/4")
        assert (q.numerator, q.denominator) == (3, 2)
        q = as_rational(Fraction(3, -6))
        assert (q.numerator, q.denominator) == (-1, 2)

    def test_exact_fraction_passes_through(self):
        q = Fraction(3, 2)
        assert as_rational(q) is q

        class Half(Fraction):
            pass

        assert type(as_rational(Half(1, 2))) is Fraction

    def test_decimal_refused_like_float(self):
        # Fraction would read Decimal("1e1") as 10 and expand a huge exponent without bound.
        for value in (Decimal("1e1"), Decimal("1.5")):
            with pytest.raises(TypeError, match="refusing Decimal"):
                as_rational(value)
            with pytest.raises(TypeError):
                Construction(3, value, 2)
            with pytest.raises(TypeError):
                Poly([value])

    def test_comparison_is_exact(self):
        assert as_rational("1/3") * 3 == 1
        assert Fraction(10 ** 40, 3) - Fraction(10 ** 40 - 1, 3) == Fraction(1, 3)


# Text Fraction reads differently across Pythons or expands into a power of ten.
SEPARATED = ["3_0/2", "1_0", "0.2_5"]
EXPONENTS = ["1e1", "2E0", "1.e2", "\u0661e1", ".5e1", " 1E+5 ", "1e-1", "-3.25e2"]
# Text with an "e" that Fraction does not read as an exponent: it refuses it anyway.
NOT_EXPONENTS = ["three", "1e", "1e1x", ".e1", "e1", "1/2e1", "1e1/2", "1 e1"]


class TestRationalText:
    """Text has one grammar on every Python: an integer, a decimal or p/q."""

    @pytest.mark.parametrize(
        "texts, reason",
        [
            (SEPARATED, "digit separators '_' are not accepted, got {!r}"),
            (EXPONENTS, "exponent notation is not accepted, got {!r}; write an integer or p/q"),
            (NOT_EXPONENTS + ["", "1/0", "x", "3/2/1", "1.5/2"], "expected a rational like 7 or 3/2, got {!r}"),
        ],
        ids=["separators", "exponents", "malformed"],
    )
    def test_refusals(self, texts, reason):
        for text in texts:
            with pytest.raises(ValueError) as refused:
                as_rational(text)
            assert str(refused.value) == reason.format(text)

    @given(text=st.text(alphabet=" +-./_eE01\u0661x", max_size=7))
    @example(text="1e1")
    @example(text="\u0661.e1")
    @example(text=" 3/2 ")
    @example(text="2.5")
    @example(text="-0")
    @example(text="7")
    def test_refuses_what_fraction_reads_differently_and_nothing_else(self, text):
        # Seven characters keep any exponent Fraction reads below 10**99999.
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        if "_" in text:
            reason = "digit separators"
        elif expected is not None and "e" in text.lower():
            reason = "exponent notation"  # Fraction's only "e" is its exponent
        elif expected is None:
            reason = "expected a rational"
        else:
            assert as_rational(text) == expected  # the value Fraction reads
            return
        with pytest.raises(ValueError, match=f"^{reason}"):
            as_rational(text)


class TestIntegerText:
    """Integer text is read by parse_integer, under the same "_" and length rules."""

    def test_reads_what_int_reads(self):
        assert [parse_integer(text, "m") for text in ("7", " -3 ", "010", "+0")] == [7, -3, 10, 0]

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("1_0", "digit separators '_' are not accepted, got '1_0'"),
            ("x", "m must be an integer, got 'x'"),
            ("3.0", "m must be an integer, got '3.0'"),
            ("0x10", "m must be an integer, got '0x10'"),
            ("", "m must be an integer, got ''"),
        ],
    )
    def test_refusals(self, text, reason):
        with pytest.raises(ValueError) as refused:
            parse_integer(text, "m")
        assert str(refused.value) == reason


# int converts a run of at most this many digits (0: any number).
LIMIT = sys.get_int_max_str_digits()
needs_limit = pytest.mark.skipif(not LIMIT, reason="this Python converts digit runs of any length")


class TestOverLongText:
    """A digit run longer than int converts is refused by both readers for its
    length, naming the limit and echoing only the text's first 24 characters."""

    @needs_limit
    @pytest.mark.parametrize(
        "text",
        ["9" * (LIMIT + 1), " -" + "9" * 5000, "1/" + "7" * (LIMIT + 1), "1." + "0" * (LIMIT + 1), "\u0661" * (LIMIT + 1)],
        ids=["integer", "signed", "denominator", "decimal", "non-ascii"],
    )
    def test_refused_by_both_readers(self, text):
        for read in (as_rational, lambda t: parse_integer(t, "n")):
            with pytest.raises(ValueError) as refused:
                read(text)
            message = str(refused.value)
            assert message == f"numbers are limited to {LIMIT} digits, got {len(text)} characters starting {text[:24]!r}"

    @needs_limit
    def test_runs_at_the_limit_are_read(self):
        run, sevens = "9" * LIMIT, "7" * LIMIT
        assert as_rational(run) == parse_integer(run, "n") == 10 ** LIMIT - 1
        # Text longer than the limit, but no run in it is.
        assert as_rational(f"{run}/{sevens}") == Fraction(10 ** LIMIT - 1, int(sevens))
        assert as_rational(" " * LIMIT + "7") == parse_integer(" " * LIMIT + "7", "n") == 7

    def test_limit_is_read_at_each_call(self):
        saved = sys.get_int_max_str_digits()
        try:
            # 640 is the least nonzero limit CPython takes.
            sys.set_int_max_str_digits(640)
            run = "9" * 641
            for read in (as_rational, lambda t: parse_integer(t, "n")):
                with pytest.raises(ValueError) as refused:
                    read(run)
                assert str(refused.value) == f"numbers are limited to 640 digits, got 641 characters starting {run[:24]!r}"
                assert read(run[1:]) == 10 ** 640 - 1
            # 0: int converts a run of any length.
            sys.set_int_max_str_digits(0)
            assert as_rational("9" * 5000) == parse_integer("9" * 5000, "n") == 10 ** 5000 - 1
        finally:
            sys.set_int_max_str_digits(saved)


class TestRefusalExcerpt:
    """A refusal quotes text of up to 24 characters whole, and longer text by
    its length and its first 24 characters, so its size does not grow with
    the input."""

    def test_excerpt(self):
        assert excerpt("x" * 24) == repr("x" * 24)
        assert excerpt("x" * 25) == f"25 characters starting {'x' * 24!r}"

    @pytest.mark.parametrize(
        "read, text, reason",
        [
            (as_rational, "x" * 5000, "expected a rational like 7 or 3/2, got {}"),
            (as_rational, "1_0" * 3000, "digit separators '_' are not accepted, got {}"),
            (as_rational, " 1e5" + "0" * 3000, "exponent notation is not accepted, got {}; write an integer or p/q"),
            (lambda text: parse_integer(text, "m"), "x" * 3000, "m must be an integer, got {}"),
            (lambda text: parse_integer(text, "m"), "1_0" * 3000, "digit separators '_' are not accepted, got {}"),
        ],
        ids=["malformed", "separators", "exponent", "integer", "integer-separators"],
    )
    def test_long_text_is_quoted_by_excerpt(self, read, text, reason):
        with pytest.raises(ValueError) as refused:
            read(text)
        assert str(refused.value) == reason.format(f"{len(text)} characters starting {text[:24]!r}")


class TestPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0]).degree == -1
        assert not Poly([0])

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5])
        with pytest.raises(TypeError):
            as_rational(0.5)
        # A bool is an int to isinstance, but a flag, not a coefficient.
        for flag in (True, False):
            with pytest.raises(TypeError, match=f"^refusing bool {flag}; "):
                as_rational(flag)
            with pytest.raises(TypeError):
                Poly([flag, 2])

    def test_mul_difference_of_squares(self):
        assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])

    def test_scalars_enter_only_as_factors(self):
        # A Poly adds and subtracts only a Poly, as it equals only a Poly.
        p = Poly([1, 2])
        for k in (1, Fraction(1, 2)):
            for combine in (lambda: p + k, lambda: k + p, lambda: p - k, lambda: k - p):
                with pytest.raises(TypeError):
                    combine()
        with pytest.raises(TypeError):
            -p
        assert 2 * p == p * 2 == Poly([2, 4])
        assert p * Fraction(1, 2) == Fraction(1, 2) * p == Poly([Fraction(1, 2), 1])
        assert Poly([3]) * p == p * Poly([3]) == Poly([3, 6])
        # A bool is a flag, not a scalar: as_rational refuses it too.
        for flag in (True, False):
            for product in (lambda: p * flag, lambda: flag * p):
                with pytest.raises(TypeError):
                    product()
        # bench/tracing.py patches these through the class __dict__.
        assert {"__init__", "__mul__", "__rmul__", "__pow__", "integrate"} <= vars(Poly).keys()

    def test_mul_by_zero(self):
        assert Poly([3, 1]) * ZERO == ZERO

    def test_cube_of_binomial(self):
        assert Poly([1, 2]) ** 3 == Poly([1, 6, 12, 8])

    def test_pow_square_and_identity(self):
        assert Poly([0, 1]) ** 2 == Poly([0, 0, 1])
        p = Poly([Fraction(1, 3), 2, 5])
        assert p ** 1 == p
        assert p ** 0 == ONE

    def test_pow_evaluated(self):
        assert (Poly([2, -1]) ** 4)(1) == 1

    def test_pow_rejects_negative(self):
        # Non-int exponents too, a bool included; a constant or zero base
        # takes no fast path around the exponent check.
        for base in (Poly([0, 1]), Poly([2]), ZERO):
            for exponent in (-1, 1.5, True, False, Fraction(2)):
                with pytest.raises(ValueError):
                    base ** exponent

    @given(p=st.lists(wide_coeffs_st, max_size=5).map(Poly), e=st.integers(0, 12))
    @example(p=ZERO, e=0)
    @example(p=ZERO, e=3)
    @example(p=Poly([Fraction(-2, 3)]), e=3)
    def test_pow_equals_repeated_product(self, p, e):
        product = ONE
        for _ in range(e):
            # product is never p itself, so this is the general product, not a square
            product = product * p
        assert p ** e == product

    def test_eval_examples(self):
        assert Poly([1, 6, 12, 8])(1) == 27
        p = Poly([Fraction(7, 3), 1, 4])
        assert p(0) == Fraction(7, 3)

    def test_str_rational_inputs(self):
        assert Poly(["1/2", "3/2"])(2) == Fraction(7, 2)


class TestPolyEquality:
    """A Poly equals only another Poly, so == agrees with hash, dicts and sets."""

    def test_never_equals_a_scalar(self):
        assert Poly([3]) != 3
        assert 3 != Poly([3])
        assert ZERO != 0
        assert Poly([Fraction(1, 2)]) != Fraction(1, 2)
        assert Poly([3]) == Poly(["3"]) == Poly([3, 0])

    def test_dict_and_set_keys_agree_with_eq(self):
        keys = [Poly([3]), 3, Fraction(3), ZERO, 0, Poly(), Poly([0, 1]), Poly([0, "1"]), Poly([3, 0])]
        for a in keys:
            for b in keys:
                assert (b in {a}) == (a == b)
                assert ({a: "x"}.get(b) is not None) == (a == b)
        assert {3: "x"}.get(Poly([3])) is None
        assert len({Poly([1, 2]), Poly([1, 2, 0]), Poly(["1", "2"])}) == 1

    @given(
        p=st.one_of(any_polys_st, fractions_st.map(lambda c: Poly([c])), st.just(ZERO)),
        data=st.data(),
    )
    def test_equal_implies_equal_hash(self, p, data):
        rebuilt = Poly(p.coeffs + (Fraction(0),))
        constant_term = p.coeffs[0] if p else Fraction(0)
        q = data.draw(st.one_of(any_polys_st, fractions_st, st.integers(-5, 5), st.just(rebuilt), st.just(constant_term)))
        if p == q:
            assert hash(p) == hash(q)
        if q == p:
            assert hash(q) == hash(p)


class TestPolyRingLaws:
    @given(p=polys_st, q=polys_st)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(p=polys_st, q=polys_st)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(p=polys_st, q=polys_st, r=polys_st)
    def test_add_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(p=polys_st, q=polys_st, r=polys_st)
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(p=polys_st, q=polys_st, r=polys_st)
    def test_mul_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(p=polys_st, q=polys_st)
    def test_product_degree(self, p, q):
        if p and q:
            assert (p * q).degree == p.degree + q.degree

    @given(p=any_polys_st, x=points_st)
    def test_eval_matches_naive_summation(self, p, x):
        assert p(x) == naive_eval(p.coeffs, x)


# A constant factor of each kind a product takes: an int, a Fraction, a degree-0 Poly, and zero.
constants_st = st.one_of(
    st.integers(-(2 ** 24), 2 ** 24),
    fractions_st,
    wide_coeffs_st,
    wide_coeffs_st.map(lambda c: Poly([c])),
    st.sampled_from([0, Fraction(0), ZERO]),
)


class TestAgainstCoefficientLists:
    """Products by a constant and differences, against plain coefficient-list
    arithmetic in oracles.  The ring laws compare one Poly result with another,
    so a path that drops a constant the same way on both sides passes them."""

    @given(p=any_polys_st, k=constants_st)
    @example(p=Poly([1, 2]), k=0)
    @example(p=ZERO, k=3)
    @example(p=Poly([2]), k=Poly([Fraction(3, 5)]))
    @example(p=Poly([Fraction(1, 3), 2, 5]), k=Fraction(-7, 2))
    def test_constant_factor_on_either_side(self, p, k):
        want = coeff_product(p.coeffs, k.coeffs if isinstance(k, Poly) else (k,))
        for got in (p * k, k * p):
            assert type(got) is Poly and got.coeffs == want
            assert all(type(c) is Fraction for c in got.coeffs)
        if not k:
            assert p * k == k * p == ZERO

    @given(p=any_polys_st, q=st.one_of(any_polys_st, wide_coeffs_st.map(lambda c: Poly([c]))))
    @example(p=Poly([1]), q=Poly([0, 0, 1]))
    @example(p=ZERO, q=Poly([Fraction(1, 2), 3]))
    @example(p=Poly([1, 2, 3]), q=Poly([5]))
    def test_difference(self, p, q):
        assert (p - q).coeffs == coeff_difference(p.coeffs, q.coeffs)
        assert (q - p).coeffs == coeff_difference(q.coeffs, p.coeffs)

    @given(low=st.lists(st.tuples(wide_coeffs_st, wide_coeffs_st), max_size=5), top=st.lists(wide_coeffs_st, min_size=1, max_size=5))
    @example(low=[(Fraction(1), Fraction(1))], top=[Fraction(2), Fraction(3)])
    def test_difference_cancels_into_trailing_zeros(self, low, top):
        p, q = Poly([u for u, _ in low] + top), Poly([v for _, v in low] + top)
        diff = p - q
        assert diff.coeffs == coeff_difference(p.coeffs, q.coeffs)
        assert diff.degree < len(low)


class TestIntegration:
    def test_binomial_cube(self):
        # antiderivative (1+2t)^4/8: (81 - 1)/8
        assert (Poly([1, 2]) ** 3).integrate(0, 1) == 10

    def test_empty_interval(self):
        assert Poly([4, 2, 9]).integrate(0, 0) == 0

    def test_shifted_cube(self):
        # antiderivative (2+t)^4/4 gives 65/4 on [0,1] and 175/4 on [1,2]
        p = Poly([2, 1]) ** 3
        assert p.integrate(0, 1) == Fraction(65, 4)
        assert p.integrate(1, 2) == Fraction(175, 4)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            ONE.integrate(1, 0)

    @given(p=any_polys_st, q=any_polys_st, a=points_st, b=points_st)
    def test_linearity(self, p, q, a, b):
        lo, hi = min(a, b), max(a, b)
        assert (p + q).integrate(lo, hi) == p.integrate(lo, hi) + q.integrate(lo, hi)

    @given(p=any_polys_st, a=points_st, b=points_st)
    @example(p=ZERO, a=Fraction(-3, 4), b=Fraction(2))
    @example(p=Poly([Fraction(1, 3), -7, Fraction(5, 2)]), a=Fraction(3, 4), b=Fraction(3, 4))
    def test_matches_term_by_term_antiderivative(self, p, a, b):
        lo, hi = min(a, b), max(a, b)
        assert p.integrate(lo, hi) == naive_integral(p.coeffs, lo, hi)

    @pytest.mark.parametrize(
        "p, lo, hi",
        [
            (Poly([0] * 64 + [1]), Fraction(0), Fraction(1)),
            (Poly([1, 2]) ** 64, Fraction(-1, 2), Fraction(1, 4)),
            (Poly([Fraction(7, 3), Fraction(-5, 7)]) ** 64, Fraction(1), Fraction(2)),
            (Poly([Fraction((-1) ** i * (i + 3), 2 ** 24 - i) for i in range(65)]), Fraction(-3, 4), Fraction(5, 2)),
        ],
        ids=["t^64", "binomial", "affine-power", "wide"],
    )
    def test_degree_64_matches_term_by_term_antiderivative(self, p, lo, hi):
        # The largest admitted dimension makes volume profiles of degree 64.
        assert p.degree == 64
        assert p.integrate(lo, hi) == naive_integral(p.coeffs, lo, hi)

    @given(p=any_polys_st, a=points_st, b=points_st, c=points_st)
    def test_additivity_over_intervals(self, p, a, b, c):
        lo, mid, hi = sorted([a, b, c])
        assert p.integrate(lo, hi) == p.integrate(lo, mid) + p.integrate(mid, hi)

    def test_500_random_polys_against_adaptive_quadrature(self):
        rng = random.Random(987123)
        for _ in range(500):
            degree = rng.randint(0, 8)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
            p = Poly(coeffs)
            lo = Fraction(rng.randint(-8, 4), rng.randint(1, 4))
            hi = lo + Fraction(rng.randint(0, 12), rng.randint(1, 4))
            exact = p.integrate(lo, hi)
            floats = [float(c) for c in p.coeffs]
            approx, _ = quad(lambda t: sum(c * t ** i for i, c in enumerate(floats)), float(lo), float(hi))
            assert abs(float(exact) - approx) <= 1e-9 * max(1.0, abs(float(exact)))
