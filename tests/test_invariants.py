import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from fanoblowup import geometry, invariants, nef
from fanoblowup import (
    Construction,
    HorizontalDivisor,
    InvariantReport,
    InvariantViolation,
    KUnstable,
    Poly,
    ReducesToPair,
    beta,
    classification_fields,
    classification_text,
    classify,
    coefficient_a,
    report,
    s_invariant,
    vol_y,
)

from oracles import (
    admissible_grid,
    binom_int,
    closed_form_vol_y,
    coeff_product,
    coefficient_a_closed_form,
    interpolate,
    naive_integral,
    profile_quadrature,
    rel_err,
    s_pair_closed_form,
    s_zero_section_l0,
)

ZS = HorizontalDivisor.ZERO_SECTION
IS = HorizontalDivisor.INFINITY_SECTION


def with_s_values(monkeypatch, s_values):
    """Make each profile read vol(-K_Y) = 1 and integrate to its divisor's S in
    s_values on [0, 1] and to 0 on [1, 2], for report() and s_invariant alike."""
    monkeypatch.setattr(invariants, "_profile_integrals", lambda c, d: (Fraction(1), [s_values[d], Fraction(0)]))


def wide_rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi), hi <= 4, with a 62-bit denominator
    and a numerator of up to 64 bits."""
    q = rng.getrandbits(62) | 1 << 61
    return Fraction(rng.randrange(math.floor(lo * q) + 1, math.ceil(hi * q)), q)


class TestSInvariant:
    def test_equals_one_at_l2(self):
        for n, r, vol_v in [(3, Fraction(2), Fraction(8)), (5, Fraction(5, 4), Fraction(1)), (4, Fraction(3), Fraction(2))]:
            c = Construction(n, r, 2, vol_v)
            assert s_invariant(c, ZS) == 1
            assert s_invariant(c, IS) == 1

    def test_l0_zero_section_closed_form(self):
        for n in range(2, 7):
            for r in [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)]:
                c = Construction(n, r, 0)
                assert s_invariant(c, ZS) == s_zero_section_l0(n, r)

    def test_l0_spot_value(self):
        # profile (27 - (1+t)^3)/4 on [0,2] integrates to 34/4; vol X = 26/4
        c = Construction(3, 2, 0, Fraction(22, 7))
        assert s_invariant(c, ZS) == Fraction(17, 13)

    def test_l0_closed_form_matches_quadrature(self):
        for n, r in [(3, Fraction(2)), (4, Fraction(3)), (2, Fraction(5, 4))]:
            c = Construction(n, r, 0)
            approx = profile_quadrature(c, ZS) / float(vol_y(c))
            assert rel_err(s_zero_section_l0(n, r), approx) < 1e-9


class TestBeta:
    def test_zero_at_l2_both_divisors(self):
        for n, r in [(2, Fraction(5, 4)), (3, Fraction(2)), (6, Fraction(3))]:
            c = Construction(n, r, 2, Fraction(3))
            assert beta(c, ZS) == 0
            assert beta(c, IS) == 0

    def test_l0_spot_value(self):
        assert beta(Construction(3, 2, 0), ZS) == Fraction(-4, 13)

    def test_family_314_spot_value(self):
        # normalized integral -15/4 against normalized volume 32
        c = Construction(3, 3, 3, Fraction(1))
        assert 9 * vol_y(c) == 32
        assert beta(c, IS) == Fraction(-15, 4) / 32 == Fraction(-15, 128)

    def test_independent_of_vol_v(self):
        for n, r, l in [(3, Fraction(2), Fraction(1)), (4, Fraction(3), Fraction(5, 2)), (2, Fraction(3, 2), Fraction(1, 2))]:
            values = set()
            for vol_v in (Fraction(1), Fraction(8), Fraction(22, 7)):
                c = Construction(n, r, l, vol_v)
                values.add((s_invariant(c, ZS), s_invariant(c, IS), beta(c, ZS), beta(c, IS)))
            assert len(values) == 1


class TestBetaSumLemma:
    # The sum itself is acceptance criterion 3, on the same grid.
    def test_sign_pattern_regression(self):
        # established by exact computation over the grid, then pinned
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            b0, binf = beta(c, ZS), beta(c, IS)
            if l == 2:
                assert b0 == binf == 0
            elif l < 2:
                assert b0 < 0 < binf
            else:
                assert binf < 0 < b0


def _padded(coeffs: list[Fraction], size: int) -> list[Fraction]:
    assert len(coeffs) <= size, f"degree {len(coeffs) - 1} exceeds the bound {size - 1}"
    return coeffs + [Fraction(0)] * (size - len(coeffs))


def _summed(terms) -> list[Fraction]:
    """The sum of (scale, coefficient list) pairs, as one coefficient list."""
    out: list[Fraction] = []
    for scale, coeffs in terms:
        out = _padded(out, max(len(out), len(coeffs)))
        for i, c in enumerate(coeffs):
            out[i] += scale * c
    return out


def _power(base: list, k: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(k):
        out = list(coeff_product(out, base))
    return out


# Both certificate tests read the grids of each n, so they are computed once per n.
@functools.cache
def _g_polynomials(n: int) -> dict:
    """G_D(r, l) = r^n vol(-K_Y) beta(D) at vol_v = 1, for both D, as grids
    g[j][i] of the coefficient of l^j r^i, interpolated from report().

    Degree bound, from top_power's ladders: on each segment the coefficients
    x and y of the positive part are affine in t and free of r and l, and z
    is 1 on [0, 1] and (affine in t, of degree <= 1 in (r, l)) / r on [1, 2];
    the ratio q is -1/r or (1-l)/r (at l = 1 only the k = 1 rung of its
    ladder is left).  So r^n times the rung C(n,k) w^k z^(n-k) q^(k-1) is
    r^(n-k+1) times a polynomial of degree k-1 in l where z = 1, and r times
    one of degree <= n-k in r and <= n-1 in l elsewhere: of degree <= n in r
    and <= n-1 in l either way.  Integrating over fixed t-limits keeps the
    degrees, and vol(-K_Y) is the profile at t = 0, so G has the same bound.
    Each interpolation uses one point more than the bound and checks that
    the top coefficient vanishes.
    """
    rs = [2 + Fraction(k, 3) for k in range(n + 2)]
    ls = [Fraction(2 * k, n) for k in range(n + 1)]  # 0 <= l <= 2 < r + 1
    grids = {}
    samples = {(r, l): report(Construction(n, r, l)) for r in rs for l in ls}
    for d, beta_of in ((ZS, lambda rep: rep.beta_v0), (IS, lambda rep: rep.beta_vinf)):
        in_l = [
            _padded(interpolate([(l, r ** n * samples[r, l].vol_y * beta_of(samples[r, l])) for l in ls]), n)
            for r in rs
        ]
        grids[d] = [_padded(interpolate(list(zip(rs, column))), n + 1) for column in zip(*in_l)]
    return grids


class TestDichotomyCertificate:
    """The sign of each horizontal beta, proven for every admissible (r, l) per n.

    G_D = (l - 2) Q_D exactly.  With r = 1 + u (u > 0) and l = (2 + u) w
    (w in [0, 1)), Q_D's Bernstein coefficients in w are polynomials in u
    whose coefficients all have D's sign, none of them zero: each is then
    strictly of that sign for u > 0, and so is Q_D, a convex combination of
    them.  vol(-K_Y) > 0 (closed_form_vol_y is a sum of positive terms), so
    beta(V_0) has the sign of l - 2, beta(Vbar_inf) the opposite one, and
    both vanish only at l = 2: V_0 destabilizes Y for l < 2, Vbar_inf for
    l > 2.
    """

    @staticmethod
    def bernstein_in_w(q: list[list[Fraction]]) -> list[list[Fraction]]:
        """The Bernstein coefficients, in w of degree len(q) - 1, of
        Q(1 + u, (2 + u) w), each a coefficient list in u."""
        degree = len(q) - 1
        # The coefficient of w^j: (2 + u)^j sum_i q[j][i] (1 + u)^i.
        in_w = [
            list(coeff_product(_power([2, 1], j), _summed((c, _power([1, 1], i)) for i, c in enumerate(row))))
            for j, row in enumerate(q)
        ]
        return [
            _summed((Fraction(binom_int(k, j), binom_int(degree, j)), in_w[j]) for j in range(k + 1))
            for k in range(degree + 1)
        ]

    @pytest.mark.parametrize("n", [*range(2, 9), 10, 12, 16, 20, 24])
    def test_sign_of_each_beta_for_every_r_and_l(self, n):
        grids = _g_polynomials(n)
        for d, sign in ((ZS, 1), (IS, -1)):
            g = grids[d]
            # Synthetic division by l - 2; the remainder is G at l = 2.
            q = [g[-1]]
            for row in reversed(g[1:-1]):
                q.insert(0, [c + 2 * h for c, h in zip(row, q[0])])
            assert [c + 2 * h for c, h in zip(g[0], q[0])] == [0] * (n + 1), "G does not vanish at l = 2"
            for coeffs in self.bernstein_in_w(q):
                assert any(coeffs) and all(sign * c >= 0 for c in coeffs), (n, d, coeffs)

    @pytest.mark.parametrize("n", [*range(2, 9), 10, 12, 16, 20, 24])
    def test_betas_sum_to_zero_for_every_r_and_l(self, n):
        g = _g_polynomials(n)
        assert g[ZS] == [[-c for c in row] for row in g[IS]]


class TestCoefficientA:
    @pytest.mark.parametrize(
        "n,r,expected",
        [
            (3, Fraction(3, 2), Fraction(9, 52)),
            (3, Fraction(3), Fraction(33, 152)),
            (4, Fraction(2), Fraction(13, 75)),
            (3, Fraction(2), Fraction(11, 56)),
        ],
    )
    def test_named_values(self, n, r, expected):
        assert coefficient_a(n, r) == expected

    def test_range_on_grid(self):
        for n in range(2, 11):
            for r in [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]:
                assert Fraction(0) < coefficient_a(n, r) < Fraction(1, 2)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_matches_paper_closed_form(self, n):
        # The integral ratio int_0^1 x (r-x)^(n-1) dx / (2 int_0^1 (r-x)^(n-1) dx),
        # taken term by term on coefficient lists, shares no code with
        # coefficient_a's closed form.
        rng = random.Random(16 * n)
        wide = [wide_rational(rng, Fraction(1), Fraction(4)) for _ in range(3)]
        for r in [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 2), *wide]:
            power = _power([r, -1], n - 1)
            integrals = naive_integral(coeff_product([0, 1], power), 0, 1), naive_integral(power, 0, 1)
            assert coefficient_a(n, r) == coefficient_a_closed_form(n, r) == integrals[0] / (2 * integrals[1])

    def test_builds_no_poly(self, monkeypatch):
        calls = Counter()
        for name in ("__init__", "integrate"):
            def counted(*args, _name=name, _real=getattr(Poly, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(Poly, name, counted)
        for n in (2, 3, 16, 64):
            coefficient_a(n, Fraction(3, 2))
        assert calls == {}
        Poly([1, 1]).integrate(0, 1)  # the counters do count
        assert calls == {"__init__": 1, "integrate": 1}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            coefficient_a(3, 1)
        with pytest.raises(ValueError):
            coefficient_a(3, Fraction(1, 2))
        with pytest.raises(ValueError):
            coefficient_a(1, 2)


class TestFutakiCheck:
    @pytest.mark.parametrize("n,r,vol_v", [(3, Fraction(2), 8), (5, Fraction(5, 4), 1), (4, Fraction(3), 2)])
    def test_vanishes_at_l2(self, n, r, vol_v):
        rep = report(Construction(n, r, 2, Fraction(vol_v)))
        assert isinstance(rep.classification, ReducesToPair)
        assert rep.beta_v0 == rep.beta_vinf == 0

    def test_nonvanishing_beta_at_l2_raises(self, monkeypatch):
        # Both betas at -1/10**30 sum to nonzero too; the l = 2 check must fire first.
        with_s_values(monkeypatch, dict.fromkeys((ZS, IS), 1 + Fraction(1, 10 ** 30)))
        c = Construction(3, 2, 2, 8)
        with pytest.raises(ArithmeticError, match="l = 2"):
            report(c)
        with pytest.raises(ArithmeticError, match="l = 2"):
            classify(c)


class TestClassify:
    def test_l2_reduces_to_pair(self):
        cls = classify(Construction(3, 2, 2, 8))
        assert cls == ReducesToPair(Fraction(11, 56))
        assert cls.describe() == "reduces-to-pair a=11/56"

    def test_family_314(self):
        for vol_v in (Fraction(1), Fraction(9), Fraction(22, 7)):
            cls = classify(Construction(3, 3, 3, vol_v))
            assert cls == KUnstable(IS, Fraction(-15, 128))
        assert cls.describe() == "k-unstable destabilizer=infinity-section beta=-15/128"

    def test_codim2_blowup_of_p4(self):
        cls = classify(Construction(4, 4, 3, 64))
        assert isinstance(cls, KUnstable)
        assert cls.beta < 0

    def test_exactly_one_negative_on_grid(self):
        for n, r, l in admissible_grid():
            if l == 2:
                continue
            c = Construction(n, r, l)
            cls = classify(c)
            assert isinstance(cls, KUnstable)
            assert cls.beta == beta(c, cls.destabilizer) < 0
            other = ZS if cls.destabilizer is IS else IS
            assert beta(c, other) > 0


class TestReport:
    def test_pair_example(self):
        rep = report(Construction(3, 2, 2, 8))
        assert rep.vol_y == 28
        assert rep.s_v0 == rep.s_vinf == 1
        assert rep.beta_v0 == rep.beta_vinf == 0
        assert rep.classification == ReducesToPair(Fraction(11, 56))

    def test_bundle_example(self):
        rep = report(Construction(3, 3, 0, 1))
        assert isinstance(rep.classification, KUnstable)
        assert rep.classification.destabilizer is ZS

    def test_beta_sum_consistency(self):
        rep = report(Construction(2, 3, 1, 1))
        assert rep.beta_v0 + rep.beta_vinf == 0

    def test_unbalanced_betas_raise_invariant_violation(self, monkeypatch):
        # report() is the one place that checks the betas.
        s_values = {ZS: Fraction(11, 10), IS: Fraction(19, 20)}
        with_s_values(monkeypatch, s_values)
        with pytest.raises(InvariantViolation, match="betas must sum to zero; betas are -1/10, 1/20"):
            report(Construction(3, 2, Fraction(1, 2)))

    def test_no_negative_beta_raises_invariant_violation(self, monkeypatch):
        # Both betas zero away from l = 2: they sum to zero, yet neither destabilizes.
        with_s_values(monkeypatch, dict.fromkeys((ZS, IS), Fraction(1)))
        with pytest.raises(InvariantViolation, match="^no strictly negative beta at l = 1/2; betas are 0, 0$"):
            report(Construction(3, 2, Fraction(1, 2)))

    def test_replace_is_checked(self):
        # The record stores S only: a beta cannot be replaced, and a replaced S moves its beta.
        rep = report(Construction(3, 2, 0))
        with pytest.raises(ValueError):
            rep._replace(beta_v0=rep.beta_v0 + 1)
        moved = rep._replace(s_v0=rep.s_v0 + 1)
        assert (moved.beta_v0, moved.beta_vinf) == (rep.beta_v0 - 1, rep.beta_vinf)

    def test_report_rejects_inconsistent_fields(self):
        # No record can hold a beta other than 1 - S: betas are not fields.
        assert InvariantReport._fields == ("vol_y", "s_v0", "s_vinf", "classification")
        rep = InvariantReport(Fraction(1), Fraction(1, 2), Fraction(3, 2), ReducesToPair(Fraction(1, 4)))
        assert (rep.beta_v0, rep.beta_vinf) == (Fraction(1, 2), Fraction(-1, 2))
        with pytest.raises(TypeError):
            InvariantReport(Fraction(1), Fraction(1), Fraction(1), ReducesToPair(Fraction(1, 4)), beta_v0=Fraction(1, 2))


class TestClassificationFields:
    def test_both_kinds(self):
        pair, unstable = ReducesToPair(Fraction(11, 56)), KUnstable(IS, Fraction(-15, 128))
        assert classification_fields(pair) == {"kind": "reduces-to-pair", "a": "11/56"}
        assert classification_fields(unstable) == {
            "kind": "k-unstable", "destabilizer": "infinity-section", "beta": "-15/128",
        }
        assert [classification_text(pair), classification_text(unstable)] == [pair.describe(), unstable.describe()]

    @pytest.mark.parametrize("derive", [classification_fields, classification_text])
    def test_unknown_kind_raises_invariant_violation(self, derive):
        with pytest.raises(InvariantViolation, match="unknown classification 'neither kind'"):
            derive("neither kind")


class TestReportWork:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of top_power, s_invariant, vol_y, coefficient_a, Poly.__pow__
        and Poly.integrate, by name."""
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        top = counting("top_power", geometry.top_power)
        for module in (geometry, nef, invariants):
            monkeypatch.setattr(module, "top_power", top)
        for name in ("s_invariant", "vol_y", "coefficient_a"):
            monkeypatch.setattr(invariants, name, counting(name, getattr(invariants, name)))
        monkeypatch.setattr(Poly, "__pow__", counting("poly_pow", Poly.__pow__))
        monkeypatch.setattr(Poly, "integrate", counting("integrate", Poly.integrate))
        return counts

    @pytest.mark.parametrize("l", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)])
    def test_one_vol_y_and_each_s_once(self, counts, l):
        # One pass over two profiles: two segment volumes and two segment
        # integrals each.  vol_y is read off both at t = 0, each S is their sum
        # and a at l = 2 is a segment integral, so report() calls none of
        # s_invariant, vol_y and coefficient_a.  Each two-ladder class raises
        # three powers (z^n, or z^(n-1) at l = 1, and one per ladder).  Each
        # [1, 2] positive part has one zero ladder, and at l = 1 the V_0
        # segment's lone n y z^(n-1) needs no z^n.
        report(Construction(4, Fraction(5, 2), l, Fraction(5)))
        powers = 9 if l == 1 else 10
        assert counts == {"top_power": 4, "poly_pow": powers, "integrate": 4}

    @pytest.mark.parametrize("l", [Fraction(0), Fraction(1), Fraction(2)])
    def test_lone_s_invariant_computes_no_vol_y(self, counts, l):
        # S divides by its own profile's value at t = 0: two segment volumes
        # and no separate vol_y.
        for d in (ZS, IS):
            counts.clear()
            invariants.s_invariant(Construction(4, Fraction(5, 2), l, Fraction(5)), d)
            assert (counts["top_power"], counts["vol_y"]) == (2, 0)


class TestReportOnePass:
    """report() reads vol_y, both S and a off the two volume profiles."""

    @pytest.mark.parametrize("doubled", [ZS, IS])
    def test_profiles_disagreeing_at_zero_raise(self, monkeypatch, doubled):
        # Doubling one profile leaves its S unchanged, so only the t = 0 check can fire.
        real = invariants.volume_profile

        def profile(c, d):
            return [(lo, hi, 2 * poly if d is doubled else poly) for lo, hi, poly in real(c, d)]

        c = Construction(3, 2, Fraction(1, 2), 8)
        s_before = s_invariant(c, doubled)
        monkeypatch.setattr(invariants, "volume_profile", profile)
        assert s_invariant(c, doubled) == s_before
        with pytest.raises(InvariantViolation, match="volume profiles disagree at t = 0"):
            report(c)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_a_is_the_vbar_inf_tail_at_l2(self, n):
        rng = random.Random(22 * n)
        r_24bit = 1 + Fraction(rng.randrange(1, 1 << 24), rng.randrange(1 << 23, 1 << 24))
        for r in [Fraction(3, 2), Fraction(3), r_24bit]:
            vol_v = Fraction(rng.getrandbits(24) + 1, rng.getrandbits(24) + 1)
            rep = report(Construction(n, r, 2, vol_v))
            assert rep.classification.a == coefficient_a(n, r) == coefficient_a_closed_form(n, r)
            assert rep.vol_y == vol_y(Construction(n, r, 2, vol_v))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_tail_equals_a_for_every_r(self, n):
        # Both sides, after clearing r^(n-1) and vol(V), are a ratio
        # N(r) / D(r) with deg N <= n and deg D <= n-1; with s = r - 1:
        #   report:        top_power's ladders give the tail
        #                  int_s^r (u^n - s^n) du over vol_y = 2 (r^n - s^n),
        #                  with q0 x + z = s/r, integrated by Poly.integrate;
        #   coefficient_a: ((r^(n+1) - s^(n+1)) / (n+1) - s^n) over
        #                  2 (r^n - s^n), that tail taken by hand.
        # Both denominators are positive for r > 1, so the identity is
        # N D' - N' D = 0, a polynomial of degree <= 2n - 1 in r: holding at
        # 2n distinct r > 1, it holds at every r.
        for k in range(1, 2 * n + 1):
            r = 1 + Fraction(k, 3)
            assert report(Construction(n, r, 2)).classification.a == coefficient_a(n, r), (n, r)

    def test_tail_is_not_a_away_from_l2(self):
        # The tail identity holds because at l = 2 the [1, 2] ladder base is
        # constant in t; at l = 3/2 the same read gives another number.
        c = Construction(4, Fraction(5, 2), Fraction(3, 2))
        _, (lo, hi, tail) = nef.volume_profile(c, IS)
        assert tail.integrate(lo, hi) / vol_y(c) == Fraction(518, 3205)
        assert coefficient_a(4, Fraction(5, 2)) == Fraction(259, 1360)


class TestVolY:
    def test_non_constant_top_power_raises(self, monkeypatch):
        monkeypatch.setattr(invariants, "top_power", lambda c, cls: Poly([0, 1]))
        with pytest.raises(InvariantViolation, match="vol_y must be constant"):
            vol_y(Construction(3, 2, 2))


class TestQuadratureOracle:
    def test_exact_s_matches_quadrature_on_full_grid(self):
        for n, r, l in admissible_grid():
            c = Construction(n, r, l)
            for d in (ZS, IS):
                exact = s_invariant(c, d)
                approx = profile_quadrature(c, d) / float(vol_y(c))
                assert rel_err(exact, approx) < 1e-9


# One l from each branch of report(): 0, (0, 1), 1, (1, 2), 2 and (2, r + 1).
# Each has a small value and, for an open branch, the interval a 64-bit l is
# drawn from; None stands for r + 1 (capped at 4).
L_BRANCHES = [
    ("0", 0, None),
    ("(0,1)", Fraction(1, 3), (0, 1)),
    ("1", 1, None),
    ("(1,2)", Fraction(3, 2), (1, 2)),
    ("2", 2, None),
    ("(2,r+1)", 3, (2, None)),
]
LARGE_N = [17, 24, 31, 32, 40, 64]


def large_n_points():
    """Every l branch with small rationals at each n in LARGE_N, and one branch
    per n, in turn, with 64-bit r, l and vol_v."""
    for i, n in enumerate(LARGE_N):
        for name, small_l, _ in L_BRANCHES:
            yield pytest.param(n, Fraction(5, 2), Fraction(small_l), Fraction(7), id=f"n{n}-l{name}-small")
        rng = random.Random(n)
        r = wide_rational(rng, Fraction(1), Fraction(4))
        name, small_l, interval = L_BRANCHES[i]
        if interval is None:
            l = Fraction(small_l)
        else:
            lo, hi = interval
            l = wide_rational(rng, Fraction(lo), min(r + 1, Fraction(4)) if hi is None else Fraction(hi))
        yield pytest.param(n, r, l, wide_rational(rng, Fraction(0), Fraction(4)), id=f"n{n}-l{name}-64bit")


class TestLargeDimensionPins:
    """report() pinned exactly against tests/oracles.py's closed-form S, which
    integrates each ladder term as an affine power with no Poly, across the
    admitted range of n beyond the small grid."""

    @pytest.mark.parametrize("n, r, l, vol_v", list(large_n_points()))
    def test_report_matches_closed_form_oracle(self, n, r, l, vol_v):
        s_v0, s_vinf = s_pair_closed_form(n, r, l)
        if l == 2:
            assert s_v0 == s_vinf == 1
            verdict = ReducesToPair(coefficient_a_closed_form(n, r))
        elif s_v0 > 1:
            verdict = KUnstable(ZS, 1 - s_v0)
        else:
            verdict = KUnstable(IS, 1 - s_vinf)
        expected = InvariantReport(closed_form_vol_y(n, r, l, vol_v), s_v0, s_vinf, verdict)
        assert report(Construction(n, r, l, vol_v)) == expected
