from fractions import Fraction

import pytest

from fanoblowup import refinement
from fanoblowup import (
    Construction,
    HilbertFunction,
    InvariantViolation,
    a_m,
    basis_profile,
    coefficient_a,
    convergence_table,
    hilbert_projective_space,
)

from oracles import (
    a_m_hockey_stick_d1,
    a_m_unfolded,
    coeff_difference,
    coeff_product,
    interpolate,
    naive_eval,
    refinement_rows_unfolded,
)

P2 = hilbert_projective_space(2, 1)
C33 = Construction(3, 3, 2, 9)
# Every base P^s with L = O(d), s <= 6 and r = (s+1)/d > 1; and every one with s <= 9.
SMALL_BASES = [(s, d) for s in range(1, 7) for d in range(1, s + 1)]
BASES_TO_9 = [(s, d) for s in range(1, 10) for d in range(1, s + 1)]


def base_case(s: int, d: int) -> tuple[Construction, HilbertFunction, int]:
    """The l = 2 construction over ps:s:d, its section counter and its stride in m."""
    r = Fraction(s + 1, d)
    return Construction(s + 1, r, 2), hilbert_projective_space(s, d), r.denominator


class TestHilbertProjectiveSpace:
    def test_plane_cubics(self):
        assert P2(3) == 10

    def test_scaled_polarizations(self):
        assert hilbert_projective_space(2, 2)(2) == 15  # C(6, 2)
        assert hilbert_projective_space(3, 2)(1) == 10  # C(5, 3)

    def test_h_zero_is_one_and_nondecreasing(self):
        for s, d in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 1)]:
            h = hilbert_projective_space(s, d)
            assert h(0) == 1
            values = [h(k) for k in range(12)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_metadata(self):
        h = hilbert_projective_space(2, 2)
        assert h.dim == 2
        assert h.index == Fraction(3, 2)

    def test_rejects_bad_input(self):
        for s, d in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match=f"^need integers s >= 1 and d >= 1, got s={s}, d={d}$"):
                hilbert_projective_space(s, d)
        with pytest.raises(ValueError):
            P2(-1)

    # Sizes are ints, as Construction's n is: not a float, a Fraction or a bool.
    def test_refuses_float_size(self):
        with pytest.raises(ValueError, match="need integers s >= 1 and d >= 1, got s=2.0, d=1"):
            hilbert_projective_space(2.0, 1)

    def test_refuses_fraction_size(self):
        with pytest.raises(ValueError, match="need integers"):
            hilbert_projective_space(Fraction(2), 1)
        with pytest.raises(ValueError, match="need integers"):
            hilbert_projective_space(2, Fraction(1))

    def test_refuses_bool_size(self):
        with pytest.raises(ValueError, match="got s=True, d=1"):
            hilbert_projective_space(True, 1)
        with pytest.raises(ValueError, match="got s=2, d=True"):
            hilbert_projective_space(2, True)


class TestBasisProfile:
    def test_m1_rows(self):
        profile = basis_profile(C33, P2, 1)
        assert [(row.j, row.sections, row.fixed) for row in profile.rows] == [(0, 6, 0), (1, 10, 0), (2, 6, 1)]
        assert profile.total_sections == 22

    def test_m2_rows(self):
        profile = basis_profile(C33, P2, 2)
        assert [row.sections for row in profile.rows] == [15, 21, 28, 21, 15]
        assert [row.fixed for row in profile.rows] == [0, 0, 0, 1, 2]
        assert profile.total_sections == 100

    def test_degree_symmetry(self):
        # degree(j) = degree(2m - j), so the section counts are symmetric and
        # the j = 2m row matches the j = 0 row
        for m in (1, 2, 5, 8):
            rows = basis_profile(C33, P2, m).rows
            counts = [row.sections for row in rows]
            assert counts == counts[::-1]
            assert rows[0].sections == rows[-1].sections

    def test_fixed_weights(self):
        for m in (1, 3, 6):
            for row in basis_profile(C33, P2, m).rows:
                assert row.fixed == (0 if row.j <= m else row.j - m)

    def test_rejects_l_not_2(self):
        for l in (3, Fraction(5, 2), 1, 0):
            with pytest.raises(ValueError, match="l = 2"):
                basis_profile(Construction(3, 3, l, 9), P2, 1)

    def test_rejects_fractional_mr_with_stride(self):
        c = Construction(3, Fraction(3, 2), 2, 9)
        h = hilbert_projective_space(2, 2)
        with pytest.raises(ValueError, match="multiples of 2"):
            basis_profile(c, h, 3)
        assert basis_profile(c, h, 2).total_sections > 0

    def test_rejects_base_mismatch(self):
        # no L = O(d) on P^2 realizes r = 2
        c = Construction(3, 2, 2, 9)
        with pytest.raises(ValueError, match="base mismatch"):
            basis_profile(c, hilbert_projective_space(2, 3), 1)
        # P^5 with L = O(2) has index 3, as C33 needs, but dimension 5, not 2
        with pytest.raises(ValueError, match="base mismatch"):
            basis_profile(C33, hilbert_projective_space(5, 2), 1)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            basis_profile(C33, P2, 0)

    def test_rejects_bool_m(self):
        # True == 1, but a level is an int, not a bool.
        with pytest.raises(ValueError, match="m must be a positive integer, got True"):
            a_m(C33, P2, True)
        with pytest.raises(ValueError, match="got 2.0"):
            a_m(C33, P2, 2.0)

    def test_no_sections_raises_invariant_violation(self):
        # An explicit check, not an assert: the suite also runs under python -O.
        empty = HilbertFunction("no sections", 2, Fraction(3), lambda k: 0)
        with pytest.raises(InvariantViolation, match="no sections at level m = 2"):
            basis_profile(C33, empty, 2)


class TestAm:
    def test_m1(self):
        assert a_m(C33, P2, 1) == Fraction(3, 11)

    def test_m2(self):
        # (21*1 + 15*2) / (2*100)
        assert a_m(C33, P2, 2) == Fraction(51, 200)

    def test_in_unit_interval(self):
        for m in (1, 2, 7, 16):
            assert Fraction(0) < a_m(C33, P2, m) < Fraction(1)

    def test_even_stride_for_half_integer_r(self):
        c = Construction(3, Fraction(3, 2), 2, 9)
        h = hilbert_projective_space(2, 2)
        assert a_m(c, h, 2) == Fraction(27, 140)


def interpolated_sums(s: int, d: int) -> tuple[list[Fraction], list[Fraction]]:
    """N_m and W_m = sum_j N_{m,j} a_{m,j} over ps:s:d as exact polynomials in
    m (coefficient lists, lowest degree first), interpolated from basis_profile
    at the levels k*stride, k = 1..s+4: one more than W's degree s+2 needs."""
    c, h, stride = base_case(s, d)
    n_points, w_points = [], []
    for m in range(stride, (s + 5) * stride, stride):
        profile = basis_profile(c, h, m)
        n_points.append((m, profile.total_sections))
        w_points.append((m, sum(sections * fixed for _, sections, fixed in profile.rows)))
    return interpolate(n_points), interpolate(w_points)


def error_polys(s: int, d: int) -> tuple[tuple[Fraction, ...], list[Fraction]]:
    """E = W - a m N and N over ps:s:d, so that a_m - a(n, r) = E(m) / (m N(m))
    along the stride; N and W have their degrees s+1 and s+2."""
    c, _, _ = base_case(s, d)
    n_poly, w_poly = interpolated_sums(s, d)
    assert (len(n_poly) - 1, len(w_poly) - 1) == (s + 1, s + 2)
    return coeff_difference(w_poly, coeff_product([0, coefficient_a(s + 1, c.r)], n_poly)), n_poly


def compose_affine(coeffs: list[Fraction], alpha, beta) -> list[Fraction]:
    """Coefficients of p(alpha + beta u) in u, by Horner's rule on coefficient lists."""
    out: list[Fraction] = []
    for c in reversed(coeffs):
        shifted = [Fraction(0)] * (len(out) + 1)
        for i, o in enumerate(out):
            shifted[i] += alpha * o
            shifted[i + 1] += beta * o
        shifted[0] += c
        out = shifted
    return out


def sign_changes(coeffs: list[Fraction]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class TestAgainstDefinition:
    """basis_profile and a_m against tests/oracles.py, which shares no code with them."""

    @pytest.mark.parametrize("s, d", SMALL_BASES)
    def test_every_valid_level_through_m64(self, s, d):
        c, h, stride = base_case(s, d)
        for m in range(stride, 65, stride):
            rows = refinement_rows_unfolded(s, d, m)
            profile = basis_profile(c, h, m)
            assert profile.m == m
            assert [tuple(row) for row in profile.rows] == rows
            assert profile.total_sections == sum(n for _, n, _ in rows)
            assert a_m(c, h, m) == a_m_unfolded(s, d, m)
            if d == 1:
                assert a_m(c, h, m) == a_m_hockey_stick_d1(s, m)

    @pytest.mark.parametrize("s, d", [(6, 1), (4, 2)])
    @pytest.mark.parametrize("m", [4096, 16384])
    def test_large_levels(self, s, d, m):
        c, h, stride = base_case(s, d)
        assert m % stride == 0
        assert a_m(c, h, m) == a_m_unfolded(s, d, m)
        if d == 1:
            assert a_m(c, h, m) == a_m_hockey_stick_d1(s, m)

    def test_hilbert_called_once_per_distance(self):
        calls = []
        counted = HilbertFunction("counted P^2", 2, Fraction(3), lambda k: calls.append(k) or P2(k))
        assert a_m(C33, counted, 5) == a_m(C33, P2, 5)
        assert sorted(calls) == list(range(10, 16))


class TestExactLimit:
    """a(n, r) certified exactly from the finite-m data, beside acceptance
    criterion 7, which samples a_m up to m = 64.

    Along the stride, N_m and W_m = sum_j N_{m,j} a_{m,j} are polynomials in m
    of degrees s+1 and s+2, since h(k) is a polynomial of degree s for k >= 0.
    So a_m = W_m / (m N_m) tends to lead(W)/lead(N), by a route that shares no
    code with coefficient_a.  The levels k*stride, k = 1..s+4, are one more
    than W's degree needs, so the degrees are confirmed, not assumed.
    """

    @pytest.mark.parametrize("s, d", SMALL_BASES)
    def test_leading_ratio_is_the_pair_coefficient(self, s, d):
        n_poly, w_poly = interpolated_sums(s, d)
        assert (len(n_poly) - 1, len(w_poly) - 1) == (s + 1, s + 2)
        assert w_poly[-1] / n_poly[-1] == coefficient_a(s + 1, Fraction(s + 1, d))


class TestRefinementCertificate:
    """a_m - a(n, r) = E(m) / (m N_m) along the stride, with E = W - a m N of
    degree s+1, so the sign of E decides on which side of a each a_m lies,
    at every valid level, not only at sampled ones.

    By Descartes' rule, E(stride (1 + u)) with no sign change in u has no root
    at u >= 0: a_m > a at every level.  With one sign change it has exactly
    one root, and exact evaluation places it strictly between two consecutive
    valid levels, so no level has a_m = a.  m (a_m - a) tends to the positive
    rational lead(E) / lead(N): convergence is exactly of order 1/m.  Of the
    45 bases ps:s:d with s <= 9, 21 have a_m > a at every level and on the
    other 24 a_m crosses a once.
    """

    # Pinned from the certificates: where a_m crosses a, and a limit of m (a_m - a).
    CROSSINGS = {(5, 4): (4, 6), (9, 9): (18, 27)}
    LIMITS = {(5, 3): Fraction(10, 147)}

    @pytest.mark.parametrize("s, d", BASES_TO_9)
    def test_side_of_the_limit_at_every_level(self, s, d):
        c, h, stride = base_case(s, d)
        e_poly, n_poly = error_polys(s, d)
        a = coefficient_a(s + 1, c.r)
        assert len(e_poly) - 1 == s + 1
        limit = e_poly[-1] / n_poly[-1]
        assert limit > 0
        if (s, d) in self.LIMITS:
            assert limit == self.LIMITS[s, d]
        # E agrees with a_m at a level beyond the interpolation nodes.
        m = (s + 7) * stride
        assert m * (a_m(c, h, m) - a) == naive_eval(e_poly, m) / naive_eval(n_poly, m)

        shifted = compose_affine(e_poly, stride, stride)
        assert shifted[0] != 0 and shifted[-1] > 0
        changes = sign_changes(shifted)
        assert changes in (0, 1), f"ps:{s}:{d} has no certificate: {changes} sign changes"
        if changes == 0:
            assert (s, d) not in self.CROSSINGS
            return
        # One root u* > 0: E(stride) < 0 < E at large m; find the two levels around it.
        k = 1
        while naive_eval(e_poly, (k + 1) * stride) < 0:
            k += 1
        assert naive_eval(e_poly, k * stride) < 0 < naive_eval(e_poly, (k + 1) * stride)
        if (s, d) in self.CROSSINGS:
            assert (k * stride, (k + 1) * stride) == self.CROSSINGS[s, d]


class TestMonotoneError:
    """From which level on |a_m - a(n, r)| strictly decreases, at every level.

    With e(m) = a_m - a = E(m) / (m N(m)) and the stride delta,

        P(m) = E(m) (m + delta) N(m + delta) - E(m + delta) m N(m)

    has the sign of e(m) - e(m + delta).  If P(m0 + delta u) has no sign
    change in u and P(m0) > 0, Descartes' rule gives P > 0 at every m >= m0,
    so e strictly decreases from m0 on; as it tends to 0 it stays positive
    there, so |a_m - a| strictly decreases too.  The levels below m0 are
    checked exactly with a_m: P has the sign of e(m) - e(m + delta) at each,
    and at m0 - delta the error does not decrease, so m0 is where the
    decrease starts.
    """

    # Pinned from the certificates: the least level m0 of each ps:s:d, by s.
    START = {
        (1, 1): 1,
        (2, 1): 1, (2, 2): 2,
        (3, 1): 1, (3, 2): 2, (3, 3): 6,
        (4, 1): 1, (4, 2): 2, (4, 3): 6, (4, 4): 12,
        (5, 1): 1, (5, 2): 2, (5, 3): 5, (5, 4): 10, (5, 5): 15,
        (6, 1): 1, (6, 2): 2, (6, 3): 6, (6, 4): 12, (6, 5): 15, (6, 6): 24,
        (7, 1): 1, (7, 2): 3, (7, 3): 6, (7, 4): 10, (7, 5): 15, (7, 6): 24, (7, 7): 35,
        (8, 1): 1, (8, 2): 2, (8, 3): 6, (8, 4): 12, (8, 5): 15, (8, 6): 24, (8, 7): 35, (8, 8): 40,
        (9, 1): 1, (9, 2): 3, (9, 3): 6, (9, 4): 10, (9, 5): 16, (9, 6): 24, (9, 7): 35, (9, 8): 44, (9, 9): 54,
    }

    @pytest.mark.parametrize("s, d", BASES_TO_9)
    def test_error_decreases_from_the_pinned_level(self, s, d):
        c, h, stride = base_case(s, d)
        e_poly, n_poly = error_polys(s, d)
        # E and N at m + stride, as polynomials in m.
        e_later, n_later = (compose_affine(poly, stride, 1) for poly in (e_poly, n_poly))
        p_poly = coeff_difference(
            coeff_product(e_poly, coeff_product([stride, 1], n_later)),
            coeff_product(e_later, coeff_product([0, 1], n_poly)),
        )
        assert len(p_poly) - 1 == 2 * s + 2 and p_poly[-1] > 0
        levels = range(stride, 100 * stride, stride)
        m0 = next((m for m in levels if not sign_changes(compose_affine(p_poly, m, stride))), None)
        assert m0 is not None, f"ps:{s}:{d} has no certificate below m = {levels.stop}"
        assert naive_eval(p_poly, m0) > 0
        assert m0 == self.START[s, d]

        a = coefficient_a(s + 1, c.r)
        errors = [a_m(c, h, m) - a for m in range(stride, m0 + 2 * stride, stride)]
        for m, e, e_next in zip(range(stride, m0 + stride, stride), errors, errors[1:]):
            assert (naive_eval(p_poly, m) > 0) == (e > e_next)
        if m0 > stride:
            assert abs(errors[-3]) <= abs(errors[-2])


class TestConvergenceTable:
    def test_first_two_rows(self):
        target = coefficient_a(3, 3)
        rows = convergence_table(C33, P2, [2, 1])  # sorted on output
        assert [row.m for row in rows] == [1, 2]
        assert rows[0].a_m == Fraction(3, 11)
        assert rows[1].a_m == Fraction(51, 200)
        assert rows[0].error == Fraction(3, 11) - target
        assert rows[1].error == Fraction(51, 200) - target
        assert rows[0].error > rows[1].error > 0

    def test_singleton(self):
        rows = convergence_table(C33, P2, [4])
        assert len(rows) == 1 and rows[0].m == 4

    def test_repeated_level_computed_once(self, monkeypatch):
        levels = []
        real = refinement.a_m
        monkeypatch.setattr(refinement, "a_m", lambda c, h, m: levels.append(m) or real(c, h, m))
        rows = convergence_table(C33, P2, [2, 2, 1])
        assert [row.m for row in rows] == [1, 2]
        assert [row.a_m for row in rows] == [Fraction(3, 11), Fraction(51, 200)]
        assert levels == [1, 2]

    def test_strictly_decreasing_through_m64(self):
        rows = convergence_table(C33, P2, [1, 2, 4, 8, 16, 32, 64])
        assert all(a.a_m > b.a_m for a, b in zip(rows, rows[1:]))
        assert all(a.error > b.error for a, b in zip(rows, rows[1:]))
        # regression bound pinned after first exact computation (ratio ~0.030)
        assert rows[-1].error < rows[0].error / 10

    def test_section_count_growth_stabilizes(self):
        # N_m / m^n settles at the leading-term rate: doubling ratio within 5%
        ratios = {m: Fraction(basis_profile(C33, P2, m).total_sections, m ** 3) for m in (32, 64)}
        drift = abs(ratios[64] / ratios[32] - 1)
        assert drift < Fraction(5, 100)

    def test_propagates_stride_errors(self):
        c = Construction(3, Fraction(3, 2), 2, 9)
        h = hilbert_projective_space(2, 2)
        with pytest.raises(ValueError, match="multiples of 2"):
            convergence_table(c, h, [2, 3])

    def test_refuses_bool_level(self):
        with pytest.raises(ValueError, match="m must be a positive integer, got True"):
            convergence_table(C33, P2, [True, 2])

    def test_value_at_the_limit_raises_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(refinement, "coefficient_a", lambda n, r: a_m(C33, P2, 2))
        with pytest.raises(InvariantViolation, match="equals the limit at m = 2"):
            convergence_table(C33, P2, [1, 2])
