"""Acceptance gate: every release criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
tolerances are pinned here: exact (zero-tolerance) comparisons unless a
criterion explicitly involves floating-point quadrature, which is held to
1e-9 relative error.
"""

import random
from fractions import Fraction

import pytest

from fanoblowup import (
    Construction,
    HorizontalDivisor,
    KUnstable,
    beta,
    classify,
    coefficient_a,
    convergence_table,
    derived_classes,
    hilbert_projective_space,
    s_invariant,
    top_power,
    vol_y,
)
from fanoblowup.cli import main as cli_main

from oracles import (
    admissible_grid,
    bench_oracle,
    closed_form_vol_x,
    profile_quadrature,
    quad_beta_inf_normalized,
    quad_closed_form_profiles,
    rel_err,
    s_zero_section_l0,
    s_zero_section_l0_f_shortcut,
)

ZS = HorizontalDivisor.ZERO_SECTION
IS = HorizontalDivisor.INFINITY_SECTION


def _check(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_coefficient_table():
    ok = (
        coefficient_a(3, Fraction(3, 2)) == Fraction(9, 52)
        and coefficient_a(3, Fraction(3)) == Fraction(33, 152)
        and coefficient_a(3, Fraction(2)) == Fraction(11, 56)
        and coefficient_a(4, Fraction(2)) == Fraction(13, 75)
    )
    _check("criterion 1: coefficient table a(n,r), exact", ok)


def test_criterion_2_futaki_vanishing():
    ok = True
    for n in range(2, 7):
        for r in (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)):
            c = Construction(n, r, 2, Fraction(22, 7))
            ok = ok and s_invariant(c, ZS) == 1 and s_invariant(c, IS) == 1
            ok = ok and beta(c, ZS) == 0 and beta(c, IS) == 0
    _check("criterion 2: Futaki vanishing at l = 2 on the (n, r) grid, exact", ok)


def test_criterion_3_beta_sum():
    ok = all(
        beta(c, ZS) + beta(c, IS) == 0
        for n, r, l in admissible_grid()
        for c in [Construction(n, r, l, Fraction(22, 7))]
    )
    _check("criterion 3: beta(V_0) + beta(Vbar_inf) = 0 on the full grid, exact", ok)


def test_criterion_4a_unstable_sign_and_l0_destabilizer():
    ok = True
    for n, r, l in admissible_grid():
        if l == 2:
            continue
        c = Construction(n, r, l)
        b0, binf = beta(c, ZS), beta(c, IS)
        negatives = [b for b in (b0, binf) if b < 0]
        cls = classify(c)
        ok = ok and len(negatives) == 1 and isinstance(cls, KUnstable)
        ok = ok and beta(c, cls.destabilizer) == negatives[0] == cls.beta
        if l == 0:
            # beta(V_0) = 1 - S with S the direct integral of the volume
            # profile, evaluated in closed form by the antiderivative oracle
            ok = ok and cls.destabilizer is ZS
            ok = ok and b0 == 1 - s_zero_section_l0(n, r)
    ok = ok and beta(Construction(3, 2, 0), ZS) == Fraction(-4, 13)
    _check("criterion 4a: l != 2 is K-unstable with the unique negative beta; l = 0 destabilized by the zero section", ok)


def test_criterion_4b_l0_beta_f_shortcut_closed_form():
    """beta(V_0) at (n, r, l) = (3, 2, 0) equals 1 - S for the f-form closed
    form S = 1 + (g(r-1) - f(r+1)) / ((n+1)((r+1)^n - (r-1)^n)), with
    f(x) = x^{n+1} - (n+1)x^n and g(x) = x^{n+1} + (n+1)x^n, exactly.

    The f-form is a second closed form beside the antiderivative oracle of
    criterion 4a.  Its earlier version used f(r-1) in place of g(r-1) and gave
    beta = -3/13; this check then failed.  That sign slip made S too small by
    2(r-1)^n / ((r+1)^n - (r-1)^n), and the pipeline's -4/13 was right: it
    satisfies the beta-sum identity (criterion 3) and matches quadrature
    (criterion 8), and the toric moment polytope of family 3.31, which is
    this Y, has barycenter height 4/13.  At (2, 2), Y = Bl_p P^2 with V_0 the
    exceptional curve, where the old form gave S = 11/12 < 1 and the corrected
    one gives the classical S = 7/6 (delta = 6/7).
    """
    expected = 1 - s_zero_section_l0_f_shortcut(3, Fraction(2))  # -4/13
    actual = beta(Construction(3, 2, 0), ZS)
    _check(
        "criterion 4b: l = 0 beta matches the f-form closed form at (3, 2), exact",
        actual == expected,
        f"direct integration gives {actual}, f-form closed form gives {expected}",
    )


def test_criterion_5_volume_formulas():
    ok = True
    for n, r, l in admissible_grid():
        c = Construction(n, r, l, Fraction(22, 7))
        value = top_power(c, derived_classes(c).anti_k)
        ok = ok and value.degree == 0 and value(0) == bench_oracle.vol_y(n, r, l, c.vol_v)
        if l == 0:
            ok = ok and value(0) == closed_form_vol_x(n, r, c.vol_v)
    _check("criterion 5: top power of -K_Y equals the closed-form volume, both branches, and vol X at l = 0", ok)


def test_criterion_6_family_314_spot_value():
    c = Construction(3, 3, 3, 1)
    # independent float-quadrature reproduction of both normalized factors
    i_zero, i_inf = quad_closed_form_profiles(3, 3.0, 3.0)
    norm_vol = (i_zero + i_inf) / 2.0                      # = r^{n-1} vol(Y) / vol(V)
    norm_beta_integral = norm_vol - i_inf                  # = r^{n-1} vol(Y) beta(Vbar_inf) / vol(V)
    ok = rel_err(Fraction(32), norm_vol) < 1e-9
    ok = ok and rel_err(Fraction(-15, 4), norm_beta_integral) < 1e-9
    ok = ok and rel_err(Fraction(-15, 4), quad_beta_inf_normalized(3, 3.0, 3.0)) < 1e-9
    # only then trust the exact pipeline
    ok = ok and 9 * vol_y(c) == 32
    ok = ok and beta(c, IS) == Fraction(-15, 4) / 32 == Fraction(-15, 128)
    _check("criterion 6: (3, 3, 3) gives beta(Vbar_inf) = -15/128, factors -15/4 and 32 reproduced by quadrature at 1e-9", ok)


def test_closed_form_oracle_pins():
    """bench/oracle.py, which criterion 5 and other Tier-1 checks compare
    against, holds its literature pins: the a(n, r) table, five Mori-Mukai
    degrees, S = 7/6 on Bl_p P^2 and family 3.31's beta = -4/13.  self_check
    raises, so this holds under python -O as well."""
    bench_oracle.self_check()


@pytest.mark.parametrize("oracle", [quad_closed_form_profiles, quad_beta_inf_normalized])
def test_quadrature_oracles_refuse_l_one(oracle):
    """The guard is an explicit raise, so it holds under python -O as well."""
    with pytest.raises(ValueError, match="l = 1 is not covered"):
        oracle(3, 3.0, 1.0)


def test_criterion_7_refinement_convergence():
    c = Construction(3, 3, 2, 9)
    base = hilbert_projective_space(2, 1)
    rows = convergence_table(c, base, [1, 2, 4, 8, 16, 32, 64])
    target = coefficient_a(3, 3)
    ok = rows[0].a_m == Fraction(3, 11) and rows[1].a_m == Fraction(51, 200)
    ok = ok and all(row.a_m > target for row in rows)
    ok = ok and all(a.a_m > b.a_m for a, b in zip(rows, rows[1:]))
    ok = ok and all(a.error > b.error > 0 for a, b in zip(rows, rows[1:]))
    ok = ok and rows[-1].error < rows[0].error / 10
    _check("criterion 7: a_m strictly decreasing toward 33/152 through m = 64, first values 3/11 and 51/200", ok)


def test_criterion_8_quadrature_oracle():
    rng = random.Random(20260810)
    points = [(n, r, l, d) for n, r, l in admissible_grid() for d in (ZS, IS)]
    ok = True
    for n, r, l, d in rng.sample(points, 50):
        c = Construction(n, r, l, Fraction(22, 7))
        exact = s_invariant(c, d)
        approx = profile_quadrature(c, d) / float(vol_y(c))
        ok = ok and rel_err(exact, approx) < 1e-9
    _check("criterion 8: exact S agrees with adaptive quadrature at 50 random grid points, 1e-9 relative", ok)


def test_criterion_9_catalog_gate(capsys):
    code = cli_main(["catalog"])
    out = capsys.readouterr().out
    with capsys.disabled():
        _check("criterion 9: shipped default catalog exits 0", code == 0, out)
