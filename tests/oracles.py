"""Independent oracles shared by the test modules.

Every exact oracle here is written against closed forms or brute-force
summation, never through the library's own volume-profile pipeline, so that
the two routes stay independent.  The one exception is profile_quadrature,
which takes volume_profile's polynomials and integrates them in floats with
scipy: it checks the library's exact integration, not its profiles.
"""

from fractions import Fraction

from scipy.integrate import quad

from fanoblowup import Construction, HorizontalDivisor, Poly, volume_profile

GRID_N = range(2, 7)
GRID_R = [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)]
GRID_L = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]


def admissible_grid():
    """Every (n, r, l) in the acceptance grid with l < r + 1."""
    for n in GRID_N:
        for r in GRID_R:
            for l in GRID_L:
                if l < r + 1:
                    yield n, r, l


def binom_int(n: int, k: int) -> int:
    """C(n, k) in integers: after step i the running value is C(n-k+i, i), exact at every step."""
    if k > n:
        return 0
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
    return value


def _coeff_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Schoolbook product of two coefficient lists (lowest degree first)."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def ladder_top_power(n: int, r: Fraction, l: Fraction, vol_v: Fraction, x, y, z) -> tuple[Fraction, ...]:
    """(x V_0 + y Vbar_inf + z A)^n summed rung by rung over the two k-ladders,

        vol(V) * sum_{k=1..n} C(n,k) z^(n-k) [ x^k (-1/r)^(k-1) + y^k ((1-l)/r)^(k-1) ],

    on coefficient sequences x, y, z in t (lowest degree first), with every
    power taken by repeated multiplication.  At l = 1 the zero ratio's 0^0 = 1
    keeps only the k = 1 rung of the second ladder.  Trailing zeros are
    stripped, as in Poly.coeffs.
    """
    q0, qinf = Fraction(-1) / r, (1 - l) / r

    def powers(seq) -> list[list[Fraction]]:
        out = [[Fraction(1)]]
        for _ in range(n):
            out.append(_coeff_mul(out[-1], [Fraction(v) for v in seq]))
        return out

    xs, ys, zs = powers(x), powers(y), powers(z)
    total: list[Fraction] = []
    for k in range(1, n + 1):
        ck = binom_int(n, k)
        for pw, q in ((xs, q0), (ys, qinf)):
            scale = vol_v * ck * q ** (k - 1)
            rung = _coeff_mul(pw[k], zs[n - k])
            total += [Fraction(0)] * (len(rung) - len(total))
            for i, coeff in enumerate(rung):
                total[i] += scale * coeff
    return _stripped(total)


def _stripped(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """The coefficients without trailing zeros, as in Poly.coeffs."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def coeff_product(a, b) -> tuple[Fraction, ...]:
    """The schoolbook product of two coefficient sequences, with no constant-factor shortcut."""
    return _stripped(_coeff_mul([Fraction(v) for v in a], [Fraction(v) for v in b]))


def coeff_difference(a, b) -> tuple[Fraction, ...]:
    """a - b coefficient by coefficient, the shorter sequence padded with zeros."""
    size = max(len(a), len(b))
    padded_a, padded_b = ([Fraction(v) for v in cs] + [Fraction(0)] * (size - len(cs)) for cs in (a, b))
    return _stripped([u - v for u, v in zip(padded_a, padded_b)])


def naive_eval(coeffs, x) -> Fraction:
    """sum coeffs[i] x^i, term by term, independent of Horner."""
    return sum((c * x ** i for i, c in enumerate(coeffs)), Fraction(0))


def naive_integral(coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    """Definite integral over [lo, hi] of sum coeffs[i] t^i, one Fraction
    antiderivative term c_i (hi^{i+1} - lo^{i+1}) / (i+1) at a time."""
    return sum((Fraction(c) * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i, c in enumerate(coeffs)), Fraction(0))


def closed_form_vol_x(n: int, r: Fraction, vol_v: Fraction) -> Fraction:
    return ((r + 1) ** n - (r - 1) ** n) / r ** (n - 1) * vol_v


def closed_form_vol_y(n: int, r: Fraction, l: Fraction, vol_v: Fraction) -> Fraction:
    """Anti-canonical volume of Y, both branches of the closed form."""
    if l == 1:
        return (n * r ** (n - 1) + r ** n - (r - 1) ** n) * vol_v / r ** (n - 1)
    return ((r ** n - (r + 1 - l) ** n) / (l - 1) + r ** n - (r - 1) ** n) * vol_v / r ** (n - 1)


def _chow_mul(a: dict, b: dict, s: int) -> dict:
    """Product of two classes of X = P(O + O(d)) over P^s, each a dict
    {(i, j): c} for c h^i zeta^j, with h^(s+1) = 0 applied."""
    out: dict = {}
    for (i, j), u in a.items():
        for (k, m), v in b.items():
            if i + k <= s:
                out[i + k, j + m] = out.get((i + k, j + m), 0) + u * v
    return out


def _chow_sum(*terms) -> dict:
    """sum c * class over (c, class) pairs."""
    out: dict = {}
    for c, cls in terms:
        for key, v in cls.items():
            out[key] = out.get(key, 0) + c * v
    return out


def _chow_integral(cls: dict, s: int, d: int) -> Fraction:
    """Degree of a top-degree class of X: zeta (zeta + d h) = 0 gives
    zeta^j = (-d h)^(j-1) zeta, and int zeta h^s = 1, int h^(s+1) = 0."""
    return sum((c * Fraction(-d) ** (j - 1) for (i, j), c in cls.items() if j >= 1 and i + j == s + 1), Fraction(0))


def chow_top_power(s: int, d: int, l: Fraction, x, y, z) -> Fraction:
    """(x V_0 + y Vbar_inf + z A)^n in the Chow ring of Y for V = P^s, L = O(d).

    Y blows up X = P(O + O(d)) along Vinf . pi*B, the complete intersection of
    D1 = Vinf = zeta + d h and D2 = pi*B = l d h.  Its ring is generated by h,
    zeta = [V_0] and e = [E], with h^(s+1) = 0, zeta (zeta + d h) = 0 and
    (D1 - e)(D2 - e) = 0: the strict transforms of Vinf and pi*B are disjoint
    (Fulton, Intersection Theory, ch. 6).  So e^2 = sigma e - rho with
    sigma = D1 + D2, rho = D1 D2, and e^j = P_j e + Q_j where
    P_{j+1} = sigma P_j + Q_j and Q_{j+1} = -rho P_j.  Since E maps onto a
    codimension-2 center, int e . pi*alpha = 0, so only Q_j integrates.
    The classes are V_0 = zeta, Vbar_inf = D1 - e and A = (s+1) h, which
    makes n = s+1, vol(V) = (s+1)^s and r = (s+1)/d.  No library code and no
    monomial rule of geometry.py is used.
    """
    n, l = s + 1, Fraction(l)
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    one, h, zeta = {(0, 0): Fraction(1)}, {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    d1, d2 = _chow_sum((1, zeta), (d, h)), _chow_sum((l * d, h))
    sigma, rho = _chow_sum((1, d1), (1, d2)), _chow_mul(d1, d2, s)
    # x V_0 + y Vbar_inf + z A = pi*(base) - y e.
    base = _chow_sum((x + y, zeta), (y * d + z * (s + 1), h))
    p, q = {}, one
    qs, base_powers = [one], [one]
    for _ in range(n):
        p, q = _chow_sum((1, _chow_mul(sigma, p, s)), (1, q)), _chow_sum((-1, _chow_mul(rho, p, s)))
        qs.append(q)
        base_powers.append(_chow_mul(base_powers[-1], base, s))
    return sum(
        (binom_int(n, j) * (-y) ** j * _chow_integral(_chow_mul(qs[j], base_powers[n - j], s), s, d) for j in range(n + 1)),
        Fraction(0),
    )


def projective_bases():
    """Every V = P^s, s <= 7, with L = O(d), r = (s+1)/d > 1, and every
    l = k/d in (0, r+1): B is then a hypersurface of degree k."""
    for s in range(1, 8):
        for d in range(1, s + 1):
            for k in range(1, s + d + 1):
                yield s, d, Fraction(k, d)


def projective_construction(s: int, d: int, l: Fraction) -> Construction:
    """The construction of chow_top_power's Y: n = s+1, r = (s+1)/d, vol(V) = (s+1)^s."""
    return Construction(s + 1, Fraction(s + 1, d), l, (s + 1) ** s)


def chow_curve_number(s: int, d: int, l: Fraction, first, second) -> Fraction:
    """first . second . A^(n-2) in the Chow ring of chow_top_power's Y, each
    class given by its coordinates (v0, vinf, a, e) on V_0, Vbar_inf, A and E.

    A class is pi*(alpha) + c e, with V_0 = zeta, Vbar_inf = D1 - e and
    A = (s+1) h.  In the product, int e . pi*beta = 0 and e^2 = sigma e - rho
    leave int alpha alpha' A^(n-2) - c c' int rho A^(n-2).
    """
    l = Fraction(l)
    h, zeta = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}

    def split(v0, vinf, a, e):
        return _chow_sum((v0 + vinf, zeta), (vinf * d + a * (s + 1), h)), e - vinf

    (alpha, c), (beta, c2) = split(*first), split(*second)
    rho = _chow_mul(_chow_sum((1, zeta), (d, h)), _chow_sum((l * d, h)), s)
    a_power = {(s - 1, 0): Fraction(s + 1) ** (s - 1)}
    pulled_back = _chow_sum((1, _chow_mul(alpha, beta, s)), (-c * c2, rho))
    return _chow_integral(_chow_mul(pulled_back, a_power, s), s, d)


def coefficient_a_closed_form(n: int, r: Fraction) -> Fraction:
    """The paper's closed form of the l = 2 pair coefficient,

        a(n,r) = (r^(n+1) - (r-1)^(n+1) - (n+1)(r-1)^n) / (2(n+1)(r^n - (r-1)^n)),

    the integral ratio int_0^1 x (r-x)^(n-1) dx / (2 int_0^1 (r-x)^(n-1) dx)
    taken by hand.  It is coefficient_a's formula over one denominator, so
    TestCoefficientA also checks both against that ratio on coefficient lists.
    """
    r = Fraction(r)
    return (r ** (n + 1) - (r - 1) ** (n + 1) - (n + 1) * (r - 1) ** n) / (2 * (n + 1) * (r ** n - (r - 1) ** n))


def _affine_power_integral(alpha: Fraction, beta: Fraction, k: int, lo: Fraction, hi: Fraction) -> Fraction:
    """Integral of (alpha + beta t)^k over [lo, hi], from the antiderivative
    (alpha + beta t)^(k+1) / ((k+1) beta), or alpha^k (hi - lo) when beta = 0."""
    if beta == 0:
        return alpha ** k * (hi - lo)
    return ((alpha + beta * hi) ** (k + 1) - (alpha + beta * lo) ** (k + 1)) / ((k + 1) * beta)


def _segment_volume_integral(n: int, r: Fraction, l: Fraction, x, y, z, lo: Fraction, hi: Fraction) -> Fraction:
    """Integral over [lo, hi] of (x V_0 + y Vbar_inf + z A)^n / vol(V), with
    x, y, z affine pairs (constant, slope) in t.

    Each ladder sum_k C(n,k) w^k z^(n-k) q^(k-1) is ((q w + z)^n - z^n) / q,
    a difference of affine powers.  A ladder whose coefficient is zero
    vanishes; at l = 1 (q = 0) the second ladder is n y z^(n-1), with z
    constant wherever y is nonzero.
    """
    total = Fraction(0)
    for w, q in ((x, Fraction(-1) / r), (y, (1 - l) / r)):
        if w == (0, 0):
            continue
        if q == 0:
            if z[1] != 0:
                raise ValueError("the l = 1 rung needs a constant z")
            total += n * z[0] ** (n - 1) * _affine_power_integral(w[0], w[1], 1, lo, hi)
            continue
        both = _affine_power_integral(q * w[0] + z[0], q * w[1] + z[1], n, lo, hi)
        total += (both - _affine_power_integral(z[0], z[1], n, lo, hi)) / q
    return total


def s_pair_closed_form(n: int, r: Fraction, l: Fraction) -> tuple[Fraction, Fraction]:
    """(S(V_0), S(Vbar_inf)) with every ladder term integrated in closed form.

    The positive parts of -K_Y - t D, as (constant, slope) pairs for the
    coefficients of V_0, Vbar_inf and A:
        D = V_0:       (1-t, 1, 1) on [0, 1];  (0, 2-t, (r-(t-1)(l-1))/r) on [1, 2]
        D = Vbar_inf:  (1, 1-t, 1) on [0, 1];  (2-t, 0, (r+1-t)/r) on [1, 2]
    Each S is the integral over [0, 2] over vol(-K_Y) = closed_form_vol_y.
    No Poly and no library arithmetic is used.
    """
    r, l = Fraction(r), Fraction(l)
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    one_minus_t, two_minus_t = (Fraction(1), Fraction(-1)), (Fraction(2), Fraction(-1))
    segments = {
        "v0": [(one_minus_t, one, one), (zero, two_minus_t, (1 + (l - 1) / r, (1 - l) / r))],
        "vinf": [(one, one_minus_t, one), (two_minus_t, zero, ((r + 1) / r, -1 / r))],
    }
    vol = closed_form_vol_y(n, r, l, Fraction(1))
    s_v0, s_vinf = (
        sum(_segment_volume_integral(n, r, l, *xyz, Fraction(lo), Fraction(lo + 1)) for lo, xyz in enumerate(segments[d])) / vol
        for d in ("v0", "vinf")
    )
    return s_v0, s_vinf


def s_zero_section_l0(n: int, r: Fraction) -> Fraction:
    """S(V_0) for the bare bundle (l = 0), by hand-integrated antiderivative.

    The volume profile is ((r+1)^n - (r+t-1)^n) vol(V)/r^(n-1) on all of
    [0, 2], so S = [2(r+1)^n - ((r+1)^{n+1} - (r-1)^{n+1})/(n+1)] / vol-ratio.
    Cross-checked against float quadrature and the beta-sum identity.
    """
    num = 2 * (r + 1) ** n - ((r + 1) ** (n + 1) - (r - 1) ** (n + 1)) / Fraction(n + 1)
    den = (r + 1) ** n - (r - 1) ** n
    return num / den


def s_zero_section_l0_f_shortcut(n: int, r: Fraction) -> Fraction:
    """S(V_0) for the bare bundle (l = 0) in the f-form

        S = 1 + (g(r-1) - f(r+1)) / ((n+1)((r+1)^n - (r-1)^n)),
        f(x) = x^{n+1} - (n+1)x^n,   g(x) = x^{n+1} + (n+1)x^n,

    equivalently 1 + ((r-1)^n (r+n) - (r+1)^n (r-n)) / ((n+1)((r+1)^n - (r-1)^n)).
    It is the integral behind s_zero_section_l0 regrouped around the leading
    1, so the two agree, but neither is written in terms of the other.
    Gives S = 7/6 at (n, r) = (2, 2), the exceptional curve of Bl_p P^2
    (delta = 6/7), and S = 17/13 at (3, 2), family 3.31.

    An earlier version used f at both ends, f(r-1) - f(r+1).  That flips the
    sign of the (n+1)(r-1)^n term at the lower end, so it was too small by
    exactly 2(r-1)^n / ((r+1)^n - (r-1)^n): it gave beta = -3/13 at (3, 2)
    and S = 11/12 < 1 at (2, 2), and broke the beta-sum identity.
    """
    f = lambda x: x ** (n + 1) - (n + 1) * x ** n
    g = lambda x: x ** (n + 1) + (n + 1) * x ** n
    return 1 + (g(r - 1) - f(r + 1)) / ((n + 1) * ((r + 1) ** n - (r - 1) ** n))


def profile_quadrature(c: Construction, d: HorizontalDivisor) -> float:
    """Adaptive float quadrature of the piecewise volume polynomial."""
    total = 0.0
    for lo, hi, poly in volume_profile(c, d):
        coeffs = [float(x) for x in poly.coeffs]
        fn = lambda t: sum(coef * t ** i for i, coef in enumerate(coeffs))
        value, _ = quad(fn, float(lo), float(hi))
        total += value
    return total


def _refuse_l_one(l: float) -> None:
    # Raised, not asserted, so the guard also holds under python -O.
    if l == 1:
        raise ValueError("the closed forms divide by 1 - l; l = 1 is not covered")


def quad_closed_form_profiles(n: int, r: float, l: float) -> tuple[float, float]:
    """Float quadrature over [0, 2] of the closed-form volume profiles for
    V_0 and Vbar_inf (l != 1), normalized by r^(n-1)/vol(V).

    The integrands are transcribed from the closed forms, not taken from the
    library pipeline.
    """
    _refuse_l_one(l)

    def prof_inf(t: float) -> float:
        if t <= 1:
            return (((1 - t) * (1 - l) + r) ** n - r ** n) / (1 - l) + r ** n - (r - 1) ** n
        return (r + 1 - t) ** n - (r - 1) ** n

    def prof_zero(t: float) -> float:
        if t <= 1:
            return ((r + 1 - l) ** n - r ** n) / (1 - l) + r ** n - (t + r - 1) ** n
        return ((r + 1 - l) ** n - (r - (t - 1) * (l - 1)) ** n) / (1 - l)

    i_zero = quad(prof_zero, 0, 1)[0] + quad(prof_zero, 1, 2)[0]
    i_inf = quad(prof_inf, 0, 1)[0] + quad(prof_inf, 1, 2)[0]
    return i_zero, i_inf


def quad_beta_inf_normalized(n: int, r: float, l: float) -> float:
    """Float quadrature of the single-integral form of
    r^(n-1) vol(Y) beta(Vbar_inf) / vol(V) over [0, 1], for l != 1."""
    _refuse_l_one(l)

    def integrand(t: float) -> float:
        return ((r - (t - 1) * (1 - l)) ** n - (r + 1 - l) ** n) / (l - 1) + (r - 1) ** n - (r + t - 1) ** n

    return quad(integrand, 0, 1)[0]


def rel_err(exact: Fraction, approx: float) -> float:
    scale = max(1.0, abs(float(exact)))
    return abs(float(exact) - approx) / scale


def refinement_rows_unfolded(s: int, d: int, m: int) -> list[tuple[int, int, int]]:
    """Rows (j, N_{m,j}, a_{m,j}) for V = P^s, L = O(d), from the definition.

    With r = (s+1)/d, weight j = 0..2m has movable part (m r - |m - j|) L, whose
    sections number C((m r - |m - j|) d + s, s), and fixed part max(0, j - m) B.
    Every one of the 2m + 1 rows is counted on its own, with no symmetry used.
    """
    mr = Fraction(m * (s + 1), d)
    if mr.denominator != 1:
        raise ValueError(f"m*r = {mr} is not an integer")
    return [(j, binom_int((mr.numerator - abs(m - j)) * d + s, s), max(0, j - m)) for j in range(2 * m + 1)]


def a_m_unfolded(s: int, d: int, m: int) -> Fraction:
    """a_m = sum_j N_{m,j} a_{m,j} / (m sum_j N_{m,j}) over the unfolded rows."""
    rows = refinement_rows_unfolded(s, d, m)
    return Fraction(sum(n * a for _, n, a in rows), m * sum(n for _, n, _ in rows))


def a_m_hockey_stick_d1(s: int, m: int) -> Fraction:
    """a_m for V = P^s, L = O(1) in closed form, with h(k) = C(k+s, s) and mr = m(s+1).

    The rows j = m + i (i = 1..m) and their mirrors j = m - i have degree k = mr - i,
    so N_m = h(mr) + 2 S0 and W_m = sum_i i h(mr - i) = mr S0 - S1 with
    S0 = sum_k h(k) and S1 = sum_k k h(k) over k = mr-m..mr-1.  The hockey stick
    sum_{k=A..B} C(k+c, c) = C(B+c+1, c+1) - C(A+c, c+1) gives S0 at c = s, and
    at c = s+1 gives S1 through k C(k+s, s) = (s+1) C(k+s, s+1).
    """
    mr = m * (s + 1)
    lo, hi = mr - m, mr - 1
    s0 = binom_int(hi + s + 1, s + 1) - binom_int(lo + s, s + 1)
    s1 = (s + 1) * (binom_int(hi + s + 1, s + 2) - binom_int(lo + s, s + 2))
    return Fraction(mr * s0 - s1, m * (binom_int(mr + s, s) + 2 * s0))


def interpolate(points) -> list[Fraction]:
    """Coefficients, lowest degree first and trailing zeros stripped, of the
    polynomial of degree below len(points) through the points (x, y).

    Newton's divided differences in exact Fractions, expanded by Horner's rule
    on coefficient lists; no Poly is used.
    """
    xs = [Fraction(x) for x, _ in points]
    diffs = [Fraction(y) for _, y in points]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    coeffs: list[Fraction] = []
    for x, diff in zip(reversed(xs), reversed(diffs)):
        # coeffs <- coeffs * (t - x) + diff
        coeffs = _coeff_mul(coeffs, [-x, Fraction(1)]) or [Fraction(0)]
        coeffs[0] += diff
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
