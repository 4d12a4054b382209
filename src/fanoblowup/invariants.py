"""S- and beta-invariants of the horizontal divisors, and the classification.

For a prime divisor D on the Fano Y, the expected order of vanishing is

    S_Y(D) = (1 / vol Y) * integral_0^2 vol(-K_Y - t D) dt

and beta(D) = 1 - S_Y(D) since a prime divisor has log discrepancy 1.  Both
horizontal divisors satisfy beta(V_0) + beta(Vbar_inf) = 0 exactly; at l = 2
both vanish (Futaki vanishing) and the K-stability of Y reduces to that of
the pair (V, a(n,r) B), while for l != 2 exactly one beta is negative and the
corresponding divisor destabilizes Y.  Everything here is an exact rational.
"""

from fractions import Fraction
from typing import NamedTuple

from .exactmath import InvariantViolation, RationalLike
from .geometry import Construction, derived_classes, top_power
from .nef import HorizontalDivisor, volume_profile

__all__ = [
    "vol_y",
    "s_invariant",
    "beta",
    "coefficient_a",
    "ReducesToPair",
    "KUnstable",
    "classification_fields",
    "classification_text",
    "classify",
    "InvariantReport",
    "report",
]


def vol_y(c: Construction) -> Fraction:
    """Anti-canonical volume (-K_Y)^n, via the top-power functional.

    -K_Y has constant coefficients, so its top power must be a constant
    polynomial; anything else raises InvariantViolation.
    """
    value = top_power(c, derived_classes(c).anti_k)
    if value.degree > 0:
        raise InvariantViolation(f"vol_y must be constant in t, got degree {value.degree}")
    return value(0)


def _profile_integrals(c: Construction, d: HorizontalDivisor) -> tuple[Fraction, list[Fraction]]:
    """vol(-K_Y - t D) at t = 0, which is vol(-K_Y), and its integral over each Zariski segment."""
    profile = volume_profile(c, d)
    return profile[0][2](0), [poly.integrate(lo, hi) for lo, hi, poly in profile]


def s_invariant(c: Construction, d: HorizontalDivisor) -> Fraction:
    """Exact S_Y(D): the volume profile's integral over its value vol(-K_Y) at t = 0."""
    vol, integrals = _profile_integrals(c, d)
    return sum(integrals) / vol


def beta(c: Construction, d: HorizontalDivisor) -> Fraction:
    """beta(D) = 1 - S_Y(D); negative beta certifies K-instability."""
    return 1 - s_invariant(c, d)


def coefficient_a(n: int, r: RationalLike) -> Fraction:
    """Pair coefficient a(n, r) for the l = 2 reduction to (V, aB).

    The continuous limit of the refinement's a_m, and the [1, 2] tail of
    Vbar_inf's volume profile over vol_y, which report() integrates.  At
    l = 2 that tail's positive part is P = (2-t) V_0 + ((r+1-t)/r) A, whose
    ladder base is (r-1)/r for every t.  So with s = r - 1 and u = r+1-t,
    vol(P) = vol(V) r^(1-n) (u^n - s^n) and vol_y = 2 vol(V) r^(1-n)
    (r^n - s^n).  The tail runs over u in [s, r], of length 1, so

        a(n,r) = ((r^(n+1) - s^(n+1)) / (n+1) - s^n) / (2 (r^n - s^n)).

    Always lies in (0, 1/2).  (n, r) must satisfy Construction's checks.
    """
    r = Construction(n, r, 2).r
    s = r - 1
    return ((r ** (n + 1) - s ** (n + 1)) / (n + 1) - s ** n) / (2 * (r ** n - s ** n))


class ReducesToPair(NamedTuple):
    """l = 2: K-stability of Y is equivalent to that of the pair (V, aB)."""

    a: Fraction

    kind = "reduces-to-pair"

    def describe(self) -> str:
        return classification_text(self)


class KUnstable(NamedTuple):
    """l != 2: Y is K-unstable, destabilized by the divisor with beta < 0."""

    destabilizer: HorizontalDivisor
    beta: Fraction

    kind = "k-unstable"

    def describe(self) -> str:
        return classification_text(self)


Classification = ReducesToPair | KUnstable


def classification_fields(cls: Classification) -> dict[str, str]:
    """A classification's fields as exact strings, "kind" first.

    The one spelling of a verdict: the CLI's JSON and text, catalog details
    and describe() all derive from it.  Anything but a ReducesToPair or a
    KUnstable raises InvariantViolation.
    """
    if isinstance(cls, ReducesToPair):
        return {"kind": cls.kind, "a": str(cls.a)}
    if isinstance(cls, KUnstable):
        return {"kind": cls.kind, "destabilizer": cls.destabilizer.value, "beta": str(cls.beta)}
    raise InvariantViolation(f"unknown classification {cls!r}")


def classification_text(cls: Classification) -> str:
    """classification_fields(cls) on one line: the kind, then key=value pairs."""
    fields = classification_fields(cls)
    return " ".join([fields.pop("kind"), *(f"{key}={value}" for key, value in fields.items())])


def classify(c: Construction) -> Classification:
    """The classification of report(c): reduces-to-pair at l = 2, otherwise K-unstable."""
    return report(c).classification


class InvariantReport(NamedTuple):
    """All exact invariants of one construction; each beta is derived from its S."""

    vol_y: Fraction
    s_v0: Fraction
    s_vinf: Fraction
    classification: Classification

    @property
    def beta_v0(self) -> Fraction:
        return 1 - self.s_v0

    @property
    def beta_vinf(self) -> Fraction:
        return 1 - self.s_vinf


def report(c: Construction) -> InvariantReport:
    """The full invariant report of c, in one pass over the profiles of V_0 and Vbar_inf.

    vol_y is the profiles' shared value at t = 0, each S a profile's integral
    over vol_y, and the verdict follows the exact signs of the betas.  At
    l = 2 both betas must vanish (Futaki vanishing) and Y reduces to (V, aB),
    a being Vbar_inf's [1, 2] integral over vol_y; coefficient_a's docstring
    derives its closed form.  Otherwise the betas must sum to zero, and the
    one strictly negative beta's divisor destabilizes Y.  A failed claim
    raises InvariantViolation.  A report makes 4 top_power calls, 10 Poly
    powers (9 at l = 1) and 4 integrations, and calls neither s_invariant,
    vol_y nor coefficient_a.
    """
    (vol, v0_parts), (vol_inf, vinf_parts) = (_profile_integrals(c, d) for d in HorizontalDivisor)
    if vol != vol_inf:
        raise InvariantViolation(f"the volume profiles disagree at t = 0: {vol} and {vol_inf}")
    s_v0, s_vinf = sum(v0_parts) / vol, sum(vinf_parts) / vol
    beta_v0, beta_vinf = 1 - s_v0, 1 - s_vinf
    if c.l == 2:
        if beta_v0 or beta_vinf:
            raise InvariantViolation(f"betas do not vanish at l = 2; betas are {beta_v0}, {beta_vinf}")
        classification = ReducesToPair(vinf_parts[1] / vol)
    elif beta_v0 + beta_vinf:
        raise InvariantViolation(f"horizontal betas must sum to zero; betas are {beta_v0}, {beta_vinf}")
    elif beta_v0 < 0:
        classification = KUnstable(HorizontalDivisor.ZERO_SECTION, beta_v0)
    elif beta_vinf < 0:
        classification = KUnstable(HorizontalDivisor.INFINITY_SECTION, beta_vinf)
    else:
        raise InvariantViolation(f"no strictly negative beta at l = {c.l}; betas are {beta_v0}, {beta_vinf}")
    return InvariantReport(vol, s_v0, s_vinf, classification)
