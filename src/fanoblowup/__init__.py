"""Exact K-stability invariants for blow-ups of P^1-bundles over Fano varieties.

Given a Fano base V of dimension n-1 with -K_V ~ r*L and a branch divisor
B ~ l*L, the variety Y = Bl_{B_inf} P(L + O) is Fano for 0 <= l < r+1.  This
package computes, in exact rational arithmetic: anti-canonical volumes, the
piecewise Zariski decompositions of -K_Y - t*D for the two horizontal
divisors, their S- and beta-invariants, the pair-reduction coefficient
a(n, r) with its finite-m refinement approximations a_m, and the resulting
K-unstable / reduces-to-pair classification.
"""

from .catalog import (
    MAX_BITS,
    MAX_DIM,
    CatalogEntry,
    CatalogError,
    EntryResult,
    bounded_dim,
    bounded_rational,
    default_catalog_path,
    load_catalog,
    run_catalog,
)
from .exactmath import ONE, T, ZERO, InvariantViolation, Poly, as_rational
from .geometry import ClassPoly, Construction, DerivedClasses, derived_classes, top_power
from .invariants import (
    Classification,
    InvariantReport,
    KUnstable,
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
from .nef import HorizontalDivisor, Segment, decompose, volume_profile
from .refinement import (
    BasisProfile,
    ConvergenceRow,
    HilbertFunction,
    ProfileRow,
    a_m,
    basis_profile,
    convergence_table,
    hilbert_projective_space,
)

__version__ = "0.1.0"

__all__ = [
    "Poly", "ZERO", "ONE", "T", "as_rational", "InvariantViolation",
    "Construction", "ClassPoly", "DerivedClasses", "derived_classes", "top_power",
    "HorizontalDivisor", "Segment", "decompose", "volume_profile",
    "vol_y", "s_invariant", "beta", "coefficient_a",
    "ReducesToPair", "KUnstable", "Classification", "classification_fields", "classification_text",
    "InvariantReport", "classify", "report",
    "HilbertFunction", "hilbert_projective_space", "ProfileRow", "BasisProfile",
    "basis_profile", "a_m", "ConvergenceRow", "convergence_table",
    "MAX_DIM", "MAX_BITS", "bounded_dim", "bounded_rational",
    "CatalogError", "CatalogEntry", "EntryResult", "default_catalog_path", "load_catalog", "run_catalog",
    "__version__",
]
