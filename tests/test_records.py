from fractions import Fraction

import pytest

from fanoblowup import (
    Construction,
    HorizontalDivisor,
    KUnstable,
    ReducesToPair,
    basis_profile,
    decompose,
    derived_classes,
    hilbert_projective_space,
    load_catalog,
    report,
    run_catalog,
)
from fanoblowup.catalog import default_catalog_path

C = Construction(3, 3, 2, 9)
ENTRY = load_catalog(default_catalog_path())[0]

# One instance of every record type the package returns, with one of its fields.
RECORDS = [
    (C, "n"),
    (derived_classes(C).anti_k, "v0"),
    (derived_classes(C), "anti_k"),
    (decompose(C, HorizontalDivisor.ZERO_SECTION)[0], "positive"),
    (ReducesToPair(Fraction(1, 4)), "a"),
    (KUnstable(HorizontalDivisor.ZERO_SECTION, Fraction(-1, 2)), "beta"),
    (report(C), "vol_y"),
    (hilbert_projective_space(2, 1), "dim"),
    (basis_profile(C, hilbert_projective_space(2, 1), 2), "rows"),
    (ENTRY, "construction"),
    (run_catalog([ENTRY])[0], "passed"),
]


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
