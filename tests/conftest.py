"""Test-side mutants of package records, shared by the test modules."""

from __future__ import annotations

import pytest

from holoweitz.roots import RootSystem


@pytest.fixture
def form_scaled():
    """``form_scaled(family, rank, c)``: a fresh root system whose invariant form is c times
    the built one's.  ``RootSystem`` takes only a type and a rank, so the mutant overwrites
    the fields that carry the form's scale: ``gram``, each (a_j, a_j)/2 of ``root_poset``
    and ``root_pairings`` times c, and ``weyl_denominator``, a product over the positive
    roots, times c^|Phi+|.  ``highest_coroot`` is a ratio of pairings and stays."""

    def build(family: str, rank: int, c: int) -> RootSystem:
        rs = RootSystem(family, rank)
        simple, edges = rs.root_poset
        for name, value in (
            ("gram", tuple(tuple(c * x for x in row) for row in rs.gram)),
            ("root_poset", (tuple((j, c * d) for j, d in simple), edges)),
            ("root_pairings", tuple(tuple(c * x for x in row) for row in rs.root_pairings)),
            ("weyl_denominator", c ** len(rs.positive_labels) * rs.weyl_denominator),
        ):
            object.__setattr__(rs, name, value)
        return rs

    return build
