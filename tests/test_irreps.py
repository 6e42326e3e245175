"""Dimensions, weight multiplicities and Casimir eigenvalues."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from holoweitz.contexts import make_context
from holoweitz.errors import TrivialHolonomyRep
from holoweitz.irreps import (
    Irrep,
    casimir_base,
    casimir_lambda2,
    dimension,
    full_weights,
    trivial_irrep,
    weight_system,
)
from holoweitz.roots import build_root_system, weyl_orbit

from helpers import kostant_multiplicity

G2 = build_root_system("G", 2)
B3 = build_root_system("B", 3)
A3 = build_root_system("A", 3)
C3 = build_root_system("C", 3)
D4 = build_root_system("D", 4)

# the bundles of the paper's tables (their dimensions and Casimirs are pinned in test_acceptance)
G2_TABLE = [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]
SPIN7_TABLE = [
    (1, 0, 0), (0, 0, 1), (0, 1, 0), (2, 0, 0), (0, 0, 2), (1, 0, 1),
    (1, 1, 0), (0, 1, 1), (0, 0, 3), (2, 0, 1), (1, 0, 2),
]


def test_trivial_dimension_is_one():
    for rs in (G2, B3, build_root_system("A", 3), build_root_system("D", 4)):
        assert dimension(trivial_irrep(rs)) == 1


def test_highest_weight_multiplicity_is_one():
    for rs, hw in [(G2, (2, 1)), (B3, (1, 0, 1))]:
        irr = Irrep(rs, hw)
        assert weight_system(irr)[irr.hw_orthogonal] == 1


def test_g2_adjoint_zero_weight_multiplicity():
    ws = weight_system(Irrep(G2, (0, 1)))
    zero = (Fraction(0), Fraction(0))
    assert ws[zero] == 2


def test_b3_spin_rep_weight_system():
    ws = weight_system(Irrep(B3, (0, 0, 1)))
    half = Fraction(1, 2)
    assert ws == {(half, half, half): 1}
    assert len(weyl_orbit(B3, (half, half, half))) == 8


@pytest.mark.parametrize(
    "rs,hw",
    [
        (G2, (0, 1)),
        (G2, (2, 0)),
        (G2, (1, 1)),
        (B3, (0, 0, 1)),
        (B3, (1, 0, 1)),
        (B3, (0, 1, 0)),
        (A3, (1, 0, 1)),
        (C3, (0, 1, 0)),
        (D4, (0, 1, 0, 0)),
    ],
)
def test_freudenthal_against_kostant_formula(rs, hw):
    irr = Irrep(rs, hw)
    lam = irr.hw_orthogonal
    for mu, mult in weight_system(irr).items():
        assert kostant_multiplicity(rs, lam, mu) == mult, (hw, mu)


def test_freudenthal_totals_match_weyl_dimension():
    cases = [Irrep(G2, hw) for hw in G2_TABLE] + [Irrep(B3, hw) for hw in SPIN7_TABLE]
    cases += [Irrep(A3, (1, 1, 0)), Irrep(C3, (1, 0, 1)), Irrep(D4, (1, 0, 1, 1))]
    # the ladder inputs of the benchmark
    cases += [
        Irrep(B3, (3, 3, 3)),
        Irrep(D4, (2, 1, 1, 1)),
        Irrep(build_root_system("D", 5), (0, 1, 0, 0, 0)),
    ]
    rng = random.Random(99)
    for _ in range(20):
        rs = rng.choice([G2, B3])
        hw = tuple(rng.randint(0, 2) for _ in range(rs.rank))
        cases.append(Irrep(rs, hw))
    for irr in cases:
        rs = irr.root_system
        total = sum(
            m * len(weyl_orbit(rs, w)) for w, m in weight_system(irr).items()
        )
        assert total == dimension(irr), irr
        assert len(full_weights(irr)) == dimension(irr)


def test_casimir_base_values():
    assert casimir_base(trivial_irrep(G2)) == 0
    assert casimir_base(Irrep(G2, (1, 0))) == -6
    assert casimir_base(Irrep(B3, (0, 0, 1))) == Fraction(-21, 4)


def test_casimir_lambda2_of_holonomy_rep_closed_form():
    # c_T = -2 dim(g) / dim(T)
    g2 = make_context("g2")
    assert casimir_lambda2(g2, g2.holonomy_rep) == Fraction(-2 * 14, 7)
    s7 = make_context("spin7")
    assert casimir_lambda2(s7, s7.holonomy_rep) == Fraction(-2 * 21, 8)


@pytest.mark.parametrize("ctx_id", ["spin7", "so5", "so6", "so7", "so8", "so9", "so10"])
def test_spin7_lambda2_equals_base_casimir(ctx_id):
    # on the vector representation of so(n) (and the spin rep of spin7)
    # the Lambda2 normalization is the base form itself
    ctx = make_context(ctx_id)
    rs = ctx.root_system
    rng = random.Random(4)
    for _ in range(20):
        irr = Irrep(rs, tuple(rng.randint(0, 3) for _ in range(rs.rank)))
        assert casimir_lambda2(ctx, irr) == casimir_base(irr)


def test_casimir_lambda2_invariant_under_form_scaling():
    # scale the form (form_scale * gram, and base_form) by c; the value must not move
    g2 = make_context("g2")
    for c in (2, 3, 5):
        rs = replace(
            G2,
            base_form=tuple(tuple(c * x for x in row) for row in G2.base_form),
            gram=tuple(tuple(c * x for x in row) for row in G2.gram),
        )
        ctx = replace(g2, root_system=rs, holonomy_rep=Irrep(rs, (1, 0)))
        for hw in G2_TABLE:
            assert casimir_lambda2(ctx, Irrep(rs, hw)) == casimir_lambda2(g2, Irrep(G2, hw))


def test_trivial_holonomy_rep_rejected():
    ctx = replace(make_context("g2"), holonomy_rep=trivial_irrep(G2))
    with pytest.raises(TrivialHolonomyRep):
        casimir_lambda2(ctx, Irrep(G2, (1, 0)))


@pytest.mark.parametrize(
    "labels",
    [(1.5, 0), (Fraction(3, 2), 0), ("1", 0), (True, False), (1, True), (None, 0),
     5, None],
    ids=["float", "fraction", "str", "bool", "int-and-bool", "none",
         "int-weight", "none-weight"],
)
def test_irrep_rejects_labels_that_are_not_integers(labels):
    with pytest.raises(ValueError):
        Irrep(G2, labels)


def test_irrep_accepts_integral_labels_of_any_numeric_type():
    for labels in ((2.0, 0), (Fraction(2), 1), [1, 0]):
        irr = Irrep(G2, labels)
        assert irr.highest_weight == tuple(int(x) for x in labels)
        assert all(type(x) is int for x in irr.highest_weight)
