"""Dimensions, weight multiplicities and Casimir eigenvalues."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from holoweitz.contexts import make_context
from holoweitz.errors import TrivialHolonomyRep
from holoweitz.irreps import (
    Irrep,
    casimir_lambda2,
    dimension,
    dominant_multiplicities,
    full_weights,
    trivial_irrep,
    weight_system,
)
from holoweitz.roots import build_root_system, orbit, to_orthogonal

from helpers import ambient_casimir, kostant_multiplicity, parabolic_order

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
        assert weight_system(irr)[to_orthogonal(rs, hw)] == 1


def test_g2_adjoint_zero_weight_multiplicity():
    ws = weight_system(Irrep(G2, (0, 1)))
    zero = (Fraction(0), Fraction(0))
    assert ws[zero] == 2


def test_b3_spin_rep_weight_system():
    ws = weight_system(Irrep(B3, (0, 0, 1)))
    half = Fraction(1, 2)
    assert ws == {(half, half, half): 1}
    assert len(orbit(B3, (0, 0, 1))) == 8


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
        # three zero labels: the classes of positive roots under a large stabiliser
        (build_root_system("B", 4), (0, 0, 2, 0)),
    ],
)
def test_freudenthal_against_kostant_formula(rs, hw):
    irr = Irrep(rs, hw)
    lam = to_orthogonal(rs, hw)
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
        total = sum(m * len(orbit(rs, mu)) for mu, m in dominant_multiplicities(irr).items())
        assert total == dimension(irr), irr
        assert len(full_weights(irr)) == dimension(irr)


def test_b5_orbit_sizes_times_multiplicities_give_the_weyl_dimension():
    # |W| / |W_mu| points per dominant weight, the stabiliser W_mu generated by the
    # s_i with mu_i = 0; the group orders come from helpers' reflection matrices
    rs = build_root_system("B", 5)
    irr = Irrep(rs, (2, 2, 1, 1, 2))
    order = parabolic_order(rs, range(rs.rank))
    assert order == 2**5 * 120
    stabilisers: dict[tuple[int, ...], int] = {}
    total = 0
    for mu, m in dominant_multiplicities(irr).items():
        zeros = tuple(i for i, c in enumerate(mu) if not c)
        if zeros not in stabilisers:
            stabilisers[zeros] = parabolic_order(rs, zeros)
            assert len(orbit(rs, mu)) == order // stabilisers[zeros], mu
        total += m * order // stabilisers[zeros]
    assert total == dimension(irr)
    assert len(stabilisers) > 16


def test_form_scaled_copies_derive_their_own_fields():
    # a _replace copy must not keep derived fields of the original
    for rs, hw in ((B3, (2, 1, 1)), (G2, (3, 2))):
        copy = rs._replace(gram=tuple(tuple(3 * x for x in row) for row in rs.gram))
        assert copy.root_pairings == tuple(tuple(3 * x for x in row) for row in rs.root_pairings)
        irr, scaled = Irrep(rs, hw), Irrep(copy, hw)
        assert dominant_multiplicities(scaled) == dominant_multiplicities(irr)
        assert dimension(scaled) == dimension(irr)


def test_casimir_lambda2_of_holonomy_rep_closed_form():
    # c_T = -2 dim(g) / dim(T)
    g2 = make_context("g2")
    assert casimir_lambda2(g2, g2.holonomy_rep) == Fraction(-2 * 14, 7)
    s7 = make_context("spin7")
    assert casimir_lambda2(s7, s7.holonomy_rep) == Fraction(-2 * 21, 8)


@pytest.mark.parametrize("ctx_id", ["spin7", "so5", "so6", "so7", "so8", "so9", "so10"])
def test_spin7_lambda2_equals_base_casimir(ctx_id):
    # on the vector representation of so(n) (and the spin rep of spin7)
    # the Lambda2 normalization is the base form itself: c = -(lam, lam + 2 rho)
    ctx = make_context(ctx_id)
    rs = ctx.root_system
    rng = random.Random(4)
    for _ in range(20):
        irr = Irrep(rs, tuple(rng.randint(0, 3) for _ in range(rs.rank)))
        assert casimir_lambda2(ctx, irr) == -ambient_casimir(rs, irr.highest_weight)


def test_casimir_lambda2_invariant_under_form_scaling():
    # scale the form (form_scale * gram, and base_form) by c; the value must not move
    g2 = make_context("g2")
    for c in (2, 3, 5):
        rs = G2._replace(
            base_form=tuple(tuple(c * x for x in row) for row in G2.base_form),
            gram=tuple(tuple(c * x for x in row) for row in G2.gram),
        )
        ctx = g2._replace(root_system=rs, holonomy_rep=Irrep(rs, (1, 0)))
        for hw in G2_TABLE:
            assert casimir_lambda2(ctx, Irrep(rs, hw)) == casimir_lambda2(g2, Irrep(G2, hw))


def test_trivial_holonomy_rep_rejected():
    ctx = make_context("g2")._replace(holonomy_rep=trivial_irrep(G2))
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
