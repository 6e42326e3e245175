"""Tensor products, exterior powers, character decomposition."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from holoweitz.contexts import make_context
from holoweitz.decompose import (
    Decomposition,
    _klimyk_expand,
    decompose_character,
    exterior_power,
    tensor,
)
from holoweitz.errors import DegreeOutOfRange, MixedRootSystems, NotACharacter
from holoweitz.irreps import Irrep, dimension, full_weights, trivial_irrep, weight_system
from holoweitz.roots import build_root_system, is_dominant

from helpers import character_product, subset_sums

G2 = build_root_system("G", 2)
B3 = build_root_system("B", 3)
D4 = build_root_system("D", 4)


def entries(deco: Decomposition):
    return [(irr.highest_weight, m) for irr, m in deco]


def test_g2_tensor_products_of_the_proposition_bundles():
    assert entries(tensor(Irrep(G2, (1, 0)), Irrep(G2, (0, 1)))) == [
        ((1, 0), 1),
        ((2, 0), 1),
        ((1, 1), 1),
    ]
    assert entries(tensor(Irrep(G2, (1, 0)), Irrep(G2, (2, 0)))) == [
        ((1, 0), 1),
        ((0, 1), 1),
        ((2, 0), 1),
        ((1, 1), 1),
        ((3, 0), 1),
    ]


def test_spin7_tensor_products_of_the_proposition_bundles():
    T = Irrep(B3, (0, 0, 1))
    assert entries(tensor(T, Irrep(B3, (0, 1, 0)))) == [
        ((0, 0, 1), 1),
        ((1, 0, 1), 1),
        ((0, 1, 1), 1),
    ]
    assert entries(tensor(T, Irrep(B3, (2, 0, 0)))) == [
        ((1, 0, 1), 1),
        ((2, 0, 1), 1),
    ]
    assert entries(tensor(T, Irrep(B3, (1, 0, 1)))) == [
        ((1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((2, 0, 0), 1),
        ((0, 0, 2), 1),
        ((1, 1, 0), 1),
        ((1, 0, 2), 1),
    ]
    assert entries(tensor(T, Irrep(B3, (0, 0, 2)))) == [
        ((0, 0, 1), 1),
        ((1, 0, 1), 1),
        ((0, 1, 1), 1),
        ((0, 0, 3), 1),
    ]


def test_tensor_with_trivial_is_identity():
    for rs, hw in [(G2, (2, 0)), (B3, (1, 0, 1)), (build_root_system("C", 3), (1, 1, 0))]:
        v = Irrep(rs, hw)
        assert entries(tensor(v, trivial_irrep(rs))) == [(hw, 1)]


def test_tensor_rejects_mixed_root_systems():
    with pytest.raises(MixedRootSystems):
        tensor(Irrep(G2, (1, 0)), Irrep(B3, (0, 0, 1)))


TYPES = [("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


def _random_small_irrep(rng, rs, max_dim):
    while True:
        hw = tuple(rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(rs.rank))
        irr = Irrep(rs, hw)
        if dimension(irr) <= max_dim:
            return irr


def test_tensor_dimension_conservation_on_random_pairs():
    rng = random.Random(13)
    for fam, rank in TYPES:
        rs = build_root_system(fam, rank)
        for _ in range(50):
            a = _random_small_irrep(rng, rs, 150)
            b = _random_small_irrep(rng, rs, 150)
            deco = tensor(a, b)
            assert deco.total_dimension() == dimension(a) * dimension(b), (a, b)


def test_klimyk_is_symmetric_in_both_iteration_orders():
    rng = random.Random(31)
    for fam, rank in TYPES:
        rs = build_root_system(fam, rank)
        for _ in range(8):
            a = _random_small_irrep(rng, rs, 80)
            b = _random_small_irrep(rng, rs, 80)
            assert _klimyk_expand(a, b) == _klimyk_expand(b, a), (a, b)


def test_tensor_against_brute_force_character_product():
    # multiset of weight sums must match the union of the summand weights
    cases = [
        (Irrep(G2, (1, 0)), Irrep(G2, (0, 1))),
        (Irrep(B3, (0, 0, 1)), Irrep(B3, (1, 0, 0))),
        # equal dimensions (8 and 8): either factor may be the expanded one
        (Irrep(D4, (1, 0, 0, 0)), Irrep(D4, (0, 0, 1, 0))),
        (Irrep(D4, (0, 0, 1, 0)), Irrep(D4, (1, 0, 0, 0))),
    ]
    for a, b in cases:
        product = character_product(full_weights(a), full_weights(b))
        combined: dict = {}
        for irr, m in tensor(a, b):
            for w in full_weights(irr):
                combined[w] = combined.get(w, 0) + m
        assert combined == product


def test_g2_form_space_decompositions():
    T = Irrep(G2, (1, 0))
    assert entries(exterior_power(T, 2)) == [((1, 0), 1), ((0, 1), 1)]
    assert entries(exterior_power(T, 3)) == [((0, 0), 1), ((1, 0), 1), ((2, 0), 1)]


def test_spin7_form_space_decompositions():
    T = Irrep(B3, (0, 0, 1))
    assert entries(exterior_power(T, 2)) == [((1, 0, 0), 1), ((0, 1, 0), 1)]
    assert entries(exterior_power(T, 3)) == [((0, 0, 1), 1), ((1, 0, 1), 1)]
    assert entries(exterior_power(T, 4)) == [
        ((0, 0, 0), 1),
        ((1, 0, 0), 1),
        ((2, 0, 0), 1),
        ((0, 0, 2), 1),
    ]


def test_exterior_power_degree_zero_and_range():
    T = Irrep(G2, (1, 0))
    assert entries(exterior_power(T, 0)) == [((0, 0), 1)]
    with pytest.raises(DegreeOutOfRange):
        exterior_power(T, 8)
    with pytest.raises(DegreeOutOfRange):
        exterior_power(T, -1)


def test_exterior_power_hodge_symmetry():
    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        T = ctx.holonomy_rep
        for p in range(ctx.n + 1):
            assert (
                exterior_power(T, p).as_multiset()
                == exterior_power(T, ctx.n - p).as_multiset()
            )


def test_exterior_power_binomial_dimensions():
    from math import comb

    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        for p in range(ctx.n + 1):
            assert exterior_power(ctx.holonomy_rep, p).total_dimension() == comb(ctx.n, p)


def test_exterior_power_against_subset_sum_character():
    # the dominant part of the subset-sum multiset must equal the union of
    # the summands' dominant weight systems
    T = Irrep(B3, (0, 0, 1))
    for p in (2, 3, 4):
        char = {
            w: m
            for w, m in subset_sums(full_weights(T), p).items()
            if is_dominant(B3, w)
        }
        combined: dict = {}
        for irr, m in exterior_power(T, p):
            for w, mw in weight_system(irr).items():
                combined[w] = combined.get(w, 0) + m * mw
        assert combined == char


def test_multiplicity_freeness_of_holonomy_tensor_products():
    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        seen = set()
        for p in range(ctx.n + 1):
            for irr, _ in exterior_power(ctx.holonomy_rep, p):
                if irr in seen:
                    continue
                seen.add(irr)
                for _, m in tensor(ctx.holonomy_rep, irr):
                    assert m == 1, (ctx_id, irr)


def test_decompose_character_single_and_sum():
    a = Irrep(G2, (2, 0))
    b = Irrep(G2, (0, 1))
    char_a = dict(weight_system(a))
    assert entries(decompose_character(G2, char_a)) == [((2, 0), 1)]

    both = dict(char_a)
    for w, m in weight_system(b).items():
        both[w] = both.get(w, 0) + m
    assert entries(decompose_character(G2, both)) == [((0, 1), 1), ((2, 0), 1)]


def test_decompose_character_matches_tensor_on_t_squared():
    T = Irrep(G2, (1, 0))
    product = character_product(full_weights(T), full_weights(T))
    char = {w: m for w, m in product.items() if is_dominant(G2, w)}
    deco = decompose_character(G2, char)
    assert deco.as_multiset() == tensor(T, T).as_multiset()
    assert entries(deco) == [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((2, 0), 1)]
    assert deco.total_dimension() == 49


def test_decompose_character_rejects_non_characters():
    # the adjoint character with the zero-weight multiplicity understated
    ws = dict(weight_system(Irrep(G2, (0, 1))))
    zero = (Fraction(0), Fraction(0))
    ws[zero] = 1  # true multiplicity is 2
    with pytest.raises(NotACharacter):
        decompose_character(G2, ws)
    # a weight off the integral weight lattice
    with pytest.raises(NotACharacter):
        decompose_character(B3, {(Fraction(1, 3), Fraction(0), Fraction(0)): 1})
