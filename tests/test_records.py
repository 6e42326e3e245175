"""Record semantics: immutable values, identity-compared root systems and contexts, stable reprs."""

from __future__ import annotations

from fractions import Fraction

import pytest

from holoweitz.contexts import HolonomyContext, form_space, make_context
from holoweitz.decompose import Decomposition, exterior_power
from holoweitz.irreps import Irrep, dimension
from holoweitz.roots import RootSystem, build_root_system
from holoweitz.weitzenboeck import conformal_weights

B3 = build_root_system("B", 3)
G2 = build_root_system("G", 2)


def test_root_systems_compare_and_hash_by_identity():
    fresh = RootSystem("B", 3)
    assert fresh is not B3 and fresh != B3 and B3 == B3
    assert fresh.gram == B3.gram and fresh.root_pairings == B3.root_pairings
    assert hash(B3) == object.__hash__(B3) and len({B3, fresh, B3}) == 2


def test_contexts_compare_and_hash_by_identity():
    ctx = make_context("spin7")
    twin = HolonomyContext("spin7", ctx.holonomy_rep, True)
    assert twin is not ctx and twin != ctx and not twin == ctx and ctx == ctx
    assert make_context("Spin(7)") is ctx and twin.qr_registry == ctx.qr_registry
    assert hash(ctx) == object.__hash__(ctx) and len({ctx, twin, ctx}) == 2
    # a built context is its own cache key: another T answers for itself
    vector = HolonomyContext("so7-vector", Irrep(B3, (1, 0, 0)), ricci_flat=False)
    assert form_space(vector, 2) != form_space(ctx, 2)


def test_a_root_system_is_built_only_from_its_type_and_rank():
    assert RootSystem.__slots__ == (
        "family", "rank", "cartan_matrix", "positive_labels", "gram", "den",
        "fundamental_columns", "simple_coroots",
        "root_poset", "root_pairings", "weyl_denominator", "highest_coroot")
    assert not hasattr(B3, "_replace") and not hasattr(B3, "__dict__")
    for name in RootSystem.__slots__:
        with pytest.raises(AttributeError):
            setattr(B3, name, None)
        with pytest.raises(AttributeError):
            delattr(B3, name)
    # no field can be given: an identity gram once answered dim V(1,0,0) = 6 on B3, not 7
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(TypeError):
        RootSystem("B", 3, identity)
    for name in RootSystem.__slots__[2:] + ("no_such_field",):
        with pytest.raises(TypeError):
            RootSystem("B", 3, **{name: identity})
    assert RootSystem(family="B", rank=3).gram == B3.gram


def test_irreps_compare_and_hash_by_root_system_and_weight():
    irr = Irrep(B3, (1, 0, 0))
    assert irr == Irrep(B3, [1, 0, 0]) == Irrep(B3, (1.0, 0, Fraction(0)))
    assert hash(irr) == hash(Irrep(B3, [1, 0, 0])) == hash((B3, (1, 0, 0)))
    assert irr != Irrep(B3, (0, 0, 1))
    assert (irr.root_system, irr.highest_weight) == (B3, (1, 0, 0))
    assert type(irr.highest_weight) is tuple


@pytest.mark.parametrize(
    "labels",
    [(1, 0), (1, 0, 0, 0), (1, -1, 0), (0.5, 0, 0), ("1", 0, 0), (True, 0, 0), (None, 0, 0), 3, None],
    ids=["short", "long", "negative", "float", "str", "bool", "none", "int-weight", "none-weight"],
)
def test_irrep_validation_also_guards_replace(labels):
    with pytest.raises(ValueError):
        Irrep(B3, labels)
    with pytest.raises(ValueError):
        Irrep(B3, (0, 0, 1))._replace(highest_weight=labels)


def test_record_fields_cannot_be_assigned():
    ctx = make_context("spin7")
    formula = conformal_weights(ctx, Irrep(B3, (0, 1, 0)))
    irr = Irrep(B3, (1, 0, 0))
    for record, name in ((B3, "rank"), (B3, "root_pairings"), (B3, "no_such_field"),
                         (irr, "highest_weight"), (ctx, "n"), (formula, "summands")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del B3.gram
    assert B3.rank == 3 and irr.highest_weight == (1, 0, 0) and ctx.n == 8


def test_reprs_are_short():
    assert repr(B3) == "RootSystem(B3)"
    assert repr(Irrep(B3, (1, 0, 0))) == "Irrep(B3, (1, 0, 0))"
    assert repr(make_context("g2")) == "HolonomyContext(g2)"


def test_decomposition_is_a_tuple_of_its_entries():
    deco = exterior_power(Irrep(G2, (1, 0)), 2)  # Lambda^2 of the 7 = 7 + 14
    assert len(deco) == 2
    assert [(irr.highest_weight, m) for irr, m in deco] == [((1, 0), 1), ((0, 1), 1)]
    assert Decomposition(tuple(deco)) == deco
    assert deco.irreps() == (Irrep(G2, (1, 0)), Irrep(G2, (0, 1)))
    assert sum(m * dimension(s) for s, m in deco) == 21
