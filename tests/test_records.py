"""Record semantics: immutable values, identity-compared root systems and contexts, stable reprs."""

from __future__ import annotations

from fractions import Fraction

import pytest

from holoweitz.contexts import form_space, make_context
from holoweitz.decompose import Decomposition, exterior_power
from holoweitz.irreps import Irrep
from holoweitz.roots import build_root_system
from holoweitz.weitzenboeck import conformal_weights

B3 = build_root_system("B", 3)
G2 = build_root_system("G", 2)


def test_root_systems_compare_and_hash_by_identity():
    copy = B3._replace()
    assert copy is not B3 and copy != B3 and B3 == B3
    assert copy.gram == B3.gram and copy.root_pairings == B3.root_pairings
    assert hash(B3) == object.__hash__(B3) and len({B3, copy, B3}) == 2


def test_contexts_compare_and_hash_by_identity():
    ctx = make_context("spin7")
    copy = ctx._replace()
    assert copy is not ctx and copy != ctx and not copy == ctx and ctx == ctx
    assert make_context("Spin(7)") is ctx and tuple(copy) == tuple(ctx)
    assert hash(ctx) == object.__hash__(ctx) and len({ctx, copy, ctx}) == 2
    # a copy is its own cache key: changing a field changes what it answers
    assert form_space(ctx._replace(holonomy_rep=Irrep(B3, (1, 0, 0))), 2) != form_space(ctx, 2)


def test_root_system_replace_takes_only_constructor_fields():
    derived = ("root_poset", "root_pairings", "weyl_denominator", "highest_coroot")
    # the ambient fields of a Fraction model are gone, and so are the Dynkin neighbours
    # that the label-tuple orbit walk read
    removed = ("simple_roots", "fundamental_weights", "positive_roots", "base_form", "rho", "dim",
               "neighbours")
    for bad in [{name: ()} for name in derived + removed] + [{"no_such_field": 1}]:
        with pytest.raises(TypeError):
            B3._replace(**bad)
    assert not any(hasattr(B3, name) for name in removed)


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
    assert deco.total_dimension() == 21
