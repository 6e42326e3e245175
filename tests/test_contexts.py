"""Holonomy contexts, form space cache, the q(R) registry and its Schur certificate."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

import pytest

from holoweitz import contexts
from holoweitz.contexts import CONTEXT_IDS, HolonomyContext, form_space, make_context
from holoweitz.errors import DegreeOutOfRange, InternalError, UnsupportedContext
from holoweitz.irreps import Irrep, adjoint_irrep, casimir_lambda2, dimension
from holoweitz.prover import INCONCLUSIVE, prove_component
from holoweitz.roots import RootSystem, build_root_system
from holoweitz.weitzenboeck import conformal_weights


TRIVIAL = "Cor. ricci (the Lie algebra acts by zero on the trivial bundle)"
RICCI_FLAT = "Cor. ricci (q(R) acts as Ricci curvature on T; the holonomy is Ricci-flat)"
SPINOR = "Cor. ricci (spinor bundle splits off a rank-7 summand on which q(R) = s/16 = 0)"

# id: family, rank, holonomy weight, n, dim g, Ricci-flat, q(R) registry in order
CONTEXT_ROWS = {
    "g2": ("G", 2, (1, 0), 7, 14, True, [((0, 0), TRIVIAL), ((1, 0), RICCI_FLAT)]),
    "spin7": ("B", 3, (0, 0, 1), 8, 21, True,
              [((0, 0, 0), TRIVIAL), ((0, 0, 1), RICCI_FLAT), ((1, 0, 0), SPINOR)]),
    "so5": ("B", 2, (1, 0), 5, 10, False, [((0, 0), TRIVIAL)]),
    "so6": ("D", 3, (1, 0, 0), 6, 15, False, [((0, 0, 0), TRIVIAL)]),
    "so7": ("B", 3, (1, 0, 0), 7, 21, False, [((0, 0, 0), TRIVIAL)]),
    "so8": ("D", 4, (1, 0, 0, 0), 8, 28, False, [((0, 0, 0, 0), TRIVIAL)]),
    "so9": ("B", 4, (1, 0, 0, 0), 9, 36, False, [((0, 0, 0, 0), TRIVIAL)]),
    "so10": ("D", 5, (1, 0, 0, 0, 0), 10, 45, False, [((0, 0, 0, 0, 0), TRIVIAL)]),
}


def test_context_ids_in_order():
    assert CONTEXT_IDS == ("g2", "spin7", "so5", "so6", "so7", "so8", "so9", "so10")
    # id spellings normalize
    assert make_context("SO(7)").id == "so7"
    assert make_context("Spin7").id == "spin7"


@pytest.mark.parametrize("ctx_id", CONTEXT_IDS)
def test_every_context_row_is_pinned(ctx_id):
    ctx = make_context(ctx_id)
    assert ctx.id == ctx_id
    rs = ctx.root_system
    assert ctx.holonomy_rep.root_system is rs
    registry = list(ctx.qr_registry.items())
    row = (rs.family, rs.rank, ctx.holonomy_rep.highest_weight, ctx.n, ctx.dim_g, ctx.ricci_flat, registry)
    assert row == CONTEXT_ROWS[ctx_id]


@pytest.mark.parametrize(
    "row,message",
    [
        (("G", 2, (1, 0), 7, 15, True, ()), "expected 7/15"),
        (("B", 3, (1, 0, 0), 7, 21, False, (((1, 0, 0), "qr-ricci-flat"),)),
         r"certify q\(R\) = 0 on the cited bundle \(1, 0, 0\)"),
        (("G", 2, (1, 0), 7, 14, True, (((0, 1), "qr-ricci-flat"),)),
         r"certify q\(R\) = 0 on the cited bundle \(0, 1\)"),
        (("B", 3, (0, 0, 1), 8, 21, True, (((0, 1, 0), "qr-spinor-bundle"),)),
         r"certify q\(R\) = 0 on the cited bundle \(0, 1, 0\)"),
        (("B", 3, (1, 0, 0), 7, 21, False, (((0, 0, 1), "qr-spinor-bundle"),)),
         r"certify q\(R\) = 0 on the cited bundle \(0, 0, 1\)"),
    ],
    ids=["wrong-dim-pin", "not-ricci-flat-registry-lists-t",
         "g2-cites-the-adjoint", "spin7-cites-the-adjoint", "not-ricci-flat-cites-a-spinor"],
)
def test_built_in_rows_are_pinned(monkeypatch, row, message):
    """A broken built-in row raises; the uncached builder neither reads nor fills the cache."""
    monkeypatch.setattr(contexts, "_CONTEXTS", {"bad": row})
    with pytest.raises(InternalError, match=message):
        contexts._make_context_cached.__wrapped__("bad")


@pytest.mark.parametrize("ctx_id, top, count", [("g2", 8, 45), ("spin7", 5, 56)])
def test_the_schur_certificate_passes_exactly_the_built_in_registry(monkeypatch, ctx_id, top, count):
    """Over every bundle with coordinate sum <= top, a row that also cites it builds
    iff it is already in the built-in registry."""
    *row, base = contexts._CONTEXTS[ctx_id]
    built_in = set(make_context(ctx_id).qr_registry)  # built before the catalogue is patched
    bundles = [w for w in product(range(top + 1), repeat=row[1]) if sum(w) <= top]
    assert len(bundles) == count
    certified = set()
    for w in bundles:
        monkeypatch.setattr(contexts, "_CONTEXTS", {"bad": (*row, (*base, (w, "qr-ricci-flat")))})
        try:
            contexts._make_context_cached.__wrapped__("bad")
        except InternalError:
            continue
        certified.add(w)
    assert certified == built_in


@pytest.mark.parametrize("ctx_id, dim_k", [("g2", 77), ("spin7", 168)])
def test_the_curvature_space_is_v_of_twice_the_highest_root(ctx_id, dim_k):
    rs = make_context(ctx_id).root_system
    theta = adjoint_irrep(rs).highest_weight
    assert dimension(Irrep(rs, tuple(2 * c for c in theta))) == dim_k


def test_unknown_context_rejected():
    for bad in ("so4", "so11", "su3", "e8", "", 5):
        with pytest.raises(UnsupportedContext):
            make_context(bad)
    with pytest.raises(UnsupportedContext, match="is not a string"):
        HolonomyContext(5, make_context("g2").holonomy_rep, ricci_flat=False)


def test_qr_trivial_examples():
    g2 = make_context("g2")
    assert (1, 0) in g2.qr_registry
    assert (0, 1) not in g2.qr_registry
    assert (0, 0) in g2.qr_registry
    s7 = make_context("spin7")
    assert (1, 0, 0) in s7.qr_registry
    assert (0, 0, 0) in s7.qr_registry


def test_registry_entries_carry_citations():
    s7 = make_context("spin7")
    assert "Cor. ricci" in s7.qr_registry[(1, 0, 0)]
    for citation in s7.qr_registry.values():
        assert citation
    assert s7.qr_registry.get((0, 1, 0)) is None


def test_ricci_flat_holonomy_representations_are_cited_ricci_flat():
    for ctx in (make_context("g2"), make_context("spin7")):
        assert ctx.qr_registry[ctx.holonomy_rep.highest_weight] == RICCI_FLAT


def test_the_registry_is_read_only():
    registry = make_context("spin7").qr_registry
    with pytest.raises(TypeError):
        registry[(0, 1, 0)] = RICCI_FLAT
    assert (0, 1, 0) not in registry


def test_a_context_has_no_copy_path_and_fields_cannot_be_assigned():
    g2 = make_context("g2")
    assert HolonomyContext.__slots__ == ("id", "root_system", "holonomy_rep", "n", "dim_g",
                                         "ricci_flat", "qr_registry")
    assert not hasattr(g2, "_replace") and not hasattr(g2, "__dict__")
    for name in HolonomyContext.__slots__ + ("no_such_field",):
        with pytest.raises(AttributeError):
            setattr(g2, name, None)
        with pytest.raises(AttributeError):
            delattr(g2, name)
    assert g2.n == 7 and (0, 1) not in g2.qr_registry
    # the prover's short-circuit reads only what the constructor certified
    verdict = prove_component(g2, Irrep(g2.root_system, (0, 1)), 2, "twistor")
    assert verdict.verdict == INCONCLUSIVE and "qr-registry" not in [t.rule for t in verdict.trace]


def test_n_and_dim_g_are_derived_from_t():
    # no caller sets them: dim g = 15 on g2's T would move the conformal weights on (0,1)
    # from (-4, -4/3, 1) to (-30/7, -10/7, 15/14) and the Casimir from -8 to -60/7
    g2 = make_context("g2")
    for field in ("n", "dim_g", "root_system", "qr_registry", "cited"):
        with pytest.raises(TypeError):
            HolonomyContext("g2-pinned", g2.holonomy_rep, True, **{field: 15})
    ctx = HolonomyContext("g2-built", g2.holonomy_rep, ricci_flat=True)
    assert (ctx.root_system, ctx.n, ctx.dim_g) == (g2.root_system, 7, 14)
    assert ctx.qr_registry == g2.qr_registry
    e = Irrep(g2.root_system, (0, 1))
    assert [s.b for s in conformal_weights(ctx, e).summands] == [-4, Fraction(-4, 3), 1]
    assert casimir_lambda2(ctx, e) == -8
    b3 = make_context("spin7").root_system
    adjoint = HolonomyContext("spin7-adjoint", adjoint_irrep(b3), ricci_flat=False)
    assert (adjoint.n, adjoint.dim_g) == (21, 21)


@pytest.mark.parametrize(
    "ctx_id, weight, ricci_flat",
    [("g2", (0, 1), True), ("g2", (1, 0), False), ("spin7", (1, 0, 0), True),
     ("so7", (1, 0, 0), True)],
    ids=["another-t", "another-column", "another-rows-t", "so7-ricci-flat"],
)
def test_a_catalogue_id_belongs_to_its_row(ctx_id, weight, ricci_flat):
    # claim sets and printed formulas are looked up by id: only the row may carry it
    rs = make_context(ctx_id).root_system
    with pytest.raises(UnsupportedContext, match=f"context id '{ctx_id}' names a catalogue row"):
        HolonomyContext(ctx_id, Irrep(rs, weight), ricci_flat)


def test_a_catalogue_id_belongs_to_its_rows_root_system():
    # a fresh G2 is another root system, though equal field by field
    fresh = RootSystem("G", 2)
    with pytest.raises(UnsupportedContext, match="names a catalogue row"):
        HolonomyContext("g2", Irrep(fresh, (1, 0)), True)
    # the row itself builds a distinct, equally certified context
    s7 = make_context("spin7")
    again = HolonomyContext("spin7", s7.holonomy_rep, True)
    assert again is not s7 and again.qr_registry == s7.qr_registry


def test_only_a_catalogue_row_cites_bundles():
    # outside the catalogue the registry is the trivial bundle and, when Ricci-flat, T:
    # the Schur certificate reads E (x) E as End(E), which is wrong for a bundle that
    # is not self-dual, such as A2's (2,0)
    a2 = build_root_system("A", 2)
    assert HolonomyContext("a2-vector", Irrep(a2, (1, 0)), True).qr_registry == {
        (0, 0): TRIVIAL, (1, 0): RICCI_FLAT
    }
    s7 = make_context("spin7")
    assert list(HolonomyContext("spin7-built", s7.holonomy_rep, True).qr_registry.items()) == [
        ((0, 0, 0), TRIVIAL), ((0, 0, 1), RICCI_FLAT)
    ]


@pytest.mark.parametrize("ctx_id", ["g2", "spin7"])
def test_a_ricci_flat_context_cannot_take_the_adjoint_as_t(ctx_id):
    # V(2 theta) lies in Sym^2(g), so the certificate rejects T's own entry
    rs = make_context(ctx_id).root_system
    message = r"certify q\(R\) = 0 on the cited bundle"
    with pytest.raises(UnsupportedContext, match=message) as caught:
        HolonomyContext(f"{ctx_id}-adjoint", adjoint_irrep(rs), ricci_flat=True)
    assert not isinstance(caught.value, InternalError)  # a caller's context: a domain error
    assert HolonomyContext(f"{ctx_id}-adjoint", adjoint_irrep(rs), False).qr_registry == {
        (0,) * rs.rank: TRIVIAL
    }


def test_form_space_examples_and_cache():
    g2 = make_context("g2")
    assert [i.highest_weight for i in form_space(g2, 2).irreps()] == [(1, 0), (0, 1)]
    assert form_space(g2, 2) is form_space(g2, 2)
    s7 = make_context("spin7")
    assert [i.highest_weight for i in form_space(s7, 3).irreps()] == [(0, 0, 1), (1, 0, 1)]
    assert [i.highest_weight for i in form_space(g2, 0).irreps()] == [(0, 0)]
    with pytest.raises(DegreeOutOfRange):
        form_space(g2, 8)


def test_form_space_binomial_sums_and_duality():
    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        for p in range(ctx.n + 1):
            space = form_space(ctx, p)
            assert sum(m * dimension(s) for s, m in space) == comb(ctx.n, p)
            assert space == form_space(ctx, ctx.n - p)
