"""Holonomy contexts, form space cache, the q(R) registry and its Schur certificate."""

from __future__ import annotations

from itertools import product
from math import comb

import pytest

from holoweitz import contexts
from holoweitz.contexts import CONTEXT_IDS, HolonomyContext, form_space, make_context
from holoweitz.errors import DegreeOutOfRange, InternalError, UnsupportedContext
from holoweitz.irreps import Irrep, adjoint_irrep, dimension
from holoweitz.prover import INCONCLUSIVE, prove_component


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


def test_a_context_copy_cannot_carry_an_uncertified_registry():
    # the registry is read from the catalogue row, not carried as a field: a copy cannot
    # swap in an uncertified one, and the prover's short-circuit never reads one
    g2 = make_context("g2")
    assert HolonomyContext._fields == ("id", "root_system", "holonomy_rep", "n", "dim_g",
                                       "ricci_flat")
    with pytest.raises(ValueError, match="qr_registry"):
        g2._replace(qr_registry={(0, 1): "made up"})
    with pytest.raises(AttributeError):
        g2.qr_registry = {(0, 1): "made up"}
    assert g2._replace(n=7).qr_registry is g2.qr_registry
    verdict = prove_component(g2, Irrep(g2.root_system, (0, 1)), 2, "twistor")
    assert verdict.verdict == INCONCLUSIVE and "qr-registry" not in [t.rule for t in verdict.trace]


def test_a_context_copy_with_an_unknown_id_has_no_registry():
    # the copy names no catalogue row: a domain error, not a KeyError from the registry map
    copy = make_context("g2")._replace(id="g2-copy")
    with pytest.raises(UnsupportedContext, match="'g2-copy' names no catalogue row"):
        copy.qr_registry


def test_a_context_copy_with_another_rows_id_has_no_registry():
    # a G2 context under spin7's id would list B3 weights, and so7 under spin7's id would
    # claim q(R) = 0 on spin7's T: a copy reads its row's registry only with the row's T
    with pytest.raises(UnsupportedContext, match=r"holonomy Irrep\(G2, \(1, 0\)\) has no q\(R\)"):
        make_context("g2")._replace(id="spin7").qr_registry
    with pytest.raises(UnsupportedContext, match=r"certified for Irrep\(B3, \(0, 0, 1\)\)"):
        make_context("so7")._replace(id="spin7").qr_registry
    so7 = make_context("so7")
    assert so7._replace(ricci_flat=True).qr_registry is so7.qr_registry


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
            assert space.total_dimension() == comb(ctx.n, p)
            assert space == form_space(ctx, ctx.n - p)
