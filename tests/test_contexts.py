"""Holonomy contexts, form space cache and the q(R) registry."""

from __future__ import annotations

import json
from math import comb

import pytest

from holoweitz import contexts
from holoweitz.contexts import (
    CONTEXT_IDS,
    RegistryEntry,
    form_space,
    load_registry,
    make_context,
    qr_entry,
)
from holoweitz.errors import DegreeOutOfRange, UnsupportedContext
from holoweitz.irreps import Irrep


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
    registry = [(e.highest_weight, e.citation) for e in ctx.qr_registry]
    row = (rs.family, rs.rank, ctx.holonomy_rep.highest_weight, ctx.n, ctx.dim_g, ctx.ricci_flat, registry)
    assert row == CONTEXT_ROWS[ctx_id]
    assert {e.highest_weight for e in ctx.qr_registry} == {weight for weight, _ in registry}


@pytest.mark.parametrize(
    "row,message",
    [
        (("G", 2, (1, 0), 7, 15, True, (((1, 0), "qr-ricci-flat"),)), "expected 7/15"),
        (("G", 2, (1, 0), 7, 14, True, ()), "must match Ricci-flatness"),
        (("B", 3, (1, 0, 0), 7, 21, False, (((1, 0, 0), "qr-ricci-flat"),)), "must match Ricci-flatness"),
    ],
    ids=["wrong-dim-pin", "ricci-flat-registry-drops-t", "not-ricci-flat-registry-lists-t"],
)
def test_built_in_rows_are_pinned(monkeypatch, row, message):
    """A broken built-in row raises; the uncached builder neither reads nor fills the cache."""
    monkeypatch.setattr(contexts, "_CONTEXTS", {"bad": row})
    with pytest.raises(RuntimeError, match=message):
        contexts._make_context_cached.__wrapped__("bad", ())


def test_unknown_context_rejected():
    for bad in ("so4", "so11", "su3", "e8", ""):
        with pytest.raises(UnsupportedContext):
            make_context(bad)


def test_qr_trivial_examples():
    g2 = make_context("g2")
    assert qr_entry(g2, Irrep(g2.root_system, (1, 0))) is not None
    assert qr_entry(g2, Irrep(g2.root_system, (0, 1))) is None
    assert qr_entry(g2, Irrep(g2.root_system, (0, 0))) is not None
    s7 = make_context("spin7")
    assert qr_entry(s7, Irrep(s7.root_system, (1, 0, 0))) is not None
    assert qr_entry(s7, Irrep(s7.root_system, (0, 0, 0))) is not None


def test_registry_entries_carry_citations():
    s7 = make_context("spin7")
    assert "Cor. ricci" in qr_entry(s7, Irrep(s7.root_system, (1, 0, 0))).citation
    for entry in s7.qr_registry:
        assert entry.citation
    assert qr_entry(s7, Irrep(s7.root_system, (0, 1, 0))) is None


def test_registry_checks_build_no_weight_set():
    """qr_entry and the prover scan the registry."""
    from holoweitz.prover import FormClass, prove_degree

    for ctx in (make_context("g2"), make_context("spin7")):
        assert qr_entry(ctx, ctx.holonomy_rep).citation == RICCI_FLAT
        for p in range(1, ctx.n):
            prove_degree(ctx, p, FormClass.KILLING)


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


def test_registry_json_loading(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "context": "spin7",
                        "highest_weight": [0, 1, 0],
                        "citation": "testing: pretend q(R) vanishes here",
                    },
                    {"context": "g2", "highest_weight": [0, 1], "citation": "x"},
                ]
            }
        )
    )
    grouped = load_registry(path)
    assert set(grouped) == {"spin7", "g2"}
    ctx = make_context("spin7", grouped["spin7"])
    bundle = Irrep(ctx.root_system, (0, 1, 0))
    assert qr_entry(ctx, bundle).citation.startswith("testing:")
    # base context unchanged
    assert qr_entry(make_context("spin7"), bundle) is None


@pytest.mark.parametrize("citation", [None, {"a": 1}, "", 3, ["x"]], ids=repr)
def test_registry_citation_must_be_a_non_empty_string(tmp_path, citation):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({"entries": [{"context": "g2", "highest_weight": [0, 1], "citation": citation}]}))
    with pytest.raises(UnsupportedContext, match="citation"):
        load_registry(path)


def test_registry_citation_defaults_when_absent(tmp_path):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({"entries": [{"context": "g2", "highest_weight": [0, 1]}]}))
    assert load_registry(path) == {"g2": (RegistryEntry((0, 1), "user registry entry"),)}


@pytest.mark.parametrize(
    "ctx_id, extra",
    [("g2", (RegistryEntry([0, 1], "x"),)), ("g2", (((0, 1), "x"),)),
     ("g2", (RegistryEntry((-1, 0), "x"),)), ("g2", (RegistryEntry(("0", "1"), "x"),)),
     ("g2", (RegistryEntry((0, 1), None),)), ("g2", (RegistryEntry((False, True), "x"),)),
     (5, ())],
    ids=["list-weight", "plain-tuple", "negative-label", "str-labels", "none-citation",
         "bool-labels", "int-context-id"],
)
def test_library_registry_entries_get_the_checks_a_file_gets(ctx_id, extra):
    with pytest.raises(UnsupportedContext):
        make_context(ctx_id, extra)
    # a good entry still extends the registry, and the bool labels registered nothing
    ctx = make_context("g2", (RegistryEntry((0, 1), "x"),))
    assert qr_entry(ctx, Irrep(ctx.root_system, (0, 1))) == RegistryEntry((0, 1), "x")
    assert qr_entry(make_context("g2"), Irrep(ctx.root_system, (0, 1))) is None


def test_registry_json_rejects_bad_records(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [{"context": "g2", "highest_weight": [-1, 0]}]}))
    with pytest.raises(UnsupportedContext):
        load_registry(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(UnsupportedContext):
        load_registry(path)
    path.write_text(json.dumps({"entries": [{"context": "g2", "highest_weight": [0, 1, 0], "citation": "x"}]}))
    with pytest.raises(UnsupportedContext):
        make_context("g2", load_registry(path)["g2"])
    # JSON booleans are not labels, although bool is an int subclass
    path.write_text(json.dumps({"entries": [{"context": "g2", "highest_weight": [False, True]}]}))
    with pytest.raises(UnsupportedContext):
        load_registry(path)
    # the holonomy representation of a non-Ricci-flat context cannot be q(R)-trivial
    path.write_text(json.dumps({"entries": [{"context": "so7", "highest_weight": [1, 0, 0]}]}))
    with pytest.raises(UnsupportedContext):
        make_context("so7", load_registry(path)["so7"])
