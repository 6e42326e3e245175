"""Holonomy contexts, form space cache and the q(R) registry."""

from __future__ import annotations

import json
from math import comb

import pytest

from holoweitz.contexts import (
    RegistryEntry,
    form_space,
    load_registry,
    make_context,
    qr_citation,
    qr_trivial,
)
from holoweitz.errors import DegreeOutOfRange, MixedRootSystems, UnsupportedContext
from holoweitz.irreps import Irrep, trivial_irrep


def test_g2_context_fields():
    ctx = make_context("g2")
    assert (ctx.n, ctx.dim_g, ctx.ricci_flat) == (7, 14, True)
    assert ctx.holonomy_rep.highest_weight == (1, 0)
    assert ctx.root_system.family == "G"


def test_spin7_context_fields():
    ctx = make_context("spin7")
    assert (ctx.n, ctx.dim_g, ctx.ricci_flat) == (8, 21, True)
    assert ctx.holonomy_rep.highest_weight == (0, 0, 1)
    assert ctx.root_system.family == "B" and ctx.root_system.rank == 3


def test_so_contexts():
    for n in range(5, 11):
        ctx = make_context(f"so{n}")
        assert ctx.n == n
        assert ctx.dim_g == n * (n - 1) // 2
        assert not ctx.ricci_flat
        assert ctx.holonomy_rep.highest_weight == (1,) + (0,) * (ctx.root_system.rank - 1)
    assert make_context("so5").root_system.family == "B"
    assert make_context("so6").root_system.family == "D"
    # id spellings normalize
    assert make_context("SO(7)").id == "so7"
    assert make_context("Spin7").id == "spin7"


def test_unknown_context_rejected():
    for bad in ("so4", "so11", "su3", "e8", ""):
        with pytest.raises(UnsupportedContext):
            make_context(bad)


def test_registry_defaults():
    g2 = make_context("g2")
    assert g2.qr_trivial_weights() == {(0, 0), (1, 0)}
    s7 = make_context("spin7")
    assert s7.qr_trivial_weights() == {(0, 0, 0), (0, 0, 1), (1, 0, 0)}
    so7 = make_context("so7")
    assert so7.qr_trivial_weights() == {(0, 0, 0)}


def test_qr_trivial_examples():
    g2 = make_context("g2")
    assert qr_trivial(g2, Irrep(g2.root_system, (1, 0)))
    assert not qr_trivial(g2, Irrep(g2.root_system, (0, 1)))
    assert qr_trivial(g2, trivial_irrep(g2.root_system))
    s7 = make_context("spin7")
    assert qr_trivial(s7, Irrep(s7.root_system, (1, 0, 0)))
    assert qr_trivial(s7, trivial_irrep(s7.root_system))
    with pytest.raises(MixedRootSystems):
        qr_trivial(g2, Irrep(s7.root_system, (0, 0, 1)))


def test_registry_entries_carry_citations():
    s7 = make_context("spin7")
    assert "Cor. ricci" in qr_citation(s7, Irrep(s7.root_system, (1, 0, 0)))
    for entry in s7.qr_registry:
        assert entry.citation


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
            assert space.as_multiset() == form_space(ctx, ctx.n - p).as_multiset()


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
    assert (0, 1, 0) in ctx.qr_trivial_weights()
    assert qr_citation(ctx, Irrep(ctx.root_system, (0, 1, 0))).startswith("testing:")
    # base context unchanged
    assert (0, 1, 0) not in make_context("spin7").qr_trivial_weights()


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
