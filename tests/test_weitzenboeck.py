"""Conformal weights, the q(R) formula, trace identity, SO(n) cross-check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from holoweitz import roots
from holoweitz.contexts import form_space, make_context
from holoweitz.decompose import Decomposition
from holoweitz.errors import MultiplicityViolation
from holoweitz.fmt import fmt_q, parse_q
from holoweitz.irreps import Irrep, casimir_lambda2, dimension, trivial_irrep
from holoweitz.weitzenboeck import (
    _check_multiplicity_free,
    conformal_weights,
    formula_line,
    to_json_dict,
    to_table,
    trace_residual,
)

G2 = make_context("g2")
S7 = make_context("spin7")


def coeffs(formula):
    return [s.coeff for s in formula.summands]


def weights(formula):
    return [s.irrep.highest_weight for s in formula.summands]


def test_g2_formula_on_lambda2_14():
    f = conformal_weights(G2, Irrep(G2.root_system, (0, 1)))
    assert weights(f) == [(1, 0), (2, 0), (1, 1)]
    assert coeffs(f) == [4, Fraction(4, 3), -1]
    assert f.discrepancies == ()


def test_g2_formula_on_lambda3_27_keeps_printed_order():
    f = conformal_weights(G2, Irrep(G2.root_system, (2, 0)))
    assert weights(f) == [(1, 0), (2, 0), (0, 1), (1, 1), (3, 0)]
    assert coeffs(f) == [Fraction(14, 3), 2, Fraction(8, 3), Fraction(-1, 3), Fraction(-4, 3)]
    assert f.discrepancies == ()


def test_spin7_formula_on_lambda3_48():
    f = conformal_weights(S7, Irrep(S7.root_system, (1, 0, 1)))
    assert weights(f) == [
        (0, 0, 2), (0, 1, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 0, 2),
    ]
    assert coeffs(f) == [
        Fraction(11, 4), Fraction(15, 4), Fraction(23, 4),
        Fraction(7, 4), Fraction(-1, 4), Fraction(-5, 4),
    ]
    assert f.discrepancies == ()


def test_spin7_formula_on_lambda4_35_keeps_zero_summand():
    f = conformal_weights(S7, Irrep(S7.root_system, (0, 0, 2)))
    assert weights(f) == [(0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 3)]
    assert coeffs(f) == [6, Fraction(5, 2), 0, Fraction(-3, 2)]
    # the zero-coefficient term stays as a record but not in the rendering
    assert f.discrepancies == ()
    assert "T3" not in formula_line(f)
    assert "T4" in formula_line(f)


def test_spin7_lambda2_21_discrepancy_annotations():
    f = conformal_weights(S7, Irrep(S7.root_system, (0, 1, 0)))
    assert coeffs(f) == [5, Fraction(3, 2), -1]
    printed = {(d.index, d.computed, d.printed) for d in f.discrepancies}
    assert printed == {(1, Fraction(5), Fraction(10)), (2, Fraction(3, 2), Fraction(3))}


def test_spin7_lambda4_27_discrepancy_annotation():
    f = conformal_weights(S7, Irrep(S7.root_system, (2, 0, 0)))
    assert coeffs(f) == [Fraction(7, 2), -1]
    assert [(d.index, d.computed, d.printed) for d in f.discrepancies] == [
        (2, Fraction(-1), Fraction(-2))
    ]


def test_trace_residual_examples():
    # arithmetic anchors: 7*(-4) + 27*(-4/3) + 64*1 = 0
    f = conformal_weights(G2, Irrep(G2.root_system, (0, 1)))
    assert sum(dimension(s.irrep) * s.b for s in f.summands) == 0
    assert trace_residual(f) == 0
    # the printed L2_21 coefficients fail the identity decisively
    computed = [(8, -5), (48, Fraction(-3, 2)), (112, 1)]
    printed = [(8, -10), (48, -3), (112, 1)]
    assert sum(Fraction(d) * Fraction(b) for d, b in computed) == 0
    assert sum(Fraction(d) * Fraction(b) for d, b in printed) == -112


def test_trace_residual_on_trivial_bundle():
    f = conformal_weights(G2, trivial_irrep(G2.root_system))
    assert weights(f) == [(1, 0)]
    assert [s.b for s in f.summands] == [0]
    assert trace_residual(f) == 0


def test_trace_residual_vanishes_on_all_form_components_and_random_bundles():
    rng = random.Random(17)
    for ctx in (G2, S7):
        bundles = set()
        for p in range(ctx.n + 1):
            bundles.update(form_space(ctx, p).irreps())
        for _ in range(30):
            hw = tuple(rng.randint(0, 3) for _ in range(ctx.root_system.rank))
            bundles.add(Irrep(ctx.root_system, hw))
        for e in sorted(bundles, key=lambda i: i.highest_weight):
            f = conformal_weights(ctx, e)
            assert trace_residual(f) == 0, (ctx.id, e)
            total = sum(dimension(s.irrep) for s in f.summands)
            assert total == ctx.n * dimension(e), (ctx.id, e)


def test_so_n_cross_check():
    # algebraic shadow of the SO(n) form-bundle Weitzenboeck formula;
    # exterior powers and their neighbours are identified by their
    # highest weights in e-coordinates, (1,...,1,0,...) and (2,1,...,1,0,...)
    from holoweitz.roots import to_fundamental, vector

    def e_ones(r, k, last=0):
        coords = [1] * k + [0] * (r - k)
        if last:
            coords[r - 1] = last
        return vector(coords)

    for n in range(5, 10):
        ctx = make_context(f"so{n}")
        rs = ctx.root_system
        r = rs.rank
        for p in range(1, n // 2):
            fund = tuple(int(c) for c in to_fundamental(rs, e_ones(r, p)))
            lam = Irrep(rs, fund)
            assert casimir_lambda2(ctx, lam) == -p * (n - p)
            f = conformal_weights(ctx, lam)
            got: dict = {}
            for s in f.summands:
                got.setdefault(s.b, []).append(s.irrep.hw_orthogonal)
            assert got[Fraction(-(n - p))] == [e_ones(r, p - 1)], (n, p)
            want_11 = vector([2] + [1] * (p - 1) + [0] * (r - p))
            assert got[Fraction(1)] == [want_11], (n, p)
            # the (p+1)-form block; for D with p+1 = rank it splits in halves
            plus = set(got[Fraction(-p)])
            if rs.family == "D" and p + 1 == r:
                assert plus == {e_ones(r, p + 1), e_ones(r, p + 1, last=-1)}, (n, p)
            else:
                assert plus == {e_ones(r, p + 1)}, (n, p)
            assert set(got) == {Fraction(-(n - p)), Fraction(-p), Fraction(1)}


def test_multiplicity_guard():
    rs = G2.root_system
    doctored = Decomposition(((Irrep(rs, (1, 0)), 2),))
    with pytest.raises(MultiplicityViolation):
        _check_multiplicity_free(doctored)


def test_warm_conformal_weights_converts_no_weight_to_ambient(monkeypatch):
    # the summand order comes from the tensor decomposition as given
    bundles = [Irrep(S7.root_system, hw) for hw in [(1, 0, 1), (0, 1, 1)]]
    expected = [conformal_weights(S7, e) for e in bundles]
    calls = []
    real = roots.to_orthogonal
    monkeypatch.setattr(roots, "to_orthogonal", lambda *a: calls.append(a) or real(*a))
    assert [conformal_weights(S7, e) for e in bundles] == expected
    assert calls == []


def test_json_rendering_schema_and_canonical_rationals():
    f = conformal_weights(S7, Irrep(S7.root_system, (0, 1, 0)))
    obj = to_json_dict(f)
    assert list(obj) == ["context", "bundle", "summands", "trace_residual", "discrepancies"]
    assert obj["context"] == "spin7"
    assert obj["bundle"] == [0, 1, 0]
    assert obj["summands"][0] == {"weight": [0, 0, 1], "dim": 8, "b": "-5", "coeff": "5"}
    assert obj["trace_residual"] == "0"
    assert [d["printed"] for d in obj["discrepancies"]] == ["10", "3"]


def test_table_rendering_mentions_discrepancies_unless_quiet():
    f = conformal_weights(S7, Irrep(S7.root_system, (0, 1, 0)))
    assert "discrepancy" in to_table(f)
    assert "discrepancy" not in to_table(f, quiet=True)
    assert all(ord(c) < 128 for c in to_table(f))


def test_fraction_round_trip():
    for s in ("-28/3", "0", "5", "7/2", "-1"):
        assert fmt_q(parse_q(s)) == s
