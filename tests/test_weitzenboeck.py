"""Conformal weights, the q(R) formula, trace identity, SO(n) cross-check."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

import pytest

from holoweitz import citations, roots, weitzenboeck
from holoweitz.contexts import CONTEXT_IDS, form_space, make_context
from holoweitz.decompose import Decomposition, tensor
from holoweitz.errors import (
    InternalError,
    MixedRootSystems,
    MultiplicityViolation,
    TrivialHolonomyRep,
)
from holoweitz.fmt import fmt_q
from holoweitz.irreps import Irrep, adjoint_irrep, casimir_lambda2, dimension
from holoweitz.weitzenboeck import (
    PRINTED_FORMULAS,
    Summand,
    _check_multiplicity_free,
    _find_discrepancies,
    conformal_weights,
    formula_line,
    printed_formula,
    to_json_dict,
    to_table,
    trace_residual,
)

from helpers import ambient, ambient_casimir

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


def test_discrepancies_cover_every_printed_case():
    # printed equal, printed different, absent with a zero and absent with a
    # nonzero derived coefficient: the second and the fourth are discrepancies
    rs = G2.root_system
    summands = tuple(
        Summand(irr := Irrep(rs, hw), Fraction(b), dimension(irr))
        for hw, b in (((1, 0), -4), ((2, 0), -1), ((0, 1), 0), ((1, 1), 2))
    )
    recorded = (((1, 0), Fraction(4)), ((2, 0), Fraction(2)), ((0, 1), None), ((1, 1), None))
    got = _find_discrepancies(recorded, summands)
    assert [(d.index, d.weight, d.computed, d.printed) for d in got] == [
        (2, (2, 0), Fraction(1), Fraction(2)),
        (4, (1, 1), Fraction(-2), None),
    ]
    cite = citations.CITATIONS["printed-formula"]
    assert got[0].note == (
        f"derived coefficient disagrees with the printed value ({cite}); the trace "
        "identity sum(dim * b) = 0 holds for the derived value only"
    )
    assert got[1].note == f"printed formula omits a nonzero coefficient ({cite})"
    assert _find_discrepancies(None, summands) == ()


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
    # the same printed values put into the formula: trace_residual is that plain sum
    f = conformal_weights(S7, Irrep(S7.root_system, (0, 1, 0)))
    by_index = {d.index: d.printed for d in f.discrepancies}
    doctored = f._replace(summands=tuple(
        s._replace(b=-by_index.get(i, s.coeff)) for i, s in enumerate(f.summands, start=1)
    ))
    assert trace_residual(doctored) == -112
    assert type(trace_residual(doctored)) is Fraction


def test_rendering_a_formula_reads_the_summand_dimensions(monkeypatch):
    # conformal_summands looks each dim(E_i) up once, for its trace check; the renderers
    # and trace_residual read Summand.dim, and only to_table's header looks up dim(E)
    f = conformal_weights(S7, Irrep(S7.root_system, (1, 0, 1)))
    assert [s.dim for s in f.summands] == [dimension(s.irrep) for s in f.summands]
    calls = []
    monkeypatch.setattr(weitzenboeck, "dimension", lambda irr: calls.append(irr) or dimension(irr))
    to_json_dict(f)
    assert calls == []
    to_table(f)
    assert calls == [f.bundle]


def lambda2_casimir(ctx):
    """c(hw) = -2 dim(g) C(hw) / (n C_T) with C read off the ambient form (the oracle)."""
    amb = ambient(ctx.root_system.family, ctx.root_system.rank)
    scale = Fraction(-2 * ctx.dim_g, ctx.n) / ambient_casimir(amb, ctx.holonomy_rep.highest_weight)
    return cache(lambda hw: scale * ambient_casimir(amb, hw))


def test_conformal_weights_against_the_ambient_casimir_oracle():
    # b_i = (c_T + c_E - c_{E_i}) / 2 with c_lam = -2 dim(g) C(lam) / (n C(T)), C read off
    # the ambient form, on every bundle with coordinate sum <= 3 and every form component.
    # Each holonomy representation has one-dimensional weight spaces, so T (x) E never
    # repeats a summand; the adjoint in its place has a repeated zero weight and does.
    counts = {"formulas": 0, "violations": 0}
    for ctx_id in CONTEXT_IDS:
        base = make_context(ctx_id)
        rs = base.root_system
        bundles = {Irrep(rs, hw) for hw in product(range(4), repeat=rs.rank) if sum(hw) <= 3}
        for p in range(base.n + 1):
            bundles.update(form_space(base, p).irreps())
        adjoint = base._replace(id=f"{ctx_id}-adjoint", holonomy_rep=adjoint_irrep(rs))
        for ctx in (base, adjoint):
            c = lambda2_casimir(ctx)
            for e in sorted(bundles, key=lambda i: i.highest_weight):
                if any(m != 1 for _, m in tensor(ctx.holonomy_rep, e)):
                    counts["violations"] += 1
                    with pytest.raises(MultiplicityViolation):
                        conformal_weights(ctx, e)
                    continue
                counts["formulas"] += 1
                f = conformal_weights(ctx, e)
                for s in f.summands:
                    c_t, c_e = c(ctx.holonomy_rep.highest_weight), c(e.highest_weight)
                    assert s.b == (c_t + c_e - c(s.irrep.highest_weight)) / 2, (ctx.id, e, s)
                plain = sum((Fraction(dimension(s.irrep)) * s.b for s in f.summands), Fraction(0))
                assert trace_residual(f) == plain, (ctx.id, e)
    assert counts["formulas"] > 0 and counts["violations"] > 0, counts


def moment_targets(e, c):
    """(-2 dim(E) c_E, -dim(E) c_E c_adj / 2): sum m dim b^2 and sum m dim b^3 over the
    summands of T (x) E when T is self-dual, as in every context, and the b are right."""
    dim_e, c_e = dimension(e), c(e.highest_weight)
    return -2 * dim_e * c_e, -dim_e * c_e * c(adjoint_irrep(e.root_system).highest_weight) / 2


def moments(terms):
    """sum m dim b^2 and sum m dim b^3 over (m, dim, b) terms, in integers over the lcm of
    the denominators."""
    den = lcm(*(b.denominator for *_, b in terms))
    scaled = [(m * d, b.numerator * (den // b.denominator)) for m, d, b in terms]
    return (
        Fraction(sum(w * x * x for w, x in scaled), den ** 2),
        Fraction(sum(w * x * x * x for w, x in scaled), den ** 3),
    )


# wrong weights that sum(dim * b) = 0 cannot see: a common factor, and a lost summand
MOMENT_MUTANTS = {
    "doubled b": lambda ctx, terms: [(m, d, 2 * b) for m, d, b in terms],
    "n and dim g swapped": lambda ctx, terms: [
        (m, d, b * Fraction(ctx.n, ctx.dim_g) ** 2) for m, d, b in terms
    ],
    "one summand dropped": lambda ctx, terms: terms[:-1],
}


def test_second_and_third_moment_identities_fix_the_scale():
    # B = sum_a X_a (x) X_a acts on E_i by -b_i; tr B^2 and tr B^3 by Schur give both moments.
    # Every bundle with coordinate sum <= 4 in every context; each mutant must fail one
    # identity wherever it moves a nonzero weight.
    bundles = caught = 0
    for ctx_id in CONTEXT_IDS:
        ctx = make_context(ctx_id)
        rs, c = ctx.root_system, lambda2_casimir(ctx)
        for hw in product(range(5), repeat=rs.rank):
            if sum(hw) > 4:
                continue
            e = Irrep(rs, hw)
            terms = [(1, dimension(s.irrep), s.b) for s in conformal_weights(ctx, e).summands]
            want = moment_targets(e, c)
            assert moments(terms) == want, (ctx_id, hw)
            bundles += 1
            for name, mutate in MOMENT_MUTANTS.items():
                bad = mutate(ctx, terms)
                moved = [t for t in bad if t[2]] != [t for t in terms if t[2]]
                failed = moments(bad) != want
                assert failed == moved, (name, ctx_id, hw)
                caught += failed
    assert bundles == 401 and caught > 2 * (401 - 8)


def test_moment_identities_with_multiplicities():
    # the adjoint in place of T repeats summands; with n = dim g the oracle's
    # b_i = (c_T + c_E - c_{E_i}) / 2, counted with multiplicity, keeps both moments
    repeated = 0
    for ctx_id in ("g2", "spin7", "so5"):
        base = make_context(ctx_id)
        rs = base.root_system
        ctx = base._replace(holonomy_rep=adjoint_irrep(rs), n=base.dim_g)
        c = lambda2_casimir(ctx)
        c_t = c(ctx.holonomy_rep.highest_weight)
        for hw in product(range(3), repeat=rs.rank):
            if sum(hw) > 2:
                continue
            e = Irrep(rs, hw)
            deco = tensor(ctx.holonomy_rep, e)
            terms = [(m, dimension(irr), (c_t + c(hw) - c(irr.highest_weight)) / 2) for irr, m in deco]
            assert moments(terms) == moment_targets(e, c), (ctx_id, hw)
            repeated += any(m > 1 for _, m in deco)
    assert repeated > 0


def test_printed_values_are_canonical():
    values = [q for bundles in PRINTED_FORMULAS.values() for summands in bundles.values()
              for _, q in summands]
    assert len(values) == 23 and values.count(None) == 1
    assert all(type(q) is Fraction for q in values if q is not None)
    # the one term the print leaves out: spin7 (0,0,2) T3
    assert PRINTED_FORMULAS["spin7"][(0, 0, 2)][2] == ((0, 1, 1), None)


def test_printed_formula_is_found_by_weight_tuple():
    g2 = printed_formula("g2", (2, 0))
    assert [hw for hw, _ in g2] == [(1, 0), (2, 0), (0, 1), (1, 1), (3, 0)]
    assert g2[0][1] == Fraction(14, 3)
    spin7 = printed_formula("spin7", (1, 0, 1))
    assert spin7[0] == ((0, 0, 2), Fraction(11, 4))
    # an unrecorded bundle, and a context with no recorded formulas
    assert printed_formula("g2", (1, 0)) is None
    assert printed_formula("so7", (1, 0, 0)) is None


@pytest.mark.parametrize("ctx_id", [c for c in CONTEXT_IDS if c not in ("g2", "spin7")])
def test_contexts_without_printed_formulas_have_none(ctx_id):
    ctx = make_context(ctx_id)
    rs = ctx.root_system
    for e in (Irrep(rs, (0,) * rs.rank), ctx.holonomy_rep, adjoint_irrep(rs)):
        f = conformal_weights(ctx, e)
        assert f.discrepancies == ()
        assert trace_residual(f) == 0
        assert printed_formula(ctx_id, e.highest_weight) is None


def test_the_recorded_formulas_carry_exactly_the_spin7_discrepancies():
    assert sorted(PRINTED_FORMULAS) == ["g2", "spin7"]
    found = {
        (ctx.id, hw): [(d.index, d.computed, d.printed) for d in
                       conformal_weights(ctx, Irrep(ctx.root_system, hw)).discrepancies]
        for ctx in (G2, S7)
        for hw in PRINTED_FORMULAS[ctx.id]
    }
    assert {key: d for key, d in found.items() if d} == {
        ("spin7", (0, 1, 0)): [(1, Fraction(5), Fraction(10)), (2, Fraction(3, 2), Fraction(3))],
        ("spin7", (2, 0, 0)): [(2, Fraction(-1), Fraction(-2))],
    }


def test_trace_residual_on_trivial_bundle():
    f = conformal_weights(G2, Irrep(G2.root_system, (0, 0)))
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
    from holoweitz.roots import to_fundamental, to_orthogonal

    def e_ones(r, k, last=0):
        coords = [1] * k + [0] * (r - k)
        if last:
            coords[r - 1] = last
        return tuple(coords)

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
                got.setdefault(s.b, []).append(to_orthogonal(rs, s.irrep.highest_weight))
            assert got[Fraction(-(n - p))] == [e_ones(r, p - 1)], (n, p)
            want_11 = tuple([2] + [1] * (p - 1) + [0] * (r - p))
            assert got[Fraction(1)] == [want_11], (n, p)
            # the (p+1)-form block; for D with p+1 = rank it splits in halves
            plus = set(got[Fraction(-p)])
            if rs.family == "D" and p + 1 == r:
                assert plus == {e_ones(r, p + 1), e_ones(r, p + 1, last=-1)}, (n, p)
            else:
                assert plus == {e_ones(r, p + 1)}, (n, p)
            assert set(got) == {Fraction(-(n - p)), Fraction(-p), Fraction(1)}


def test_conformal_weights_error_order():
    # mixed root systems, a repeated summand, a recorded order that disagrees, then a zero
    # holonomy Casimir
    trivial = G2._replace(holonomy_rep=Irrep(G2.root_system, (0, 0)))
    with pytest.raises(MixedRootSystems):
        conformal_weights(trivial, Irrep(S7.root_system, (0, 1, 0)))
    adjoint = S7._replace(holonomy_rep=adjoint_irrep(S7.root_system))
    with pytest.raises(MultiplicityViolation):  # (1,0,1) is recorded, in another order
        conformal_weights(adjoint, Irrep(S7.root_system, (1, 0, 1)))
    with pytest.raises(RuntimeError, match="recorded ordering"):
        conformal_weights(trivial, Irrep(G2.root_system, (0, 1)))
    with pytest.raises(TrivialHolonomyRep):
        conformal_weights(trivial, Irrep(G2.root_system, (1, 1)))


def test_summand_off_the_weight_table_is_an_internal_error(monkeypatch):
    # every E_i has highest weight lam + nu for a weight nu of T; a missing nu is a bug
    _, c_t = weitzenboeck._weight_table(G2.holonomy_rep)
    monkeypatch.setattr(weitzenboeck, "_weight_table", lambda t: ({}, c_t))
    with pytest.raises(RuntimeError, match=r"of T \(x\) \(0, 1\) on g2"):
        conformal_weights(G2, Irrep(G2.root_system, (0, 1)))


@pytest.mark.parametrize(
    "ctx, hw, residual", [(G2, (0, 1), -98), (S7, (0, 1, 0), -168)], ids=["g2", "spin7"]
)
def test_a_holonomy_casimir_off_by_one_fails_the_trace_check(monkeypatch, ctx, hw, residual):
    # C_T + 1 shifts sum dim(E_i) N_i by -dim(T) dim(E): an error, not a plausible formula
    table, c_t = weitzenboeck._weight_table(ctx.holonomy_rep)
    monkeypatch.setattr(weitzenboeck, "_weight_table", lambda t: (table, c_t + 1))
    with pytest.raises(InternalError, match=rf"N_i = {residual} for T \(x\) .* on {ctx.id}, not 0"):
        conformal_weights(ctx, Irrep(ctx.root_system, hw))


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
    assert "discrepancy" not in to_table(f._replace(discrepancies=()))
    assert all(ord(c) < 128 for c in to_table(f))


def test_fraction_round_trip():
    for s in ("-28/3", "0", "5", "7/2", "-1"):
        assert fmt_q(Fraction(s)) == s
