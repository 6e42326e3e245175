"""Vanishing analysis, integrability factors, component/degree/theorem proofs."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from holoweitz.contexts import form_space, make_context
from holoweitz.errors import (
    ContextNotSupported,
    DegreeOutOfRange,
    HoloweitzError,
    NotAFormComponent,
    UnsupportedFormClass,
)
from holoweitz.irreps import Irrep
from holoweitz.prover import (
    EXPECTED_PARALLEL,
    INCONCLUSIVE,
    PARALLEL,
    FormClass,
    KilledBy,
    degree_report_json,
    integrability_factor,
    prove_component,
    prove_degree,
    prove_theorems,
    theorem_report_json,
)
from holoweitz.weitzenboeck import conformal_summands, conformal_weights

G2 = make_context("g2")
S7 = make_context("spin7")


def killed(statuses):
    return [(st.summand.highest_weight, st.killed_by.value) for st in statuses]


def test_vanishing_g2_lambda2_14_killing():
    st = prove_component(G2, Irrep(G2.root_system, (0, 1)), 2, FormClass.KILLING).statuses
    assert killed(st) == [
        ((1, 0), "Coclosedness"),
        ((2, 0), "None"),
        ((1, 1), "TwistorGap"),
    ]


def test_vanishing_g2_lambda2_14_star_killing_kills_everything():
    st = prove_component(G2, Irrep(G2.root_system, (0, 1)), 2, FormClass.STAR_KILLING).statuses
    assert all(s.killed_by is not KilledBy.NONE for s in st)


def test_vanishing_spin7_lambda3_48_twistor():
    st = prove_component(S7, Irrep(S7.root_system, (1, 0, 1)), 3, FormClass.TWISTOR).statuses
    gap = [s.summand.highest_weight for s in st if s.killed_by is KilledBy.TWISTOR_GAP]
    assert gap == [(1, 1, 0), (1, 0, 2)]  # T5, T6 in the printed numbering


def test_vanishing_requires_form_component():
    with pytest.raises(NotAFormComponent):
        prove_component(G2, Irrep(G2.root_system, (1, 1)), 2, FormClass.KILLING)


def test_vanishing_rejects_so_contexts():
    so7 = make_context("so7")
    with pytest.raises(ContextNotSupported):
        prove_component(so7, Irrep(so7.root_system, (1, 0, 0)), 1, FormClass.KILLING)


def test_integrability_factors():
    assert integrability_factor(FormClass.KILLING, 2, 7) == 2
    assert integrability_factor(FormClass.STAR_KILLING, 3, 8) == 5
    assert integrability_factor(FormClass.TWISTOR, 4, 8) == 4
    assert integrability_factor(FormClass.TWISTOR, 3, 8) is None


@pytest.mark.parametrize("form_class", list(FormClass), ids=lambda c: c.value)
def test_a_form_class_value_reads_as_its_member(form_class):
    assert integrability_factor(form_class.value, 3, 7) == integrability_factor(form_class, 3, 7)
    e = Irrep(G2.root_system, (0, 1))
    assert prove_component(G2, e, 2, form_class.value) == prove_component(G2, e, 2, form_class)
    for ctx in (G2, S7):
        for p in (3, ctx.n - 2):
            assert prove_degree(ctx, p, form_class.value) == prove_degree(ctx, p, form_class)
    assert prove_degree(G2, 3, form_class.value).form_class is form_class


@pytest.mark.parametrize("form_class", ["twistor ", "Killing", "killing-star", None, 1, 0.5,
                                        ["killing"], KilledBy.NONE], ids=repr)
def test_a_form_class_that_is_no_member_or_value_is_unsupported(form_class):
    assert issubclass(UnsupportedFormClass, HoloweitzError)
    e = Irrep(G2.root_system, (0, 1))
    for call in (lambda: prove_degree(S7, 4, form_class),
                 lambda: prove_degree(G2, 3, form_class),
                 lambda: prove_component(G2, e, 2, form_class),
                 lambda: integrability_factor(form_class, 3, 7)):
        with pytest.raises(UnsupportedFormClass):
            call()


def test_component_g2_lambda2_14_killing():
    c = prove_component(G2, Irrep(G2.root_system, (0, 1)), 2, FormClass.KILLING)
    assert c.verdict == PARALLEL
    assert [(s.summand.highest_weight, s.residual) for s in c.survivors] == [
        ((2, 0), Fraction(2, 3))
    ]


def test_component_computes_its_weitzenboeck_formula_once(monkeypatch):
    from holoweitz import prover

    calls = []

    def counting(ctx, e):
        calls.append(e)
        return conformal_summands(ctx, e)

    monkeypatch.setattr(prover, "conformal_summands", counting)
    e = Irrep(G2.root_system, (0, 1))  # not in the q(R)-trivial registry
    prove_component(G2, e, 2, FormClass.KILLING)
    assert calls == [e]


def test_prover_builds_no_printed_formula_comparison(monkeypatch):
    # the prover reads the summands only; spin7 (0,1,0) and (2,0,0) carry discrepancies
    from holoweitz import weitzenboeck

    calls = []
    real = weitzenboeck._find_discrepancies
    monkeypatch.setattr(weitzenboeck, "_find_discrepancies", lambda *a: calls.append(a) or real(*a))
    for ctx in (G2, S7):
        for form_class in FormClass:
            for p in range(1, ctx.n):
                prove_degree(ctx, p, form_class)
    assert calls == []
    conformal_weights(S7, Irrep(S7.root_system, (0, 1, 0)))
    assert len(calls) == 1


def test_component_trace_names_every_killed_operator():
    c = prove_component(G2, Irrep(G2.root_system, (2, 0)), 3, FormClass.STAR_KILLING)
    assert [(t.rule, t.detail) for t in c.trace[1:4]] == [
        ("twistor-gap", "T4, T5 vanish on every twistor form"),
        ("closedness", "du = 0 forces T1u = T2u = 0"),
        ("schur-factorization", "used by the closedness rule"),
    ]


def test_component_spin7_lambda4_27_twistor():
    c = prove_component(S7, Irrep(S7.root_system, (2, 0, 0)), 4, FormClass.TWISTOR)
    assert c.verdict == PARALLEL
    assert [s.residual for s in c.survivors] == [Fraction(1, 2)]


def test_component_spin7_lambda4_35_twistor_mixed_signs():
    c = prove_component(S7, Irrep(S7.root_system, (0, 0, 2)), 4, FormClass.TWISTOR)
    assert c.verdict == INCONCLUSIVE
    assert [(s.summand.highest_weight, s.residual) for s in c.survivors] == [
        ((0, 0, 1), Fraction(-2)),
        ((1, 0, 1), Fraction(3, 2)),
    ]


def test_component_zero_residual_forces_no_vanishing():
    # Killing vector fields of the round sphere S^7: so7 read as if Ricci-flat, T2 has f + b = 0
    so7 = make_context("so7")._replace(ricci_flat=True)
    c = prove_component(so7, Irrep(so7.root_system, (1, 0, 0)), 1, FormClass.KILLING)
    assert c.verdict == INCONCLUSIVE
    assert [s.residual for s in c.survivors] == [0]
    assert (c.trace[-1].rule, c.trace[-1].detail) == (
        "mixed-signs",
        "0 = (1 + (-1)) ||T2 u||^2; a zero residual forces no vanishing",
    )


def test_component_g2_lambda3_27_killing():
    c = prove_component(G2, Irrep(G2.root_system, (2, 0)), 3, FormClass.KILLING)
    assert c.verdict == PARALLEL
    assert [s.residual for s in c.survivors] == [1]


def test_component_registry_short_circuit_uses_no_weitzenboeck_data():
    for ctx, hw, p in [(G2, (1, 0), 2), (S7, (1, 0, 0), 2), (S7, (0, 0, 1), 3)]:
        c = prove_component(ctx, Irrep(ctx.root_system, hw), p, FormClass.TWISTOR)
        assert c.verdict == PARALLEL
        assert c.statuses == () and c.survivors == () and c.factor is None
        assert [t.rule for t in c.trace] == ["qr-registry"]
        assert "Cor. ricci" in c.trace[0].citation


def test_registry_soundness_proxy_over_all_form_spaces():
    for ctx in (G2, S7):
        for p in range(1, ctx.n):
            for irr in form_space(ctx, p).irreps():
                if irr.highest_weight in ctx.qr_registry:
                    c = prove_component(ctx, irr, p, FormClass.TWISTOR)
                    assert c.verdict == PARALLEL
                    assert all(t.rule == "qr-registry" for t in c.trace)


def test_degree_g2_killing_3():
    r = prove_degree(G2, 3, FormClass.KILLING)
    assert r.verdict == PARALLEL
    assert [c.bundle.highest_weight for c in r.components] == [(0, 0), (1, 0), (2, 0)]
    assert [t.rule for t in r.reductions] == ["holonomy-decomposition"]
    # trivial and T close through the registry, the 27 through the sign argument
    rules = {c.bundle.highest_weight: [t.rule for t in c.trace] for c in r.components}
    assert rules[(0, 0)] == ["qr-registry"]
    assert rules[(1, 0)] == ["qr-registry"]
    assert "sign-argument" in rules[(2, 0)]


def test_degree_g2_twistor_2_reduces_to_killing():
    r = prove_degree(G2, 2, FormClass.TWISTOR)
    assert r.verdict == PARALLEL
    assert [t.rule for t in r.reductions] == [
        "twistor-2form-coclosed",
        "holonomy-decomposition",
    ]


def test_degree_g2_twistor_5_delegates_by_duality():
    r = prove_degree(G2, 5, FormClass.TWISTOR)
    assert r.verdict == PARALLEL
    assert r.degree == 5
    assert [t.rule for t in r.reductions] == [
        "hodge-duality",
        "twistor-2form-coclosed",
        "holonomy-decomposition",
    ]


def test_degree_spin7_twistor_4_lists_the_failing_component():
    r = prove_degree(S7, 4, FormClass.TWISTOR)
    assert r.verdict == INCONCLUSIVE
    assert [t.rule for t in r.reductions] == ["componentwise-middle-twistor"]
    verdicts = {c.bundle.highest_weight: c.verdict for c in r.components}
    assert verdicts == {
        (0, 0, 0): PARALLEL,
        (1, 0, 0): PARALLEL,
        (2, 0, 0): PARALLEL,
        (0, 0, 2): INCONCLUSIVE,
    }


def test_degree_g2_twistor_3_unjustified_split():
    r = prove_degree(G2, 3, FormClass.TWISTOR)
    assert r.verdict == INCONCLUSIVE
    assert r.reductions[0].rule == "unjustified-split"
    failing = [c.bundle.highest_weight for c in r.components if c.verdict == INCONCLUSIVE]
    assert failing == [(2, 0)]


def test_degree_rejects_out_of_range_and_so_contexts():
    # the exterior power's error class: one fault, one class
    with pytest.raises(DegreeOutOfRange):
        prove_degree(G2, 0, FormClass.KILLING)
    with pytest.raises(DegreeOutOfRange):
        prove_degree(G2, 7, FormClass.KILLING)
    with pytest.raises(ContextNotSupported):
        prove_degree(make_context("so7"), 2, FormClass.KILLING)


@pytest.mark.parametrize("degree", [0, 7, -1, 8])
def test_a_component_outside_the_degree_range_names_the_degree_asked(degree):
    # the trivial bundle is a component of the 0- and 7-forms, so only the range check
    # stops these requests; it reports the degree the caller passed, as prove_degree does
    message = f"degree {degree} outside 1..6"
    with pytest.raises(DegreeOutOfRange, match=f"^{message}$"):
        prove_component(G2, Irrep(G2.root_system, (0, 0)), degree, FormClass.KILLING)
    with pytest.raises(DegreeOutOfRange, match=f"^{message}$"):
        prove_degree(G2, degree, FormClass.KILLING)


@pytest.mark.parametrize("degree", [2.0, Fraction(2), True, 6.0], ids=repr)
def test_a_degree_equal_to_an_int_is_reported_as_that_int(degree):
    # the twistor class delegates 6 to 1 by duality and keeps the asked degree
    for form_class in (FormClass.KILLING, FormClass.TWISTOR):
        report = prove_degree(G2, degree, form_class)
        assert report == prove_degree(G2, int(degree), form_class)
        assert type(report.degree) is int and {type(c.degree) for c in report.components} == {int}
        assert json.loads(json.dumps(degree_report_json(report)))["degree"] == int(degree)
    first = prove_degree(G2, degree, FormClass.KILLING).components[0]
    component = prove_component(G2, first.bundle, degree, FormClass.KILLING)
    assert component == first and type(component.degree) is int
    n = 2 * int(degree)  # the middle degree, where the twistor class has a factor too
    for form_class in FormClass:
        assert integrability_factor(form_class.value, degree, n) == integrability_factor(
            form_class, int(degree), n)


@pytest.mark.parametrize("degree", [2.5, 3.5, "2", None], ids=repr)
def test_a_degree_that_is_not_an_integer_is_out_of_range(degree):
    with pytest.raises(DegreeOutOfRange):
        prove_degree(G2, degree, FormClass.KILLING)
    with pytest.raises(DegreeOutOfRange):
        prove_component(G2, Irrep(G2.root_system, (0, 1)), degree, FormClass.KILLING)
    for form_class in FormClass:  # 3.5 is half of n = 7, where a twistor factor exists
        with pytest.raises(DegreeOutOfRange):
            integrability_factor(form_class, degree, 7)


def test_a_request_is_checked_for_form_class_then_context_then_degree():
    so7 = make_context("so7")
    vector = Irrep(so7.root_system, (1, 0, 0))
    cases = [
        (lambda: prove_component(so7, vector, 2.5, "bogus"), UnsupportedFormClass),
        (lambda: prove_component(so7, vector, 2.5, FormClass.KILLING), ContextNotSupported),
        # the degree before the component: (1,1) is in no form space of g2
        (lambda: prove_component(G2, Irrep(G2.root_system, (1, 1)), 2.5, FormClass.KILLING),
         DegreeOutOfRange),
        # the degree range before the component as well: (0, 0) is a 0-form of g2
        (lambda: prove_component(G2, Irrep(G2.root_system, (0, 0)), 0, FormClass.KILLING),
         DegreeOutOfRange),
        (lambda: prove_degree(so7, 0, "bogus"), UnsupportedFormClass),
        (lambda: prove_degree(so7, 0, FormClass.KILLING), ContextNotSupported),
        (lambda: prove_theorems(so7), ContextNotSupported),
        (lambda: integrability_factor("bogus", 2.5, 7), UnsupportedFormClass),
    ]
    for call, error in cases:
        with pytest.raises(error):
            call()


def test_theorem_claim_sets():
    for ctx in (G2, S7):
        report = prove_theorems(ctx)
        assert report.matches_expected
        parallel = sorted((c, p) for c, p, v in report.claims if v == PARALLEL)
        assert tuple(parallel) == EXPECTED_PARALLEL[ctx.id]


def test_theorem_rejects_so_contexts():
    with pytest.raises(ContextNotSupported, match="^prover rules need a Ricci-flat"):
        prove_theorems(make_context("so7"))
    # Ricci-flat but without a claim set: no report whose claim set cannot be read
    with pytest.raises(ContextNotSupported, match="claimed for g2 and spin7 only, not so7$"):
        prove_theorems(make_context("so7")._replace(ricci_flat=True))


def test_twistor_gap_soundness_audit():
    # TwistorGap only ever with both occurrence counts zero, and vice versa
    for ctx in (G2, S7):
        for form_class in FormClass:
            for p in range(1, ctx.n):
                for irr in form_space(ctx, p).irreps():
                    if irr.highest_weight in ctx.qr_registry:
                        continue
                    for st in prove_component(ctx, irr, p, form_class).statuses:
                        gap = st.occ_plus == 0 and st.occ_minus == 0
                        assert (st.killed_by is KilledBy.TWISTOR_GAP) == gap


def test_no_parallel_verdict_rests_on_bad_residuals():
    for ctx in (G2, S7):
        report = prove_theorems(ctx)
        for degree_report in report.reports:
            for c in degree_report.components:
                if c.verdict != PARALLEL or not c.survivors:
                    continue
                residuals = [s.residual for s in c.survivors]
                assert all(r is not None and r != 0 for r in residuals)
                assert all(r > 0 for r in residuals) or all(r < 0 for r in residuals)


def test_duality_coherence_of_verdicts():
    for ctx in (G2, S7):
        for p in range(1, ctx.n):
            killing = prove_degree(ctx, p, FormClass.KILLING)
            star = prove_degree(ctx, ctx.n - p, FormClass.STAR_KILLING)
            assert killing.verdict == star.verdict, (ctx.id, p)


def test_reports_are_deterministic():
    for ctx_id in ("g2", "spin7"):
        first = json.dumps(theorem_report_json(prove_theorems(make_context(ctx_id))))
        second = json.dumps(theorem_report_json(prove_theorems(make_context(ctx_id))))
        assert first == second


def test_every_parallel_claim_has_a_trace():
    for ctx in (G2, S7):
        report = prove_theorems(ctx)
        for degree_report in report.reports:
            assert degree_report_json(degree_report)["hypotheses"] == [
                "compact Riemannian manifold",
                "holonomy group exactly the stated one",
            ]
            if degree_report.verdict == PARALLEL:
                assert degree_report.reductions
                for c in degree_report.components:
                    assert c.trace
                    assert all(t.citation for t in c.trace)
