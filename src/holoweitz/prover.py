"""Deduction engine for parallelism of twistor, Killing and *-Killing forms.

The engine works per form class and degree on a Ricci-flat exceptional
holonomy context.  For a bundle E inside the p-forms it combines

  * occurrence bookkeeping of the summands of T (x) E in the adjacent
    form spaces (which twistor operators vanish identically, and which
    are killed by closedness or coclosedness), read as
    ``prove_component(...).statuses``,
  * the integrability factor f with f * nabla*nabla = q(R) for the form
    class at hand,
  * the conformal weights of the Weitzenboeck formula,

and concludes Parallel when the surviving operators carry residuals
f + b_i of one strict sign (after integration over the compact
manifold), or when q(R) is known to vanish on E.  Verdicts are only
ever Parallel or Inconclusive; the engine never claims existence of
non-parallel forms.  Every step carries a citation from the table in
:mod:`holoweitz.citations`; ``*_json`` and ``*_text`` render the reports
with the compactness and exact-holonomy hypotheses of that table.

``prove_component`` and ``prove_degree`` check a request in one place:
the form class, then the Ricci-flat context, then the degree.
"""

from __future__ import annotations

import enum
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import citations
from .contexts import HolonomyContext, form_space
from .decompose import _degree
from .errors import ContextNotSupported, DegreeOutOfRange, NotAFormComponent, UnsupportedFormClass
from .fmt import fmt_q, fmt_w, trace_json, trace_line
from .irreps import Irrep, dimension
from .weitzenboeck import conformal_summands

PARALLEL = "Parallel"
INCONCLUSIVE = "Inconclusive"


class FormClass(enum.Enum):
    TWISTOR = "twistor"
    KILLING = "killing"
    STAR_KILLING = "star-killing"


class KilledBy(enum.Enum):
    TWISTOR_GAP = "TwistorGap"
    CLOSEDNESS = "Closedness"
    COCLOSEDNESS = "Coclosedness"
    NONE = "None"


class SummandStatus(NamedTuple):
    summand: Irrep
    occ_plus: int
    occ_minus: int
    killed_by: KilledBy
    b: Fraction


class Survivor(NamedTuple):
    summand: Irrep
    b: Fraction
    residual: Fraction | None


class TraceStep(NamedTuple):
    rule: str
    citation: str
    detail: str


class ComponentVerdict(NamedTuple):
    bundle: Irrep
    degree: int
    form_class: FormClass
    statuses: tuple[SummandStatus, ...]
    factor: Fraction | None
    survivors: tuple[Survivor, ...]
    verdict: str
    trace: tuple[TraceStep, ...]


class DegreeReport(NamedTuple):
    context_id: str
    degree: int
    form_class: FormClass
    reductions: tuple[TraceStep, ...]
    components: tuple[ComponentVerdict, ...]
    verdict: str


class TheoremReport(NamedTuple):
    context_id: str
    reports: tuple[DegreeReport, ...]

    @property
    def claims(self) -> tuple[tuple[str, int, str], ...]:
        """(class, degree, verdict) of every report, sorted: read from the reports, never set."""
        return tuple(sorted((r.form_class.value, r.degree, r.verdict) for r in self.reports))

    @property
    def expected_parallel(self) -> tuple[tuple[str, int], ...]:
        return EXPECTED_PARALLEL[self.context_id]

    @property
    def matches_expected(self) -> bool:
        return tuple((c, p) for c, p, v in self.claims if v == PARALLEL) == self.expected_parallel


# claim sets of the two parallelism theorems: Killing and *-Killing forms
# are parallel in every degree 1..n-1, twistor forms in the listed degrees
EXPECTED_PARALLEL = {
    ctx_id: tuple(
        sorted(
            [(cls, p) for cls in ("killing", "star-killing") for p in range(1, n)]
            + [("twistor", p) for p in twistor_degrees]
        )
    )
    for ctx_id, n, twistor_degrees in (("g2", 7, (1, 2, 5, 6)), ("spin7", 8, (1, 2, 6, 7)))
}


def _form_class(form_class) -> FormClass:
    """``form_class`` if it is a FormClass, else the member it is the value of
    ("killing", ...); UnsupportedFormClass on anything else."""
    if type(form_class) is FormClass:
        return form_class
    try:
        return FormClass(form_class)
    except (TypeError, ValueError):
        raise UnsupportedFormClass(
            f"form class {form_class!r} is not one of {', '.join(c.value for c in FormClass)}"
        ) from None


def _require_prover_context(ctx: HolonomyContext) -> None:
    if not ctx.ricci_flat:
        raise ContextNotSupported(
            f"prover rules need a Ricci-flat exceptional holonomy context, not {ctx.id}"
        )


def _step(rule: str, detail: str) -> TraceStep:
    return TraceStep(rule, citations.CITATIONS[rule], detail)


def _checked(ctx: HolonomyContext, p, form_class) -> tuple[int, FormClass]:
    """The degree and FormClass of a prover request, checked in this order: form
    class, then Ricci-flat context, then degree (an integral value in 1..n-1)."""
    form_class = _form_class(form_class)
    _require_prover_context(ctx)
    if not 1 <= (p := _degree(p)) <= ctx.n - 1:
        raise DegreeOutOfRange(f"degree {p} outside 1..{ctx.n - 1}")
    return p, form_class


def integrability_factor(form_class: FormClass | str, p: int, n: int) -> Fraction | None:
    """Factor f with f * nabla*nabla = q(R) for the form class, if any.

    Killing forms in degree p give f = p; *-Killing forms give f = n - p
    by Hodge duality; twistor forms give f = p only in the middle degree
    n = 2p.  Otherwise there is no such identity and None is returned.
    The form class is checked first, then the degree, as in :func:`prove_degree`.
    """
    form_class, p = _form_class(form_class), _degree(p)
    if form_class is FormClass.KILLING:
        return Fraction(p)
    if form_class is FormClass.STAR_KILLING:
        return Fraction(n - p)
    if 2 * p == n:
        return Fraction(p)
    return None


_FACTOR_RULE = {
    FormClass.KILLING: "integrability-killing",
    FormClass.STAR_KILLING: "integrability-star-killing",
    FormClass.TWISTOR: "integrability-middle-twistor",
}

# trace step for each kind of killed operator: rule, separator of the
# operator names T1, T3, ... and the detail they are filled into
_KILL_STEPS = (
    (KilledBy.TWISTOR_GAP, "twistor-gap", ", ", "{} vanish on every twistor form"),
    (KilledBy.CLOSEDNESS, "closedness", "u = ", "du = 0 forces {}u = 0"),
    (KilledBy.COCLOSEDNESS, "coclosedness", "u = ", "d*u = 0 forces {}u = 0"),
)


def prove_component(
    ctx: HolonomyContext, e: Irrep, p: int, form_class: FormClass | str
) -> ComponentVerdict:
    """Parallelism analysis for forms of one class inside one component."""
    p, form_class = _checked(ctx, p, form_class)
    if e not in form_space(ctx, p).irreps():
        raise NotAFormComponent(f"{e} does not occur in the {p}-forms of {ctx.id}")
    return _prove_component(
        ctx, e, p, form_class, dict(form_space(ctx, p + 1)), dict(form_space(ctx, p - 1))
    )


def _prove_component(
    ctx: HolonomyContext, e: Irrep, p: int, form_class: FormClass,
    plus: dict[Irrep, int], minus: dict[Irrep, int],
) -> ComponentVerdict:
    """:func:`prove_component` on a checked request and component ``e`` of the
    p-forms, given the (p+1)- and (p-1)-forms as maps irrep -> multiplicity.

    Which twistor operators on E vanish for forms of the given class decides
    the verdict.  Occurrence counts of each summand of T (x) E in the
    adjacent form spaces drive three rules: a summand in neither space has
    an identically vanishing operator on any twistor form; closed forms
    (*-Killing) kill operators into summands of the (p+1)-forms; coclosed
    forms (Killing) kill operators into summands of the (p-1)-forms.
    """
    # registry short-circuit: q(R) = 0 on E, no Weitzenboeck data needed
    if (citation := ctx.qr_registry.get(e.highest_weight)) is not None:
        trace = (
            TraceStep(
                "qr-registry",
                citation,
                f"q(R) acts trivially on {fmt_w(e.highest_weight)}; any twistor form in this "
                "bundle is parallel on a compact manifold",
            ),
        )
        return ComponentVerdict(
            bundle=e,
            degree=p,
            form_class=form_class,
            statuses=(),
            factor=None,
            survivors=(),
            verdict=PARALLEL,
            trace=trace,
        )

    statuses = []
    for s in conformal_summands(ctx, e):  # also enforces multiplicity-freeness
        occ_plus = plus.get(s.irrep, 0)
        occ_minus = minus.get(s.irrep, 0)
        if occ_plus == 0 and occ_minus == 0:
            killed = KilledBy.TWISTOR_GAP
        elif form_class is FormClass.STAR_KILLING and occ_plus > 0:
            killed = KilledBy.CLOSEDNESS
        elif form_class is FormClass.KILLING and occ_minus > 0:
            killed = KilledBy.COCLOSEDNESS
        else:
            killed = KilledBy.NONE
        statuses.append(SummandStatus(s.irrep, occ_plus, occ_minus, killed, s.b))
    trace: list[TraceStep] = [
        _step(
            "conformal-weights",
            f"T (x) {fmt_w(e.highest_weight)} has summands "
            + ", ".join(fmt_w(st.summand.highest_weight) for st in statuses)
            + "; q(R) = sum(-b_i) T_i*T_i",
        )
    ]

    for killed_by, rule, sep, detail in _KILL_STEPS:
        ops = [f"T{i + 1}" for i, st in enumerate(statuses) if st.killed_by is killed_by]
        if ops:
            trace.append(_step(rule, detail.format(sep.join(ops))))
            if killed_by is not KilledBy.TWISTOR_GAP:
                trace.append(_step("schur-factorization", f"used by the {rule} rule"))

    factor = integrability_factor(form_class, p, ctx.n)
    surviving = [(i, st) for i, st in enumerate(statuses) if st.killed_by is KilledBy.NONE]
    survivors = tuple(
        Survivor(st.summand, st.b, None if factor is None else factor + st.b)
        for _, st in surviving
    )

    if not survivors:
        trace.append(_step("all-operators-vanish", "no twistor operator survives"))
        verdict = PARALLEL
    elif factor is None:
        trace.append(
            _step(
                "no-factor",
                "operators "
                + ", ".join(f"T{i + 1}" for i, _ in surviving)
                + " survive but no integrability identity applies",
            )
        )
        verdict = INCONCLUSIVE
    else:
        trace.append(
            _step(
                _FACTOR_RULE[form_class],
                f"{fmt_q(factor)} nabla*nabla u = q(R) u for {form_class.value} "
                f"{p}-forms (n = {ctx.n})",
            )
        )
        residuals = [s.residual for s in survivors]
        detail = "0 = " + " + ".join(
            f"({fmt_q(factor)} + ({fmt_q(s.b)})) ||T{i + 1} u||^2"
            for (i, _), s in zip(surviving, survivors)
        )
        # a zero residual is of neither strict sign
        if all(r > 0 for r in residuals) or all(r < 0 for r in residuals):
            verdict = PARALLEL
            trace.append(
                _step(
                    "sign-argument",
                    detail + "; all residuals of one strict sign, so every "
                    "surviving operator vanishes",
                )
            )
            trace.append(_step("all-operators-vanish", "the form is parallel"))
        else:
            verdict = INCONCLUSIVE
            if 0 in residuals:
                detail += "; a zero residual forces no vanishing"
            trace.append(_step("mixed-signs", detail))

    return ComponentVerdict(
        bundle=e,
        degree=p,
        form_class=form_class,
        statuses=tuple(statuses),
        factor=factor,
        survivors=survivors,
        verdict=verdict,
        trace=tuple(trace),
    )


def prove_degree(ctx: HolonomyContext, p: int, form_class: FormClass | str) -> DegreeReport:
    """Parallelism analysis for all forms of one class in one degree."""
    p, form_class = _checked(ctx, p, form_class)

    # R1: Hodge duality sends twistor p-forms to twistor (n-p)-forms
    if form_class is FormClass.TWISTOR and 2 * p > ctx.n:
        step = _step("hodge-duality", f"twistor {p}-forms correspond to twistor {ctx.n - p}-forms")
        delegate = prove_degree(ctx, ctx.n - p, form_class)
        return delegate._replace(degree=p, reductions=(step,) + delegate.reductions)

    # R2: on compact Ricci-flat manifolds twistor 2-forms are coclosed
    reductions: list[TraceStep] = []
    effective_class = form_class
    if form_class is FormClass.TWISTOR and p == 2:
        reductions.append(
            _step("twistor-2form-coclosed", "treat twistor 2-forms as Killing 2-forms")
        )
        effective_class = FormClass.KILLING

    # the rule that splits the degree into its components
    components_irreps = form_space(ctx, p).irreps()
    if effective_class is not FormClass.TWISTOR:
        rule = "holonomy-decomposition"
        detail = f"a {effective_class.value} form is one iff all its components are"
    elif len(components_irreps) == 1:
        rule = "irreducible-form-space"
        detail = f"the {p}-forms are irreducible"
    elif 2 * p == ctx.n:
        rule = "componentwise-middle-twistor"
        detail = "components of a middle-degree twistor form are twistor forms"
    else:
        rule = "unjustified-split"
        detail = (
            "componentwise analysis below is hypothetical; the overall verdict stays Inconclusive"
        )
    reductions.append(_step(rule, detail))
    justified = rule != "unjustified-split"

    plus, minus = dict(form_space(ctx, p + 1)), dict(form_space(ctx, p - 1))
    components = tuple(
        _prove_component(ctx, irr, p, effective_class, plus, minus) for irr in components_irreps
    )
    if justified and all(c.verdict == PARALLEL for c in components):
        verdict = PARALLEL
    else:
        verdict = INCONCLUSIVE

    return DegreeReport(
        context_id=ctx.id,
        degree=p,
        form_class=form_class,
        reductions=tuple(reductions),
        components=components,
        verdict=verdict,
    )


def prove_theorems(ctx: HolonomyContext) -> TheoremReport:
    """Every form class in every degree; the report compares them with the theorem claim set,
    so a Ricci-flat context with no claim set is ContextNotSupported."""
    _require_prover_context(ctx)
    if ctx.id not in EXPECTED_PARALLEL:
        raise ContextNotSupported(
            f"the theorems are claimed for {' and '.join(EXPECTED_PARALLEL)} only, not {ctx.id}"
        )
    classes = (FormClass.KILLING, FormClass.STAR_KILLING, FormClass.TWISTOR)
    reports = tuple(prove_degree(ctx, p, c) for c in classes for p in range(1, ctx.n))
    return TheoremReport(ctx.id, reports)


# --- JSON and text rendering ------------------------------------------------


def component_json(c: ComponentVerdict) -> dict:
    return {
        "weight": list(c.bundle.highest_weight),
        "dim": dimension(c.bundle),
        "statuses": [
            {
                "weight": list(st.summand.highest_weight),
                "occ_plus": st.occ_plus,
                "occ_minus": st.occ_minus,
                "killed_by": st.killed_by.value,
            }
            for st in c.statuses
        ],
        "factor": None if c.factor is None else fmt_q(c.factor),
        "survivors": [
            {
                "weight": list(s.summand.highest_weight),
                "residual": None if s.residual is None else fmt_q(s.residual),
            }
            for s in c.survivors
        ],
        "verdict": c.verdict,
        "trace": trace_json(c.trace),
    }


def component_text(c: ComponentVerdict) -> str:
    hw, dim = fmt_w(c.bundle.highest_weight), dimension(c.bundle)
    lines = [f"  component {hw} [dim {dim}]: {c.verdict}"]
    lines += (
        f"    summand {fmt_w(st.summand.highest_weight)}: occ(p+1)={st.occ_plus} "
        f"occ(p-1)={st.occ_minus} killed_by={st.killed_by.value}"
        for st in c.statuses
    )
    if c.factor is not None:
        lines.append(f"    integrability factor: {fmt_q(c.factor)}")
    lines += (
        f"    survivor {fmt_w(s.summand.highest_weight)}: b={fmt_q(s.b)} "
        f"residual={'-' if s.residual is None else fmt_q(s.residual)}"
        for s in c.survivors
    )
    lines += (f"    {trace_line(t)}" for t in c.trace)
    return "\n".join(lines)


def degree_report_json(r: DegreeReport) -> dict:
    return {
        "context": r.context_id,
        "degree": r.degree,
        "class": r.form_class.value,
        "hypotheses": list(citations.HYPOTHESES),
        "reductions": trace_json(r.reductions),
        "components": [component_json(c) for c in r.components],
        "verdict": r.verdict,
    }


def degree_report_text(r: DegreeReport) -> str:
    lines = [
        f"{r.context_id}: {r.form_class.value} {r.degree}-forms -> {r.verdict}",
        f"  hypotheses: {'; '.join(citations.HYPOTHESES)}",
    ]
    lines += (f"  {trace_line(t)}" for t in r.reductions)
    lines += map(component_text, r.components)
    return "\n".join(lines)


def theorem_report_json(t: TheoremReport) -> dict:
    return {
        "context": t.context_id,
        "hypotheses": list(citations.HYPOTHESES),
        "claims": [
            {"class": c, "degree": p, "verdict": v} for c, p, v in t.claims
        ],
        "expected_parallel": [
            {"class": c, "degree": p} for c, p in t.expected_parallel
        ],
        "matches_expected": t.matches_expected,
        "reports": [degree_report_json(r) for r in t.reports],
    }


def _mark(ok: bool) -> str:
    """PASS or FAIL, green or red when stdout is a terminal and NO_COLOR is unset."""
    text = "PASS" if ok else "FAIL"
    if sys.stdout is None or not sys.stdout.isatty() or os.environ.get("NO_COLOR"):
        return text
    return f"\033[{32 if ok else 31}m{text}\033[0m"


def theorem_report_text(t: TheoremReport, trace: bool = False) -> str:
    """The claim set and its match with the theorem; with ``trace``, every degree report."""
    hypotheses = "; ".join(citations.HYPOTHESES)
    lines = [f"parallelism claims for {t.context_id} (hypotheses: {hypotheses})"]
    lines += (f"  {cls:<13} p={degree}: {verdict}" for cls, degree, verdict in t.claims)
    lines.append(f"claim set matches the theorem: {_mark(t.matches_expected)}")
    if trace:
        lines += ("\n" + degree_report_text(r) for r in t.reports)
    return "\n".join(lines)
