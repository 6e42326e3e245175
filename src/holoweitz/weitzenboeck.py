"""Conformal weights and the universal Weitzenboeck formula.

For a bundle E in a holonomy context, T (x) E decomposes without
multiplicity into summands E_i; the conformal weight operator acts on
E_i by

    b_i = (c_T + c_E - c_{E_i}) / 2

with all Casimir eigenvalues in the Lambda2(T) normalization, and the
curvature endomorphism satisfies q(R) = sum_i (-b_i) T_i* T_i on
sections of E.  Summands keep zero weights as explicit records; the
table renderer suppresses them to match the usual printed form.

The index i keeps the summand order of :func:`decompose.tensor`, except
that a bundle with a recorded printed formula takes the printed order.

Where a recorded printed formula disagrees with the derived
coefficients, the formula carries machine-readable discrepancy
annotations citing both values; the trace identity
sum_i dim(E_i) * b_i = 0 arbitrates in favor of the derived ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import citations
from .contexts import HolonomyContext
from .decompose import tensor
from .errors import MixedRootSystems, MultiplicityViolation
from .fmt import fmt_q, fmt_w, parse_q, weight_key
from .irreps import Irrep, casimir_lambda2, dimension


@dataclass(frozen=True)
class Summand:
    """One irreducible summand E_i of T (x) E with its conformal weight."""

    irrep: Irrep
    b: Fraction

    @property
    def coeff(self) -> Fraction:
        return -self.b


@dataclass(frozen=True)
class Discrepancy:
    """Derived coefficient vs. a recorded printed value that disagrees."""

    index: int
    weight: tuple[int, ...]
    computed: Fraction
    printed: Fraction | None
    note: str


@dataclass(frozen=True)
class WeitzenboeckFormula:
    context_id: str
    bundle: Irrep
    summands: tuple[Summand, ...]
    discrepancies: tuple[Discrepancy, ...]


@lru_cache(maxsize=None)
def _printed_formulas() -> dict:
    path = resources.files("holoweitz").joinpath("fixtures/printed_formulas.json")
    return json.loads(path.read_text())


def printed_formula(ctx_id: str, bundle_hw: tuple[int, ...]) -> dict | None:
    """Recorded printed ordering/coefficients for one bundle, if any."""
    return _printed_formulas().get(ctx_id, {}).get(weight_key(bundle_hw))


def _check_multiplicity_free(deco) -> None:
    bad = [(irr.highest_weight, m) for irr, m in deco if m != 1]
    if bad:
        raise MultiplicityViolation(
            f"tensor product is not multiplicity-free: {bad}; "
            "Schur-based identification of the twistor operators is unsound"
        )


def conformal_weights(ctx: HolonomyContext, e: Irrep) -> WeitzenboeckFormula:
    """Conformal weights b_i of T (x) E and the induced Weitzenboeck formula."""
    if e.root_system != ctx.root_system:
        raise MixedRootSystems(f"{e} does not live on the {ctx.id} root system")
    deco = tensor(ctx.holonomy_rep, e)
    _check_multiplicity_free(deco)
    order = deco.irreps()
    recorded = printed_formula(ctx.id, e.highest_weight)
    if recorded is not None:
        by_weight = {i.highest_weight: i for i in order}
        printed_order = [tuple(hw) for hw in recorded["order"]]
        if sorted(printed_order) != sorted(by_weight):
            raise RuntimeError(
                f"recorded ordering for {ctx.id} {e.highest_weight} does not "
                "match the computed tensor decomposition"
            )
        order = tuple(by_weight[hw] for hw in printed_order)
    c_t = casimir_lambda2(ctx, ctx.holonomy_rep)
    c_e = casimir_lambda2(ctx, e)
    summands = tuple(
        Summand(irr, (c_t + c_e - casimir_lambda2(ctx, irr)) / 2) for irr in order
    )
    return WeitzenboeckFormula(
        context_id=ctx.id,
        bundle=e,
        summands=summands,
        discrepancies=_find_discrepancies(recorded, summands),
    )


def _find_discrepancies(
    recorded: dict | None, summands: tuple[Summand, ...]
) -> tuple[Discrepancy, ...]:
    if recorded is None:
        return ()
    printed = recorded["printed"]
    out = []
    for idx, s in enumerate(summands, start=1):
        value = printed.get(str(idx))
        if value is None:
            if s.coeff != 0:
                out.append(
                    Discrepancy(
                        idx,
                        s.irrep.highest_weight,
                        s.coeff,
                        None,
                        "printed formula omits a nonzero coefficient "
                        f"({citations.CITATIONS['printed-formula']})",
                    )
                )
            continue
        p = parse_q(value)
        if p != s.coeff:
            out.append(
                Discrepancy(
                    idx,
                    s.irrep.highest_weight,
                    s.coeff,
                    p,
                    "derived coefficient disagrees with the printed value "
                    f"({citations.CITATIONS['printed-formula']}); the trace "
                    "identity sum(dim * b) = 0 holds for the derived value only",
                )
            )
    return tuple(out)


def trace_residual(formula: WeitzenboeckFormula) -> Fraction:
    """sum_i dim(E_i) * b_i; zero for every correct formula."""
    return sum((dimension(s.irrep) * s.b for s in formula.summands), Fraction(0))


def to_json_dict(formula: WeitzenboeckFormula) -> dict:
    return {
        "context": formula.context_id,
        "bundle": list(formula.bundle.highest_weight),
        "summands": [
            {
                "weight": list(s.irrep.highest_weight),
                "dim": dimension(s.irrep),
                "b": fmt_q(s.b),
                "coeff": fmt_q(s.coeff),
            }
            for s in formula.summands
        ],
        "trace_residual": fmt_q(trace_residual(formula)),
        "discrepancies": [
            {
                "index": d.index,
                "weight": list(d.weight),
                "computed": fmt_q(d.computed),
                "printed": None if d.printed is None else fmt_q(d.printed),
                "note": d.note,
            }
            for d in formula.discrepancies
        ],
    }


def formula_line(formula: WeitzenboeckFormula) -> str:
    """The formula as printed, zero-coefficient terms suppressed."""
    parts = []
    for idx, s in enumerate(formula.summands, start=1):
        c = s.coeff
        if c == 0:
            continue
        factor = "" if abs(c) == 1 else f"{fmt_q(abs(c))} "
        term = f"{factor}T{idx}*T{idx}"
        if not parts:
            parts.append(term if c > 0 else f"- {term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return "q(R) = " + (" ".join(parts) if parts else "0")


def to_table(formula: WeitzenboeckFormula, quiet: bool = False) -> str:
    """ASCII table of the summands, weights and coefficients."""
    lines = [
        f"Weitzenboeck formula on {fmt_w(formula.bundle.highest_weight)} "
        f"[dim {dimension(formula.bundle)}], holonomy {formula.context_id}",
        formula_line(formula),
        "",
        f"{'i':>2}  {'summand':<12} {'dim':>5}  {'b':>8}  {'coeff':>8}",
    ]
    for idx, s in enumerate(formula.summands, start=1):
        lines.append(
            f"{idx:>2}  {fmt_w(s.irrep.highest_weight):<12} {dimension(s.irrep):>5}  "
            f"{fmt_q(s.b):>8}  {fmt_q(s.coeff):>8}"
        )
    lines.append(f"trace residual: {fmt_q(trace_residual(formula))}")
    if formula.discrepancies and not quiet:
        lines.append("")
        for d in formula.discrepancies:
            printed = "absent" if d.printed is None else fmt_q(d.printed)
            lines.append(
                f"discrepancy at T{d.index} "
                f"{fmt_w(d.weight)}: computed {fmt_q(d.computed)}, "
                f"printed {printed} -- {d.note}"
            )
    return "\n".join(lines)
