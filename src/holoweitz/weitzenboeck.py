"""Conformal weights and the universal Weitzenboeck formula.

For a bundle E in a holonomy context, T (x) E decomposes without
multiplicity into summands E_i; the conformal weight operator acts on
E_i by

    b_i = (c_T + c_E - c_{E_i}) / 2

with all Casimir eigenvalues in the Lambda2(T) normalization, and the
curvature endomorphism satisfies q(R) = sum_i (-b_i) T_i* T_i on
sections of E.  Since c_lam = -2 dim(g) C(lam) / (n C_T) with the integer
Casimir numbers C(lam) = (lam, lam + 2 rho) in gram units, this is

    b_i = -dim(g) (C_T + C_E - C_{E_i}) / (n C_T),

computed in integers, C_T and C_E once per formula and C_{E_i} once per
summand; each b_i is built as one ``Fraction``.  Summands keep zero
weights as explicit records; the table renderer suppresses them to
match the usual printed form.

The index i keeps the summand order of :func:`decompose.tensor`, except
that a bundle with a recorded printed formula takes the printed order.

Where a recorded printed formula disagrees with the derived
coefficients, the formula carries machine-readable discrepancy
annotations citing both values; the trace identity
sum_i dim(E_i) * b_i = 0 arbitrates in favor of the derived ones.  The
printed values are parsed once, when the fixture is loaded.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path
from typing import NamedTuple

from . import citations
from .contexts import HolonomyContext
from .decompose import tensor
from .errors import MixedRootSystems, MultiplicityViolation
from .fmt import fmt_q, fmt_w, parse_q
from .irreps import Irrep, _casimir_number, _holonomy_casimir_number, dimension


class Summand(NamedTuple):
    """One irreducible summand E_i of T (x) E with its conformal weight."""

    irrep: Irrep
    b: Fraction

    @property
    def coeff(self) -> Fraction:
        return -self.b


class Discrepancy(NamedTuple):
    """Derived coefficient vs. a recorded printed value that disagrees."""

    index: int
    weight: tuple[int, ...]
    computed: Fraction
    printed: Fraction | None
    note: str


class WeitzenboeckFormula(NamedTuple):
    context_id: str
    bundle: Irrep
    summands: tuple[Summand, ...]
    discrepancies: tuple[Discrepancy, ...]


@lru_cache(maxsize=None)
def _printed_formulas() -> dict:
    """The fixture keyed by bundle weight tuples, each order as weight tuples and each
    printed value parsed once."""
    path = Path(__file__).parent / "fixtures" / "printed_formulas.json"
    return {
        ctx_id: {
            tuple(map(int, key.split(","))): {
                "order": [tuple(hw) for hw in recorded["order"]],
                "printed": {int(i): parse_q(v) for i, v in recorded["printed"].items()},
            }
            for key, recorded in bundles.items()
        }
        for ctx_id, bundles in json.loads(path.read_text(encoding="utf-8")).items()
    }


def printed_formula(ctx_id: str, bundle_hw: tuple[int, ...]) -> dict | None:
    """Recorded printed order and coefficients for one bundle, if any.

    ``{"order": [weight tuple, ...], "printed": {1-based index: Fraction}}``.
    """
    return _printed_formulas().get(ctx_id, {}).get(bundle_hw)


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
        if sorted(recorded["order"]) != sorted(by_weight):
            raise RuntimeError(
                f"recorded ordering for {ctx.id} {e.highest_weight} does not "
                "match the computed tensor decomposition"
            )
        order = tuple(by_weight[hw] for hw in recorded["order"])
    rs = ctx.root_system
    c_t = _holonomy_casimir_number(ctx)
    top, den, dim_g = c_t + _casimir_number(rs, e.highest_weight), ctx.n * c_t, ctx.dim_g
    summands = tuple(
        Summand(irr, Fraction(dim_g * (_casimir_number(rs, irr.highest_weight) - top), den))
        for irr in order
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
    cite = citations.CITATIONS["printed-formula"]
    out = []
    for idx, s in enumerate(summands, start=1):
        p = printed.get(idx)
        if p == s.coeff or (p is None and s.coeff == 0):
            continue
        note = (
            f"printed formula omits a nonzero coefficient ({cite})"
            if p is None
            else f"derived coefficient disagrees with the printed value ({cite}); "
            "the trace identity sum(dim * b) = 0 holds for the derived value only"
        )
        out.append(Discrepancy(idx, s.irrep.highest_weight, s.coeff, p, note))
    return tuple(out)


def trace_residual(formula: WeitzenboeckFormula) -> Fraction:
    """sum_i dim(E_i) * b_i, summed over one common denominator; zero for every
    correct formula."""
    summands = formula.summands
    den = lcm(*(s.b.denominator for s in summands))
    num = sum(dimension(s.irrep) * s.b.numerator * (den // s.b.denominator) for s in summands)
    return Fraction(num, den)


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
