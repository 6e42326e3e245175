"""Conformal weights and the universal Weitzenboeck formula.

For a bundle E in a holonomy context, T (x) E decomposes without
multiplicity into summands E_i; the conformal weight operator acts on
E_i by

    b_i = (c_T + c_E - c_{E_i}) / 2

with all Casimir eigenvalues in the Lambda2(T) normalization, and the
curvature endomorphism satisfies q(R) = sum_i (-b_i) T_i* T_i on
sections of E.  Since c_lam = -2 dim(g) C(lam) / (n C_T) with the integer
Casimir numbers C(lam) = (lam, lam + 2 rho) in gram units, this is
b_i = -dim(g) (C_T + C_E - C_{E_i}) / (n C_T).  Every E_i has highest
weight lam + nu_i for a weight nu_i of T, and C(lam + nu) = C_E + (nu, nu)
+ 2 (lam + rho, nu), so

    b_i = dim(g) ((nu_i, nu_i) + 2 (lam + rho, nu_i) - C_T) / (n C_T)

(Fegan, Quart. J. Math. 27, 1976): one pairing per summand, computed in
integers and built as one ``Fraction``.  The per-representation table
:func:`_weight_table` holds T's weights nu (:func:`irreps.weights`) with
gram . nu and (nu, nu), and C_T, once per holonomy representation, so a
context built with another holonomy representation gets its own table.
Summands keep zero weights as explicit records; the table renderer
suppresses them to match the usual printed form.

The index i keeps the summand order of :func:`decompose.tensor`, except
that a bundle with a recorded printed formula takes the printed order.
:func:`conformal_summands` derives the ordered summands alone;
:func:`conformal_weights` adds the comparison with the printed formula.
Each :class:`Summand` keeps the dim(E_i) of that function's trace check,
which :func:`trace_residual` and the renderers read.

The paper's printed formulas are the table :data:`PRINTED_FORMULAS`; only
g2 and spin7 have entries.  Where a printed formula disagrees with the
derived coefficients, the formula carries machine-readable discrepancy
annotations citing both values; the trace identity
sum_i dim(E_i) * b_i = 0 arbitrates in favor of the derived ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul, sub
from typing import NamedTuple

from . import citations
from .contexts import HolonomyContext
from .decompose import tensor
from .errors import InternalError, MixedRootSystems, MultiplicityViolation
from .fmt import fmt_neg_q, fmt_q, fmt_w
from .irreps import Irrep, _holonomy_casimir_number, dimension, weights
from .roots import Labels


class Summand(NamedTuple):
    """One irreducible summand E_i of T (x) E with its conformal weight b_i and dim(E_i)."""

    irrep: Irrep
    b: Fraction
    dim: int

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


# The paper's printed formulas (Prop. final1 / final2): context -> bundle weight -> the
# summands in printed order, each (highest weight, printed coefficient), None where the
# print leaves the term out.
PRINTED_FORMULAS: dict[str, dict[Labels, tuple[tuple[Labels, Fraction | None], ...]]] = {
    "g2": {
        (0, 1): (((1, 0), Fraction(4)), ((2, 0), Fraction(4, 3)), ((1, 1), Fraction(-1))),
        (2, 0): (
            ((1, 0), Fraction(14, 3)), ((2, 0), Fraction(2)), ((0, 1), Fraction(8, 3)),
            ((1, 1), Fraction(-1, 3)), ((3, 0), Fraction(-4, 3)),
        ),
    },
    "spin7": {
        (0, 1, 0): (
            ((0, 0, 1), Fraction(10)), ((1, 0, 1), Fraction(3)), ((0, 1, 1), Fraction(-1)),
        ),
        (1, 0, 1): (
            ((0, 0, 2), Fraction(11, 4)), ((0, 1, 0), Fraction(15, 4)),
            ((1, 0, 0), Fraction(23, 4)), ((2, 0, 0), Fraction(7, 4)),
            ((1, 1, 0), Fraction(-1, 4)), ((1, 0, 2), Fraction(-5, 4)),
        ),
        (2, 0, 0): (((1, 0, 1), Fraction(7, 2)), ((2, 0, 1), Fraction(-2))),
        (0, 0, 2): (
            ((0, 0, 1), Fraction(6)), ((1, 0, 1), Fraction(5, 2)), ((0, 1, 1), None),
            ((0, 0, 3), Fraction(-3, 2)),
        ),
    },
}


def printed_formula(ctx_id: str, bundle_hw: Labels) -> tuple | None:
    """The printed summands of one bundle, ``((weight, coefficient or None), ...)``, if any."""
    return PRINTED_FORMULAS.get(ctx_id, {}).get(bundle_hw)


def _check_multiplicity_free(deco) -> list[Irrep]:
    """The summands of ``deco`` in order; MultiplicityViolation if one repeats."""
    order = [irr for irr, m in deco if m == 1]
    if len(order) < len(deco):
        bad = [(irr.highest_weight, m) for irr, m in deco if m != 1]
        raise MultiplicityViolation(
            f"tensor product is not multiplicity-free: {bad}; "
            "Schur-based identification of the twistor operators is unsound"
        )
    return order


@lru_cache(maxsize=None)
def _weight_table(t: Irrep) -> tuple[dict[Labels, tuple[Labels, int]], int]:
    """T's distinct weights nu, each mapped to (gram . nu, (nu, nu)), and C_T, in gram units.

    Raises :class:`TrivialHolonomyRep` when C_T = 0.
    """
    rs = t.root_system
    c_t = _holonomy_casimir_number(t)
    table = {}
    for nu, _ in weights(t):
        image = tuple(sum(map(mul, row, nu)) for row in rs.gram)
        table[nu] = (image, sum(map(mul, nu, image)))
    return table, c_t


def conformal_summands(ctx: HolonomyContext, e: Irrep) -> tuple[Summand, ...]:
    """The summands E_i of T (x) E in formula order, each with its conformal weight b_i;
    InternalError unless sum dim(E_i) N_i = 0 for the integer numerators N_i of the b_i."""
    if e.root_system != ctx.root_system:
        raise MixedRootSystems(f"{e} does not live on the {ctx.id} root system")
    order = _check_multiplicity_free(tensor(ctx.holonomy_rep, e))
    recorded = printed_formula(ctx.id, e.highest_weight)
    if recorded is not None:
        by_weight = {i.highest_weight: i for i in order}
        if sorted(hw for hw, _ in recorded) != sorted(by_weight):
            raise InternalError(
                f"recorded ordering for {ctx.id} {e.highest_weight} does not "
                "match the computed tensor decomposition"
            )
        order = tuple(by_weight[hw] for hw, _ in recorded)
    table, c_t = _weight_table(ctx.holonomy_rep)
    lam = e.highest_weight
    lam_rho = [c + 1 for c in lam]
    den, dim_g = ctx.n * c_t, ctx.dim_g
    summands, residual = [], 0
    for irr in order:
        entry = table.get(tuple(map(sub, irr.highest_weight, lam)))
        if entry is None:
            raise InternalError(
                f"summand {irr.highest_weight} of T (x) {lam} on {ctx.id} is not the "
                "bundle's highest weight plus a weight of T"
            )
        image, norm = entry
        n = norm + 2 * sum(map(mul, lam_rho, image)) - c_t
        residual += (d := dimension(irr)) * n
        summands.append(Summand(irr, Fraction(dim_g * n, den), d))
    if residual:
        raise InternalError(f"sum dim(E_i) * N_i = {residual} for T (x) {lam} on {ctx.id}, not 0")
    return tuple(summands)


def conformal_weights(ctx: HolonomyContext, e: Irrep) -> WeitzenboeckFormula:
    """Conformal weights b_i of T (x) E and the induced Weitzenboeck formula."""
    summands = conformal_summands(ctx, e)
    return WeitzenboeckFormula(
        context_id=ctx.id,
        bundle=e,
        summands=summands,
        discrepancies=_find_discrepancies(printed_formula(ctx.id, e.highest_weight), summands),
    )


def _find_discrepancies(
    recorded: tuple | None, summands: tuple[Summand, ...]
) -> tuple[Discrepancy, ...]:
    if recorded is None:
        return ()
    cite = citations.CITATIONS["printed-formula"]
    out = []
    for idx, (s, (_, p)) in enumerate(zip(summands, recorded, strict=True), start=1):
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
    """sum_i dim(E_i) * b_i over one common denominator; zero for every correct formula."""
    summands = formula.summands
    den = lcm(*(s.b.denominator for s in summands))
    return Fraction(sum(s.dim * s.b.numerator * (den // s.b.denominator) for s in summands), den)


def to_json_dict(formula: WeitzenboeckFormula) -> dict:
    return {
        "context": formula.context_id,
        "bundle": list(formula.bundle.highest_weight),
        "summands": [
            {
                "weight": list(s.irrep.highest_weight),
                "dim": s.dim,
                "b": fmt_q(s.b),
                "coeff": fmt_neg_q(s.b),
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


def to_table(formula: WeitzenboeckFormula) -> str:
    """ASCII table of the summands, weights and coefficients."""
    lines = [
        f"Weitzenboeck formula on {fmt_w(formula.bundle.highest_weight)} "
        f"[dim {dimension(formula.bundle)}], holonomy {formula.context_id}",
        formula_line(formula),
        "",
        f"{'i':>2}  {'summand':<12} {'dim':>5}  {'b':>8}  {'coeff':>8}",
    ]
    lines += (
        f"{idx:>2}  {fmt_w(s.irrep.highest_weight):<12} {s.dim:>5}  "
        f"{fmt_q(s.b):>8}  {fmt_neg_q(s.b):>8}"
        for idx, s in enumerate(formula.summands, start=1)
    )
    lines.append(f"trace residual: {fmt_q(trace_residual(formula))}")
    if formula.discrepancies:
        lines.append("")
        for d in formula.discrepancies:
            printed = "absent" if d.printed is None else fmt_q(d.printed)
            lines.append(
                f"discrepancy at T{d.index} "
                f"{fmt_w(d.weight)}: computed {fmt_q(d.computed)}, "
                f"printed {printed} -- {d.note}"
            )
    return "\n".join(lines)
