"""Canonical ASCII serialization of values, decompositions and proof traces.

  * exact rationals: ``fmt_q`` gives ``"-28/3"`` (``"5"`` when integral),
    ``fmt_neg_q`` the same for the negated value;
  * highest weights: ``fmt_w`` gives the display form ``"(1,0,1)"``,
    ``weight_key`` the fixture key ``"1,0,1"``;
  * decompositions: ``deco_json`` gives the list of
    ``{"weight", "multiplicity", "dim"}`` entries, ``deco_views`` a
    command's JSON document around them and its table;
  * proof traces: ``trace_json`` gives the list of
    ``{"rule", "citation", "detail"}`` steps, ``trace_line`` one step's
    ``[citation] detail`` line.

Reports render beside their JSON in :mod:`holoweitz.prover`, formulas in
:mod:`holoweitz.weitzenboeck`.
"""

from __future__ import annotations

from fractions import Fraction

from .irreps import dimension


def fmt_q(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fmt_neg_q(q: Fraction) -> str:
    """``fmt_q(-q)`` without building ``-q``."""
    if q.denominator == 1:
        return str(-q.numerator)
    return f"{-q.numerator}/{q.denominator}"


def weight_key(hw) -> str:
    return ",".join(str(c) for c in hw)


def fmt_w(hw) -> str:
    return f"({weight_key(hw)})"


def deco_json(deco) -> list:
    return [
        {"weight": list(irr.highest_weight), "multiplicity": m, "dim": dimension(irr)}
        for irr, m in deco
    ]


def deco_views(deco, head: dict, title: str, total_label: str = "") -> tuple[dict, str]:
    """``head`` with the decomposition's ``entries`` and ``total_dim``, and its table."""
    entries = deco_json(deco)
    total = sum(e["multiplicity"] * e["dim"] for e in entries)
    lines = [title, f"{'weight':<14} {'mult':>4} {'dim':>6}"]
    lines += (f"{fmt_w(e['weight']):<14} {e['multiplicity']:>4} {e['dim']:>6}" for e in entries)
    lines.append(f"total dimension {total} {total_label}".rstrip())
    return {**head, "entries": entries, "total_dim": total}, "\n".join(lines)


def trace_json(steps) -> list:
    return [{"rule": t.rule, "citation": t.citation, "detail": t.detail} for t in steps]


def trace_line(t) -> str:
    return f"[{t.citation}] {t.detail}"
