"""Canonical ASCII serialization of values for text and JSON output.

Every text or JSON rendering of a value goes through this module:

  * exact rationals: ``fmt_q`` gives ``"-28/3"`` (``"5"`` when integral),
    ``fmt_neg_q`` the same for the negated value;
  * highest weights: ``fmt_w`` gives the display form ``"(1,0,1)"``,
    ``weight_key`` the fixture key ``"1,0,1"``;
  * decompositions: ``deco_json`` gives the list of
    ``{"weight", "multiplicity", "dim"}`` entries;
  * proof traces: ``trace_json`` gives the list of
    ``{"rule", "citation", "detail"}`` steps.
"""

from __future__ import annotations

from fractions import Fraction

from .irreps import dimension


def fmt_q(q: Fraction) -> str:
    if not isinstance(q, Fraction):
        q = Fraction(q)
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


def trace_json(steps) -> list:
    return [{"rule": t.rule, "citation": t.citation, "detail": t.detail} for t in steps]
