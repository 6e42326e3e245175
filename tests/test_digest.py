"""Byte pins of the warm library path's JSON: prover reports and Weitzenboeck formulas.

``golden.json`` covers the published tables and the theorem claim sets,
but not the prover's trace strings nor formulas outside the paper.  The
digests below were recorded with b_i computed from three Casimir numbers
per summand, before the pairing formula, and pin
``json.dumps(..., sort_keys=True)`` of

  * every ``degree_report_json`` (g2 and spin7, all three form classes,
    every degree 1..n-1, traces included), and
  * ``to_json_dict`` of every bundle with coordinate sum <= 3 in the six
    contexts of the benchmark's ``session`` stream.

A changed digest means some rendered byte moved.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product

from holoweitz.contexts import make_context
from holoweitz.irreps import Irrep
from holoweitz.prover import FormClass, degree_report_json, prove_degree
from holoweitz.weitzenboeck import conformal_weights, to_json_dict

PROVER_DIGEST = "150ee66537bd5e9fe05ebd930f49fec2cc57375a7dea9cd3f30bec1aed649a85"
FORMULA_DIGEST = "5be5a3281619527788fe4c25789ba7ccce99b86dc07c95a0404e859a600ec45c"

FORMULA_CONTEXTS = ("g2", "spin7", "so5", "so6", "so7", "so8")


def digest(docs: list) -> str:
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def test_every_degree_report_is_byte_pinned():
    docs = []
    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        for form_class in FormClass:
            docs += [degree_report_json(prove_degree(ctx, p, form_class)) for p in range(1, ctx.n)]
    assert len(docs) == 3 * (6 + 7)
    assert digest(docs) == PROVER_DIGEST


def test_every_small_formula_is_byte_pinned():
    docs = []
    for ctx_id in FORMULA_CONTEXTS:
        ctx = make_context(ctx_id)
        rank = ctx.root_system.rank
        for hw in product(range(4), repeat=rank):
            if sum(hw) <= 3:
                docs.append(to_json_dict(conformal_weights(ctx, Irrep(ctx.root_system, hw))))
    assert len(docs) == 10 + 20 + 10 + 20 + 20 + 35
    assert digest(docs) == FORMULA_DIGEST
