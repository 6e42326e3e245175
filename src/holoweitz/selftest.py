"""Golden-corpus regression: recompute everything and diff against fixtures.

The corpus covers the Casimir tables, the dimension tables, all form
space decompositions, the tensor products behind the Weitzenboeck
formulas, the formulas themselves (with discrepancy annotations) and
both theorem reports.  ``bless`` rewrites the fixture file from the
current computation.
"""

from __future__ import annotations

import json
from pathlib import Path

from .contexts import form_space, make_context
from .decompose import tensor
from .fmt import deco_json, fmt_q, weight_key
from .irreps import Irrep, casimir_lambda2, dimension
from .prover import FormClass, component_json, prove_component, prove_theorems, theorem_report_json
from .weitzenboeck import PRINTED_FORMULAS, conformal_weights, to_json_dict

GOLDEN_RESOURCE = "fixtures/golden.json"

# bundles of the two Casimir/dimension tables
TABLE_WEIGHTS = {
    "g2": [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0)],
    "spin7": [
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (0, 0, 2),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 0),
        (1, 0, 2),
        (2, 0, 1),
        (0, 0, 3),
    ],
}

# bundles carrying a printed Weitzenboeck formula
FORMULA_WEIGHTS = {ctx_id: list(bundles) for ctx_id, bundles in PRINTED_FORMULAS.items()}


def compute_golden() -> dict:
    out: dict = {
        "casimir_tables": {},
        "dimensions": {},
        "form_spaces": {},
        "tensor_products": {},
        "weitzenboeck": {},
        "theorems": {},
    }
    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        rs = ctx.root_system
        out["casimir_tables"][ctx_id] = {
            weight_key(hw): fmt_q(casimir_lambda2(ctx, Irrep(rs, hw)))
            for hw in TABLE_WEIGHTS[ctx_id]
        }
        out["dimensions"][ctx_id] = {
            weight_key(hw): dimension(Irrep(rs, hw)) for hw in TABLE_WEIGHTS[ctx_id]
        }
        out["form_spaces"][ctx_id] = {
            str(p): deco_json(form_space(ctx, p)) for p in range(ctx.n + 1)
        }
        out["tensor_products"][ctx_id] = {
            weight_key(hw): deco_json(tensor(ctx.holonomy_rep, Irrep(rs, hw)))
            for hw in FORMULA_WEIGHTS[ctx_id]
        }
        out["weitzenboeck"][ctx_id] = {
            weight_key(hw): to_json_dict(conformal_weights(ctx, Irrep(rs, hw)))
            for hw in FORMULA_WEIGHTS[ctx_id]
        }
        theorem = theorem_report_json(prove_theorems(ctx))
        out["theorems"][ctx_id] = {k: theorem[k] for k in ("claims", "matches_expected")}

    # the one undecided middle-degree case, pinned with its residuals
    s7 = make_context("spin7")
    case = component_json(
        prove_component(s7, Irrep(s7.root_system, (0, 0, 2)), 4, FormClass.TWISTOR)
    )
    out["theorems"]["spin7"]["open_case_l4_35"] = {k: case[k] for k in ("verdict", "survivors")}
    return out


def golden_path() -> Path:
    return Path(__file__).parent / GOLDEN_RESOURCE


def run_selftest(bless: bool = False, out=print) -> int:
    """Compare the recomputed corpus with the golden fixtures.

    Returns a process exit status: 0 when everything matches (or after
    blessing), 1 on any mismatch or a missing, unreadable or unwritable fixture file.
    """
    current = json.loads(json.dumps(compute_golden()))
    path = golden_path()
    if not (bless or path.exists()):
        out(f"FAIL missing golden fixture file {path}; run 'selftest --bless'")
        return 1
    try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        if bless:
            path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        elif not isinstance(stored := json.loads(path.read_text(encoding="utf-8")), dict):
            raise ValueError(f"expected a JSON object, found {type(stored).__name__}")
    except (OSError, ValueError) as exc:
        out(f"FAIL {'unwritable' if bless else 'unreadable'} golden fixture file {path}: {exc}")
        return 1
    if bless:
        out(f"blessed {len(current)} fixture groups -> {path}")
        return 0
    status = 0
    for group in sorted(set(stored) | set(current)):
        if stored.get(group) == current.get(group):
            out(f"ok {group}")
            continue
        import difflib  # only a mismatch needs it

        status = 1
        out(f"FAIL {group}")
        want = json.dumps(stored.get(group), indent=2, sort_keys=True).splitlines()
        got = json.dumps(current.get(group), indent=2, sort_keys=True).splitlines()
        for line in difflib.unified_diff(want, got, "golden", "computed", lineterm=""):
            out(line)
    return status
