"""Seeded request stream of the ``session`` workload.

A request is a plain tuple; the package only ever sees the inputs the
child process builds from it.  The same seed gives the same stream.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product

STREAM_SIZE = 3000

# kind -> share of the stream in percent
MIX = {"conformal": 40, "casimir": 20, "prove": 20, "form_space": 10, "dimension": 10}

# context id -> (rank, dimension n of the holonomy representation)
SESSION_CONTEXTS = {
    "g2": (2, 7),
    "spin7": (3, 8),
    "so5": (2, 5),
    "so6": (3, 6),
    "so7": (3, 7),
    "so8": (4, 8),
}
PROVER_CONTEXTS = ("g2", "spin7")
FORM_CLASSES = ("twistor", "killing", "star-killing")
DIM_ALGEBRAS = (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4))


def weights_upto(rank: int, total: int) -> list[tuple[int, ...]]:
    """All dominant weights of a rank with coordinate sum <= total."""
    return [w for w in product(range(total + 1), repeat=rank) if sum(w) <= total]


def make_stream(seed: int) -> list[tuple]:
    """Requests, each one of:

    ("conformal", ctx, hw)   conformal_weights + to_json_dict, sum(hw) <= 3
    ("casimir", ctx, hw)     casimir_lambda2, sum(hw) <= 4
    ("prove", ctx, p, cls)   prove_degree + degree_report_json on g2/spin7
    ("form_space", ctx, p)   form_space, 0 <= p <= n
    ("dimension", family, rank, hw)  dimension, sum(hw) <= 4
    """
    rng = random.Random(seed)
    # exact shares, so seeds differ in order and inputs but not in mix
    kinds = [kind for kind, percent in MIX.items() for _ in range(STREAM_SIZE * percent // 100)]
    rng.shuffle(kinds)
    ctx_ids = list(SESSION_CONTEXTS)
    out: list[tuple] = []
    for kind in kinds:
        if kind == "dimension":
            family, rank = rng.choice(DIM_ALGEBRAS)
            out.append((kind, family, rank, rng.choice(weights_upto(rank, 4))))
        elif kind == "prove":
            ctx = rng.choice(PROVER_CONTEXTS)
            n = SESSION_CONTEXTS[ctx][1]
            out.append((kind, ctx, rng.randint(1, n - 1), rng.choice(FORM_CLASSES)))
        else:
            ctx = rng.choice(ctx_ids)
            rank, n = SESSION_CONTEXTS[ctx]
            if kind == "form_space":
                out.append((kind, ctx, rng.randint(0, n)))
            else:
                limit = 3 if kind == "conformal" else 4
                out.append((kind, ctx, rng.choice(weights_upto(rank, limit))))
    return out


def digest(stream: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(stream).encode()).hexdigest()[:16]


def repeat_share(stream: list[tuple]) -> float:
    """Share of requests whose exact input appeared earlier in the stream."""
    return 1 - len(set(stream)) / len(stream)
