"""Child process of the benchmark: one fresh interpreter per measurement.

    child.py setup <workload>            import + build contexts, report time
    child.py session <seed> <trace>      the session request stream
    child.py case <name> <trace>         one ladder case
    child.py paper <trace>               the paper corpus, bottom-up in-process

Each mode prints one JSON object on stdout.  Answers are checked after
the timed interval, so checking never counts as request time; the
package sees only the generated inputs.  Reported durations are scaled
to the reference speed (see speed.py) by reference readings taken in
this process around the timed interval, and ``factor`` is the scale of
the whole child.  ``ready`` is a raw ``perf_counter`` stamp, which on
Linux reads the system-wide monotonic clock, so the parent can subtract
its own spawn stamp from it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction

import speed

# name -> (span name, algebra or context id, arguments)
LADDER = {
    "ws_b3_333": ("irreps.weight_system", ("B", 3), ((3, 3, 3),)),
    "ws_d4_2111": ("irreps.weight_system", ("D", 4), ((2, 1, 1, 1),)),
    "tensor_b3_222x212": ("decompose.tensor", ("B", 3), ((2, 2, 2), (2, 1, 2))),
    "ext_b4_vector_4": ("decompose.exterior_power", ("B", 4), ((1, 0, 0, 0), 4)),
    "ext_b4_spin_3": ("decompose.exterior_power", ("B", 4), ((0, 0, 0, 1), 3)),
    "ext_g2_27_4": ("decompose.exterior_power", ("G", 2), ((2, 0), 4)),
    "weitz_so10_adjoint": ("weitzenboeck.conformal_weights", "so10", ((0, 1, 0, 0, 0),)),
}

PAPER_CONTEXTS = ("g2", "spin7")

# session requests between two reference readings, about 0.1 s
CHUNK = 50

# the caches whose hit ratios the session reports
CACHED = (
    ("irreps", "weight_system"),
    ("irreps", "full_weights"),
    ("irreps", "dimension"),
    ("decompose", "tensor"),
    ("decompose", "exterior_power"),
    ("contexts", "form_space"),
)


def case_metric(name: str) -> str:
    """Per-layer metric of a ladder case, e.g. irreps.weight_system.b3_333_s."""
    return f"{LADDER[name][0]}.{name.split('_', 1)[1]}_s"


def _setup(workload: str):
    """Import the package and build what the workload's first call needs."""
    import holoweitz

    if workload == "paper":
        return {c: holoweitz.make_context(c) for c in PAPER_CONTEXTS}
    if workload == "session":
        from stream import DIM_ALGEBRAS, SESSION_CONTEXTS

        built = {c: holoweitz.make_context(c) for c in SESSION_CONTEXTS}
        built.update({a: holoweitz.build_root_system(*a) for a in DIM_ALGEBRAS})
        return built
    built = {}
    for _, where, _ in LADDER.values():
        if isinstance(where, str):
            built[where] = holoweitz.make_context(where)
        else:
            built[where] = holoweitz.build_root_system(*where)
    return built


def _tracer(traced: bool):
    from spans import Tracer, untraced_call

    tracer = Tracer() if traced else None
    return tracer, (tracer.call if tracer else untraced_call)


def _decomposition(deco) -> list:
    return [(irr.highest_weight, m) for irr, m in deco]


def _weitz_summands(doc: dict) -> list:
    return [(tuple(s["weight"]), Fraction(s["b"])) for s in doc["summands"]]


def run_session(seed: int, traced: bool) -> dict:
    import holoweitz
    from holoweitz import contexts, irreps, prover, weitzenboeck

    built = _setup("session")
    ready = time.perf_counter()

    import checks
    import stream as gen

    requests = gen.make_stream(seed)
    tracer, call = _tracer(traced)
    Irrep = holoweitz.Irrep

    def conformal(rid, ctx_id, hw):
        ctx = built[ctx_id]
        e = call("irreps.Irrep", rid, Irrep, ctx.root_system, hw)
        f = call("weitzenboeck.conformal_weights", rid, weitzenboeck.conformal_weights, ctx, e)
        return call("weitzenboeck.to_json_dict", rid, weitzenboeck.to_json_dict, f)

    def casimir(rid, ctx_id, hw):
        ctx = built[ctx_id]
        e = call("irreps.Irrep", rid, Irrep, ctx.root_system, hw)
        return call("irreps.casimir_lambda2", rid, irreps.casimir_lambda2, ctx, e)

    def prove(rid, ctx_id, p, cls):
        ctx = built[ctx_id]
        form_class = prover.FormClass(cls)
        r = call("prover.prove_degree", rid, prover.prove_degree, ctx, p, form_class)
        return call("prover.degree_report_json", rid, prover.degree_report_json, r)

    def form_space(rid, ctx_id, p):
        return call("contexts.form_space", rid, contexts.form_space, built[ctx_id], p)

    def dimension(rid, family, rank, hw):
        e = call("irreps.Irrep", rid, Irrep, built[(family, rank)], hw)
        return call("irreps.dimension", rid, irreps.dimension, e)

    handlers = {
        "conformal": conformal,
        "casimir": casimir,
        "prove": prove,
        "form_space": form_space,
        "dimension": dimension,
    }
    answers: list = []
    latencies: list[float] = []
    errors: list[str] = []
    refs = [speed.ref_s()]
    stream_s = 0.0
    for first in range(0, len(requests), CHUNK):
        chunk: list[float] = []
        start = time.perf_counter()
        for rid in range(first, min(first + CHUNK, len(requests))):
            req = requests[rid]
            t0 = time.perf_counter()
            try:
                if tracer:
                    with tracer.span("session.request", rid):
                        out = handlers[req[0]](rid, *req[1:])
                else:
                    out = handlers[req[0]](rid, *req[1:])
            except Exception as exc:  # a failed request is recorded, not fatal
                out = exc
            chunk.append(time.perf_counter() - t0)
            answers.append(out)
        chunk_s = time.perf_counter() - start
        refs.append(speed.ref_s(1))
        k = speed.factor(refs[-2], refs[-1])
        latencies += [x * k for x in chunk]
        stream_s += chunk_s * k

    cache = {}
    for module, fn in CACHED:
        info = getattr(getattr(getattr(holoweitz, module), fn), "cache_info", None)
        cache[f"{module}.{fn}"] = None if info is None else info()._asdict()

    expected = prover.EXPECTED_PARALLEL
    for req, out in zip(requests, answers):
        kind, args = req[0], req[1:]
        if isinstance(out, Exception):
            errors.append(f"{req}: {type(out).__name__}: {out}")
            continue
        if kind == "conformal":
            err = checks.check_weitzenboeck(args[0], args[1], _weitz_summands(out))
        elif kind == "casimir":
            err = checks.check_casimir(args[0], args[1], out)
        elif kind == "prove":
            err = checks.check_verdict(expected[args[0]], args[2], args[1], out["verdict"])
        elif kind == "form_space":
            algebra, t = checks.CONTEXTS[args[0]]
            err = checks.check_exterior(algebra, t, args[1], _decomposition(out))
        else:
            err = checks.check_dimension((args[0], args[1]), args[2], out)
        if err:
            errors.append(err)

    return {
        "ready": ready,
        "stream_s": stream_s,
        "factor": speed.REF_S / statistics.median(refs),
        "kinds": [req[0] for req in requests],
        "latencies": latencies,
        "errors": errors,
        "cache": cache,
        "digest": gen.digest(requests),
        "repeat_share": gen.repeat_share(requests),
        "spans": tracer.spans if tracer else None,
    }


def run_case(name: str, traced: bool) -> dict:
    from math import comb

    import holoweitz
    from holoweitz import decompose, irreps, roots, weitzenboeck

    import checks

    span, where, args = LADDER[name]
    if isinstance(where, str):
        ctx = holoweitz.make_context(where)
        rs = ctx.root_system
        algebra = checks.CONTEXTS[where][0]
    else:
        rs = holoweitz.build_root_system(*where)
        algebra = where
    fn_name = span.split(".")[1]
    if fn_name == "weight_system":
        fn, fn_args = irreps.weight_system, (holoweitz.Irrep(rs, args[0]),)
    elif fn_name == "tensor":
        fn, fn_args = decompose.tensor, tuple(holoweitz.Irrep(rs, hw) for hw in args)
    elif fn_name == "exterior_power":
        fn, fn_args = decompose.exterior_power, (holoweitz.Irrep(rs, args[0]), args[1])
    else:
        fn, fn_args = weitzenboeck.conformal_weights, (ctx, holoweitz.Irrep(rs, args[0]))
    tracer, call = _tracer(traced)

    result, call_s, _ = speed.timed(
        call, span, 0, fn, *fn_args, mark=tracer.span if tracer else None
    )

    if fn_name == "weight_system":
        dominant = [
            (tuple(int(c) for c in roots.to_fundamental(rs, w)), m) for w, m in result.items()
        ]
        counts = {"dominant_weights": len(result)}
        err = checks.check_weight_system(algebra, args[0], dominant)
    elif fn_name == "tensor":
        counts = {"summands": len(result)}
        err = checks.check_tensor(algebra, args[0], args[1], _decomposition(result))
    elif fn_name == "exterior_power":
        n = checks.weyl_dim(*algebra, args[0])
        counts = {"subsets": comb(n, args[1]), "summands": len(result)}
        err = checks.check_exterior(algebra, args[0], args[1], _decomposition(result))
    else:
        doc = weitzenboeck.to_json_dict(result)
        counts = {"summands": len(result.summands)}
        err = checks.check_weitzenboeck(where, args[0], _weitz_summands(doc))
    return {
        "call_s": call_s,
        "counts": counts,
        "errors": [err] if err else [],
        "spans": tracer.spans if tracer else None,
    }


def run_paper(traced: bool) -> dict:
    """The selftest corpus called bottom-up, so each layer is warm when
    the one above it runs and each span holds mostly its own layer's work."""
    import holoweitz
    from holoweitz import contexts, decompose, irreps, prover, roots, selftest, weitzenboeck

    import checks

    tracer, call = _tracer(traced)
    lines: list[str] = []

    def corpus():
        built = {}
        for ctx_id in PAPER_CONTEXTS:
            (family, rank), _ = checks.CONTEXTS[ctx_id]
            call("roots.build_root_system", 0, roots.build_root_system, family, rank)
        for ctx_id in PAPER_CONTEXTS:
            built[ctx_id] = call("contexts.make_context", 0, contexts.make_context, ctx_id)
        for ctx in built.values():
            call("irreps.full_weights", 0, irreps.full_weights, ctx.holonomy_rep)
        for ctx in built.values():
            for p in range(ctx.n + 1):
                call("contexts.form_space", 0, contexts.form_space, ctx, p)
        bundles = {
            c: [holoweitz.Irrep(built[c].root_system, hw) for hw in selftest.FORMULA_WEIGHTS[c]]
            for c in PAPER_CONTEXTS
        }
        for ctx_id, ctx in built.items():
            for e in bundles[ctx_id]:
                call("decompose.tensor", 0, decompose.tensor, ctx.holonomy_rep, e)
        for ctx_id, ctx in built.items():
            for e in bundles[ctx_id]:
                call("weitzenboeck.conformal_weights", 0, weitzenboeck.conformal_weights, ctx, e)
        for ctx in built.values():
            call("prover.prove_theorems", 0, prover.prove_theorems, ctx)
        return call("selftest.run_selftest", 0, selftest.run_selftest, False, lines.append)

    status, total_s, k = speed.timed(corpus, mark=tracer.span if tracer else None)
    err = checks.check_selftest(status, "\n".join(lines))
    return {
        "total_s": total_s,
        "factor": k,
        "errors": [err] if err else [],
        "spans": tracer.spans if tracer else None,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        _setup(argv[1])
        out = {"ready": time.perf_counter()}
    elif mode == "session":
        out = run_session(int(argv[1]), argv[2] == "1")
    elif mode == "case":
        out = run_case(argv[1], argv[2] == "1")
    elif mode == "paper":
        out = run_paper(argv[1] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(out, sys.stdout, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
