"""Command line front end.

Weights are always given in fundamental coordinates as comma-separated
non-negative integers in ASCII digits, spaces around each allowed;
``--degree`` takes the same digits with an optional leading minus.
Casimir eigenvalues follow the convention Cas = sum X_i^2, so they are
negative (zero only on the trivial representation); most references use
the opposite sign.

Every handler but ``selftest`` returns its answer twice, as a JSON
document and as table text; ``main`` alone writes, either the one that
``--format`` picks or an ``error[...]`` line on stderr.

Exit status: 0 on success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import prover, selftest, weitzenboeck
from .contexts import HolonomyContext, form_space, load_registry, make_context, normalize_context_id
from .decompose import Decomposition, exterior_power, tensor
from .errors import HoloweitzError
from .fmt import deco_json, fmt_q, fmt_w
from .irreps import Irrep, casimir_lambda2, dimension
from .prover import FormClass, prove_degree, prove_theorems
from .roots import build_root_system

_ALGEBRA_RE = re.compile(r"^([ABCDGabcdg])([0-9]+)$")

SIGN_NOTE = (
    "Casimir sign convention: Cas = sum X_i^2, eigenvalues are <= 0 "
    "(most references use the opposite sign)."
)


def _color_enabled() -> bool:
    return sys.stdout is not None and sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _mark(ok: bool) -> str:
    text = "PASS" if ok else "FAIL"
    if _color_enabled():
        return f"\033[32m{text}\033[0m" if ok else f"\033[31m{text}\033[0m"
    return text


def _is_integer(raw: str) -> bool:
    """ASCII digits with an optional leading minus, spaces around them allowed.

    int() alone would also read "1_0" as 10, and a non-ASCII digit such as
    U+0663 (Arabic-Indic three) as 3.
    """
    digits = raw.strip().removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _parse_weight(parser: argparse.ArgumentParser, raw: str, rank: int) -> tuple[int, ...]:
    parts = raw.split(",")
    if not all(map(_is_integer, parts)):
        parser.error(f"weight {raw!r} is not a comma-separated integer list")
    coords = tuple(int(c) for c in parts)
    if len(coords) != rank:
        parser.error(f"weight {raw!r} has {len(coords)} coordinates, expected {rank}")
    if any(c < 0 for c in coords):
        parser.error(f"weight {raw!r} must have non-negative coordinates")
    return coords


def _glue_negative_weights(argv: list[str]) -> list[str]:
    """Join ``--weight -1,0`` into ``--weight=-1,0``, after any long option without ``=``.

    argparse reads a value that starts with ``-`` and is not a plain negative
    number as an option, so the weight would never reach its own message.
    Gluing to whatever long option precedes it, abbreviated or not, leaves
    argparse to resolve the abbreviation itself.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        long_option = prev[:2] == "--" and prev[2:3].isalpha() and "=" not in prev
        if long_option and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _degree(raw: str) -> int:
    if not _is_integer(raw):
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    return int(raw)


def _algebra(parser: argparse.ArgumentParser, raw: str):
    m = _ALGEBRA_RE.match(raw.strip())
    if not m:
        parser.error(f"algebra {raw!r} must look like G2, A2, B3, C3 or D4")
    try:
        return build_root_system(m.group(1).upper(), int(m.group(2)))
    except HoloweitzError as exc:
        parser.error(str(exc))


def _context(parser: argparse.ArgumentParser, args) -> HolonomyContext:
    try:
        extra = ()
        registry_path = getattr(args, "registry", None)
        if registry_path:
            grouped = load_registry(registry_path)
            extra = grouped.get(normalize_context_id(args.holonomy), ())
        return make_context(args.holonomy, extra)
    except HoloweitzError as exc:
        parser.error(str(exc))


def _deco_table(title: str, deco: Decomposition, total_label: str) -> str:
    lines = [title, f"{'weight':<14} {'mult':>4} {'dim':>6}"]
    for irr, m in deco:
        lines.append(f"{fmt_w(irr.highest_weight):<14} {m:>4} {dimension(irr):>6}")
    lines.append(f"total dimension {deco.total_dimension()} {total_label}".rstrip())
    return "\n".join(lines)


def _cmd_dim(parser, args) -> tuple[dict, str]:
    rs = _algebra(parser, args.algebra)
    hw = _parse_weight(parser, args.weight, rs.rank)
    value = dimension(Irrep(rs, hw))
    return {"value": value}, f"dim {fmt_w(hw)} on {rs.family}{rs.rank} = {value}"


def _cmd_casimir(parser, args) -> tuple[dict, str]:
    ctx = _context(parser, args)
    hw = _parse_weight(parser, args.weight, ctx.root_system.rank)
    value = fmt_q(casimir_lambda2(ctx, Irrep(ctx.root_system, hw)))
    text = f"Casimir eigenvalue of {fmt_w(hw)} on {ctx.id}: {value}\n{SIGN_NOTE}"
    return {"value": value}, text


def _cmd_tensor(parser, args) -> tuple[dict, str]:
    rs = _algebra(parser, args.algebra)
    left = _parse_weight(parser, args.left, rs.rank)
    right = _parse_weight(parser, args.right, rs.rank)
    deco = tensor(Irrep(rs, left), Irrep(rs, right))
    title = f"{fmt_w(left)} (x) {fmt_w(right)} on {rs.family}{rs.rank}"
    expected = dimension(Irrep(rs, left)) * dimension(Irrep(rs, right))
    document = {
        "algebra": f"{rs.family}{rs.rank}",
        "left": list(left),
        "right": list(right),
        "entries": deco_json(deco),
        "total_dim": deco.total_dimension(),
    }
    return document, _deco_table(title, deco, f"= {expected}")


def _cmd_exterior(parser, args) -> tuple[dict, str]:
    if args.holonomy and (args.algebra or args.weight):
        parser.error("exterior takes --holonomy alone, or --algebra together with --weight")
    if args.holonomy:
        ctx = _context(parser, args)
        t = ctx.holonomy_rep
        label = f"{args.degree}-forms of {ctx.id}"
        deco = form_space(ctx, args.degree)
    elif args.algebra and args.weight:
        rs = _algebra(parser, args.algebra)
        hw = _parse_weight(parser, args.weight, rs.rank)
        t = Irrep(rs, hw)
        label = f"Lambda^{args.degree} of {fmt_w(hw)} on {rs.family}{rs.rank}"
        deco = exterior_power(t, args.degree)
    else:
        parser.error("exterior needs --holonomy, or --algebra together with --weight")
    document = {
        "rep": list(t.highest_weight),
        "degree": args.degree,
        "entries": deco_json(deco),
        "total_dim": deco.total_dimension(),
    }
    return document, _deco_table(label, deco, "")


def _cmd_weitzenboeck(parser, args) -> tuple[dict, str]:
    ctx = _context(parser, args)
    hw = _parse_weight(parser, args.bundle, ctx.root_system.rank)
    formula = weitzenboeck.conformal_weights(ctx, Irrep(ctx.root_system, hw))
    if args.quiet:
        formula = formula._replace(discrepancies=())
    return weitzenboeck.to_json_dict(formula), weitzenboeck.to_table(formula)


def _component_text(c) -> list[str]:
    lines = [
        f"  component {fmt_w(c.bundle.highest_weight)} "
        f"[dim {dimension(c.bundle)}]: {c.verdict}"
    ]
    for st in c.statuses:
        lines.append(
            f"    summand {fmt_w(st.summand.highest_weight)}: "
            f"occ(p+1)={st.occ_plus} occ(p-1)={st.occ_minus} killed_by={st.killed_by.value}"
        )
    if c.factor is not None:
        lines.append(f"    integrability factor: {fmt_q(c.factor)}")
    for s in c.survivors:
        residual = "-" if s.residual is None else fmt_q(s.residual)
        lines.append(
            f"    survivor {fmt_w(s.summand.highest_weight)}: "
            f"b={fmt_q(s.b)} residual={residual}"
        )
    for t in c.trace:
        lines.append(f"    [{t.citation}] {t.detail}")
    return lines


def _degree_report_text(r) -> str:
    lines = [
        f"{r.context_id}: {r.form_class.value} {r.degree}-forms -> {r.verdict}",
        f"  hypotheses: {'; '.join(r.hypotheses)}",
    ]
    for t in r.reductions:
        lines.append(f"  [{t.citation}] {t.detail}")
    for c in r.components:
        lines.extend(_component_text(c))
    return "\n".join(lines)


def _cmd_prove(parser, args) -> tuple[dict, str]:
    ctx = _context(parser, args)
    report = prove_degree(ctx, args.degree, FormClass(args.form_class))
    return prover.degree_report_json(report), _degree_report_text(report)


def _cmd_theorem(parser, args) -> tuple[dict, str]:
    ctx = _context(parser, args)
    report = prove_theorems(ctx)
    lines = [f"parallelism claims for {ctx.id} (hypotheses: {'; '.join(report.hypotheses)})"]
    lines += (f"  {cls:<13} p={degree}: {verdict}" for cls, degree, verdict in report.claims)
    lines.append(f"claim set matches the theorem: {_mark(report.matches_expected)}")
    if args.trace:
        lines += ("\n" + _degree_report_text(r) for r in report.reports)
    return prover.theorem_report_json(report), "\n".join(lines)


def _cmd_selftest(parser, args) -> int:
    return selftest.run_selftest(bless=args.bless)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoweitz",
        description=(
            "Exact Weitzenboeck formulas, Casimir eigenvalues and parallelism "
            "proofs for form bundles under special holonomy."
        ),
        epilog=SIGN_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("dim", help="dimension of an irreducible representation")
    p.add_argument("--algebra", required=True, help="simple type, e.g. G2, B3, D4")
    p.add_argument("--weight", required=True, help="fundamental coordinates, e.g. 1,0,1")
    add_format(p)
    p.set_defaults(func=_cmd_dim, parser=p)

    p = sub.add_parser(
        "casimir",
        help="Casimir eigenvalue in the Lambda^2(T) normalization",
        epilog=SIGN_NOTE,
    )
    p.add_argument("--holonomy", required=True, help="context: g2, spin7, so5..so10")
    p.add_argument("--weight", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_casimir, parser=p)

    p = sub.add_parser("tensor", help="tensor product decomposition")
    p.add_argument("--algebra", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_tensor, parser=p)

    p = sub.add_parser("exterior", help="exterior power decomposition")
    p.add_argument("--holonomy", help="context whose holonomy representation is used")
    p.add_argument("--algebra", help="alternative: simple type of an explicit rep")
    p.add_argument("--weight", help="highest weight of the explicit rep")
    p.add_argument("--degree", required=True, type=_degree)
    add_format(p)
    p.set_defaults(func=_cmd_exterior, parser=p)

    p = sub.add_parser("weitzenboeck", help="conformal weights and q(R) formula")
    p.add_argument("--holonomy", required=True)
    p.add_argument("--bundle", required=True, help="fundamental coordinates of E")
    p.add_argument("--quiet", action="store_true", help="suppress discrepancy notes")
    add_format(p)
    p.set_defaults(func=_cmd_weitzenboeck, parser=p)

    p = sub.add_parser("prove", help="parallelism analysis for one degree and class")
    p.add_argument("--holonomy", required=True)
    p.add_argument("--degree", required=True, type=_degree)
    p.add_argument(
        "--class",
        dest="form_class",
        required=True,
        choices=[c.value for c in FormClass],
    )
    p.add_argument("--registry", help="JSON file with extra q(R)-trivial bundles")
    add_format(p)
    p.set_defaults(func=_cmd_prove, parser=p)

    p = sub.add_parser("theorem", help="full parallelism claim set for a context")
    p.add_argument("--holonomy", required=True)
    p.add_argument("--trace", action="store_true", help="print per-degree traces")
    p.add_argument("--registry", help="JSON file with extra q(R)-trivial bundles")
    add_format(p)
    p.set_defaults(func=_cmd_theorem, parser=p)

    p = sub.add_parser("selftest", help="run the golden corpus")
    p.add_argument("--bless", action="store_true", help="regenerate the golden fixtures")
    p.set_defaults(func=_cmd_selftest, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_negative_weights(sys.argv[1:] if argv is None else argv))
    try:
        result = args.func(args.parser, args)
        if isinstance(result, tuple):  # selftest writes its own lines and returns a status
            document, text = result
            print(json.dumps(document, indent=2) if args.format == "json" else text)
            result = 0
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
        return result
    except HoloweitzError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull, so the
        # interpreter's own flush at exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
