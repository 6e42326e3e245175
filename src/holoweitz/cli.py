"""Command line front end.

Weights are always given in fundamental coordinates as comma-separated
non-negative integers.  Casimir eigenvalues follow the convention
Cas = sum X_i^2, so they are negative (zero only on the trivial
representation); most references use the opposite sign.

Exit status: 0 on success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import prover, selftest, weitzenboeck
from .contexts import form_space, load_registry, make_context, normalize_context_id
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
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _mark(ok: bool) -> str:
    text = "PASS" if ok else "FAIL"
    if _color_enabled():
        return f"\033[32m{text}\033[0m" if ok else f"\033[31m{text}\033[0m"
    return text


def _parse_weight(parser: argparse.ArgumentParser, raw: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(c) for c in raw.split(","))
    except ValueError:
        parser.error(f"weight {raw!r} is not a comma-separated integer list")
    if len(coords) != rank:
        parser.error(f"weight {raw!r} has {len(coords)} coordinates, expected {rank}")
    if any(c < 0 for c in coords):
        parser.error(f"weight {raw!r} must have non-negative coordinates")
    return coords


def _algebra(parser: argparse.ArgumentParser, raw: str):
    m = _ALGEBRA_RE.match(raw.strip())
    if not m:
        parser.error(f"algebra {raw!r} must look like G2, A2, B3, C3 or D4")
    try:
        return build_root_system(m.group(1).upper(), int(m.group(2)))
    except HoloweitzError as exc:
        parser.error(str(exc))


def _context(parser: argparse.ArgumentParser, args) -> "make_context":
    try:
        extra = ()
        registry_path = getattr(args, "registry", None)
        if registry_path:
            grouped = load_registry(registry_path)
            extra = grouped.get(normalize_context_id(args.holonomy), ())
        return make_context(args.holonomy, extra)
    except HoloweitzError as exc:
        parser.error(str(exc))


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _deco_table(title: str, deco: Decomposition, total_label: str) -> str:
    lines = [title, f"{'weight':<14} {'mult':>4} {'dim':>6}"]
    for irr, m in deco:
        lines.append(f"{fmt_w(irr.highest_weight):<14} {m:>4} {dimension(irr):>6}")
    lines.append(f"total dimension {deco.total_dimension()} {total_label}".rstrip())
    return "\n".join(lines)


def _cmd_dim(parser, args) -> int:
    rs = _algebra(parser, args.algebra)
    hw = _parse_weight(parser, args.weight, rs.rank)
    value = dimension(Irrep(rs, hw))
    if args.format == "json":
        _print_json({"value": value})
    else:
        print(f"dim {fmt_w(hw)} on {rs.family}{rs.rank} = {value}")
    return 0


def _cmd_casimir(parser, args) -> int:
    ctx = _context(parser, args)
    hw = _parse_weight(parser, args.weight, ctx.root_system.rank)
    value = casimir_lambda2(ctx, Irrep(ctx.root_system, hw))
    if args.format == "json":
        _print_json({"value": fmt_q(value)})
    else:
        print(f"Casimir eigenvalue of {fmt_w(hw)} on {ctx.id}: {fmt_q(value)}")
        print(SIGN_NOTE)
    return 0


def _cmd_tensor(parser, args) -> int:
    rs = _algebra(parser, args.algebra)
    left = _parse_weight(parser, args.left, rs.rank)
    right = _parse_weight(parser, args.right, rs.rank)
    deco = tensor(Irrep(rs, left), Irrep(rs, right))
    if args.format == "json":
        _print_json(
            {
                "algebra": f"{rs.family}{rs.rank}",
                "left": list(left),
                "right": list(right),
                "entries": deco_json(deco),
                "total_dim": deco.total_dimension(),
            }
        )
    else:
        title = f"{fmt_w(left)} (x) {fmt_w(right)} on {rs.family}{rs.rank}"
        expected = dimension(Irrep(rs, left)) * dimension(Irrep(rs, right))
        print(_deco_table(title, deco, f"= {expected}"))
    return 0


def _cmd_exterior(parser, args) -> int:
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
    if args.format == "json":
        _print_json(
            {
                "rep": list(t.highest_weight),
                "degree": args.degree,
                "entries": deco_json(deco),
                "total_dim": deco.total_dimension(),
            }
        )
    else:
        print(_deco_table(label, deco, ""))
    return 0


def _cmd_weitzenboeck(parser, args) -> int:
    ctx = _context(parser, args)
    hw = _parse_weight(parser, args.bundle, ctx.root_system.rank)
    formula = weitzenboeck.conformal_weights(ctx, Irrep(ctx.root_system, hw))
    if args.format == "json":
        obj = weitzenboeck.to_json_dict(formula)
        if args.quiet:
            obj["discrepancies"] = []
        _print_json(obj)
    else:
        print(weitzenboeck.to_table(formula, quiet=args.quiet))
    return 0


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


def _cmd_prove(parser, args) -> int:
    ctx = _context(parser, args)
    report = prove_degree(ctx, args.degree, FormClass(args.form_class))
    if args.format == "json":
        _print_json(prover.degree_report_json(report))
    else:
        print(_degree_report_text(report))
    return 0


def _cmd_theorem(parser, args) -> int:
    ctx = _context(parser, args)
    report = prove_theorems(ctx)
    if args.format == "json":
        _print_json(prover.theorem_report_json(report))
        return 0
    print(f"parallelism claims for {ctx.id} (hypotheses: {'; '.join(report.hypotheses)})")
    for cls, degree, verdict in report.claims:
        print(f"  {cls:<13} p={degree}: {verdict}")
    print(f"claim set matches the theorem: {_mark(report.matches_expected)}")
    if args.trace:
        for r in report.reports:
            print()
            print(_degree_report_text(r))
    return 0


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
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser(
        "casimir",
        help="Casimir eigenvalue in the Lambda^2(T) normalization",
        epilog=SIGN_NOTE,
    )
    p.add_argument("--holonomy", required=True, help="context: g2, spin7, so5..so10")
    p.add_argument("--weight", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_casimir)

    p = sub.add_parser("tensor", help="tensor product decomposition")
    p.add_argument("--algebra", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("exterior", help="exterior power decomposition")
    p.add_argument("--holonomy", help="context whose holonomy representation is used")
    p.add_argument("--algebra", help="alternative: simple type of an explicit rep")
    p.add_argument("--weight", help="highest weight of the explicit rep")
    p.add_argument("--degree", required=True, type=int)
    add_format(p)
    p.set_defaults(func=_cmd_exterior)

    p = sub.add_parser("weitzenboeck", help="conformal weights and q(R) formula")
    p.add_argument("--holonomy", required=True)
    p.add_argument("--bundle", required=True, help="fundamental coordinates of E")
    p.add_argument("--quiet", action="store_true", help="suppress discrepancy notes")
    add_format(p)
    p.set_defaults(func=_cmd_weitzenboeck)

    p = sub.add_parser("prove", help="parallelism analysis for one degree and class")
    p.add_argument("--holonomy", required=True)
    p.add_argument("--degree", required=True, type=int)
    p.add_argument(
        "--class",
        dest="form_class",
        required=True,
        choices=[c.value for c in FormClass],
    )
    p.add_argument("--registry", help="JSON file with extra q(R)-trivial bundles")
    add_format(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("theorem", help="full parallelism claim set for a context")
    p.add_argument("--holonomy", required=True)
    p.add_argument("--trace", action="store_true", help="print per-degree traces")
    p.add_argument("--registry", help="JSON file with extra q(R)-trivial bundles")
    add_format(p)
    p.set_defaults(func=_cmd_theorem)

    p = sub.add_parser("selftest", help="run the golden corpus")
    p.add_argument("--bless", action="store_true", help="regenerate the golden fixtures")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except HoloweitzError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
