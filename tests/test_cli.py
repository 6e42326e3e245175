"""CLI behavior: output formats, exit codes, selftest."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from holoweitz import decompose, irreps, prover, selftest, weitzenboeck
from holoweitz.cli import main
from holoweitz.contexts import make_context
from holoweitz.irreps import Irrep
from holoweitz.roots import MAX_RANK


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_casimir_json(capsys):
    code, out, _ = run(capsys, "casimir", "--holonomy", "g2", "--weight", "2,0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"value": "-28/3"}


def test_casimir_table_documents_sign_convention(capsys):
    code, out, _ = run(capsys, "casimir", "--holonomy", "g2", "--weight", "2,0")
    assert code == 0
    assert "-28/3" in out
    assert "sign convention" in out.lower()


def test_dim_json(capsys):
    code, out, _ = run(capsys, "dim", "--algebra", "B3", "--weight", "1,0,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"value": 48}


def test_dim_of_the_a40_vector_representation(capsys):
    code, out, _ = run(capsys, "dim", "--algebra", "A40", "--weight", "1" + ",0" * 39)
    assert code == 0
    assert out.rstrip().endswith("= 41")


def test_weitzenboeck_table_has_six_rows(capsys):
    code, out, _ = run(
        capsys, "weitzenboeck", "--holonomy", "spin7", "--bundle", "1,0,1", "--format", "table"
    )
    assert code == 0
    for c in ("11/4", "15/4", "23/4", "7/4", "-1/4", "-5/4"):
        assert c in out
    rows = [line for line in out.splitlines() if line.strip().startswith(tuple("123456"))]
    assert len(rows) == 6


def test_weitzenboeck_json_schema(capsys):
    code, out, _ = run(
        capsys, "weitzenboeck", "--holonomy", "spin7", "--bundle", "0,1,0", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert [s["coeff"] for s in obj["summands"]] == ["5", "3/2", "-1"]
    assert len(obj["discrepancies"]) == 2


def test_weitzenboeck_quiet_suppresses_discrepancies(capsys):
    code, out, _ = run(capsys, "weitzenboeck", "--holonomy", "spin7", "--bundle", "0,1,0", "--quiet")
    assert code == 0
    assert "discrepancy" not in out


def test_tensor_trivial(capsys):
    code, out, _ = run(
        capsys, "tensor", "--algebra", "G2", "--left", "1,0", "--right", "0,0", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == [{"weight": [1, 0], "multiplicity": 1, "dim": 7}]


def test_exterior_by_context_and_by_algebra(capsys):
    code, out, _ = run(capsys, "exterior", "--holonomy", "g2", "--degree", "3", "--format", "json")
    assert code == 0
    assert [e["weight"] for e in json.loads(out)["entries"]] == [[0, 0], [1, 0], [2, 0]]
    code, out, _ = run(
        capsys,
        "exterior", "--algebra", "B3", "--weight", "0,0,1", "--degree", "4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["total_dim"] == 70


def test_theorem_summary(capsys):
    code, out, _ = run(capsys, "theorem", "--holonomy", "g2")
    assert code == 0
    assert "killing" in out and "Parallel" in out
    assert "PASS" in out


def test_theorem_json_matches_expected(capsys):
    code, out, _ = run(capsys, "theorem", "--holonomy", "spin7", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["matches_expected"] is True
    assert {"class": "twistor", "degree": 4, "verdict": "Inconclusive"} in obj["claims"]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_theorem_exits_1_when_the_claim_set_misses_the_theorem(capsys, monkeypatch, fmt):
    monkeypatch.setitem(prover.EXPECTED_PARALLEL, "g2", prover.EXPECTED_PARALLEL["g2"][1:])
    code, out, _ = run(capsys, "theorem", "--holonomy", "g2", "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["matches_expected"] is False
    else:
        assert out.endswith("claim set matches the theorem: FAIL\n")


def test_prove_json_schema(capsys):
    code, out, _ = run(
        capsys, "prove", "--holonomy", "g2", "--degree", "2", "--class", "killing", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["context", "degree", "class", "hypotheses", "reductions", "components", "verdict"]
    assert obj["verdict"] == "Parallel"
    survivors = obj["components"][1]["survivors"]
    assert survivors == [{"weight": [2, 0], "residual": "2/3"}]


def test_usage_errors_exit_2(capsys):
    alone = "exterior takes --holonomy alone, or --algebra together with --weight"
    incomplete = "exterior needs --holonomy, or --algebra together with --weight"
    cases = [
        (["casimir", "--holonomy", "nope", "--weight", "1,0"], ""),
        (["casimir", "--holonomy", "g2", "--weight", "1,0,0"], ""),
        (["casimir", "--holonomy", "g2", "--weight", "1,0", "--bogus"], ""),
        (["exterior", "--holonomy", "nope", "--degree", "2"], ""),
        # --holonomy with --algebra or --weight was answered for the holonomy alone
        (["exterior", "--holonomy", "g2", "--algebra", "B3", "--weight", "0,0,1", "--degree", "2"], alone),
        (["exterior", "--holonomy", "g2", "--weight", "1,0", "--degree", "2"], alone),
        # --algebra without --weight, or neither, names no representation
        (["exterior", "--algebra", "G2", "--degree", "2"], incomplete),
        (["exterior", "--degree", "2"], incomplete),
    ]
    # a negative label keeps its own message, also as a separate argument of every weight option
    negative = "weight '-1,0' must have non-negative coordinates"
    cases += [
        (["dim", "--algebra", "G2", "--weight=-1,0"], negative),
        (["dim", "--algebra", "G2", "--weight", "-1,0"], negative),
        (["casimir", "--holonomy", "g2", "--weight", "-1,0"], negative),
        (["exterior", "--algebra", "G2", "--weight", "-1,0", "--degree", "2"], negative),
        (["tensor", "--algebra", "G2", "--left", "-1,0", "--right", "1,0"], negative),
        (["tensor", "--algebra", "G2", "--left", "1,0", "--right", "-1,0"], negative),
        (["weitzenboeck", "--holonomy", "g2", "--bundle", "-1,0"], negative),
        # an abbreviated option is glued too, and argparse resolves the abbreviation
        (["dim", "--algebra", "G2", "--wei", "-1,0"], negative),
        (["tensor", "--algebra", "G2", "--ri", "-1,0", "--left", "1,0"], negative),
    ]
    # a rank above the cap is refused before the weight is parsed, naming the cap
    cases += [
        (["dim", "--algebra", a, "--weight", "1"],
         f"unsupported root system {a}: type A needs 1 <= rank <= MAX_RANK = {MAX_RANK}")
        for a in (f"A{MAX_RANK + 1}", "A200")
    ]
    # integers are ASCII digits: int() alone reads "1_0" as 10 and the Arabic-Indic "\u0663" as 3
    cases += [
        (["dim", "--algebra", "G2", "--weight", w], f"weight {w!r} is not a comma-separated integer list")
        for w in ("1_0,0", "\u0663,0", "+1,0", "1.0,0")
    ]
    cases += [
        (["exterior", "--holonomy", "g2", "--degree", d], f"argument --degree: invalid int value: {d!r}")
        for d in ("1_0", "\u0663", "+2", "x")
    ]
    for argv, tail in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1].endswith(tail), argv
    # spaces around a label stay allowed
    assert run(capsys, "dim", "--algebra", "G2", "--weight", " 1 , 0 ") == (0, "dim (1,0) on G2 = 7\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["casimir", "--holonomy", "g2", "--weight", "1,0,0"],
        ["dim", "--algebra", "Q2", "--weight", "1,0"],
        ["exterior", "--holonomy", "g2", "--weight", "1,0", "--degree", "2"],
    ],
    ids=["casimir", "dim", "exterior"],
)
def test_usage_error_shows_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: holoweitz {argv[0]} ")
    assert err.splitlines()[-1].startswith(f"holoweitz {argv[0]}: error: ")


def test_domain_errors_exit_1(capsys):
    code, out, err = run(capsys, "exterior", "--algebra", "B3", "--weight", "0,0,1", "--degree", "99")
    assert code == 1
    assert out == ""
    assert "error[DegreeOutOfRange]" in err
    code, out, err = run(capsys, "exterior", "--holonomy", "g2", "--degree", "-1")
    assert (code, out) == (1, "") and "error[DegreeOutOfRange]" in err
    # prove reports a degree outside 1..n-1 with the same class
    for degree in ("8", "-1"):
        code, out, err = run(capsys, "prove", "--holonomy", "g2", "--degree", degree, "--class", "killing")
        assert (code, out) == (1, "") and err == f"error[DegreeOutOfRange]: degree {degree} outside 1..6\n"


def test_an_internal_failure_exits_1_without_a_traceback(capsys, monkeypatch):
    # with every root class lost, Freudenthal's sum is 0 at the first weight below the top
    monkeypatch.setattr(irreps, "_root_classes", lambda rs, zeros: {})
    for cached in (irreps.dominant_multiplicities, decompose.tensor):
        cached.cache_clear()  # a failing call caches nothing
    code, out, err = run(capsys, "tensor", "--algebra", "B3", "--left", "0,1,0", "--right", "1,0,0")
    assert (code, out) == (1, "")
    assert err.startswith("error[InternalError]: Freudenthal failed at (0, 0, 0) for Irrep(B3, (1, 0, 0))")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_selftest_passes_and_detects_mismatch(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("ok ") == 6

    # a blessed-then-corrupted fixture must fail with a diff
    fake = tmp_path / "golden.json"
    monkeypatch.setattr(selftest, "golden_path", lambda: fake)
    code, out, _ = run(capsys, "selftest", "--bless")
    assert code == 0 and fake.exists()
    blob = json.loads(fake.read_text())
    blob["casimir_tables"]["g2"]["2,0"] = "-1/2"
    fake.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL casimir_tables" in out
    assert "-1/2" in out and "-28/3" in out


def test_selftest_missing_fixture_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(selftest, "golden_path", lambda: tmp_path / "nope.json")
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "missing golden fixture" in out


@pytest.mark.parametrize("content", [b'{"casimir_tables": ', b'{"\xff": 1}', b"[]"],
                         ids=["not-json", "not-utf8", "not-an-object"])
def test_selftest_unreadable_fixture_file(capsys, tmp_path, monkeypatch, content):
    fake = tmp_path / "golden.json"
    fake.write_bytes(content)
    monkeypatch.setattr(selftest, "golden_path", lambda: fake)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out.startswith(f"FAIL unreadable golden fixture file {fake}: ")
    assert out.count("\n") == 1


def test_selftest_bless_into_a_missing_directory(capsys, tmp_path, monkeypatch):
    fake = tmp_path / "nope" / "golden.json"
    monkeypatch.setattr(selftest, "golden_path", lambda: fake)
    code, out, _ = run(capsys, "selftest", "--bless")
    assert code == 1
    assert out.startswith(f"FAIL unwritable golden fixture file {fake}: ")
    assert not fake.parent.exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "holoweitz", "casimir", "--holonomy", "spin7",
         "--weight", "2,0,1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": "-85/4"}


# a short table stays in the stdout buffer until the flush; a long trace breaks mid-print
@pytest.mark.parametrize("extra", [[], ["--trace", "--format", "json"]], ids=["table", "json"])
def test_a_closed_stdout_ends_without_a_traceback(extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "holoweitz", "theorem", "--holonomy", "g2", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the child writes anything
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


# with fd 1 closed from the start sys.stdout is None: nothing is written, and the color check
# must not fail in either format
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_stdout_closed_from_the_start_ends_without_a_traceback(fmt):
    proc = subprocess.run(
        [sys.executable, "-m", "holoweitz", "theorem", "--holonomy", "g2", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")


def test_cli_json_outputs_are_byte_deterministic():
    cmd = [sys.executable, "-m", "holoweitz", "prove", "--holonomy", "spin7",
           "--degree", "3", "--class", "twistor", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True).stdout
    b = subprocess.run(cmd, capture_output=True).stdout
    assert a == b and a


def test_no_color_respected(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run(capsys, "theorem", "--holonomy", "g2")
    assert code == 0
    assert "\033[" not in out


def test_theorem_mark_is_colored_on_a_terminal(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    code, out, _ = run(capsys, "theorem", "--holonomy", "g2")
    assert code == 0
    assert out.endswith("claim set matches the theorem: \033[32mPASS\033[0m\n")
    report = prover.prove_theorems(make_context("g2"))
    report = report._replace(reports=report.reports[1:])  # drops the claimed Killing 1-forms
    assert prover.theorem_report_text(report).endswith("\033[31mFAIL\033[0m")


# exact stdout of two table-format commands, so a layout change shows up here
WEITZENBOECK_SPIN7_21_TABLE = (
    "Weitzenboeck formula on (0,1,0) [dim 21], holonomy spin7\n"
    "q(R) = 5 T1*T1 + 3/2 T2*T2 - T3*T3\n"
    "\n"
    " i  summand        dim         b     coeff\n"
    " 1  (0,0,1)          8        -5         5\n"
    " 2  (1,0,1)         48      -3/2       3/2\n"
    " 3  (0,1,1)        112         1        -1\n"
    "trace residual: 0\n"
    "\n"
    "discrepancy at T1 (0,0,1): computed 5, printed 10 -- derived coefficient disagrees with the printed value (Prop. final1 / Prop. final2); the trace identity sum(dim * b) = 0 holds for the derived value only\n"
    "discrepancy at T2 (1,0,1): computed 3/2, printed 3 -- derived coefficient disagrees with the printed value (Prop. final1 / Prop. final2); the trace identity sum(dim * b) = 0 holds for the derived value only\n"
)

PROVE_G2_KILLING_2_TABLE = (
    "g2: killing 2-forms -> Parallel\n"
    "  hypotheses: compact Riemannian manifold; holonomy group exactly the stated one\n"
    "  [Lemma holdeco] a killing form is one iff all its components are\n"
    "  component (1,0) [dim 7]: Parallel\n"
    "    [Cor. ricci (q(R) acts as Ricci curvature on T; the holonomy is Ricci-flat)] q(R) acts trivially on (1,0); any twistor form in this bundle is parallel on a compact manifold\n"
    "  component (0,1) [dim 14]: Parallel\n"
    "    summand (1,0): occ(p+1)=1 occ(p-1)=1 killed_by=Coclosedness\n"
    "    summand (2,0): occ(p+1)=1 occ(p-1)=0 killed_by=None\n"
    "    summand (1,1): occ(p+1)=0 occ(p-1)=0 killed_by=TwistorGap\n"
    "    integrability factor: 2\n"
    "    survivor (2,0): b=-4/3 residual=2/3\n"
    "    [Cor. confW, Eq. (bi)] T (x) (0,1) has summands (1,0), (2,0), (1,1); q(R) = sum(-b_i) T_i*T_i\n"
    "    [§4.2 (the summand occurs in neither adjacent form space)] T3 vanish on every twistor form\n"
    "    [§4.3 (d*u = 0 kills the operators into summands occurring in the (p-1)-forms)] d*u = 0 forces T1u = 0\n"
    "    [§4.2 (pr_i factors through the form space; the nonzero equivariant composition is assumed)] used by the coclosedness rule\n"
    "    [Prop. integrabl] 2 nabla*nabla u = q(R) u for killing 2-forms (n = 7)\n"
    "    [§4.2 (integrate the Weitzenboeck identity over the compact manifold)] 0 = (2 + (-4/3)) ||T2 u||^2; all residuals of one strict sign, so every surviving operator vanishes\n"
    "    [§4.2 (all twistor operators vanish, hence the form is parallel)] the form is parallel\n"
)


def _spin7_21_table():
    s7 = make_context("spin7")
    return weitzenboeck.to_table(weitzenboeck.conformal_weights(s7, Irrep(s7.root_system, (0, 1, 0))))


def _g2_killing_2_text():
    return prover.degree_report_text(prover.prove_degree(make_context("g2"), 2, "killing"))


@pytest.mark.parametrize(
    "argv, render, want",
    [
        (["weitzenboeck", "--holonomy", "spin7", "--bundle", "0,1,0"], _spin7_21_table,
         WEITZENBOECK_SPIN7_21_TABLE),
        (["prove", "--holonomy", "g2", "--degree", "2", "--class", "killing"], _g2_killing_2_text,
         PROVE_G2_KILLING_2_TABLE),
    ],
    ids=["weitzenboeck-spin7-21", "prove-g2-2-killing"],
)
def test_text_output_is_pinned(capsys, argv, render, want):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == want
    # the record's own renderer writes the same bytes, less print's newline
    assert render() == want.removesuffix("\n")


# One digest over what ~40 commands write and return, run in-process through main.
# A usage error (exit 2) contributes only its last stderr line: argparse's usage block
# wraps with the terminal width and changes between Python versions, and --help is left out.
CLI_CORPUS = [
    ["dim", "--algebra", "G2", "--weight", "1,0"],
    ["dim", "--algebra", "B3", "--weight", "1,0,1", "--format", "json"],
    ["casimir", "--holonomy", "g2", "--weight", "2,0"],
    ["casimir", "--holonomy", "spin7", "--weight", "2,0,1", "--format", "json"],
    ["tensor", "--algebra", "G2", "--left", "1,0", "--right", "1,0"],
    ["tensor", "--algebra", "B3", "--left", "0,0,1", "--right", "1,0,0", "--format", "json"],
    ["exterior", "--holonomy", "g2", "--degree", "3"],
    ["exterior", "--holonomy", "spin7", "--degree", "4", "--format", "json"],
    ["exterior", "--algebra", "B3", "--weight", "0,0,1", "--degree", "4"],
    ["exterior", "--algebra", "G2", "--weight", "0,1", "--degree", "2", "--format", "json"],
    ["weitzenboeck", "--holonomy", "spin7", "--bundle", "0,1,0"],
    ["weitzenboeck", "--holonomy", "spin7", "--bundle", "0,1,0", "--format", "json"],
    ["weitzenboeck", "--holonomy", "spin7", "--bundle", "0,1,0", "--quiet"],
    ["weitzenboeck", "--holonomy", "spin7", "--bundle", "0,1,0", "--quiet", "--format", "json"],
    ["weitzenboeck", "--holonomy", "g2", "--bundle", "1,1"],
    ["weitzenboeck", "--holonomy", "so8", "--bundle", "0,1,0,0", "--format", "json"],
    ["prove", "--holonomy", "g2", "--degree", "2", "--class", "killing"],
    ["prove", "--holonomy", "g2", "--degree", "3", "--class", "star-killing", "--format", "json"],
    ["prove", "--holonomy", "spin7", "--degree", "4", "--class", "twistor"],
    ["prove", "--holonomy", "spin7", "--degree", "5", "--class", "twistor", "--format", "json"],
    ["theorem", "--holonomy", "g2"],
    ["theorem", "--holonomy", "g2", "--format", "json"],
    ["theorem", "--holonomy", "spin7"],
    ["theorem", "--holonomy", "spin7", "--format", "json"],
    ["theorem", "--holonomy", "g2", "--trace"],
    ["theorem", "--holonomy", "spin7", "--trace"],
    ["theorem", "--holonomy", "spin7", "--trace", "--format", "json"],
    ["selftest"],
    # domain errors, exit 1
    ["exterior", "--algebra", "B3", "--weight", "0,0,1", "--degree", "99"],
    ["exterior", "--holonomy", "g2", "--degree", "-1", "--format", "json"],
    ["prove", "--holonomy", "g2", "--degree", "8", "--class", "killing"],
    ["prove", "--holonomy", "so7", "--degree", "2", "--class", "killing", "--format", "json"],
    ["theorem", "--holonomy", "so8"],
    # usage errors, exit 2
    [],
    ["theorem"],
    ["casimir", "--holonomy", "nope", "--weight", "1,0"],
    ["dim", "--algebra", "G2", "--weight", "-1,0", "--format", "json"],
    ["exterior", "--holonomy", "g2", "--weight", "1,0", "--degree", "2"],
    ["weitzenboeck", "--holonomy", "g2", "--bundle", "1,0", "--bogus"],
]

CLI_CORPUS_SHA256 = "9c2279e814a6acb2cdf6d3260ab681aa5d9f3641492874961f0ecb6e5d6c77a9"


def test_cli_corpus_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for argv in CLI_CORPUS:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if code == 2:
            err = err.splitlines()[-1]
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == CLI_CORPUS_SHA256
