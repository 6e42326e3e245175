"""CLI behavior: output formats, exit codes, selftest, registry flag."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from holoweitz import selftest
from holoweitz.cli import main


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


def test_prove_with_registry_extension(capsys, tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text(
        json.dumps(
            {
                "entries": [
                    {"context": "g2", "highest_weight": [0, 1], "citation": "testing only"}
                ]
            }
        )
    )
    code, out, _ = run(
        capsys,
        "prove", "--holonomy", "g2", "--degree", "2", "--class", "killing",
        "--registry", str(reg), "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    # with the extension both components close through the registry
    assert all(
        c["trace"][0]["rule"] == "qr-registry" for c in obj["components"]
    )


@pytest.mark.parametrize("spelling", ["spin7", "Spin7", "spin(7)"])
def test_registry_applies_to_every_spelling_of_the_holonomy(capsys, tmp_path, spelling):
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"entries": [{"context": "spin7", "highest_weight": [0, 0, 2]}]}))
    code, out, _ = run(
        capsys,
        "prove", "--holonomy", spelling, "--degree", "4", "--class", "twistor",
        "--registry", str(reg), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Parallel"


@pytest.mark.parametrize(
    "holonomy,content",
    [
        ("spin7", None),
        ("spin7", "{not json"),
        ("spin7", json.dumps({"entries": [{"highest_weight": [0, 0, 2]}]})),
        ("so7", json.dumps({"entries": [{"context": "so7", "highest_weight": [1, 0, 0]}]})),
    ],
    ids=["missing-file", "not-json", "entry-without-context", "non-ricci-flat-holonomy-rep"],
)
def test_bad_registry_file_is_a_usage_error(capsys, tmp_path, holonomy, content):
    reg = tmp_path / "reg.json"
    if content is not None:
        reg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["prove", "--holonomy", holonomy, "--degree", "4", "--class", "twistor",
              "--registry", str(reg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "registry" in err.splitlines()[-1] and "Traceback" not in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["casimir", "--holonomy", "nope", "--weight", "1,0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["casimir", "--holonomy", "g2", "--weight", "1,0,0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["casimir", "--holonomy", "g2", "--weight", "1,0", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["exterior", "--holonomy", "nope", "--degree", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_domain_errors_exit_1(capsys):
    code, out, err = run(capsys, "exterior", "--algebra", "B3", "--weight", "0,0,1", "--degree", "99")
    assert code == 1
    assert out == ""
    assert "error[DegreeOutOfRange]" in err


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "holoweitz", "casimir", "--holonomy", "spin7",
         "--weight", "2,0,1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": "-85/4"}


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


@pytest.mark.parametrize(
    "argv, want",
    [
        (["weitzenboeck", "--holonomy", "spin7", "--bundle", "0,1,0"], WEITZENBOECK_SPIN7_21_TABLE),
        (["prove", "--holonomy", "g2", "--degree", "2", "--class", "killing"], PROVE_G2_KILLING_2_TABLE),
    ],
    ids=["weitzenboeck-spin7-21", "prove-g2-2-killing"],
)
def test_text_output_is_pinned(capsys, argv, want):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == want
