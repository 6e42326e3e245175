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
    "content",
    [None, "{not json", json.dumps({"entries": [{"highest_weight": [0, 0, 2]}]})],
    ids=["missing-file", "not-json", "entry-without-context"],
)
def test_bad_registry_file_is_a_usage_error(capsys, tmp_path, content):
    reg = tmp_path / "reg.json"
    if content is not None:
        reg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["prove", "--holonomy", "spin7", "--degree", "4", "--class", "twistor",
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
