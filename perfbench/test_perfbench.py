"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests start real child processes and take about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import speed
import stream
from child import LADDER
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_stream_is_deterministic_per_seed():
    a, b = stream.make_stream(7), stream.make_stream(7)
    assert a == b
    assert stream.digest(a) == stream.digest(b)
    assert stream.make_stream(8) != a
    assert len(a) == stream.STREAM_SIZE
    assert 0 < stream.repeat_share(a) < 1


def test_stream_follows_the_mix():
    kinds = [req[0] for req in stream.make_stream(3)]
    for kind, percent in stream.MIX.items():
        assert kinds.count(kind) == len(kinds) * percent // 100


def test_metric_names_and_counts():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layers = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(e2e) <= 16 and len(layers) <= 128
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    for name in e2e + layers:
        assert NAME_RE.match(name), name
    assert tuple(e2e) == run.END_TO_END
    assert layers == run.per_layer_names()
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_child_spans():
    spans = [
        ("root", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: covered part of root is 1..6
        ("c", 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_tracer_records_parent_and_request():
    tracer = Tracer()
    with tracer.span("outer", 4):
        assert tracer.call("inner", 4, max, 1, 2) == 2
    (inner, outer) = tracer.spans[1], tracer.spans[0]
    assert outer[0] == "outer" and outer[3] is None and outer[4] == 4
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 4
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_speed_factor_scales_to_the_reference_speed():
    assert speed.factor(speed.REF_S, speed.REF_S) == 1
    # a host at half speed doubles the loop's time, so times are halved
    assert speed.factor(2 * speed.REF_S, 2 * speed.REF_S) == 0.5
    assert speed.factor(speed.REF_S, 3 * speed.REF_S) == 0.5
    assert speed.ref_s(1) > 0


def test_timed_call_is_interrupted_for_readings_and_cleans_up():
    handler = signal.getsignal(signal.SIGALRM)
    calls = []

    def slow():
        calls.append(None)
        time.sleep(3 * speed.PERIOD_S)  # resumed after each reading
        return 42

    result, scaled, k = speed.timed(slow)
    assert result == 42 and calls == [None] and scaled > 0
    assert scaled == pytest.approx(k * 3 * speed.PERIOD_S, rel=0.2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- each check accepts the right answer and fires on a corrupted one -------

B3, G2 = ("B", 3), ("G", 2)


def test_check_dimension():
    assert checks.check_dimension(B3, (1, 0, 1), 48) is None
    assert checks.check_dimension(B3, (1, 0, 1), 47)


def test_check_casimir():
    assert checks.check_casimir("g2", (2, 0), Fraction(-28, 3)) is None
    assert checks.check_casimir("g2", (2, 0), Fraction(-28, 3) + 1)


def test_check_tensor():
    good = [((2, 0), 1), ((0, 1), 1), ((1, 0), 1), ((0, 0), 1)]  # 7 x 7 = 27+14+7+1
    assert checks.check_tensor(G2, (1, 0), (1, 0), good) is None
    assert checks.check_tensor(G2, (1, 0), (1, 0), good[:-1])


def test_check_exterior():
    good = [((1, 0), 1), ((0, 1), 1)]  # Lambda^2 of the 7: 7 + 14
    assert checks.check_exterior(G2, (1, 0), 2, good) is None
    assert checks.check_exterior(G2, (1, 0), 2, [((1, 0), 2)])


def test_check_weight_system():
    good = [((1, 0), 1), ((0, 0), 1)]  # the 7 of G2: 6 short roots + zero
    assert checks.check_weight_system(G2, (1, 0), good) is None
    assert checks.check_weight_system(G2, (1, 0), [((1, 0), 1), ((0, 0), 2)])


def test_check_weitzenboeck():
    # T (x) T on g2: b_i = (c_T + c_T - c_i)/2 with c_T = -4
    good = [((0, 0), Fraction(-4)), ((1, 0), Fraction(-2)), ((0, 1), Fraction(0)),
            ((2, 0), Fraction(2, 3))]
    assert checks.check_weitzenboeck("g2", (1, 0), good) is None
    bad = good[:-1] + [((2, 0), Fraction(1))]
    assert checks.check_weitzenboeck("g2", (1, 0), bad)
    assert checks.check_weitzenboeck("g2", (1, 0), good[1:])


def test_check_verdict():
    expected = (("killing", 1),)
    assert checks.check_verdict(expected, "killing", 1, "Parallel") is None
    assert checks.check_verdict(expected, "killing", 1, "Inconclusive")
    assert checks.check_verdict(expected, "twistor", 3, "Parallel")


def test_check_selftest():
    good = "\n".join(f"ok {g}" for g in checks.SELFTEST_GROUPS) + "\n"
    assert checks.check_selftest(0, good) is None
    assert checks.check_selftest(1, good)
    assert checks.check_selftest(0, good.replace("ok theorems", "FAIL theorems"))
    assert checks.check_selftest(0, good.replace("ok theorems\n", ""))


def test_check_theorem():
    good = json.dumps({"context": "g2", "matches_expected": True})
    assert checks.check_theorem(0, good, "g2") is None
    assert checks.check_theorem(0, good.replace("true", "false"), "g2")
    assert checks.check_theorem(0, good, "spin7")
    assert checks.check_theorem(0, "Traceback", "g2")


# --- smoke runs ---------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload):
    out = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = _run("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == run.per_layer_names()
    trace = json.loads((ROOT / ".perfbench" / "trace-paper-1.json").read_text())
    labels = {p["label"] for p in trace["processes"]}
    assert {"paper", "session", "parent"} <= labels
    assert {f"ladder {name}" for name in LADDER} <= labels


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "paper", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
