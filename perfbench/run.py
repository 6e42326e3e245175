"""holoweitz benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.  Standard library only.

    python3 perfbench/run.py --workload paper|session|ladder --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; a fuller record
(per-workload figures, sample counts, environment) goes to
.perfbench/result-<workload>-<seed>-trace<t>.json and, for traced runs,
the spans to .perfbench/trace-<workload>-<seed>.json.  See README.md.

One parent process runs at most one child process at a time, and each
child is a closed loop with a single client.  Every timing is scaled to
a fixed host speed by a reference loop timed around it (speed.py).  The
exit status is 0 only when every answer passed its check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import CACHED, LADDER, case_metric  # noqa: E402
from spans import self_time_by  # noqa: E402
import checks  # noqa: E402
import speed  # noqa: E402
import stream  # noqa: E402

WORKLOADS = ("paper", "session", "ladder")
SETUP_PROBES = 15
PAPER_PAIRS = 5  # traced/untraced pairs behind each overhead ratio
SESSION_PAIRS = 2
RUN_BUDGET_S = 170.0  # children still running at this point of a run are killed
CLI_TIMEOUT_S = 60.0
SESSION_TIMEOUT_S = 120.0
CASE_TIMEOUT_S = 20.0

PAPER_COMMANDS = {
    "selftest": ["selftest"],
    "theorem_spin7": ["theorem", "--holonomy", "spin7", "--format", "json"],
    "theorem_g2": ["theorem", "--holonomy", "g2", "--format", "json"],
}
PAPER_SPANS = (
    "roots.build_root_system",
    "contexts.make_context",
    "irreps.full_weights",
    "contexts.form_space",
    "decompose.tensor",
    "weitzenboeck.conformal_weights",
    "prover.prove_theorems",
    "selftest.run_selftest",
)
# the call that answers each kind of session request
SESSION_CALLS = (
    "irreps.casimir_lambda2",
    "irreps.dimension",
    "weitzenboeck.conformal_weights",
    "prover.prove_degree",
    "contexts.form_space",
)
CASE_COUNTS = {
    "irreps.weight_system": ("dominant_weights",),
    "decompose.tensor": ("summands",),
    "decompose.exterior_power": ("subsets", "summands"),
    "weitzenboeck.conformal_weights": ("summands",),
}


END_TO_END = ("setup_s", "queries_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb")


def per_layer_names() -> list[str]:
    """Every metric a traced run reports, in report order."""
    names = [f"{span}_ms" for span in PAPER_SPANS] + ["cli.overhead_ms"]
    for fn in SESSION_CALLS:
        names += [f"{fn}.{m}" for m in ("p50_ms", "p99_ms", "busy_s", "calls")]
    for module, fn in CACHED:
        names += [f"{module}.{fn}.hit_ratio", f"{module}.{fn}.misses"]
    for name, (span, _, _) in LADDER.items():
        names.append(case_metric(name))
        names += [f"ladder.{name}.{count}" for count in CASE_COUNTS[span]]
    return names + [f"trace.{w}.overhead_ratio" for w in WORKLOADS]


@dataclass
class ChildRun:
    """Outcome of one child process: spawn stamp, wall time, the factor
    that scales it to the reference speed, peak RSS, exit, output."""

    start: float
    wall_s: float
    factor: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str

    def failure(self) -> str | None:
        if self.timed_out:
            return f"timed out after {self.wall_s:.1f} s"
        if self.returncode != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {self.returncode} {tail[0]}"
        return None


class Bench:
    def __init__(self, seed: int, seconds: float, out_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", NO_COLOR="1")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.issued: list[str] = []  # commands and cases, in the order sent
        self.factors: list[float] = []  # speed factor around each child
        self.run_end = time.perf_counter() + RUN_BUDGET_S

    def spawn(self, args: list[str], timeout: float) -> ChildRun:
        """Run one child to completion, or kill it at the timeout.

        Waits on a pidfd so the wall time ends when the child exits, and
        reaps with wait4 to read the child's own peak RSS.  Reference
        readings before the spawn and after the reap give the factor.
        """
        timeout = max(0.0, min(timeout, self.run_end - time.perf_counter()))
        out_path = self.out_dir / "child.out"
        err_path = self.out_dir / "child.err"
        before = speed.ref_s()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    exited = bool(select.select([pidfd], [], [], timeout)[0])
                finally:
                    os.close(pidfd)
                wall = time.perf_counter() - start
                if not exited:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        factor = speed.factor(before, speed.ref_s())
        self.factors.append(factor)
        return ChildRun(
            start,
            wall,
            factor,
            usage.ru_maxrss / 1024,
            proc.returncode,
            not exited,
            out_path.read_text(),
            err_path.read_text(),
        )

    def child(self, *args: str, timeout: float) -> ChildRun:
        return self.spawn([str(HERE / "child.py"), *args], timeout)

    def record(self, label: str, run: ChildRun, count: int = 1) -> dict | None:
        """Count ``count`` attempted requests answered by a child's JSON
        report; return the report, or None when any of them failed.  A
        child that did not report fails all of its requests."""
        self.attempted += count
        err = run.failure()
        report = None
        if err is None:
            try:
                report = json.loads(run.stdout)
            except json.JSONDecodeError as exc:
                err = f"unreadable report ({exc})"
        errs = [err] if err else report.get("errors", [])
        self.failed += count if err else len(errs)
        self.errors.extend(f"{label}: {e}" for e in errs)
        return None if errs else report

    def setup_s(self, workload: str) -> list[float]:
        """Spawn-to-ready times of fresh interpreters, after one warm-up
        that leaves the bytecode cache filled."""
        times = []
        for i in range(SETUP_PROBES + 1):
            run = self.child("setup", workload, timeout=CLI_TIMEOUT_S)
            report = self.record(f"setup {workload}", run)
            if report is not None and i > 0:
                times.append((report["ready"] - run.start) * run.factor)
        return times

    def cli(self, name: str) -> ChildRun:
        """One cold ``python -m holoweitz`` command, checked on its output."""
        self.issued.append(name)
        run = self.spawn(["-m", "holoweitz", *PAPER_COMMANDS[name]], CLI_TIMEOUT_S)
        self.attempted += 1
        if name == "selftest":
            err = checks.check_selftest(run.returncode, run.stdout)
        else:
            err = checks.check_theorem(run.returncode, run.stdout, name.split("_")[1])
        err = run.failure() or err
        if err:
            self.failed += 1
            self.errors.append(f"cli {name}: {err}")
        return run

    def inputs_info(self) -> dict:
        """Digest, mix and repeat share of the commands or cases issued."""
        return {
            "digest": stream.digest(self.issued),
            "mix": dict(Counter(self.issued)),
            "repeat_share": stream.repeat_share(self.issued),
        }

    def until_deadline(self, one_pass):
        """Repeat whole passes until ``seconds`` have gone by."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < self.seconds:
            passes.append(one_pass())
        return passes

    # --- workloads, tracing off ---------------------------------------------

    def rounds(self, names, run_one):
        """Repeat rounds over ``names``, each round in seeded order, until
        ``seconds`` have gone by.  ``run_one(name)`` returns the request's
        latency in s and its child's peak RSS in MB.  Returns the passes
        and the median latency of each name."""
        per_name = {name: [] for name in names}

        def one_round():
            order = list(names)
            self.rng.shuffle(order)
            lat, rss = [], []
            for name in order:
                latency, rss_mb = run_one(name)
                per_name[name].append(latency)
                lat.append(latency)
                rss.append(rss_mb)
            return {"latencies": lat, "pass_s": sum(lat), "rss_mb": max(rss)}

        passes = self.until_deadline(one_round)
        return passes, {f"{n}_s": statistics.median(v) for n, v in per_name.items()}

    def paper(self):
        """Rounds of the three cold CLI commands."""

        def run_one(name):
            run = self.cli(name)
            return run.wall_s * run.factor, run.rss_mb

        passes, extra = self.rounds(PAPER_COMMANDS, run_one)
        return passes, extra, self.inputs_info()

    def session(self):
        """Fresh processes, each running a whole request stream.  Stream
        i of a run is seeded with 1000 * seed + i: which inputs come cold
        depends on the stream, so a run's median spans several streams."""
        info = {"stream_seeds": [], "digests": [], "repeat_shares": []}
        seeds = itertools.count(1000 * self.seed)

        def one_stream():
            stream_seed = next(seeds)
            info["stream_seeds"].append(stream_seed)
            run = self.child("session", str(stream_seed), "0", timeout=SESSION_TIMEOUT_S)
            report = self.record("session stream", run, stream.STREAM_SIZE)
            if report is None:
                wall = run.wall_s * run.factor
                return {"latencies": [wall], "pass_s": wall, "rss_mb": run.rss_mb}
            info["digests"].append(report["digest"])
            info["repeat_shares"].append(report["repeat_share"])
            info["cache"] = report["cache"]
            return {"latencies": report["latencies"], "pass_s": report["stream_s"], "rss_mb": run.rss_mb}

        passes = self.until_deadline(one_stream)
        info.update(size=stream.STREAM_SIZE, mix=stream.MIX)
        return passes, {}, info

    def run_case(self, name: str, traced: bool):
        """One ladder case in its own child; a timeout counts in full."""
        self.issued.append(name)
        run = self.child("case", name, "1" if traced else "0", timeout=CASE_TIMEOUT_S)
        report = self.record(f"ladder {name}", run)
        if run.timed_out:
            return CASE_TIMEOUT_S, run, None
        return (report["call_s"] if report else run.wall_s * run.factor), run, report

    def ladder(self):
        """Rounds over all cases."""
        timed_out: list[str] = []

        def run_one(name):
            call_s, run, _ = self.run_case(name, False)
            if run.timed_out:
                timed_out.append(name)
            return call_s, run.rss_mb

        passes, per_case = self.rounds(LADDER, run_one)
        extra = {"ladder_s": statistics.median(p["pass_s"] for p in passes), **per_case}
        return passes, extra, dict(self.inputs_info(), timed_out=timed_out, timeout_s=CASE_TIMEOUT_S)

    # --- traced run ----------------------------------------------------------

    def traced(self) -> tuple[dict, dict]:
        """Per-layer metrics of all three workloads plus tracing overhead.

        Every traced run reports every per-layer metric, so one traced
        run covers the paper, session and ladder layers.  Each
        workload's overhead is the median ratio of traced to untraced
        time over adjacent pairs of runs.
        """
        metrics: dict = {}
        trace: dict = {"processes": [], "layer_self_s": {}}

        def keep(label, spans):
            trace["processes"].append({"label": label, "spans": spans})
            own = trace["layer_self_s"]
            for layer, s in self_time_by(spans, lambda n: n.split(".")[0]).items():
                own[layer] = own.get(layer, 0.0) + s

        self._trace_paper(metrics, keep)
        self._trace_session(metrics, keep)
        self._trace_ladder(metrics, keep)
        return {name: metrics.get(name) for name in per_layer_names()}, trace

    def _trace_paper(self, metrics: dict, keep):
        """In-process corpus in traced/untraced pairs, each pair followed
        by one cold CLI selftest."""
        untraced, ratios, spans, k = [], [], [], 1.0
        parent_spans, cold = [], []
        for i in range(PAPER_PAIRS):
            totals = {}
            for traced in _pair_order(i):
                run = self.child("paper", "1" if traced else "0", timeout=CLI_TIMEOUT_S)
                report = self.record("paper in-process", run)
                if report:
                    totals[traced] = report["total_s"]
                    if traced:
                        spans, k = report["spans"], report["factor"]
            if len(totals) == 2:
                untraced.append(totals[False])
                ratios.append(totals[True] / totals[False] - 1)
            run = self.cli("selftest")
            parent_spans.append(("cli.selftest", run.start, run.start + run.wall_s, None, i))
            cold.append(run.wall_s * run.factor)
        keep("paper", spans)
        keep("parent", parent_spans)
        own = self_time_by(spans, lambda n: n)
        for name in PAPER_SPANS:
            metrics[f"{name}_ms"] = own.get(name, 0.0) * k * 1e3
        if ratios:
            metrics["cli.overhead_ms"] = (_median(cold) - _median(untraced)) * 1e3
            metrics["trace.paper.overhead_ratio"] = statistics.median(ratios)

    def _trace_session(self, metrics: dict, keep):
        """The seeded stream in traced/untraced pairs; the layer figures
        come from the last traced stream."""
        ratios = []
        for i in range(SESSION_PAIRS):
            pair = {}
            for traced in _pair_order(i):
                run = self.child("session", str(self.seed), "1" if traced else "0", timeout=SESSION_TIMEOUT_S)
                pair[traced] = self.record("session stream", run, stream.STREAM_SIZE)
            if not all(pair.values()):
                return
            ratios.append(pair[True]["stream_s"] / pair[False]["stream_s"] - 1)
        traced = pair[True]
        spans, k = traced["spans"], traced["factor"]
        keep("session", spans)
        own = {name: s * k for name, s in self_time_by(spans, lambda n: n).items()}
        durations: dict[str, list[float]] = {}
        for name, start, end, _, _ in spans:
            durations.setdefault(name, []).append((end - start) * k)
        for fn in SESSION_CALLS:
            d = durations.get(fn, [])
            metrics[f"{fn}.p50_ms"] = _percentile(d, 50) * 1e3 if d else 0.0
            metrics[f"{fn}.p99_ms"] = _percentile(d, 99) * 1e3 if d else 0.0
            metrics[f"{fn}.busy_s"] = own.get(fn, 0.0)
            metrics[f"{fn}.calls"] = len(d)
        for module, fn in CACHED:
            info = traced["cache"][f"{module}.{fn}"]
            if info is None:  # the function no longer has a cache
                continue
            calls = info["hits"] + info["misses"]
            metrics[f"{module}.{fn}.hit_ratio"] = info["hits"] / calls if calls else 0.0
            metrics[f"{module}.{fn}.misses"] = info["misses"]
        metrics["trace.session.overhead_ratio"] = statistics.median(ratios)

    def _trace_ladder(self, metrics: dict, keep):
        """Every case as one traced/untraced pair, cases in seeded order."""
        names = list(LADDER)
        self.rng.shuffle(names)
        ratios = []
        for i, name in enumerate(names):
            call_s, reports = {}, {}
            for traced in _pair_order(i):
                call_s[traced], _, reports[traced] = self.run_case(name, traced)
            ratios.append(call_s[True] / call_s[False] - 1)
            metrics[case_metric(name)] = call_s[True]
            report = reports[True]
            if report:
                keep(f"ladder {name}", report["spans"])
                for count in CASE_COUNTS[LADDER[name][0]]:
                    metrics[f"ladder.{name}.{count}"] = report["counts"][count]
        metrics["trace.ladder.overhead_ratio"] = statistics.median(ratios)


def _pair_order(i: int) -> tuple[bool, bool]:
    """Whether each run of the i-th traced/untraced pair is traced.  The
    traced run goes second in even pairs and first in odd ones, so a
    steady drift of host speed cancels in the median of the pair ratios."""
    return (False, True) if i % 2 == 0 else (True, False)


def _median(values):
    return statistics.median(values) if values else None


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile, as numpy's default."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    """Throughput and latency percentiles within each pass, then the
    median across passes."""
    return {
        "setup_s": _median(setup),
        "queries_per_s": statistics.median(len(p["latencies"]) / p["pass_s"] for p in passes),
        "latency_p50_ms": statistics.median(_percentile(p["latencies"], 50) for p in passes) * 1e3,
        "latency_p99_ms": statistics.median(_percentile(p["latencies"], 99) for p in passes) * 1e3,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def tail(passes: list[dict]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    pooled = [x for p in passes for x in p["latencies"]]
    n = len(pooled)
    if n <= 10:
        return {"samples": n, "percentile": None, "value_ms": None}
    q = 100 * (1 - 10 / n)
    return {"samples": n, "percentile": q, "value_ms": _percentile(pooled, q) * 1e3}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_per_s": "1/s", "calls": "count", "misses": "count",
         "_ratio": "ratio", "dominant_weights": "count", "subsets": "count", "summands": "count"}


def unit_of(name: str) -> str:
    for suffix in sorted(UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return UNITS[suffix]
    raise ValueError(f"no unit for metric {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "holoweitz" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    bench = Bench(args.seed, args.seconds, out_dir)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }
    if args.trace:
        metrics, trace = bench.traced()
        trace["metrics"] = metrics
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(trace))
    else:
        setup = bench.setup_s(args.workload)
        passes, extra, info = getattr(bench, args.workload)()
        metrics = end_to_end(setup, passes)
        record.update(
            setup_samples_s=setup,
            info=info,
            per_workload=extra,
            tail=tail(passes),
            passes=[
                {"pass_s": p["pass_s"], "requests": len(p["latencies"]), "rss_mb": p["rss_mb"]}
                for p in passes
            ],
        )

    failed = bench.failed
    record.update(
        speed_factors={
            "median": _median(bench.factors),
            "min": min(bench.factors, default=None),
            "max": max(bench.factors, default=None),
        },
        attempted=bench.attempted,
        failed=failed,
        failed_ratio=failed / max(bench.attempted, 1),
        errors=bench.errors[:50],
        metrics=metrics,
    )
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for err in bench.errors[:20]:
        print(f"FAIL {err}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
