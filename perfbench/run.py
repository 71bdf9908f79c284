#!/usr/bin/env python3
"""Benchmark of the adfsolve command line on generated models.

Run from the repository root:

    python3 perfbench/run.py --workload grid-build --seed 1 --seconds 35 --trace 0

One client runs a closed loop: each query is one ``python -m adfsolve
solve`` child process on a generated ``.adf`` file, and the next query
starts when the previous one has ended.  Every answer is checked against
a reference computed without the diagram engine (see ``references``).

``--trace 0`` times passes over the workload's query list until
``--seconds`` are used and reports the end-to-end metrics.  ``--trace 1``
answers every query through the CLI and again in-process, split into
spans at layer boundaries (see ``spans``), and reports per-layer
metrics; the traced answers must equal the CLI's.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment
and the sample counts, and spans go to ``.perfbench_out/``.  Without
``src/adfsolve`` next to this directory the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import launch

ROOT = Path(__file__).resolve().parent.parent
# solver sources; main() puts them on sys.path once it has found them, so
# the modules that import the solver are imported inside functions
SRC = ROOT / "src"

WORKLOADS = ("grid-build", "peel-select", "free-sample")

SETUPS = 3  # setups per run; setup_s is their median
STARTUP_RUNS = 5  # CLI runs on the example that give cli.startup_s
QUERY_DEADLINE_S = 60.0
RUN_BUDGET_S = 150.0  # after this every query is killed at once, so a run ends well within 180 s

# the three-argument model from the README; two preferred interpretations
EXAMPLE = "s(a). s(b). s(c).\nac(a, c(v)).\nac(b, or(neg(a), c)).\nac(c, b).\n"
EXAMPLE_PRF_COUNT = "2"

END_TO_END = {
    "wall_s": "s",
    "query_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

TIMED_LAYERS = (
    "formula.parse_s",
    "encoding.compile_s",
    "encoding.dual_s",
    "semantics.conjoin_s",
    "semantics.peel_s",
    "semantics.restrict_s",
    "semantics.grounded_s",
    "solutions.count_s",
    "solutions.sample_s",
    "solutions.enumerate_s",
)

PER_LAYER = {
    **{name: "s" for name in TIMED_LAYERS},
    "encoding.nodes": "count",
    "semantics.conjoin_nodes": "count",
    "semantics.peel_nodes": "count",
    "semantics.peel_rounds": "count",
    "bdd.nodes_total": "count",
    "bdd.cache_entries": "count",
    "bdd.live_ratio": "ratio",
    "solutions.samples_per_s": "1/s",
    "solutions.enumerated_per_s": "1/s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "inproc_s": "s",
    "semantics.conjoin_share": "ratio",
    "semantics.peel_share": "ratio",
    "solutions.read_share": "ratio",
    "trace.overhead_frac": "ratio",
}


def source_digest() -> str:
    """Hash of the solver sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


class Bench:
    """One run: setup, then timed or traced passes over one workload."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.hard_stop = time.perf_counter() + RUN_BUDGET_S
        self.workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failures: list[str] = []

    # -- queries --------------------------------------------------------

    def cli(self, args: list[str], tag: str) -> launch.Outcome:
        deadline = min(QUERY_DEADLINE_S, self.hard_stop - time.perf_counter())
        argv = [sys.executable, "-m", "adfsolve", *args]
        return launch.run(argv, self.env, str(self.workdir / tag), deadline)

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def example(self, tag: str) -> float:
        """Count the example's preferred interpretations; returns CLI seconds."""
        path = self.workdir / "example.adf"
        outcome = self.cli(["solve", "--sem", "prf", "--count", str(path)], tag)
        problem = outcome.problem()
        if problem is None and outcome.stdout.strip() != EXAMPLE_PRF_COUNT:
            problem = f"count {outcome.stdout.strip()!r}, expected {EXAMPLE_PRF_COUNT}"
        self.record(f"example prf count ({tag})", problem)
        return outcome.seconds

    # -- setup ----------------------------------------------------------

    def setup(self):
        """Generate models and references, write the files, warm the CLI."""
        from adfsolve.formula import write_adf

        from workloads import BUILDERS

        started = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        workload = BUILDERS[self.workload](self.seed, self.smoke)
        for name, adf in workload.models.items():
            (self.workdir / name).write_text(write_adf(adf), encoding="utf-8")
        (self.workdir / "example.adf").write_text(EXAMPLE, encoding="utf-8")
        self.example("warm")
        return workload, time.perf_counter() - started

    # -- timed passes ---------------------------------------------------

    def timed(self, workload, seconds: float, setup_s: float) -> tuple[dict, dict]:
        from workloads import check

        latencies: list[list[float]] = [[] for _ in workload.queries]  # per query, one per pass
        walls: list[float] = []
        peak_rss = 0.0
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            outcomes = [
                self.cli(query.cli_args(str(self.workdir / query.model)), f"q{i}")
                for i, (query, _) in enumerate(workload.queries)
            ]
            walls.append(time.perf_counter() - pass_started)
            for i, ((query, expected), outcome) in enumerate(zip(workload.queries, outcomes)):
                latencies[i].append(outcome.seconds)
                peak_rss = max(peak_rss, outcome.rss_mb)
                self.record(query.label(), outcome.problem() or check(query, expected, outcome.stdout))
            now = time.perf_counter()
            if now - started + statistics.mean(walls) > seconds or now >= self.hard_stop:
                break
        # a pass's wall time is the sum of its query latencies; summing each
        # query's median over the passes keeps one slow moment from moving it
        metrics = {
            "wall_s": sum(statistics.median(q) for q in latencies),
            "query_p50_s": statistics.median(x for q in latencies for x in q),
            "peak_rss_mb": peak_rss,
            "setup_s": setup_s,
        }
        info = {
            "passes": len(walls),
            "queries_per_pass": len(workload.queries),
            "latency_samples": len(walls) * len(workload.queries),
        }
        return metrics, info

    # -- traced passes --------------------------------------------------

    def traced(self, workload, seconds: float) -> tuple[dict, dict]:
        from spans import Tracer

        startup_s = statistics.median(self.example(f"startup{i}") for i in range(STARTUP_RUNS))
        passes: list[dict] = []
        span_log: list[list[dict]] = []
        durations: list[float] = []
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            tracer = Tracer()
            rows = [
                row
                for qid, (query, expected) in enumerate(workload.queries)
                if (row := self.traced_query(qid, query, expected, tracer)) is not None
            ]
            passes.append(layer_metrics(tracer.spans, rows, startup_s))
            span_log.append([span.as_dict() for span in tracer.spans])
            durations.append(time.perf_counter() - pass_started)
            now = time.perf_counter()
            if now - started + statistics.mean(durations) > seconds or now >= self.hard_stop:
                break
        metrics = {name: statistics.median(p[name] for p in passes) for name in PER_LAYER}
        info = {"passes": len(passes), "queries_per_pass": len(workload.queries), "spans": span_log}
        return metrics, info

    def traced_query(self, qid: int, query, expected, tracer) -> Row | None:
        """CLI answer, then the traced and the plain in-process answer."""
        from spans import replay, untraced
        from workloads import check

        path = self.workdir / query.model
        outcome = self.cli(query.cli_args(str(path)), f"q{qid}")
        problem = outcome.problem() or check(query, expected, outcome.stdout)
        # the replays run unbounded in this process, so only answers the CLI
        # gave correctly, and only when the replays should end before the budget
        if problem is None and time.perf_counter() + 2 * outcome.seconds > self.hard_stop:
            problem = "no time left to replay it in-process"
        if problem is not None:
            self.record(query.label(), problem)
            return None
        text = path.read_text(encoding="utf-8")
        try:
            gc.collect()
            replayed = replay(query, text, tracer, qid)
            gc.collect()
            plain_s = untraced(query, text)
        except Exception as exc:  # a solver bug must not end the run unreported
            self.record(query.label(), f"in-process replay raised {exc!r}")
            return None
        self.record(query.label(), same_answer(query, replayed, outcome.stdout))
        return Row(qid, query, outcome.seconds, replayed, plain_s)


@dataclass
class Row:
    """One traced query: its CLI seconds, its replay and its untraced seconds."""

    qid: int
    query: object
    cli_s: float
    replayed: object
    plain_s: float


def same_answer(query, replayed, stdout: str) -> str | None:
    """None when the in-process replay printed what the CLI printed."""
    from workloads import listed_lines

    if query.action == "count" and not query.json:
        cli_count, cli_lines = int(stdout.strip()), None
    else:
        cli_count, cli_lines = listed_lines(query, stdout)
    if cli_count is not None and cli_count != replayed.count:
        return f"traced count {replayed.count} differs from the CLI's {cli_count}"
    if cli_lines is not None and cli_lines != replayed.lines:
        return "traced solutions differ from the CLI's"
    return None


def layer_metrics(spans, rows: list[Row], startup_s: float) -> dict:
    """Per-layer sums over the queries of one traced pass that answered correctly."""
    from spans import LAYER_OF_CALL

    counted = {row.qid for row in rows}
    seconds: dict[str, float] = defaultdict(float)
    nodes: dict[str, int] = defaultdict(int)
    query_s: dict[int, float] = {}
    for span in spans:
        if span.query not in counted:
            continue
        if span.name == "query":
            query_s[span.query] = span.end - span.start
            continue
        layer = LAYER_OF_CALL[span.name]
        seconds[layer] += span.end - span.start
        nodes[layer] += span.nodes
    inproc = sum(query_s.values())
    m = {name: seconds[name] for name in TIMED_LAYERS}
    replays = [row.replayed for row in rows]
    sampled = sum(row.replayed.listed for row in rows if row.query.action == "sample")
    enumerated = sum(row.replayed.listed for row in rows if row.query.action == "enumerate")
    peel_inproc = sum(query_s[row.qid] for row in rows if row.query.semantics in ("prf", "stb"))
    m.update(
        {
            "encoding.nodes": nodes["encoding.compile_s"] + nodes["encoding.dual_s"],
            "semantics.conjoin_nodes": nodes["semantics.conjoin_s"],
            "semantics.peel_nodes": nodes["semantics.peel_s"],
            "semantics.peel_rounds": sum(r.rounds for r in replays),
            "bdd.nodes_total": sum(r.store_nodes for r in replays),
            "bdd.cache_entries": sum(r.store_cache for r in replays),
            "bdd.live_ratio": _rate(
                sum(r.result_nodes for r in replays), sum(r.store_nodes for r in replays)
            ),
            "solutions.samples_per_s": _rate(sampled, m["solutions.sample_s"]),
            "solutions.enumerated_per_s": _rate(enumerated, m["solutions.enumerate_s"]),
            "cli.startup_s": startup_s,
            "cli.self_s": sum(row.cli_s - query_s[row.qid] for row in rows),
            "inproc_s": inproc,
            "semantics.conjoin_share": _rate(m["semantics.conjoin_s"], inproc),
            "semantics.peel_share": _rate(m["semantics.peel_s"], peel_inproc),
            "solutions.read_share": _rate(
                m["solutions.sample_s"] + m["solutions.enumerate_s"], inproc
            ),
            "trace.overhead_frac": _rate(inproc, sum(row.plain_s for row in rows)) - 1.0,
        }
    )
    return m


def _rate(amount: float, base: float) -> float:
    return amount / base if base > 0 else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "adfsolve" / "cli.py").is_file():
        print(f"error: no solver sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed, args.smoke)
    try:
        setup_times = []
        for _ in range(SETUPS):
            workload, elapsed = bench.setup()
            setup_times.append(elapsed)
        if args.trace:
            metrics, info = bench.traced(workload, args.seconds)
        else:
            metrics, info = bench.timed(workload, args.seconds, statistics.median(setup_times))
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(bench.failures)
    spans = info.pop("spans", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        **info,
        "failed_frac": failed / bench.attempted,
        "failures": bench.failures[:10],
    }
    if spans is not None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({**record, "spans": spans}), encoding="utf-8")
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
