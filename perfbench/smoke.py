#!/usr/bin/env python3
"""Smoke test of the benchmark at its smallest sizes; well under a minute.

Run from the repository root:

    python3 perfbench/smoke.py

Checks that every workload runs timed and traced with all answers
correct and exactly the metrics ``BENCHMARK.json`` declares; that grid
counts survive a permuted declaration order and keep ``2v <= com <= adm``;
that a child is killed at its deadline and held to its memory cap; and
that a directory without the solver sources gives no result and a
nonzero exit.  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import launch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from adfsolve.formula import write_adf  # noqa: E402

import generators as gen  # noqa: E402
from references import GridReference  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads(declared: dict) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit code {done.returncode}: {done.stderr[-300:]}")
                continue
            lines = done.stdout.splitlines()
            env = json.loads(lines[-2])["env"]
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: failures {json.loads(lines[-2])['failures']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared[key]}
            if units != wanted:
                problems.append(f"{where}: metrics {units} differ from BENCHMARK.json {wanted}")
            if not {"python", "nproc", "commit"} <= set(env):
                problems.append(f"{where}: environment record {env}")
    return problems


def cli_count(path: Path, semantics: str, workdir: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "adfsolve", "solve", "--sem", semantics, "--count", str(path)]
    outcome = launch.run(argv, env, str(workdir / f"count-{semantics}"), 60.0)
    if outcome.problem():
        raise RuntimeError(f"{path.name} {semantics}: {outcome.problem()}")
    return int(outcome.stdout)


def check_permutation(workdir: Path) -> list[str]:
    """Grid counts: CLI equals reference, permuted order agrees, chain holds."""
    problems = []
    adf = gen.grid_adf(4, 4, seed=7)
    shuffled = gen.permuted(adf, seed=3)
    declared, permuted = workdir / "grid.adf", workdir / "grid-permuted.adf"
    declared.write_text(write_adf(adf), encoding="utf-8")
    permuted.write_text(write_adf(shuffled), encoding="utf-8")
    reference = GridReference(adf).counts()
    counts = {}
    for sem in ("adm", "com", "2v"):
        counts[sem] = cli_count(declared, sem, workdir)
        if counts[sem] != reference[sem]:
            problems.append(f"grid {sem}: CLI {counts[sem]}, reference {reference[sem]}")
        if cli_count(permuted, sem, workdir) != counts[sem]:
            problems.append(f"grid {sem}: permuted declaration order changes the count")
    if not counts["2v"] <= counts["com"] <= counts["adm"]:
        problems.append(f"grid counts break 2v <= com <= adm: {counts}")
    return problems


def check_limits(workdir: Path) -> list[str]:
    problems = []
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    outcome = launch.run(sleeper, dict(os.environ), str(workdir / "sleep"), 0.5)
    if not outcome.timed_out or outcome.seconds > 5:
        problems.append(f"deadline: child not killed in time ({outcome.seconds:.1f} s)")
    # asks for more address space than the cap allows, so it fails without using memory
    hog = [sys.executable, "-c", f"bytearray({launch.MEMORY_CAP_BYTES + (1 << 30)})"]
    outcome = launch.run(hog, dict(os.environ), str(workdir / "hog"), 30.0)
    if outcome.exit_code == 0 or outcome.timed_out:
        problems.append("memory cap: an over-cap allocation succeeded")
    return problems


def check_bare_directory(workdir: Path) -> list[str]:
    """Only BENCHMARK.json and the benchmark: no result, nonzero exit."""
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_bench("grid-build", 0, cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        return ["a directory without the solver sources still printed a result"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch_root))
    checks = {
        "workloads": lambda: check_workloads(declared),
        "permutation": lambda: check_permutation(workdir),
        "limits": lambda: check_limits(workdir),
        "bare directory": lambda: check_bare_directory(workdir),
    }
    failed = False
    try:
        for name, check in checks.items():
            problems = check()
            failed = failed or bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {name}")
            for problem in problems:
                print(f"  {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
