"""Run one CLI call as a child process under a deadline and a memory cap.

The child's address space is capped with ``RLIMIT_AS`` (set in the child
before it executes), its stdout goes to a file, and the parent blocks in
``os.wait4`` so the child's peak RSS comes back with its exit status.  A
``SIGALRM`` timer kills the child at the deadline, and the same wait
then reaps it.  No threads are involved.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import time
from dataclasses import dataclass

MEMORY_CAP_BYTES = 2 << 30


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: str
    stderr: str

    def problem(self) -> str | None:
        if self.timed_out:
            return "killed at the deadline"
        if self.exit_code != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {self.exit_code}: {tail[0][:120]}"
        return None


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run(argv: list[str], env: dict, scratch: str, deadline_s: float) -> Outcome:
    """Run ``argv`` to completion or until ``deadline_s`` seconds pass."""
    out_path, err_path = scratch + ".out", scratch + ".err"
    fired = []

    def on_alarm(signum, frame):
        fired.append(True)
        try:
            os.kill(child.pid, signal.SIGKILL)
        except ProcessLookupError:  # already reaped
            pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            child = subprocess.Popen(
                argv, stdout=out, stderr=err, env=env, preexec_fn=_cap_memory
            )
            signal.setitimer(signal.ITIMER_REAL, max(deadline_s, 0.001))
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - started
            # tell Popen the child is reaped, so it never waits for it again
            child.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Outcome(
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=child.returncode,
        timed_out=bool(fired) and child.returncode == -signal.SIGKILL,
        stdout=stdout,
        stderr=stderr,
    )
