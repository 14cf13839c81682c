"""Shared plumbing for the benchmark: the program, timing and statistics.

The benchmark drives the program only through its public entry points
(``weblint``, ``weblint-daemon``, ``poacher``), run from the checkout's
``src`` tree with the interpreter that runs the benchmark.  CPU time and
peak memory come from ``RUSAGE_CHILDREN``, which accumulates every
program process (workers included) once it has been waited for.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Where runs keep their generated inputs and program state.
WORK_DIR = ".perfbench_work"

#: One operation that takes longer than this is a failure (hung program).
OP_TIMEOUT_S = 60.0

ENTRY_POINTS = {
    "weblint": "repro.cli",
    "poacher": "repro.robot.cli",
    "weblint-daemon": "repro.daemon.cli",
}


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> dict[str, str]:
    """Environment for program subprocesses: only the checkout's code,
    and none of the program's own environment switches."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("WEBLINT_")
        and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def command(entry_point: str, *args: str) -> list[str]:
    return [sys.executable, "-m", ENTRY_POINTS[entry_point], *args]


@dataclass
class Completed:
    code: int
    stdout: str
    stderr: str
    wall_s: float


def run(argv: Sequence[str], cwd: Path, timeout_s: float = OP_TIMEOUT_S) -> Completed:
    """Run one program invocation to completion; never raises on failure."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            list(argv),
            cwd=cwd,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills and reaps the child before re-raising; a
        # hung program reads as exit code -1, a failed operation.
        return Completed(-1, _text(exc.stdout), _text(exc.stderr),
                         time.perf_counter() - start)
    return Completed(done.returncode, done.stdout, done.stderr,
                     time.perf_counter() - start)


def _text(data) -> str:
    if data is None:
        return ""
    return data.decode("utf-8", "replace") if isinstance(data, bytes) else data


class ChildUsage:
    """CPU seconds and peak RSS of every waited-for descendant so far."""

    def __init__(self) -> None:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    @staticmethod
    def cpu_since(before: "ChildUsage") -> float:
        return ChildUsage().cpu_s - before.cpu_s


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in 0..100 (numpy's default)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# -- results ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports.

    ``attempted``/``failed`` count operations (an invocation, a request,
    a recrawl); a failed oracle or cross-mode check also marks the run
    incorrect.  ``lines`` are human-readable notes printed before the
    result line.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        """Record a failed check (the first few are kept for the log)."""
        if len(self.problems) < 20:
            self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.lines.append(text)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def result_line(self, names: Sequence[str]) -> dict:
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        }


@contextlib.contextmanager
def scratch_dir(label: str) -> Iterator[Path]:
    """A private working directory inside the checkout, removed afterwards."""
    base = ROOT / WORK_DIR
    path = base / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run still uses it
            pass


def write_documents(directory: Path, documents) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for document in documents:
        (directory / document.name).write_text(document.text, encoding="utf-8")
