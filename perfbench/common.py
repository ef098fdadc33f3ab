"""Run scaffolding shared by the workloads: paths, host facts, set-up timing."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: the checkout the benchmark runs in (parent of this package)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: every file a run writes lives under here, removed when the run ends
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: the end-to-end metrics every ``--trace 0`` run reports, with units
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("goodput_frac", "frac"),
    ("plan_cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: set-up is repeated this many times per run and the median reported
SETUP_REPEATS = 5

#: rounds of the host-speed calibration work, and its duration (ns) on
#: a quiet reference host; see :func:`calibrate`
CAL_ROUNDS = 1500
CAL_NOMINAL_NS = 700_000.0


def _calibration_work() -> int:
    """Fixed interpreter work shaped like the optimizer's hot loops.

    Tuple-keyed dict reads and writes, list appends and set membership
    over a working set of a few thousand entries: a tight arithmetic
    loop tracks the optimizer's speed on a contended host far worse.
    """
    table: "dict[tuple[int, int], float]" = {}
    trail = []
    x = 1
    for i in range(CAL_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 2047, i & 3)
        table[key] = table.get(key, 0.0) + (x & 255) * 0.5
        if i & 15 == 0:
            trail.append(key)
    marks = frozenset(trail)
    return sum(1 for key in table if key in marks)


def calibrate() -> float:
    """Host speed factor: 1.0 when the calibration work runs at nominal.

    The host this benchmark was written on changes speed by up to 1.7x
    within seconds (shared cores and caches), and the optimizer slows
    in step with :func:`_calibration_work`.  Timings are divided by the
    factor measured next to them, so run-to-run spread reflects the
    program, not the neighbours.  Call it only while the program under
    test is idle, so the program's own threads cannot slow the work.
    """
    best = None
    for _ in range(2):
        start = time.perf_counter_ns()
        _calibration_work()
        took = time.perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best / CAL_NOMINAL_NS


@dataclass
class Run:
    """One benchmark invocation's arguments and scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tmp: str


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int
    failed: int
    correct: bool
    metrics: "dict[str, tuple[float, str]]"
    detail: "dict[str, Any]" = field(default_factory=dict)


def child_env() -> "dict[str, str]":
    """Environment for subprocesses: the checkout's ``src`` and root first."""
    env = dict(os.environ)
    parts = [SRC, ROOT]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def host_facts() -> "dict[str, Any]":
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def time_setup(once: Callable[[], float]) -> "tuple[float, list[float]]":
    """Median speed-normalized seconds of ``once()`` over SETUP_REPEATS calls.

    ``once()`` returns the host speed factor it ran at.  Returns the
    median and the raw (unnormalized) samples.
    """
    normalized, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        factor = once()
        took = time.perf_counter() - start
        raw.append(took)
        normalized.append(took / factor)
    return statistics.median(normalized), raw


def probe_setup(args: Sequence[str]) -> float:
    """Run the set-up probe in a fresh interpreter; return its speed factor."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.setup_probe", *args],
        cwd=ROOT, env=child_env(), check=True, timeout=60,
        stdout=subprocess.PIPE, text=True,
    )
    return float(done.stdout.split()[0])


def file_bytes(path: str) -> int:
    """Size of a SQLite store including its WAL and shared-memory files."""
    return sum(
        os.path.getsize(p)
        for p in (path, path + "-wal", path + "-shm")
        if os.path.exists(p)
    )


def children(pid: int) -> "list[int]":
    """Direct child processes of ``pid`` (all of its threads' children)."""
    found: "list[int]" = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                found.extend(int(k) for k in fh.read().split())
        except OSError:
            continue
    return found


def alive(pid: int) -> bool:
    """Is ``pid`` a live (not zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
