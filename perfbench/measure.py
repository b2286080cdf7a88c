"""Calibration, samples and summary statistics.

The machine this benchmark runs on is shared: the speed of a fixed
pure-Python loop drifts by a fifth between runs.  After every sample the
benchmark therefore times a code-independent calibration loop (no runtime
threads or processes are busy at that point) and scales the sample to a
machine on which that loop takes :data:`CALIB_REF_NS`.  Calibrated times
are the reported end-to-end values, except on workloads whose programs
mostly wait on other processes (``Sample.calibrated``); raw times are
reported beside them.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

__all__ = [
    "CALIB_REF_NS",
    "calibrate",
    "calibrate_threads",
    "Sample",
    "percentile",
    "environment",
]

#: calibration-loop time of the reference machine (scaled times are
#: seconds on a machine that runs :func:`calibrate`'s loop this fast)
CALIB_REF_NS = 20_000_000

_CALIB_ITEMS = 20_000
#: empty threads started and joined by :func:`calibrate_threads`, chosen so
#: that it takes about as long as :func:`calibrate` on the same machine
_CALIB_THREADS = 150


class _Cell:
    __slots__ = ("key", "pair")

    def __init__(self, key: int, pair: tuple) -> None:
        self.key = key
        self.pair = pair


def _counter():
    total = 0
    while True:
        total += yield total


def calibrate() -> int:
    """Nanoseconds of a fixed pure-Python loop that uses no repro code.

    The loop allocates small objects, hashes them into a dict and resumes
    a generator, the same kinds of work the runtimes do per task: a plain
    arithmetic loop tracks the machine's drift far less closely, because
    contention slows allocation-heavy code more than it slows the ALU.
    The loop starts on a collected heap, so the garbage a program left
    behind is not collected on its clock.
    """
    gc.collect()
    t0 = perf_counter_ns()
    table = {}
    cells = []
    for i in range(_CALIB_ITEMS):
        cell = _Cell(i, (i, i + 1))
        cells.append(cell)
        table[cell] = i
    total = 0
    for cell in cells:
        total += table[cell] + cell.pair[1]
    gen = _counter()
    next(gen)
    for i in range(_CALIB_ITEMS):
        gen.send(i)
    del table, cells
    return perf_counter_ns() - t0


def _noop() -> None:
    pass


def calibrate_threads() -> int:
    """Nanoseconds to start and join a fixed number of empty threads.

    The calibration of a thread-per-task runtime: every start wakes a new
    OS thread and every join hands the interpreter lock across cores,
    which is where such a runtime loses time when the machine is busy and
    which :func:`calibrate`'s single-threaded loop does not see (see
    :attr:`Sample.thread_scale`).  Uses no repro code.
    """
    gc.collect()
    t0 = perf_counter_ns()
    for _ in range(_CALIB_THREADS):
        thread = threading.Thread(target=_noop)
        thread.start()
        thread.join()
    return perf_counter_ns() - t0


@dataclass
class Sample:
    """One program run: its raw wall time, the calibration after it, and
    what it did."""

    arm: str
    wall_ns: int
    calib_ns: int = 0
    tasks: int = 0
    attempted: int = 1
    failed: int = 0
    latency_ns: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    program: str = ""
    #: False where the workload reports raw times (see ``calibrated``)
    calibrated: bool = True
    #: the :func:`calibrate_threads` loop after it, on workloads whose wall
    #: time it scales; 0 elsewhere
    thread_calib_ns: int = 0
    #: the runtime the program ran on (for counts read after the run)
    runtime: object = None

    @property
    def scale(self) -> float:
        """Scale of interpreter-bound times (the median join)."""
        return CALIB_REF_NS / self.calib_ns if self.calibrated else 1.0

    @property
    def thread_scale(self) -> float:
        """Scale of times spent waiting on other threads: wall time and the
        tail join, which on a thread-per-task runtime track thread hand-offs
        (on ``paper-suite``, scaled by :func:`calibrate` the range of wall
        time over eight runs was 20%, by :func:`calibrate_threads` 6%; the
        median join, which mostly finds its task done, tracks the first)."""
        if self.thread_calib_ns:
            return CALIB_REF_NS / self.thread_calib_ns
        return self.scale

    @property
    def wall_s(self) -> float:
        return self.wall_ns * self.thread_scale / 1e9

    @property
    def raw_s(self) -> float:
        return self.wall_ns / 1e9


def settle(threads: int, timeout: float = 2.0) -> None:
    """Wait until the threads a program left behind have exited.

    A thread-per-task runtime returns from ``run`` while its idle workers
    are still exiting; timing the calibration loop against them would
    measure their contention for the interpreter lock, not the machine.
    Returns once at most *threads* threads are alive, or once the count
    has stopped falling for 20 ms (a sleeping supervisor thread that
    exits on its own idle timer does not compete for anything).
    """
    deadline = time.monotonic() + timeout
    count, since = threading.active_count(), time.monotonic()
    while count > threads and time.monotonic() < deadline:
        time.sleep(0.001)
        now_count = threading.active_count()
        if now_count != count:
            count, since = now_count, time.monotonic()
        elif time.monotonic() - since > 0.02:
            return


def timed(fn, *args):
    """``(result, ns)`` of one call, after a full collection."""
    gc.collect()
    t0 = perf_counter_ns()
    out = fn(*args)
    return out, perf_counter_ns() - t0


def percentile(values, q: float) -> float:
    values = np.asarray(values)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(root: str, **extra) -> dict:
    """The machine and software a result was measured on."""
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        **extra,
    }
