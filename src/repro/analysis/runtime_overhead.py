"""End-to-end runtime overhead benchmarks (``BENCH_runtime.json``).

Where :mod:`repro.analysis.hotpath` measures the verifier in isolation,
this module measures what the paper actually reports: whole programs on
real runtimes, with the supervision layer in the loop.  Two instruments:

* **join-latency microshape** — a fork chain of depth *d* whose leaf
  sleeps briefly; every other task immediately joins its child, so the
  unwind is a cascade of blocked joins where each wakeup gates the next.
  The shape is run under two wait protocols: the live event-driven one
  (targeted wakeups; :func:`~repro.runtime.supervisor.wait_for_future`)
  and the poll-loop baseline it replaced
  (:func:`~repro.runtime.supervisor.wait_for_future_polling`, which
  observes every condition only at 1 ms → 50 ms backoff ticks).  Under
  polling each unwind level eats up to a full tick of wakeup lag and the
  lags *compound* up the chain; under targeted wakeups the whole unwind
  costs microseconds beyond the leaf sleep.  The headline regression
  gate asserts the event protocol is at least 2× faster end-to-end on
  this shape (in practice it is far more).

* **journal overhead on the fork chain** — the same fork-chain
  microshape (with a short leaf sleep) run with the crash-consistent
  trace journal off and on.  The chain is the journal's *durability*
  worst case: every level blocks, so every level pays a critical
  "flush before you sleep" ``block`` record plus fork/verdict/unblock/
  join records.  The gate bounds the journal-on/journal-off median-time
  factor at 1.25×; repetitions interleave the two modes so machine-load
  drift cancels out of the ratio.  (The journal's per-record CPU cost
  is priced separately: the append path is f-string formatting plus a
  list append — see :meth:`repro.tools.journal.TraceJournal._emit` —
  which keeps even record-dense fork fans near a 1.2× factor.)

* **Table-2-style overhead configs** — small configurations of the
  benchsuite programs run with ``policy=None`` against each verified
  policy through :class:`~repro.benchsuite.harness.Harness`, reported as
  per-benchmark and geomean best-time overhead factors.  This is the
  number the paper's credibility rests on (1.06× geomean for TJ-SP at
  paper scale); the gate keeps the smoke configuration under a stated
  bound so runtime-layer regressions fail PRs even when the verifier
  microbenchmarks stay flat.

* **telemetry overhead** — the fork-chain and a join-heavy fan shape run
  under three interleaved telemetry arms: ``off`` (no session active —
  every instrumentation site is one ``is None`` test), ``metrics``
  (counters + histograms, no tracer), and ``full`` (metrics + span
  tracing into the ring buffer).  Gates: ``metrics``/``off`` median
  factor ≤ 1.05× and ``full``/``off`` ≤ 1.25× on every shape
  (``benchmarks/bench_obs_overhead.py``).  Arms interleave per
  repetition for the same drift-cancellation reason as the journal
  instrument; the qualitative "off is free" claim is separately pinned
  by the tracemalloc test in ``tests/obs/``.

* **remote-verification soak** — an in-process verification sidecar
  (:mod:`repro.service`) serving one client that round-trips a large
  join budget (≥100k at bench scale) through ``check_joins`` batches
  over real TCP, with the client-process RSS sampled before/during/
  after.  The gate (``benchmarks/bench_service.py``) asserts the join
  budget completed with zero degradations and that RSS stayed flat —
  the client's replay buffer must be ack-pruned and the server's
  per-session state must not grow with traffic volume.

Results serialise to ``BENCH_runtime.json`` via :mod:`repro.analysis.io`;
``benchmarks/bench_runtime_overhead.py`` asserts the gates and
``python -m repro.tools.cli bench-runtime`` produces the same file from
the command line.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..benchsuite import make_benchmark
from ..benchsuite.harness import BenchmarkReport, Harness, PolicyMeasurement
from ..runtime import supervisor
from ..runtime.threaded import TaskRuntime

__all__ = [
    "WAIT_MODES",
    "JOURNAL_MODES",
    "RUNTIME_POLICIES",
    "JOIN_CHAIN_PARAMS",
    "SMOKE_JOIN_CHAIN_PARAMS",
    "JOURNAL_PARAMS",
    "SMOKE_JOURNAL_PARAMS",
    "OVERHEAD_PARAMS",
    "SMOKE_OVERHEAD_PARAMS",
    "OBS_MODES",
    "OBS_PARAMS",
    "SMOKE_OBS_PARAMS",
    "SERVICE_PARAMS",
    "SMOKE_SERVICE_PARAMS",
    "JoinChainMeasurement",
    "JournalOverheadMeasurement",
    "ObsOverheadMeasurement",
    "ServiceSoakMeasurement",
    "RuntimeOverheadResult",
    "wait_protocol",
    "measure_join_chain",
    "run_join_chain_suite",
    "join_wakeup_speedup",
    "measure_journal_mode",
    "run_journal_suite",
    "journal_overhead_factor",
    "run_obs_suite",
    "obs_overhead_factor",
    "run_service_soak",
    "run_overhead_suite",
    "best_time",
    "overhead_factor",
    "geomean_overhead",
    "run_runtime_suite",
    "render_runtime_table",
]

#: the two wait protocols the microshape compares
WAIT_MODES = ("event", "polling")

#: policies measured against the ``policy=None`` baseline
RUNTIME_POLICIES = ("TJ-SP", "TJ-OM", "KJ-VC", "KJ-SS")

#: join-latency microshape: chain depth and leaf sleep (seconds).  The
#: leaf sleep is sized so the polling baseline's backoff reaches its
#: 50 ms ceiling before the unwind starts — each level then pays a large
#: fraction of a tick, and the lags compound up the chain.
JOIN_CHAIN_PARAMS: dict[str, float] = {"depth": 8, "leaf_sleep": 0.03}

#: smaller microshape for CI smoke runs (still far beyond the 2× gate).
SMOKE_JOIN_CHAIN_PARAMS: dict[str, float] = {"depth": 6, "leaf_sleep": 0.02}

#: the journal instrument's two configurations
JOURNAL_MODES = ("off", "on")

#: journal microshape: the fork chain again, TJ-SP-verified.  Every
#: level blocks on its child, so every level writes the full record
#: complement — fork, verdict, block (critical flush), unblock, join.
JOURNAL_PARAMS: dict[str, float] = {"depth": 8, "leaf_sleep": 0.01}

#: smaller chain for CI smoke runs.
SMOKE_JOURNAL_PARAMS: dict[str, float] = {"depth": 6, "leaf_sleep": 0.005}

#: Table-2-style end-to-end configurations (benchmark name -> params);
#: kept small enough that the whole policy grid finishes in seconds.
OVERHEAD_PARAMS: dict[str, dict[str, int]] = {
    "Series": {"coefficients": 400, "samples": 100},
    "Crypt": {"size_bytes": 256 * 1024, "tasks": 128},
    "NQueens": {"n": 8, "cutoff": 3},
}

#: tiny configurations for the CI smoke gate.
SMOKE_OVERHEAD_PARAMS: dict[str, dict[str, int]] = {
    "Series": {"coefficients": 160, "samples": 40},
    "NQueens": {"n": 7, "cutoff": 3},
}

#: the three telemetry arms of the observability-overhead instrument
OBS_MODES = ("off", "metrics", "full")

#: telemetry microshapes.  The fork chain carries the same leaf sleep as
#: the journal instrument (every level blocks, so every level pays the
#: full instrumentation complement — fork/check histograms plus the
#: blocked-wait path — against a realistically-blocking program); the
#: join-heavy fan is the zero-work density shape (width x rounds noop
#: forks, all joined — maximum fork/check events per unit work).
OBS_PARAMS: dict[str, dict[str, float]] = {
    "fork_chain": {"depth": 8, "leaf_sleep": 0.01},
    "join_heavy": {"width": 16, "rounds": 4, "leaf_sleep": 0.002},
}

#: smaller shapes for CI smoke runs.
SMOKE_OBS_PARAMS: dict[str, dict[str, float]] = {
    "fork_chain": {"depth": 6, "leaf_sleep": 0.01},
    "join_heavy": {"width": 8, "rounds": 3, "leaf_sleep": 0.004},
}

#: remote-verification soak: one client, a fan of *width* tasks forked
#: once, then ``check_joins`` batches of *batch* against the sidecar
#: until *joins* verified joins have round-tripped.  The point is volume,
#: not shape: the RSS gate proves the client's replay buffer (ack-pruned)
#: and the server's per-session state stay bounded under sustained load.
SERVICE_PARAMS: dict[str, int] = {"joins": 120_000, "width": 64, "batch": 64}

#: smaller soak for CI smoke runs of ``bench-runtime``; the full ≥100k
#: gate lives in ``benchmarks/bench_service.py``.
SMOKE_SERVICE_PARAMS: dict[str, int] = {"joins": 10_000, "width": 32, "batch": 64}

#: multi-process soak: *dispatches* subtrees cross the process boundary,
#: each forking *mids* in-worker tasks that each fork *leaves* leaves —
#: the fork-heavy deep shape where >90% of joins stay on the worker-local
#: shard (only the dispatched task's own joins are cross-process).  Total verified
#: tasks = dispatches x (1 + mids + mids*leaves); the full parameters put
#: that above one million across >=4 workers.  *spin* is per-leaf integer
#: work so the baseline is GIL-bound compute, not pure scheduler churn.
PROCS_PARAMS: dict[str, int] = {
    "workers": 4,
    "dispatches": 1000,
    "mids": 10,
    "leaves": 100,
    "spin": 120,
}

#: tiny pool for CI smoke runs; the >=1M-task gate lives in
#: ``benchmarks/bench_procs.py``.
SMOKE_PROCS_PARAMS: dict[str, int] = {
    "workers": 2,
    "dispatches": 12,
    "mids": 3,
    "leaves": 6,
    "spin": 40,
}

#: prediction instrument: *programs* seeded chaos programs journalled
#: under ``policy=None`` feed :func:`repro.predict.predict_deadlocks`
#: (throughput = journal events/second through the whole predictor,
#: partial order + cycle search + simulator realization + per-policy
#: witness replay); the simulator-overhead arm runs a width x rounds
#: fork-fan *sim_repetitions* times on :class:`CooperativeRuntime` and
#: on a recording ``SimRuntime(seed=None)`` (FIFO — the same schedule)
#: and compares best times.
PREDICT_PARAMS: dict[str, int] = {
    "programs": 12,
    "seed": 0,
    "max_schedules": 256,
    "sim_width": 12,
    "sim_rounds": 24,
    "sim_repetitions": 5,
}

#: tiny corpus for CI smoke runs; the throughput floor lives in
#: ``benchmarks/bench_predict.py``.
SMOKE_PREDICT_PARAMS: dict[str, int] = {
    "programs": 3,
    "seed": 0,
    "max_schedules": 64,
    "sim_width": 6,
    "sim_rounds": 8,
    "sim_repetitions": 3,
}

#: distributed-telemetry instrument: the procs soak shape (dispatches x
#: mids x leaves across *workers* + sidecar) run with telemetry off and
#: with the full distributed stack on — trace propagation over the fork
#: wire, worker metrics pushes, the sidecar span ring shipped home and
#: merged.  Smaller than the throughput soak: the ratio is the product,
#: not the volume.
OBS_DIST_PARAMS: dict[str, int] = {
    "workers": 4,
    "dispatches": 200,
    "mids": 8,
    "leaves": 25,
    "spin": 120,
}

#: tiny pool for CI smoke runs (``benchmarks/bench_obs_dist.py --smoke``).
SMOKE_OBS_DIST_PARAMS: dict[str, int] = {
    "workers": 2,
    "dispatches": 16,
    "mids": 3,
    "leaves": 6,
    "spin": 40,
}


# ----------------------------------------------------------------------
# wait-protocol selection
# ----------------------------------------------------------------------
@contextmanager
def wait_protocol(mode: str) -> Iterator[None]:
    """Run the enclosed block under the given blocked-wait protocol.

    ``"event"`` is the live protocol (no change); ``"polling"`` swaps
    the supervisor's module-global ``wait_for_future`` for the poll-loop
    baseline — ``SupervisedJoinMixin._supervised_wait`` looks the global
    up at call time precisely so this benchmark can do the swap.
    Restores the live protocol on exit, exception or not.
    """
    if mode not in WAIT_MODES:
        raise ValueError(f"unknown wait mode {mode!r}; known: {WAIT_MODES}")
    if mode == "event":
        yield
        return
    original = supervisor.wait_for_future
    supervisor.wait_for_future = supervisor.wait_for_future_polling
    try:
        yield
    finally:
        supervisor.wait_for_future = original


# ----------------------------------------------------------------------
# the join-latency microshape
# ----------------------------------------------------------------------
@dataclass
class JoinChainMeasurement:
    """All timed repetitions of the chain unwind under one wait mode."""

    mode: str
    depth: int
    leaf_sleep: float
    times: list[float] = field(default_factory=list)

    @property
    def best_time(self) -> float:
        return min(self.times) if self.times else math.nan

    @property
    def mean_time(self) -> float:
        return sum(self.times) / len(self.times) if self.times else math.nan

    @property
    def unwind_overhead(self) -> float:
        """Best wall time beyond the leaf sleep — pure supervision cost."""
        return self.best_time - self.leaf_sleep


def _chain_main(rt: TaskRuntime, depth: int, leaf_sleep: float):
    """Build the chain program: depth tasks, each joining its child."""

    def level(d: int) -> int:
        if d == 0:
            time.sleep(leaf_sleep)
            return 1
        return rt.fork(level, d - 1).join() + 1

    def main() -> int:
        return rt.fork(level, depth - 1).join()

    return main


def measure_join_chain(
    mode: str,
    *,
    depth: int = 8,
    leaf_sleep: float = 0.03,
    repetitions: int = 3,
    warmup: int = 1,
) -> JoinChainMeasurement:
    """Time the chain unwind under one wait protocol.

    Every repetition uses a fresh runtime (runtimes host one root run),
    and the result is checked — a protocol that mis-delivers a wakeup
    cannot pass by being fast.
    """
    m = JoinChainMeasurement(mode=mode, depth=depth, leaf_sleep=leaf_sleep)
    with wait_protocol(mode):
        for i in range(warmup + repetitions):
            rt = TaskRuntime(policy=None)
            t0 = time.perf_counter()
            result = rt.run(_chain_main(rt, depth, leaf_sleep))
            elapsed = time.perf_counter() - t0
            if result != depth:
                raise RuntimeError(
                    f"join chain returned {result!r}, expected {depth}"
                )
            if i >= warmup:
                m.times.append(elapsed)
    return m


def run_join_chain_suite(
    *,
    params: Optional[dict[str, float]] = None,
    repetitions: int = 3,
    warmup: int = 1,
) -> dict[str, JoinChainMeasurement]:
    """The microshape under both protocols; returns mode -> measurement."""
    p = dict(params if params is not None else JOIN_CHAIN_PARAMS)
    return {
        mode: measure_join_chain(
            mode,
            depth=int(p["depth"]),
            leaf_sleep=float(p["leaf_sleep"]),
            repetitions=repetitions,
            warmup=warmup,
        )
        for mode in WAIT_MODES
    }


def join_wakeup_speedup(chain: dict[str, JoinChainMeasurement]) -> float:
    """Best-time factor of the event protocol over the polling baseline."""
    return chain["polling"].best_time / chain["event"].best_time


# ----------------------------------------------------------------------
# the journal-overhead microshape
# ----------------------------------------------------------------------
@dataclass
class JournalOverheadMeasurement:
    """All timed repetitions of the fork chain with the journal off/on."""

    mode: str
    depth: int
    leaf_sleep: float
    times: list[float] = field(default_factory=list)
    #: records the journal wrote in the last repetition (0 when off)
    records: int = 0

    @property
    def best_time(self) -> float:
        return min(self.times) if self.times else math.nan

    @property
    def median_time(self) -> float:
        """The gate's estimator: a *ratio* of two measurements is wrecked
        by a single lucky outlier in the denominator, which best-time
        admits and the median does not."""
        if not self.times:
            return math.nan
        ordered = sorted(self.times)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def mean_time(self) -> float:
        return sum(self.times) / len(self.times) if self.times else math.nan


def _time_chain_once(
    mode: str, depth: int, leaf_sleep: float, path: str
) -> tuple[float, int]:
    """One timed chain run; returns (elapsed, journal records written).

    The result is checked — a journal that corrupted execution could not
    pass by being fast.
    """
    import os

    rt = TaskRuntime(policy="TJ-SP", journal=path if mode == "on" else None)
    t0 = time.perf_counter()
    result = rt.run(_chain_main(rt, depth, leaf_sleep))
    elapsed = time.perf_counter() - t0
    if result != depth:
        raise RuntimeError(f"fork chain returned {result!r}, expected {depth}")
    records = 0
    if mode == "on":
        records = rt.journal.records_written if rt.journal else 0
        os.unlink(path)
    return elapsed, records


def measure_journal_mode(
    mode: str,
    *,
    depth: int = 8,
    leaf_sleep: float = 0.01,
    repetitions: int = 3,
    warmup: int = 1,
) -> JournalOverheadMeasurement:
    """Time the fork chain under TJ-SP with the trace journal off or on.

    ``"on"`` gives every repetition a fresh journal file in a temporary
    directory (a fresh runtime cannot append to a used journal anyway);
    the file is removed after timing, so the measurement includes every
    write the journal performs but keeps nothing.
    """
    if mode not in JOURNAL_MODES:
        raise ValueError(f"unknown journal mode {mode!r}; known: {JOURNAL_MODES}")
    import os
    import tempfile

    m = JournalOverheadMeasurement(mode=mode, depth=depth, leaf_sleep=leaf_sleep)
    with tempfile.TemporaryDirectory(prefix="repro-journal-bench-") as tmp:
        for i in range(warmup + repetitions):
            elapsed, records = _time_chain_once(
                mode, depth, leaf_sleep, os.path.join(tmp, f"rep{i}.jsonl")
            )
            if mode == "on":
                m.records = records
            if i >= warmup:
                m.times.append(elapsed)
    return m


def run_journal_suite(
    *,
    params: Optional[dict[str, float]] = None,
    repetitions: int = 3,
    warmup: int = 1,
) -> dict[str, JournalOverheadMeasurement]:
    """The chain under both journal modes; returns mode -> measurement.

    Repetitions are *interleaved* (off, on, off, on, ...) rather than
    run as two blocks: the gate is a ratio of the two modes, and
    machine-load drift between two sequential blocks shows up directly
    in the ratio, whereas interleaved samples see the same drift.
    """
    import os
    import tempfile

    p = dict(params if params is not None else JOURNAL_PARAMS)
    depth = int(p["depth"])
    leaf_sleep = float(p["leaf_sleep"])
    out = {
        mode: JournalOverheadMeasurement(mode=mode, depth=depth, leaf_sleep=leaf_sleep)
        for mode in JOURNAL_MODES
    }
    with tempfile.TemporaryDirectory(prefix="repro-journal-bench-") as tmp:
        for i in range(warmup + repetitions):
            for mode in JOURNAL_MODES:
                elapsed, records = _time_chain_once(
                    mode, depth, leaf_sleep, os.path.join(tmp, f"rep{i}.jsonl")
                )
                if mode == "on":
                    out[mode].records = records
                if i >= warmup:
                    out[mode].times.append(elapsed)
    return out


def journal_overhead_factor(journal: dict[str, JournalOverheadMeasurement]) -> float:
    """Median-time factor of journal-on over journal-off."""
    return journal["on"].median_time / journal["off"].median_time


# ----------------------------------------------------------------------
# the telemetry-overhead microshapes
# ----------------------------------------------------------------------
@dataclass
class ObsOverheadMeasurement:
    """Timed repetitions of one shape under one telemetry arm."""

    shape: str
    mode: str
    times: list[float] = field(default_factory=list)

    @property
    def best_time(self) -> float:
        return min(self.times) if self.times else math.nan

    @property
    def median_time(self) -> float:
        """The gate's estimator (see JournalOverheadMeasurement)."""
        if not self.times:
            return math.nan
        ordered = sorted(self.times)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def mean_time(self) -> float:
        return sum(self.times) / len(self.times) if self.times else math.nan


def _join_heavy_main(rt: TaskRuntime, width: int, rounds: int, leaf_sleep: float):
    """Fan shape: each round forks *width* brief tasks and joins them all."""

    def leaf() -> int:
        if leaf_sleep:
            time.sleep(leaf_sleep)
        return 1

    def main() -> int:
        total = 0
        for _ in range(rounds):
            futures = [rt.fork(leaf) for _ in range(width)]
            total += sum(f.join() for f in futures)
        return total

    return main


def _time_obs_once(shape: str, shape_params: dict, mode: str) -> float:
    """One timed, result-checked run of *shape* under telemetry arm *mode*.

    Each run gets a *fresh* session (or none): components capture the
    active session at construction, so reusing one across repetitions
    would let ring-buffer/shard state accumulate across samples.
    """
    from .. import obs

    session = None
    if mode == "metrics":
        session = obs.Telemetry(tracing=False)
    elif mode == "full":
        session = obs.Telemetry(tracing=True)
    elif mode != "off":
        raise ValueError(f"unknown obs mode {mode!r}; known: {OBS_MODES}")
    with obs.using(session):
        rt = TaskRuntime(policy="TJ-SP")
        if shape == "fork_chain":
            depth = int(shape_params["depth"])
            main = _chain_main(rt, depth, float(shape_params["leaf_sleep"]))
            expected = depth
        elif shape == "join_heavy":
            width = int(shape_params["width"])
            rounds = int(shape_params["rounds"])
            main = _join_heavy_main(
                rt, width, rounds, float(shape_params.get("leaf_sleep", 0.0))
            )
            expected = width * rounds
        else:
            raise ValueError(f"unknown obs shape {shape!r}")
        t0 = time.perf_counter()
        result = rt.run(main)
        elapsed = time.perf_counter() - t0
    if result != expected:
        raise RuntimeError(f"{shape} returned {result!r}, expected {expected}")
    return elapsed


def run_obs_suite(
    *,
    params: Optional[dict[str, dict[str, float]]] = None,
    repetitions: int = 5,
    warmup: int = 1,
) -> dict[str, dict[str, ObsOverheadMeasurement]]:
    """Both shapes under all three arms; shape -> mode -> measurement.

    Arms interleave per repetition (off, metrics, full, off, ...) so the
    gate ratios see the same machine-load drift on both sides.
    """
    p = params if params is not None else OBS_PARAMS
    out = {
        shape: {mode: ObsOverheadMeasurement(shape=shape, mode=mode) for mode in OBS_MODES}
        for shape in p
    }
    for i in range(warmup + repetitions):
        for shape, shape_params in p.items():
            for mode in OBS_MODES:
                elapsed = _time_obs_once(shape, shape_params, mode)
                if i >= warmup:
                    out[shape][mode].times.append(elapsed)
    return out


def obs_overhead_factor(
    obs: dict[str, dict[str, ObsOverheadMeasurement]], shape: str, mode: str
) -> float:
    """Median-time factor of telemetry arm *mode* over ``off`` on *shape*."""
    return obs[shape][mode].median_time / obs[shape]["off"].median_time


# ----------------------------------------------------------------------
# the remote-verification soak
# ----------------------------------------------------------------------
@dataclass
class ServiceSoakMeasurement:
    """One sustained remote-verification run against an in-process sidecar."""

    joins: int
    width: int
    batch: int
    elapsed: float
    #: client-process resident set (kB) after warmup, before the soak
    rss_before_kb: int
    #: resident set (kB) after the soak (post-gc)
    rss_after_kb: int
    #: largest resident set (kB) sampled during the soak
    rss_peak_kb: int
    degradations: int = 0
    reconciles: int = 0

    @property
    def joins_per_second(self) -> float:
        return self.joins / self.elapsed if self.elapsed else math.nan

    @property
    def rss_growth(self) -> float:
        """After/before resident-set factor — the flat-memory gate's number."""
        if not self.rss_before_kb:
            return math.nan
        return self.rss_after_kb / self.rss_before_kb


def _read_rss_kb() -> int:
    """Resident set of this process in kB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def run_service_soak(
    *,
    params: Optional[dict[str, int]] = None,
) -> ServiceSoakMeasurement:
    """Round-trip *joins* verified joins through a verification sidecar.

    The sidecar runs in-process (a :class:`~repro.service.server
    .VerificationServer` thread) so the measurement is pure protocol +
    session cost, with no subprocess startup noise; the client is a real
    :class:`~repro.service.client.RemoteVerifier` over real TCP.  The
    program is a fan: *width* tasks forked once, then the parent checks
    batches of *batch* children until the join budget is spent —
    ``check_joins`` round-trips dominate exactly as in a join-heavy
    workload.  RSS is sampled before, during, and after (with a gc pass
    on both ends) so the gate can assert memory stays flat: the client's
    replay buffer must be ack-pruned and the server's per-session state
    must not grow with traffic.

    Every batch's verdicts are checked — the parent joining its own
    children is TJ-permitted, so a single False means the remote verdict
    stream is wrong, and the soak fails rather than reporting a time.
    """
    import gc

    from ..service.client import RemoteVerifier
    from ..service.server import VerificationServer

    p = dict(params if params is not None else SERVICE_PARAMS)
    joins = int(p["joins"])
    width = int(p["width"])
    batch = int(p["batch"])

    with VerificationServer() as server:
        host, port = server.address
        rv = RemoteVerifier(f"remote://{host}:{port}", "TJ-SP")
        try:
            root = rv.on_init()
            children = [rv.on_fork(root) for _ in range(width)]
            # Warmup: touch every edge once so lazy allocations land
            # before the RSS baseline is taken.
            rv.check_joins(root, children)
            gc.collect()
            rss_before = _read_rss_kb()
            rss_peak = rss_before
            done = 0
            t0 = time.perf_counter()
            offset = 0
            while done < joins:
                group = [children[(offset + i) % width] for i in range(batch)]
                offset = (offset + batch) % width
                verdicts = rv.check_joins(root, group)
                if not all(verdicts):
                    raise RuntimeError(
                        "sidecar refused a parent-joins-child edge during soak"
                    )
                done += len(group)
                if done % (batch * 64) == 0:
                    rss_peak = max(rss_peak, _read_rss_kb())
            elapsed = time.perf_counter() - t0
            gc.collect()
            rss_after = _read_rss_kb()
            rss_peak = max(rss_peak, rss_after)
            snap = rv.service_snapshot()
            if snap["degraded"]:
                raise RuntimeError("client degraded during the in-process soak")
            return ServiceSoakMeasurement(
                joins=done,
                width=width,
                batch=batch,
                elapsed=elapsed,
                rss_before_kb=rss_before,
                rss_after_kb=rss_after,
                rss_peak_kb=rss_peak,
                degradations=snap["degradations"],
                reconciles=snap["reconciles"],
            )
        finally:
            rv.close()


# ----------------------------------------------------------------------
# the multi-process soak
# ----------------------------------------------------------------------
def _procs_soak_leaf(x: int, spin: int) -> int:
    """Per-leaf integer work (module level: it crosses processes)."""
    acc = x
    for _ in range(spin):
        acc = (acc * 2654435761 + 97) % 1000003
    return acc


def _procs_soak_mid(rt, base: int, leaves: int, spin: int) -> int:
    futs = [rt.fork(_procs_soak_leaf, base + i, spin) for i in range(leaves)]
    return sum(rt.join_batch(futs))


def _procs_soak_subtree(rt, base: int, mids: int, leaves: int, spin: int) -> int:
    # In-worker forks are plain TaskRuntime forks, so the engine rides
    # along as an explicit argument.
    futs = [
        rt.fork(_procs_soak_mid, rt, base + 1000 * m, leaves, spin)
        for m in range(mids)
    ]
    return sum(rt.join_batch(futs))


@dataclass
class ProcsSoakMeasurement:
    """One multi-process soak against the single-process-threaded baseline.

    Both arms run the identical fork-heavy deep shape under full TJ-SP
    verification; *speedup* compares verified tasks/second.  The CPU
    budget is recorded honestly: on a box with fewer cores than
    ``workers + 1`` processes the multi-process arm cannot exceed the
    baseline (it pays IPC for no parallelism), so gates must condition
    on :attr:`multi_core`.
    """

    tasks: int
    workers: int
    dispatches: int
    mids: int
    leaves: int
    spin: int
    elapsed: float
    baseline_tasks: int
    baseline_elapsed: float
    cpu_count: int
    spawn_paths: str
    local_joins: int
    cross_joins: int
    degraded_joins: int
    escalation_ratio: float
    worker_deaths: int
    tasks_redispatched: int
    #: subtree results that disagreed with the baseline — must be 0
    divergences: int

    @property
    def tasks_per_second(self) -> float:
        return self.tasks / self.elapsed if self.elapsed else math.nan

    @property
    def baseline_tasks_per_second(self) -> float:
        if not self.baseline_elapsed:
            return math.nan
        return self.baseline_tasks / self.baseline_elapsed

    @property
    def speedup(self) -> float:
        """Verified tasks/s, multi-process over single-process threaded."""
        base = self.baseline_tasks_per_second
        return self.tasks_per_second / base if base else math.nan

    @property
    def multi_core(self) -> bool:
        """Can every process (workers + parent) own a core?"""
        return self.cpu_count >= self.workers + 1


def run_procs_soak(
    *,
    params: Optional[dict[str, int]] = None,
    spawn_paths: str = "auto",
    sidecar: Optional[str] = None,
) -> ProcsSoakMeasurement:
    """Soak the multi-process runtime and measure its aggregate throughput.

    Runs the deep fork-heavy shape twice — single-process threaded (the
    baseline) and across a :class:`~repro.runtime.procs.ProcessRuntime`
    pool — comparing every subtree result, then reports verified-task
    throughput for both arms plus the merged join-resolution split.  The
    shape is the local-fast-path design point: of each subtree's
    ``mids + mids*leaves`` joins only the ``mids`` performed by the
    dispatched task itself are cross-process, so >90% of joins have a
    joiner forked in the same process.  Every join, cross-process ones
    included, is decided in-process without synchronisation.
    """
    import os

    from ..runtime.procs import ProcessRuntime

    p = dict(params if params is not None else PROCS_PARAMS)
    workers = int(p["workers"])
    dispatches = int(p["dispatches"])
    mids = int(p["mids"])
    leaves = int(p["leaves"])
    spin = int(p.get("spin", 0))
    per_subtree = 1 + mids + mids * leaves
    cpu_count = os.cpu_count() or 1

    # --- baseline: the identical shape, one process, threaded ---------
    base_rt = TaskRuntime("TJ-SP")

    def base_root():
        futs = [
            base_rt.fork(_procs_soak_subtree, base_rt, 10_000 * t, mids, leaves, spin)
            for t in range(dispatches)
        ]
        return base_rt.join_batch(futs)

    t0 = time.perf_counter()
    base_results = base_rt.run(base_root)
    baseline_elapsed = time.perf_counter() - t0
    baseline_tasks = dispatches * per_subtree

    # --- the multi-process arm ----------------------------------------
    rt = ProcessRuntime(workers=workers, spawn_paths=spawn_paths, sidecar=sidecar)

    def procs_root():
        futs = [
            rt.fork(_procs_soak_subtree, 10_000 * t, mids, leaves, spin)
            for t in range(dispatches)
        ]
        return rt.join_batch(futs)

    t0 = time.perf_counter()
    procs_results = rt.run(procs_root)
    elapsed = time.perf_counter() - t0

    divergences = sum(
        1 for a, b in zip(base_results, procs_results) if a != b
    ) + abs(len(base_results) - len(procs_results))
    joins = rt.join_stats()
    tasks = rt.tasks_completed + sum(
        s.get("tasks_started", 0) for s in rt._worker_stats.values()
    )
    return ProcsSoakMeasurement(
        tasks=tasks,
        workers=workers,
        dispatches=dispatches,
        mids=mids,
        leaves=leaves,
        spin=spin,
        elapsed=elapsed,
        baseline_tasks=baseline_tasks,
        baseline_elapsed=baseline_elapsed,
        cpu_count=cpu_count,
        spawn_paths=rt.spawn_paths,
        local_joins=joins["local_joins"],
        cross_joins=joins["cross_joins"],
        degraded_joins=joins["degraded_joins"],
        escalation_ratio=joins["escalation_ratio"],
        worker_deaths=rt.worker_deaths,
        tasks_redispatched=rt.tasks_redispatched,
        divergences=divergences,
    )


# ----------------------------------------------------------------------
# distributed-telemetry overhead on the procs soak shape
# ----------------------------------------------------------------------
@dataclass
class ObsDistMeasurement:
    """Distributed telemetry's price on the multi-process soak shape.

    Two interleaved arms of the identical ProcessRuntime + sidecar run:
    ``off`` (no session active — every cross-process carrier slot stays
    ``None`` and stats pushes are skipped) and ``on`` (full stack: trace
    context rides each dispatch frame, workers push registry snapshots
    home, the sidecar ships its span ring on the final stats pull and
    the parent merges everything).  *overhead* is the on/off median-time
    factor; the ≤1.25× gate lives in ``benchmarks/bench_obs_dist.py``.
    The payload columns prove the on arm actually produced the
    distributed artifacts it is paying for.
    """

    workers: int
    dispatches: int
    mids: int
    leaves: int
    spin: int
    #: verified tasks per arm run (same shape, so same count per arm)
    tasks: int
    off_times: list[float]
    on_times: list[float]
    #: merged Perfetto events the on arm captured (parent + workers + sidecar)
    trace_events: int
    #: distinct process tracks in that merged trace
    trace_pids: int
    #: distinct ``process=``/``worker=`` label values in the fleet snapshot
    metric_sources: int

    @property
    def off_median(self) -> float:
        times = sorted(self.off_times)
        return times[len(times) // 2] if times else math.nan

    @property
    def on_median(self) -> float:
        times = sorted(self.on_times)
        return times[len(times) // 2] if times else math.nan

    @property
    def overhead(self) -> float:
        """Full-distributed-telemetry over disabled, median wall time."""
        off = self.off_median
        return self.on_median / off if off else math.nan


def _obs_dist_arm(
    p: dict[str, int], *, enabled: bool, sidecar: Optional[str]
) -> tuple[float, int, Optional[dict]]:
    """One soak-shape run; returns (elapsed, tasks, on-arm payload stats)."""
    import contextlib
    import re

    from .. import obs as obs_mod
    from ..runtime.procs import ProcessRuntime

    ctx = obs_mod.enabled() if enabled else contextlib.nullcontext(None)
    with ctx as session:
        rt = ProcessRuntime(workers=p["workers"], sidecar=sidecar)

        def root():
            futs = [
                rt.fork(
                    _procs_soak_subtree, 10_000 * t, p["mids"], p["leaves"], p["spin"]
                )
                for t in range(p["dispatches"])
            ]
            return rt.join_batch(futs)

        # rt.run covers shutdown too, so the on arm pays its final
        # sidecar stats pull and remote-ring absorb inside the clock.
        t0 = time.perf_counter()
        rt.run(root)
        elapsed = time.perf_counter() - t0
        tasks = rt.tasks_completed + sum(
            s.get("tasks_started", 0) for s in rt._worker_stats.values()
        )
        payload = None
        if session is not None:
            doc = session.to_chrome_trace() or {"traceEvents": []}
            events = doc.get("traceEvents", [])
            fleet = rt.fleet_metrics()
            sources: set[tuple[str, str]] = set()
            for group in ("counters", "gauges", "histograms"):
                for name in fleet.get(group, {}):
                    sources.update(re.findall(r'(process|worker)="([^"]*)"', name))
            payload = {
                "trace_events": len(events),
                "trace_pids": len({e.get("pid") for e in events if "pid" in e}),
                "metric_sources": len(sources),
            }
        return elapsed, tasks, payload


def run_obs_dist_suite(
    *,
    params: Optional[dict[str, int]] = None,
    repetitions: int = 3,
    sidecar: Optional[str] = "auto",
) -> ObsDistMeasurement:
    """Measure the full distributed-telemetry stack against disabled.

    Arms interleave per repetition (drift cancellation, as everywhere
    else in this module); the last on-arm run's payload stats are
    recorded so the gate can also assert the telemetry actually crossed
    the process boundary — a merged trace with more than one track and a
    fleet snapshot with more than one labelled source.
    """
    p = {k: int(v) for k, v in dict(params or OBS_DIST_PARAMS).items()}
    off_times: list[float] = []
    on_times: list[float] = []
    tasks = 0
    payload: dict = {"trace_events": 0, "trace_pids": 0, "metric_sources": 0}
    for _ in range(max(1, repetitions)):
        elapsed, tasks, _unused = _obs_dist_arm(p, enabled=False, sidecar=sidecar)
        off_times.append(elapsed)
        elapsed, tasks, on_payload = _obs_dist_arm(p, enabled=True, sidecar=sidecar)
        on_times.append(elapsed)
        if on_payload is not None:
            payload = on_payload
    return ObsDistMeasurement(
        workers=p["workers"],
        dispatches=p["dispatches"],
        mids=p["mids"],
        leaves=p["leaves"],
        spin=p.get("spin", 0),
        tasks=tasks,
        off_times=off_times,
        on_times=on_times,
        trace_events=payload["trace_events"],
        trace_pids=payload["trace_pids"],
        metric_sources=payload["metric_sources"],
    )


# ----------------------------------------------------------------------
# prediction throughput + simulator overhead
# ----------------------------------------------------------------------
@dataclass
class PredictMeasurement:
    """One predictor-throughput run plus the simulator-overhead arm.

    *events/elapsed* is the end-to-end predictor rate over a seeded
    journal corpus — everything :func:`repro.predict.predict_deadlocks`
    does, including realizing each flagged cycle in the simulator and
    replaying the witness under every policy.  *sim_elapsed* vs
    *coop_elapsed* compares a recording FIFO :class:`SimRuntime` against
    the plain :class:`CooperativeRuntime` on the identical fork-fan
    program — the price of determinism and decision recording.
    """

    programs: int
    journals: int
    #: total journal records fed to the predictor
    events: int
    #: wall seconds for the full prediction pass over the corpus
    elapsed: float
    flagged_programs: int
    predictions: int
    #: fork-fan shape of the simulator-overhead arm
    sim_width: int
    sim_rounds: int
    #: best-of-N wall seconds, recording SimRuntime(seed=None)
    sim_elapsed: float
    #: best-of-N wall seconds, plain CooperativeRuntime
    coop_elapsed: float

    @property
    def events_per_second(self) -> float:
        return self.events / self.elapsed if self.elapsed else math.nan

    @property
    def sim_overhead(self) -> float:
        """SimRuntime over CooperativeRuntime best-time factor."""
        if not self.coop_elapsed:
            return math.nan
        return self.sim_elapsed / self.coop_elapsed


def _sim_overhead_fan(rt, width: int, rounds: int) -> int:
    """The fork-fan body both overhead arms run: *rounds* waves of
    *width* no-op leaves, every one joined — pure scheduler churn."""

    def leaf(i: int) -> int:
        return i

    def root():
        total = 0
        for _ in range(rounds):
            futures = [rt.fork(leaf, i) for i in range(width)]
            for future in futures:
                total += yield future
        return total

    return rt.run(root)


def run_predict_bench(
    *, params: Optional[dict[str, int]] = None
) -> PredictMeasurement:
    """Measure predictor throughput and the simulator's scheduling tax.

    The corpus is the chaos predict generator's (seeded, so the numbers
    are comparable across runs): each program journalled once under
    ``policy=None`` with timeout-rescued joins, then the whole predictor
    pipeline timed over the journals.  The simulator arm reports best-of
    repetitions for both runtimes so CI noise cannot fail the ≤2x gate
    spuriously.
    """
    import tempfile

    from ..predict import predict_deadlocks
    from ..runtime.cooperative import CooperativeRuntime
    from ..runtime.sim import SimRuntime
    from ..testing.chaos import run_predict_program
    from ..tools.journal import read_journal

    p = dict(params if params is not None else PREDICT_PARAMS)
    programs = int(p["programs"])
    seed = int(p.get("seed", 0))
    max_schedules = int(p.get("max_schedules", 256))
    sim_width = int(p["sim_width"])
    sim_rounds = int(p["sim_rounds"])
    sim_reps = int(p.get("sim_repetitions", 5))

    with tempfile.TemporaryDirectory(prefix="repro-predict-bench-") as tmp:
        paths = []
        for k in range(programs):
            path = f"{tmp}/predict-{seed + k}.jsonl"
            run_predict_program(seed + k, path)
            paths.append(path)
        events = sum(len(read_journal(path).records) for path in paths)

        t0 = time.perf_counter()
        reports = [
            predict_deadlocks(path, max_schedules=max_schedules) for path in paths
        ]
        elapsed = time.perf_counter() - t0
    flagged = sum(1 for r in reports if r.flagged)
    predictions = sum(len(r.predictions) for r in reports)

    expected = sim_rounds * sum(range(sim_width))
    coop_best = math.inf
    sim_best = math.inf
    for _ in range(sim_reps):
        t0 = time.perf_counter()
        got = _sim_overhead_fan(CooperativeRuntime(None), sim_width, sim_rounds)
        coop_best = min(coop_best, time.perf_counter() - t0)
        assert got == expected
        t0 = time.perf_counter()
        got = _sim_overhead_fan(
            SimRuntime(None, seed=None), sim_width, sim_rounds
        )
        sim_best = min(sim_best, time.perf_counter() - t0)
        assert got == expected

    return PredictMeasurement(
        programs=programs,
        journals=len(paths),
        events=events,
        elapsed=elapsed,
        flagged_programs=flagged,
        predictions=predictions,
        sim_width=sim_width,
        sim_rounds=sim_rounds,
        sim_elapsed=sim_best,
        coop_elapsed=coop_best,
    )


# ----------------------------------------------------------------------
# Table-2-style end-to-end overheads
# ----------------------------------------------------------------------
def run_overhead_suite(
    *,
    params: Optional[dict[str, dict[str, int]]] = None,
    policies: Sequence[str] = RUNTIME_POLICIES,
    repetitions: int = 3,
    warmup: int = 1,
) -> list[BenchmarkReport]:
    """policy=None vs each policy on small benchsuite configurations.

    Memory tracing is off: this suite gates *time* overhead (the memory
    side is Table 2's job), and a tracemalloc pass would double the run
    count.
    """
    table = params if params is not None else OVERHEAD_PARAMS
    harness = Harness(
        repetitions=repetitions,
        warmup=warmup,
        policies=tuple(policies),
        measure_memory=False,
    )
    return [
        harness.measure_benchmark(make_benchmark(name, **p))
        for name, p in table.items()
    ]


def best_time(m: PolicyMeasurement) -> float:
    """Fastest sample — the steadiest estimator on noisy CI machines."""
    return min(m.times) if m.times else math.nan


def overhead_factor(report: BenchmarkReport, policy: str) -> float:
    """Best-time factor of *policy* over the unverified baseline."""
    return best_time(report.policies[policy]) / best_time(report.baseline)


def geomean_overhead(reports: Sequence[BenchmarkReport], policy: str) -> float:
    """Geometric-mean overhead factor across benchmarks (Table 2 style)."""
    factors = [overhead_factor(r, policy) for r in reports]
    return math.exp(sum(math.log(f) for f in factors) / len(factors))


# ----------------------------------------------------------------------
# the combined suite
# ----------------------------------------------------------------------
@dataclass
class RuntimeOverheadResult:
    """One full run: the microshape under both protocols + the overhead
    grid, with the parameters that produced them embedded."""

    join_chain: dict[str, JoinChainMeasurement]
    reports: list[BenchmarkReport]
    join_chain_params: dict[str, float]
    overhead_params: dict[str, dict[str, int]]
    #: journal-off/on chain measurements; None in files from schema v1
    journal: Optional[dict[str, JournalOverheadMeasurement]] = None
    journal_params: dict[str, float] = field(default_factory=dict)
    #: telemetry-arm measurements; None in files from schema v1/v2
    obs: Optional[dict[str, dict[str, ObsOverheadMeasurement]]] = None
    obs_params: dict[str, dict[str, float]] = field(default_factory=dict)
    #: remote-verification soak; None in files from schema v1/v2/v3
    service: Optional[ServiceSoakMeasurement] = None
    service_params: dict[str, int] = field(default_factory=dict)
    #: multi-process soak; None in files from schema v1-v4
    procs: Optional[ProcsSoakMeasurement] = None
    procs_params: dict[str, int] = field(default_factory=dict)
    #: prediction throughput + simulator overhead; None in files v1-v5
    predict: Optional[PredictMeasurement] = None
    predict_params: dict[str, int] = field(default_factory=dict)
    #: distributed-telemetry arms on the procs shape; None in files v1-v6
    obs_dist: Optional[ObsDistMeasurement] = None
    obs_dist_params: dict[str, int] = field(default_factory=dict)

    @property
    def join_speedup(self) -> float:
        return join_wakeup_speedup(self.join_chain)

    @property
    def journal_overhead(self) -> float:
        """Journal-on over journal-off best-time factor (NaN if unmeasured)."""
        if not self.journal:
            return math.nan
        return journal_overhead_factor(self.journal)

    def obs_overhead(self, mode: str) -> float:
        """Worst per-shape median factor of arm *mode* over ``off``.

        The gate takes the max across shapes: a telemetry regression
        that hits only one shape must still fail it.  NaN if the obs
        instrument was not run.
        """
        if not self.obs:
            return math.nan
        return max(obs_overhead_factor(self.obs, shape, mode) for shape in self.obs)

    @property
    def telemetry_off_overhead(self) -> float:
        """Metrics-only over disabled — the ≤1.05× gate's number."""
        return self.obs_overhead("metrics")

    @property
    def telemetry_on_overhead(self) -> float:
        """Full telemetry over disabled — the ≤1.25× gate's number."""
        return self.obs_overhead("full")

    @property
    def service_rss_growth(self) -> float:
        """Soak after/before RSS factor (NaN if the soak was not run)."""
        if self.service is None:
            return math.nan
        return self.service.rss_growth

    @property
    def procs_speedup(self) -> float:
        """Multi-process over threaded tasks/s (NaN if the soak was not run)."""
        if self.procs is None:
            return math.nan
        return self.procs.speedup

    @property
    def predict_events_per_second(self) -> float:
        """Predictor throughput (NaN if the instrument was not run)."""
        if self.predict is None:
            return math.nan
        return self.predict.events_per_second

    @property
    def predict_sim_overhead(self) -> float:
        """SimRuntime over CooperativeRuntime — the ≤2x gate's number."""
        if self.predict is None:
            return math.nan
        return self.predict.sim_overhead

    @property
    def obs_dist_overhead(self) -> float:
        """Distributed telemetry on/off median factor — the ≤1.25× gate."""
        if self.obs_dist is None:
            return math.nan
        return self.obs_dist.overhead

    def overhead(self, policy: str) -> float:
        return geomean_overhead(self.reports, policy)

    @property
    def policies(self) -> list[str]:
        seen: list[str] = []
        for report in self.reports:
            for p in report.policies:
                if p not in seen:
                    seen.append(p)
        return seen


def run_runtime_suite(
    *,
    smoke: bool = False,
    repetitions: int = 3,
    warmup: int = 1,
    policies: Sequence[str] = RUNTIME_POLICIES,
) -> RuntimeOverheadResult:
    """Run both instruments and bundle the result for serialisation."""
    chain_params = SMOKE_JOIN_CHAIN_PARAMS if smoke else JOIN_CHAIN_PARAMS
    journal_params = SMOKE_JOURNAL_PARAMS if smoke else JOURNAL_PARAMS
    overhead_params = SMOKE_OVERHEAD_PARAMS if smoke else OVERHEAD_PARAMS
    obs_params = SMOKE_OBS_PARAMS if smoke else OBS_PARAMS
    service_params = SMOKE_SERVICE_PARAMS if smoke else SERVICE_PARAMS
    return RuntimeOverheadResult(
        join_chain=run_join_chain_suite(
            params=chain_params, repetitions=repetitions, warmup=warmup
        ),
        reports=run_overhead_suite(
            params=overhead_params,
            policies=policies,
            repetitions=repetitions,
            warmup=warmup,
        ),
        join_chain_params=dict(chain_params),
        overhead_params={k: dict(v) for k, v in overhead_params.items()},
        # The chain runs in tens of milliseconds, so extra repetitions
        # are cheap — and the gate's median needs samples under CI noise.
        journal=run_journal_suite(
            params=journal_params, repetitions=max(repetitions, 5), warmup=warmup
        ),
        journal_params=dict(journal_params),
        obs=run_obs_suite(
            params=obs_params, repetitions=max(repetitions, 5), warmup=warmup
        ),
        obs_params={k: dict(v) for k, v in obs_params.items()},
        service=run_service_soak(params=service_params),
        service_params=dict(service_params),
    )


def render_runtime_table(result: RuntimeOverheadResult) -> str:
    """ASCII summary: microshape times, then the overhead-factor grid.

    Every section renders only when its instrument ran — a file holding
    just the telemetry block (``bench_obs_overhead.py`` standalone mode)
    still renders.
    """
    lines: list[str] = []
    if result.join_chain:
        lines += [
            f"join-latency microshape (depth={result.join_chain_params['depth']}, "
            f"leaf_sleep={result.join_chain_params['leaf_sleep'] * 1e3:.0f}ms)",
            f"{'protocol':<10} {'best ms':>9} {'mean ms':>9} {'unwind ms':>10}",
            "-" * 42,
        ]
        for mode in WAIT_MODES:
            m = result.join_chain[mode]
            lines.append(
                f"{mode:<10} {m.best_time * 1e3:>9.2f} {m.mean_time * 1e3:>9.2f} "
                f"{m.unwind_overhead * 1e3:>10.2f}"
            )
        lines.append(f"event-driven join speedup: {result.join_speedup:.2f}x")
        lines.append("")
    if result.journal:
        on = result.journal["on"]
        lines.append(
            f"journal overhead microshape (fork chain, depth={on.depth}, "
            f"leaf_sleep={on.leaf_sleep * 1e3:.0f}ms)"
        )
        lines.append(
            f"{'journal':<10} {'best ms':>9} {'median ms':>10} {'records':>8}"
        )
        lines.append("-" * 41)
        for mode in JOURNAL_MODES:
            m = result.journal[mode]
            lines.append(
                f"{mode:<10} {m.best_time * 1e3:>9.2f} {m.median_time * 1e3:>10.2f} "
                f"{m.records:>8}"
            )
        lines.append(f"journal-on overhead factor: {result.journal_overhead:.3f}x")
        lines.append("")
    if result.obs:
        lines.append("telemetry overhead (median times per arm)")
        lines.append(
            f"{'shape':<12} " + " ".join(f"{mode + ' ms':>11}" for mode in OBS_MODES)
        )
        lines.append("-" * (12 + 12 * len(OBS_MODES)))
        for shape in result.obs:
            cells = " ".join(
                f"{result.obs[shape][mode].median_time * 1e3:>11.3f}"
                for mode in OBS_MODES
            )
            lines.append(f"{shape:<12} {cells}")
        lines.append(
            f"telemetry overhead factors: metrics "
            f"{result.telemetry_off_overhead:.3f}x, "
            f"full {result.telemetry_on_overhead:.3f}x (worst shape)"
        )
        lines.append("")
    if result.service is not None:
        s = result.service
        lines.append(
            f"remote-verification soak (width={s.width}, batch={s.batch})"
        )
        lines.append(
            f"{s.joins} joins in {s.elapsed:.2f}s "
            f"({s.joins_per_second:,.0f} joins/s), "
            f"RSS {s.rss_before_kb} -> {s.rss_after_kb} kB "
            f"(peak {s.rss_peak_kb}, growth {s.rss_growth:.3f}x), "
            f"degradations {s.degradations}"
        )
        lines.append("")
    if result.procs is not None:
        m = result.procs
        lines.append(
            f"multi-process soak (workers={m.workers}, "
            f"{m.dispatches}x{m.mids}x{m.leaves} deep shape, "
            f"{m.cpu_count} cpu)"
        )
        lines.append(
            f"{m.tasks} verified tasks in {m.elapsed:.2f}s "
            f"({m.tasks_per_second:,.0f} tasks/s) vs threaded "
            f"{m.baseline_tasks_per_second:,.0f} tasks/s "
            f"(speedup {m.speedup:.2f}x), escalation "
            f"{m.escalation_ratio:.3f}, divergences {m.divergences}"
        )
        lines.append("")
    if result.obs_dist is not None:
        m = result.obs_dist
        lines.append(
            f"distributed-telemetry overhead (procs shape, workers={m.workers}, "
            f"{m.dispatches}x{m.mids}x{m.leaves})"
        )
        lines.append(
            f"off median {m.off_median:.2f}s vs full {m.on_median:.2f}s "
            f"(factor {m.overhead:.3f}x); merged trace {m.trace_events} events "
            f"across {m.trace_pids} tracks, {m.metric_sources} metric sources"
        )
        lines.append("")
    if result.predict is not None:
        m = result.predict
        lines.append(
            f"prediction instrument ({m.journals} journals, "
            f"{m.flagged_programs} flagged, {m.predictions} witnesses)"
        )
        lines.append(
            f"{m.events} events in {m.elapsed:.2f}s "
            f"({m.events_per_second:,.0f} events/s); simulator "
            f"{m.sim_width}x{m.sim_rounds} fan best {m.sim_elapsed * 1e3:.2f}ms "
            f"vs cooperative {m.coop_elapsed * 1e3:.2f}ms "
            f"(overhead {m.sim_overhead:.2f}x)"
        )
        lines.append("")
    if result.reports:
        policies = result.policies
        header = f"{'benchmark':<16} " + " ".join(f"{p:>8}" for p in policies)
        lines.append("end-to-end overhead factors (best times, vs policy=None)")
        lines.append(header)
        lines.append("-" * len(header))
        for report in result.reports:
            cells = " ".join(
                f"{overhead_factor(report, p):>8.3f}" for p in policies
            )
            lines.append(f"{report.name:<16} {cells}")
        geo = " ".join(f"{result.overhead(p):>8.3f}" for p in policies)
        lines.append(f"{'geomean':<16} {geo}")
    return "\n".join(lines)
