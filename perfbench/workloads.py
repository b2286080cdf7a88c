"""The four workloads: set-up, one program run, and the traced run.

Each workload opens a *session* (the set-up ``setup_s`` measures) whose
``run(unit)`` executes one program and returns a checked
:class:`~perfbench.measure.Sample`, and whose ``traced()`` executes one
more program with every layer boundary wrapped.

* ``paper-suite`` — the six Table 2 programs at default scale.  One
  sample is one program under one arm (TJ-SP or the unchecked
  ``policy=None`` baseline).
* ``fine-coop`` / ``fine-threaded`` — the seeded spec of
  :mod:`perfbench.spec` on ``CooperativeRuntime`` / ``TaskRuntime``.
* ``procs-sidecar`` — ``ProcessRuntime`` with ``max(1, nproc-1)`` workers
  and a ``SidecarProcess``, running rounds of dispatch x mids x leaves
  subtrees inside one long-lived root task.
"""

from __future__ import annotations

import os
import queue
import random
import threading
from contextlib import nullcontext
from time import perf_counter_ns

import numpy as np

from repro.benchsuite import ALL_BENCHMARKS, make_benchmark
from repro.core.policy import make_policy
from repro.runtime import CooperativeRuntime, Future, ProcessRuntime, TaskRuntime

from . import programs
from .measure import CALIB_REF_NS, Sample
from .spec import make_spec
from .trace import LAYERS, SpanRecorder, installed

__all__ = ["WORKLOADS", "BACKEND", "PINNED", "check_backend"]

#: the TJ-SP kernel every run must load
BACKEND = "c"

#: workloads that run on one CPU: hundreds of threads handing the
#: interpreter lock between the cores of a shared host spread the wall
#: time of ``fine-threaded`` by 12-15% from run to run, pinned by 3-5%
PINNED = ("fine-threaded",)

TJ = "TJ-SP"
NONE = "none"


def check_backend(policy) -> None:
    if policy.backend != BACKEND:
        raise RuntimeError(
            f"TJ-SP backend {policy.backend!r} loaded, {BACKEND!r} requested"
        )


def _latencies(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class _Traced:
    """What a traced run leaves behind for the per-layer metrics."""

    def __init__(self, recorder, layers: dict, wall_ns: int, tasks: int, calibrated=True):
        self.recorder = recorder
        self.layers = layers
        self.wall_ns = wall_ns
        #: set by run.py once the run's threads have exited
        self.calib_ns = CALIB_REF_NS
        #: set by run.py on thread-calibrated workloads (see ``Sample``)
        self.thread_calib_ns = 0
        self.tasks = tasks
        self.calibrated = calibrated
        self.counts: dict = {}

    @property
    def scale(self) -> float:
        if self.thread_calib_ns:
            return CALIB_REF_NS / self.thread_calib_ns
        return CALIB_REF_NS / self.calib_ns if self.calibrated else 1.0


# ----------------------------------------------------------------------
# paper-suite
# ----------------------------------------------------------------------
class PaperSession:
    name = "paper-suite"
    arms = (TJ, NONE)
    calibrated = True
    #: five of the six programs run on the thread-per-task ``TaskRuntime``
    thread_calibrated = True

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.programs = {}
        for name in ALL_BENCHMARKS:
            params = {}
            if "seed" in make_benchmark(name).params:
                params["seed"] = rng.randrange(1 << 31)
            bench = make_benchmark(name, **params)
            bench.build()
            self.programs[name] = bench
        self.order = list(ALL_BENCHMARKS)
        rng.shuffle(self.order)
        check_backend(make_policy(TJ))
        self.workers = 0
        self._joins: list = []

    def units(self, arms):
        """The (program, arm) pairs one pass runs."""
        return [(name, arm) for name in self.order for arm in arms]

    def timing_joins(self):
        """Time every ``Future.join`` (five of the six programs join that
        way; NQueens joins by ``yield`` and is not timed)."""
        return _JoinTimer(self._joins)

    def run(self, unit, *, policy=None) -> Sample:
        name, arm = unit
        bench = self.programs[name]
        if policy is None and arm == TJ:
            policy = make_policy(TJ)
        self._joins.clear()
        t0 = perf_counter_ns()
        try:
            result, rt = bench.execute(policy if arm == TJ else None)
            ok = bench.verify(result)
        except Exception:  # noqa: BLE001 - a raising program is a failure
            ok, rt = False, None
        wall = perf_counter_ns() - t0
        sample = Sample(
            arm=arm,
            wall_ns=wall,
            tasks=rt.verifier.stats.forks if rt is not None else 0,
            failed=0 if ok else 1,
            latency_ns=_latencies(self._joins),
            program=name,
            runtime=rt,
        )
        return sample

    def traced(self) -> _Traced:
        rec = SpanRecorder(f"{self.name}-traced")
        layers = dict(
            LAYERS,
            **{
                "bench.program": "benchsuite",
                "bench.task": "benchsuite",
                "bench.resume": "benchsuite",
                "Future.join": "runtime.threaded",
            },
        )
        wall = tasks = space = 0
        failed = 0
        stats = dict.fromkeys(
            ("joins_checked", "joins_rejected", "false_positives", "deadlocks_avoided",
             "threads_started", "tasks_started"),
            0,
        )
        with installed(rec, blocked_waits=True):
            for name in self.order:
                policy = make_policy(TJ)
                rec.instrument_policy(policy)
                token = rec.begin("bench.program")
                sample = self.run((name, TJ), policy=policy)
                rec.end(token)
                wall += sample.wall_ns
                tasks += sample.tasks
                failed += sample.failed
                rt = sample.runtime
                if rt is None:  # the program raised: counted as failed
                    continue
                space += rt.policy.space_units()
                vs = rt.verifier.stats
                stats["joins_checked"] += vs.joins_checked
                stats["joins_rejected"] += vs.joins_rejected
                stats["false_positives"] += rt.detector.stats.false_positives
                stats["deadlocks_avoided"] += rt.detector.stats.deadlocks_avoided
                if isinstance(rt, TaskRuntime):
                    stats["threads_started"] += rt.threads_started
                    stats["tasks_started"] += rt.tasks_started
        out = _Traced(rec, layers, wall, tasks)
        out.counts = dict(stats, space_units=space, failed=failed, attempted=len(self.order))
        return out

    def close(self) -> None:
        pass


class _JoinTimer:
    """Context manager that times every ``Future.join`` into a list."""

    def __init__(self, sink: list) -> None:
        self.sink = sink

    def __enter__(self):
        original = Future.join
        sink = self.sink

        def join(fut, timeout=None):
            t0 = perf_counter_ns()
            try:
                return original(fut, timeout)
            finally:
                sink.append(perf_counter_ns() - t0)

        self._original = original
        Future.join = join
        return self

    def __exit__(self, *exc) -> None:
        Future.join = self._original


# ----------------------------------------------------------------------
# fine-coop / fine-threaded
# ----------------------------------------------------------------------
class FineSession:
    arms = (TJ,)
    calibrated = True
    thread_calibrated = False

    def __init__(self, seed: int, kind: str) -> None:
        self.kind = kind
        self.name = f"fine-{kind}"
        self.spec = make_spec(seed)
        check_backend(make_policy(TJ))
        self.workers = 0

    def units(self, arms):
        return [(self.name, TJ)]

    def timing_joins(self):
        return nullcontext()

    def run(self, unit=None, *, policy=None) -> Sample:
        spec = self.spec
        coop = self.kind == "coop"
        task = programs.coop_task if coop else programs.threaded_task
        log = programs.JoinLog(spec.pairs)
        args = (spec.nodes, spec.root, []) if coop else (spec.nodes, spec.root, [], None)
        t0 = perf_counter_ns()
        if policy is None:
            policy = make_policy(TJ)
        rt = CooperativeRuntime(policy) if coop else TaskRuntime(policy)
        try:
            result = rt.run(task, rt, *args, log)
            error = False
        except Exception:  # noqa: BLE001 - a raising program fails every join
            result, error = None, True
        wall = perf_counter_ns() - t0
        sample = Sample(
            arm=TJ,
            wall_ns=wall,
            tasks=spec.tasks,
            attempted=spec.joins,
            failed=spec.joins if error else self.failures(rt, log, result),
            latency_ns=_latencies(log.latency_ns),
            program=self.name,
            runtime=rt,
        )
        return sample

    def failures(self, rt, log, result) -> int:
        """Failed joins of one run, checked against the spec's predictions."""
        spec = self.spec
        vs = rt.verifier.stats
        failed = log.bad_refusals
        # a cycle must be refused at exactly one of its two joins
        failed += sum(r != 1 for r in log.pair_refusals)
        # every join the formal TJ relation forbids, and only those, is flagged
        failed += abs(vs.joins_rejected - spec.flagged)
        failed += abs(vs.joins_checked - spec.joins)
        if result != spec.checksum:
            failed += 1
        return failed

    def traced(self) -> _Traced:
        rec = SpanRecorder(f"{self.name}-traced")
        coop = self.kind == "coop"
        runtime_layer = "runtime.cooperative" if coop else "runtime.threaded"
        layers = dict(LAYERS, **{"bench.program": runtime_layer, "Future.join": runtime_layer})
        policy = make_policy(TJ)
        rec.instrument_policy(policy)
        with installed(rec, blocked_waits=not coop):
            token = rec.begin("bench.program")
            sample = self.run(policy=policy)
            rec.end(token)
        rt = sample.runtime
        out = _Traced(rec, layers, sample.wall_ns, sample.tasks)
        vs = rt.verifier.stats
        ds = rt.detector.stats
        out.counts = {
            "forks": vs.forks,
            "joins_checked": vs.joins_checked,
            "joins_rejected": vs.joins_rejected,
            "false_positives": ds.false_positives,
            "deadlocks_avoided": ds.deadlocks_avoided,
            "space_units": rt.policy.space_units(),
            "failed": sample.failed,
            "attempted": sample.attempted,
        }
        if coop:
            out.counts["steps"] = rt.steps
        else:
            out.counts["threads_started"] = rt.threads_started
            out.counts["tasks_started"] = rt.tasks_started
        return out

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# procs-sidecar
# ----------------------------------------------------------------------
DISPATCHES = 8
MIDS = 6
LEAVES = 12


class ProcsSession:
    """A sidecar plus a ``ProcessRuntime`` whose root task serves rounds.

    The root runs in a host thread and executes requests from the main
    thread one at a time, so set-up, program runs and shutdown keep the
    same shape as the other workloads.
    """

    name = "procs-sidecar"
    arms = (TJ,)
    #: rounds wait on other processes and the sidecar hop, which a CPU
    #: calibration loop in this process does not track: raw times are steadier
    calibrated = False
    thread_calibrated = False

    def __init__(self, seed: int, *, telemetry: bool = False) -> None:
        from repro import obs
        from repro.service.proc import SidecarProcess

        self.seed = seed
        rng = random.Random(seed)
        self.bases = [rng.randrange(1 << 40) for _ in range(DISPATCHES)]
        self.expected = [programs.procs_expected(b, MIDS, LEAVES) for b in self.bases]
        self.workers = max(1, (os.cpu_count() or 1) - 1)
        self.telemetry = None
        self.final: dict = {}
        self._requests: queue.Queue = queue.Queue()
        self._replies: queue.Queue = queue.Queue()
        self._host = threading.Thread(target=self._host_main, name="perfbench-root")
        t0 = perf_counter_ns()
        self.sidecar = SidecarProcess(port=0, obs=telemetry)
        self.sidecar_start_ns = perf_counter_ns() - t0
        try:
            if telemetry:
                self.telemetry = obs.enable(tracing=False)
            self.rt = ProcessRuntime(
                TJ, workers=self.workers, spawn_paths="shm", sidecar=self.sidecar.url
            )
            t1 = perf_counter_ns()
            self._host.start()
            kind, value = self._replies.get()
            self.spawn_ns = perf_counter_ns() - t1
        except BaseException:
            self.close()
            raise
        if kind != "ready":
            self.close()
            raise RuntimeError(f"procs session failed to start: {value!r}")

    # --- host thread ---------------------------------------------------
    def _host_main(self) -> None:
        try:
            self.rt.run(self._root)
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            self._replies.put(("error", exc))

    def _root(self) -> None:
        rt = self.rt
        check_backend_procs(rt)
        # handshake: one task per worker (dispatch is round-robin), so
        # every worker has imported, attached and answered once
        for fut in [rt.fork(programs.procs_noop) for _ in range(self.workers)]:
            fut.join()
        self._replies.put(("ready", None))
        while True:
            request = self._requests.get()
            if request is None:
                return
            fn, args = request
            try:
                self._replies.put(("ok", fn(*args)))
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                self._replies.put(("error", exc))

    def _call(self, fn, *args):
        self._requests.put((fn, args))
        kind, value = self._replies.get()
        if kind != "ok":
            raise value
        return value

    # --- one program: a round of subtrees ------------------------------
    def _round(self, recorder):
        rt = self.rt
        lat: list = []
        failed = 0
        token = recorder.begin("bench.program") if recorder is not None else None
        t0 = perf_counter_ns()
        futs = [
            rt.fork(programs.procs_subtree, base, MIDS, LEAVES) for base in self.bases
        ]
        for fut, expected in zip(futs, self.expected):
            t1 = perf_counter_ns()
            try:
                value, inner = fut.join()
            except Exception:  # noqa: BLE001 - a failed subtree is a divergence
                failed += 1
                continue
            lat.append(perf_counter_ns() - t1)
            lat.extend(inner)
            if value != expected:
                failed += 1
        wall = perf_counter_ns() - t0
        if token is not None:
            recorder.end(token)
        return wall, lat, failed

    def units(self, arms):
        return [(self.name, TJ)]

    def timing_joins(self):
        return nullcontext()

    def run(self, unit=None, *, recorder=None) -> Sample:
        wall, lat, failed = self._call(self._round, recorder)
        per_subtree = 1 + MIDS + MIDS * LEAVES
        return Sample(
            arm=TJ,
            wall_ns=wall,
            tasks=DISPATCHES * per_subtree,
            attempted=DISPATCHES * per_subtree,
            failed=failed,
            latency_ns=_latencies(lat),
            program=self.name,
        )

    def probe_service(self, checks: int = 200) -> dict:
        """The sidecar's stats reply for this run, and ``check`` round trips.

        A probe session joins the run's tenant and times ``checks`` round
        trips of one permitted join (the root joining a dispatched child),
        the same request a worker sends for every cross-process join.
        """
        from repro.runtime import require_current_task
        from repro.service.client import SessionClient

        rt = self.rt
        probe_id = f"{rt.run_id}-bench"

        def probe():
            fut = rt.fork(programs.procs_noop)
            fut.join()
            root, child = require_current_task().vertex, fut.task.vertex
            client = SessionClient(self.sidecar.url, probe_id, tenant=rt.run_id)
            try:
                if not client.connect():
                    raise RuntimeError("probe session could not reach the sidecar")
                stats = client.stats() or {}
                rtt = []
                for _ in range(checks):
                    t0 = perf_counter_ns()
                    if not client.check(root, child):
                        raise RuntimeError("sidecar refused a parent joining its child")
                    rtt.append(perf_counter_ns() - t0)
            finally:
                client.close()
            return stats, rtt

        stats, rtt = self._call(probe)
        sessions = [
            s for sid, s in stats.get("per_session", {}).items()
            if sid.startswith(rt.run_id) and sid != probe_id
        ]
        return {
            "checks": sum(s.get("checks", 0) for s in sessions),
            "events": sum(s.get("events", 0) for s in sessions),
            "rtt_ns": rtt,
        }

    def close(self) -> dict:
        """Stop the root, the workers and the sidecar; return final counts."""
        from repro import obs

        if self._host.is_alive():
            self._requests.put(None)
            self._host.join(timeout=60)
        try:
            rt = getattr(self, "rt", None)
            if rt is None:  # failed before the runtime existed
                return self.final
            joins = rt.join_stats()
            self.final = {
                "local_joins": joins["local_joins"],
                "cross_joins": joins["cross_joins"],
                "degraded_joins": joins["degraded_joins"],
                "escalation_ratio": joins["escalation_ratio"],
                "worker_deaths": rt.worker_deaths,
                "redispatched": rt.tasks_redispatched,
            }
            if self.telemetry is not None:
                self.final["fleet"] = rt.fleet_metrics()
        finally:
            self.sidecar.stop()
            if self.telemetry is not None:
                obs.disable()
        return self.final

    def traced(self) -> _Traced:
        """One traced round, in a fresh session (see :func:`traced_procs`)."""
        return traced_procs(self.seed)



#: the spawn-path store every procs run must use
PROCS_BACKEND = "shm"


def check_backend_procs(rt) -> None:
    if rt.policy.backend != PROCS_BACKEND:
        raise RuntimeError(
            f"procs policy backend {rt.policy.backend!r}, {PROCS_BACKEND!r} requested"
        )


def traced_procs(seed: int) -> _Traced:
    """One traced round in a fresh session with telemetry switched on.

    The parent's spans come from the wrappers; the workers are fresh
    processes out of their reach, so their numbers come from
    ``ProcessRuntime.fleet_metrics()``, the sidecar's stats reply and a
    probe session's ``check`` round trips (``SessionClient`` records no
    round-trip histogram of its own).
    """
    rec = SpanRecorder("procs-sidecar-traced")
    layers = dict(LAYERS, **{"bench.program": "bench", "Future.join": "runtime.procs"})
    session = ProcsSession(seed, telemetry=True)
    try:
        with installed(rec, blocked_waits=False):
            sample = session.run(recorder=rec)
        service = session.probe_service()
    finally:
        final = session.close()
    out = _Traced(rec, layers, sample.wall_ns, sample.tasks, calibrated=False)
    out.counts = dict(final, failed=sample.failed, attempted=sample.attempted, **service)
    out.counts["spawn_ns"] = session.spawn_ns
    out.counts["sidecar_start_ns"] = session.sidecar_start_ns
    return out


WORKLOADS = {
    "paper-suite": lambda seed: PaperSession(seed),
    "fine-coop": lambda seed: FineSession(seed, "coop"),
    "fine-threaded": lambda seed: FineSession(seed, "threaded"),
    "procs-sidecar": lambda seed: ProcsSession(seed),
}
