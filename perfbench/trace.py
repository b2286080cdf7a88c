"""The traced run: spans recorded from outside the program.

:class:`SpanRecorder` wraps public functions of each layer.  A span
records its name, start, end, parent span and thread; the run id is the
recorder's.  Spans stay in memory until the run ends, then
:meth:`SpanRecorder.chrome_trace` writes them out once.

Each span carries wall-clock and thread CPU times.  Per-call latencies
are wall durations, as the caller sees them.  A span's self time is its
thread CPU time minus that of its child spans: on a threaded runtime the
wall time of a span also counts the time its thread waited for the
interpreter lock while other threads ran, and only CPU time adds up
across threads to the run's wall time.  Children nest inside their
parent on the same thread, so the self times of every span add up to
the CPU time of the top-level spans.

:func:`installed` puts class-level wrappers on the layer boundaries and
restores the originals on exit.  The flat TJ-SP policy binds ``permits``
on the instance, so policies are wrapped per instance with
:meth:`SpanRecorder.instrument_policy`.
"""

from __future__ import annotations

import inspect
import itertools
import os
import threading
from contextlib import contextmanager
from time import perf_counter_ns, thread_time_ns

import numpy as np

__all__ = ["SpanRecorder", "installed", "LAYERS"]

#: the layer each span name belongs to; ``bench.program``, the task-body
#: spans and ``Future.join`` are assigned per workload
LAYERS = {
    "bench.task": "bench",
    "bench.resume": "bench",
    "policy.add_child": "core.policy",
    "policy.permits": "core.policy",
    "policy.permits_many": "core.policy",
    "Verifier.on_fork": "core.verifier",
    "Verifier.check_join": "core.verifier",
    "Verifier.check_joins": "core.verifier",
    "Verifier.on_join_completed": "core.verifier",
    "HybridVerifier.begin_join": "armus",
    "HybridVerifier.end_join": "armus",
    "CooperativeRuntime.fork": "runtime.cooperative",
    "CooperativeRuntime.run": "runtime.cooperative",
    "TaskRuntime.fork": "runtime.threaded",
    "TaskRuntime.run": "runtime.threaded",
    "TaskRuntime.join_batch": "runtime.threaded",
    "ProcessRuntime.fork": "runtime.procs",
    "ProcessRuntime.join_batch": "runtime.procs",
    "wait": "runtime.threaded",
}

_POLICY_METHODS = ("add_child", "permits", "permits_many")


class SpanRecorder:
    """In-memory span store with per-thread span stacks."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = perf_counter_ns()
        #: (span id, name, start ns, end ns, CPU ns, parent span id or 0, thread)
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        token = (sid, name, stack[-1] if stack else 0, thread_time_ns(), perf_counter_ns())
        stack.append(sid)
        return token

    def end(self, token: tuple) -> None:
        end = perf_counter_ns()
        cpu = thread_time_ns()
        sid, name, parent, cpu0, start = token
        self._stack().pop()
        self.spans.append(
            (sid, name, start, end, cpu - cpu0, parent, threading.get_ident())
        )

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            token = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(token)

        traced.__wrapped__ = fn
        return traced

    def wrap_body(self, fn):
        """A task body inside a ``bench.task`` span; a generator body gets
        a ``bench.resume`` span around each of its resumes instead."""
        if not inspect.isgeneratorfunction(fn):
            return self.wrap("bench.task", fn)
        begin, end = self.begin, self.end

        def resumes(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value, exc = None, None
            while True:
                token = begin("bench.resume")
                try:
                    yielded = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end(token)
                try:
                    value, exc = (yield yielded), None
                except GeneratorExit:
                    gen.close()
                    raise
                except Exception as delivered:  # e.g. a refused join
                    value, exc = None, delivered

        return resumes

    def wrap_spawn(self, name: str, fn):
        """Wrap ``fork``/``run``: the call itself and the body it starts."""
        traced = self.wrap(name, fn)
        wrap_body = self.wrap_body

        def spawn(runtime, body, *args, **kwargs):
            return traced(runtime, wrap_body(body), *args, **kwargs)

        return spawn

    def instrument_policy(self, policy) -> None:
        """Wrap the policy's public methods on the instance."""
        for method in _POLICY_METHODS:
            setattr(policy, method, self.wrap(f"policy.{method}", getattr(policy, method)))

    # ------------------------------------------------------------------
    # blocked waits: the interval between a join registering its blocking
    # edge and releasing it, recorded as a child span of the join
    # ------------------------------------------------------------------
    def wrap_begin_join(self, fn):
        traced = self.wrap("HybridVerifier.begin_join", fn)
        local = self._local

        def begin_join(*args, **kwargs):
            blocked = traced(*args, **kwargs)
            if blocked:
                local.wait_start = (perf_counter_ns(), thread_time_ns())
            return blocked

        return begin_join

    def wrap_end_join(self, fn):
        traced = self.wrap("HybridVerifier.end_join", fn)
        local = self._local

        def end_join(*args, **kwargs):
            started = getattr(local, "wait_start", None)
            if started is not None:
                local.wait_start = None
                start, cpu0 = started
                stack = self._stack()
                self.spans.append(
                    (
                        next(self._ids),
                        "wait",
                        start,
                        perf_counter_ns(),
                        thread_time_ns() - cpu0,
                        stack[-1] if stack else 0,
                        threading.get_ident(),
                    )
                )
            return traced(*args, **kwargs)

        return end_join

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict:
        """Span id -> self CPU time in ns."""
        own = {sid: cpu for sid, _, _, _, cpu, _, _ in self.spans}
        for _, _, _, _, cpu, parent, _ in self.spans:
            if parent in own:
                own[parent] -= cpu
        return own

    def by_name(self) -> dict:
        """Span name -> (wall durations, self CPU times) as int64 arrays."""
        self_ns = self.self_times()
        durs: dict = {}
        selfs: dict = {}
        for sid, name, start, end, _, _, _ in self.spans:
            durs.setdefault(name, []).append(end - start)
            selfs.setdefault(name, []).append(self_ns[sid])
        return {
            name: (np.asarray(durs[name], np.int64), np.asarray(selfs[name], np.int64))
            for name in durs
        }

    def layer_self_ns(self, layers: dict) -> dict:
        """Layer -> total self CPU time in ns (``layers`` maps span names)."""
        out: dict = {}
        for name, (_, selfs) in self.by_name().items():
            layer = layers.get(name, name)
            out[layer] = out.get(layer, 0) + int(selfs.sum())
        return out

    def chrome_trace(self, layers: dict) -> dict:
        """The spans as a Chrome trace (``ph: "X"`` complete events)."""
        pid = os.getpid()
        tids: dict = {}
        events = []
        for sid, name, start, end, cpu, parent, thread in self.spans:
            tid = tids.setdefault(thread, len(tids) + 1)
            events.append(
                {
                    "name": name,
                    "cat": layers.get(name, name),
                    "ph": "X",
                    "ts": (start - self.origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "run": self.run_id,
                        "span": sid,
                        "parent": parent,
                        "cpu_us": cpu / 1000.0,
                    },
                }
            )
        for thread, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"thread-{tid}"},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ns"}


@contextmanager
def installed(rec: SpanRecorder, *, blocked_waits: bool):
    """Wrap every layer boundary for the duration of the block.

    ``blocked_waits`` also records the interval between a join's
    ``begin_join`` and ``end_join`` as a ``wait`` span; only meaningful
    where a join blocks its own thread (``TaskRuntime``).
    """
    from repro.armus.hybrid import HybridVerifier
    from repro.core.verifier import Verifier
    from repro.runtime import CooperativeRuntime, Future, ProcessRuntime, TaskRuntime

    targets = [
        (Verifier, "on_fork"),
        (Verifier, "check_join"),
        (Verifier, "check_joins"),
        (Verifier, "on_join_completed"),
        (TaskRuntime, "join_batch"),
        (Future, "join"),
        (ProcessRuntime, "fork"),
        (ProcessRuntime, "join_batch"),
    ]
    # task bodies run inside the runtime: wrapped where they are handed over
    spawns = [
        (CooperativeRuntime, "fork"),
        (CooperativeRuntime, "run"),
        (TaskRuntime, "fork"),
        (TaskRuntime, "run"),
    ]
    hybrid = [(HybridVerifier, "begin_join"), (HybridVerifier, "end_join")]
    saved = [(cls, attr, cls.__dict__.get(attr)) for cls, attr in targets + spawns + hybrid]
    try:
        for cls, attr in targets:
            setattr(cls, attr, rec.wrap(f"{cls.__name__}.{attr}", getattr(cls, attr)))
        for cls, attr in spawns:
            setattr(cls, attr, rec.wrap_spawn(f"{cls.__name__}.{attr}", getattr(cls, attr)))
        begin, end = HybridVerifier.begin_join, HybridVerifier.end_join
        if blocked_waits:
            HybridVerifier.begin_join = rec.wrap_begin_join(begin)
            HybridVerifier.end_join = rec.wrap_end_join(end)
        else:
            HybridVerifier.begin_join = rec.wrap("HybridVerifier.begin_join", begin)
            HybridVerifier.end_join = rec.wrap("HybridVerifier.end_join", end)
        yield rec
    finally:
        for cls, attr, original in saved:
            if original is not None:
                setattr(cls, attr, original)
            elif attr in cls.__dict__:
                delattr(cls, attr)
