"""The shared verified-join core, seen from every runtime.

One fixed program — a fan-out, a younger-sibling join that TJ denies,
and a batch join — runs on each runtime with the Armus fallback on and
off.  Verification must not depend on how a runtime schedules: the
verifier's counters, the verdict at the denied join and the program's
result are the same everywhere.  The journal tests pin the records the
core writes for a join and for a task's outcome.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter

import pytest

from repro.errors import PolicyViolationError, TaskFailedError
from repro.runtime import (
    AsyncioRuntime,
    CooperativeRuntime,
    RetryPolicy,
    TaskRuntime,
    WorkSharingRuntime,
)
from repro.runtime.sim import SimRuntime
from repro.tools.journal import read_journal

LEAVES = 8
BATCH = 4
YOUNG = 100

#: forks (root included), joins checked, joins rejected
EXPECTED_STATS = (1 + LEAVES + 2 + BATCH, LEAVES + 1 + 2 + BATCH, 1)
EXPECTED_TOTAL = sum(range(LEAVES)) + YOUNG + sum(range(BATCH))


def leaf(i):
    return i


def blocking_program(rt):
    """The program on a runtime whose joins block the calling thread."""

    def older(box):
        box["ready"].wait()
        try:
            return box["young"].join()  # a younger sibling: TJ denies it
        except PolicyViolationError as exc:
            return type(exc).__name__

    def main():
        total = sum(f.join() for f in [rt.fork(leaf, i) for i in range(LEAVES)])
        box = {"ready": threading.Event()}
        first = rt.fork(older, box)
        box["young"] = rt.fork(leaf, YOUNG)
        box["ready"].set()
        denied = first.join()
        total += box["young"].join()
        total += sum(rt.join_batch([rt.fork(leaf, i) for i in range(BATCH)]))
        return total, denied

    return main


def generator_program(rt):
    """The generator twin for the cooperative schedulers."""

    def older(box):
        while "young" not in box:
            yield None
        try:
            return (yield box["young"])
        except PolicyViolationError as exc:
            return type(exc).__name__

    def main():
        total = 0
        for fut in [rt.fork(leaf, i) for i in range(LEAVES)]:
            total += yield fut
        box = {}
        first = rt.fork(older, box)
        box["young"] = rt.fork(leaf, YOUNG)
        denied = yield first
        total += yield box["young"]
        for fut in [rt.fork(leaf, i) for i in range(BATCH)]:
            total += yield fut
        return total, denied

    return main


def async_program(rt):
    """The coroutine twin for asyncio."""

    async def aleaf(i):
        return i

    async def older(box):
        while "young" not in box:
            await asyncio.sleep(0)
        try:
            return await box["young"]
        except PolicyViolationError as exc:
            return type(exc).__name__

    async def main():
        total = 0
        for fut in [rt.fork(aleaf, i) for i in range(LEAVES)]:
            total += await fut
        box = {}
        first = rt.fork(older, box)
        box["young"] = rt.fork(aleaf, YOUNG)
        denied = await first
        total += await box["young"]
        total += sum(await asyncio.gather(*[rt.fork(aleaf, i) for i in range(BATCH)]))
        return total, denied

    return main


def _run(name, fallback):
    if name == "threaded":
        rt = TaskRuntime("TJ-SP", fallback=fallback)
        return rt, rt.run(blocking_program(rt))
    if name == "pool":
        rt = WorkSharingRuntime("TJ-SP", fallback=fallback, workers=2)
        return rt, rt.run(blocking_program(rt))
    if name == "cooperative":
        rt = CooperativeRuntime("TJ-SP", fallback=fallback)
        return rt, rt.run(generator_program(rt))
    if name == "sim":
        rt = SimRuntime("TJ-SP", fallback=fallback, seed=3)
        return rt, rt.run(generator_program(rt))
    rt = AsyncioRuntime("TJ-SP", fallback=fallback)
    return rt, asyncio.run(rt.run(async_program(rt)))


RUNTIMES = ["threaded", "pool", "cooperative", "sim", "asyncio"]


class TestConformance:
    @pytest.mark.parametrize("name", RUNTIMES)
    def test_strict_gate_faults_the_denied_join(self, name):
        rt, (total, denied) = _run(name, fallback=False)
        assert denied == "PolicyViolationError"
        assert total == EXPECTED_TOTAL
        stats = rt.verifier.stats
        assert (stats.forks, stats.joins_checked, stats.joins_rejected) == EXPECTED_STATS
        assert rt.detector is None

    @pytest.mark.parametrize("name", RUNTIMES)
    def test_hybrid_gate_admits_the_false_positive(self, name):
        rt, (total, denied) = _run(name, fallback=True)
        assert denied == YOUNG
        assert total == EXPECTED_TOTAL
        stats = rt.verifier.stats
        assert (stats.forks, stats.joins_checked, stats.joins_rejected) == EXPECTED_STATS
        armus = rt.detector.stats
        assert (armus.false_positives, armus.deadlocks_avoided) == (1, 0)


def _journal_runtime(name, path, **kwargs):
    if name == "threaded":
        return TaskRuntime("TJ-SP", journal=path, **kwargs)
    return WorkSharingRuntime("TJ-SP", journal=path, **kwargs)


class TestJournalRecords:
    @pytest.mark.parametrize("fallback", [True, False])
    @pytest.mark.parametrize("name", ["threaded", "pool"])
    def test_join_record_names_the_retried_attempt(self, tmp_path, name, fallback):
        """A joiner blocked across a retry completes against the retry's
        vertex; the ``join`` record must name that vertex too."""
        path = str(tmp_path / "retry.jsonl")
        rt = _journal_runtime(name, path, fallback=fallback)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                # Fail only once the root is blocked on this task.
                while not rt.blocked_joins():
                    time.sleep(0.001)
                raise ValueError("first attempt fails")
            return 7

        def main():
            spec = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
            return rt.fork(flaky, retry=spec).join()

        assert rt.run(main) == 7
        records = read_journal(path).records
        (retry,) = [r for r in records if r["kind"] == "retry"]
        (join,) = [r for r in records if r["kind"] == "join"]
        assert join["joinee"] == retry["reborn"]

    @pytest.mark.parametrize("name", ["threaded", "pool"])
    def test_every_terminated_task_has_one_complete_record(self, tmp_path, name):
        """Including a pool task cancelled while it was still queued."""
        path = str(tmp_path / "cancel.jsonl")
        kwargs = {"workers": 1, "max_workers": 1} if name == "pool" else {}
        rt = _journal_runtime(name, path, **kwargs)

        def main():
            gate = threading.Event()
            busy = rt.fork(gate.wait)  # holds the pool's only worker
            queued = rt.fork(leaf, 1)
            queued.cancel()
            gate.set()
            try:
                queued.join()
            except TaskFailedError:
                pass
            busy.join()

        rt.run(main)
        records = read_journal(path).records
        forked = [r["child"] for r in records if r["kind"] == "fork"]
        completed = [r["task"] for r in records if r["kind"] == "complete"]
        assert len(forked) == 2
        assert Counter(completed) == Counter(forked)
