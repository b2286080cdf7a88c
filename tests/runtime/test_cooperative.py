"""Unit and integration tests for the deterministic cooperative runtime."""

import gc
import weakref

import pytest

from repro import (
    CooperativeRuntime,
    DeadlockAvoidedError,
    DeadlockDetectedError,
    PolicyViolationError,
    TaskFailedError,
)
from repro.armus.hybrid import HybridVerifier
from repro.core.verifier import Verifier
from repro.errors import RuntimeStateError
from repro.runtime import current_task


class TestBasics:
    def test_generator_fork_join(self):
        rt = CooperativeRuntime()

        def child():
            return 21

        def main():
            fut = rt.fork(child)
            value = yield fut
            return value * 2

        assert rt.run(main) == 42

    def test_plain_function_root(self):
        rt = CooperativeRuntime()
        assert rt.run(lambda: 7) == 7

    def test_generator_children(self):
        rt = CooperativeRuntime()

        def child(n):
            yield None  # cooperative yield
            return n * n

        def main():
            futs = [rt.fork(child, i) for i in range(5)]
            total = 0
            for f in futs:
                total += yield f
            return total

        assert rt.run(main) == sum(i * i for i in range(5))

    def test_nested_generators(self):
        rt = CooperativeRuntime()

        def fib(n):
            if n < 2:
                return n
            a = rt.fork(fib, n - 1)
            b = rt.fork(fib, n - 2)
            ra = yield a
            rb = yield b
            return ra + rb

        assert rt.run(fib, 12) == 144

    def test_yield_none_reschedules(self):
        rt = CooperativeRuntime()
        log = []

        def ticker(name, count):
            for _ in range(count):
                log.append(name)
                yield None

        def main():
            a = rt.fork(ticker, "a", 3)
            b = rt.fork(ticker, "b", 3)
            yield a
            yield b

        rt.run(main)
        # FIFO scheduling interleaves the tickers deterministically
        assert log == ["a", "b", "a", "b", "a", "b"]

    def test_determinism_across_runs(self):
        def program(rt):
            order = []

            def worker(i):
                order.append(i)
                yield None
                order.append(10 + i)
                return i

            def main():
                futs = [rt.fork(worker, i) for i in range(4)]
                total = 0
                for f in futs:
                    total += yield f
                return total, tuple(order)

            return rt.run(main), rt.steps

        r1 = program(CooperativeRuntime())
        r2 = program(CooperativeRuntime())
        assert r1 == r2

    def test_task_exception_delivered_at_join(self):
        rt = CooperativeRuntime()

        def bad():
            raise ValueError("inner")

        def main():
            fut = rt.fork(bad)
            try:
                yield fut
            except TaskFailedError as exc:
                assert isinstance(exc.__cause__, ValueError)
                return "recovered"
            return "not reached"

        assert rt.run(main) == "recovered"

    def test_current_task_tracked_per_step(self):
        rt = CooperativeRuntime()

        def child():
            return current_task().name

        def main():
            me = current_task().name
            other = yield rt.fork(child)
            assert current_task().name == me
            return me, other

        me, other = rt.run(main)
        assert me == "root" and other != "root"


class TestJoinSemantics:
    def test_sync_join_on_done_future(self):
        rt = CooperativeRuntime()

        def main():
            fut = rt.fork(lambda: 5)
            yield fut  # wait for it
            # a second, synchronous join on the terminated task:
            return fut.join() + 1

        assert rt.run(main) == 6

    def test_sync_join_on_pending_future_refused(self):
        rt = CooperativeRuntime()

        def main():
            fut = rt.fork(lambda: 5)
            with pytest.raises(RuntimeStateError, match="yield future"):
                fut.join()
            return (yield fut)

        assert rt.run(main) == 5

    def test_yield_non_future_is_an_error_in_the_task(self):
        rt = CooperativeRuntime()

        def main():
            with pytest.raises(RuntimeStateError, match="yield a Future"):
                yield 42
            return "ok"

        assert rt.run(main) == "ok"

    def test_foreign_future_is_an_error_in_the_task(self):
        rt1 = CooperativeRuntime()
        rt2 = CooperativeRuntime()

        def main1():
            return rt1.fork(lambda: 1)

        foreign = rt1.run(main1)

        def main2():
            with pytest.raises(RuntimeStateError, match="different runtime"):
                yield foreign
            return "ok"

        assert rt2.run(main2) == "ok"

    def test_run_twice_refused(self):
        rt = CooperativeRuntime()
        rt.run(lambda: None)
        with pytest.raises(RuntimeStateError):
            rt.run(lambda: None)


class TestDeadlockHandling:
    def _mutual_join_program(self, rt):
        """Two siblings each joining the other — a guaranteed cycle."""
        box = {}

        def task1():
            while "f2" not in box:
                yield None
            return (yield box["f2"])

        def task2():
            return (yield box["f1"])

        def main():
            box["f1"] = rt.fork(task1)
            box["f2"] = rt.fork(task2)
            r1 = yield box["f1"]
            r2 = yield box["f2"]
            return r1, r2

        return main

    def test_unprotected_deadlock_is_detected_not_hung(self):
        rt = CooperativeRuntime(policy=None, fallback=False)
        main = self._mutual_join_program(rt)
        with pytest.raises(DeadlockDetectedError) as exc_info:
            rt.run(main)
        assert exc_info.value.cycle is not None

    def test_tj_with_fallback_avoids_the_deadlock(self):
        """Without recovery code, the avoided deadlock surfaces as a task
        failure chain whose root cause is DeadlockAvoidedError — the
        program terminates instead of hanging."""
        rt = CooperativeRuntime(policy="TJ-SP")
        main = self._mutual_join_program(rt)
        with pytest.raises(TaskFailedError) as exc_info:
            rt.run(main)
        cause = exc_info.value
        while isinstance(cause, TaskFailedError):
            cause = cause.__cause__
        assert isinstance(cause, DeadlockAvoidedError)
        assert rt.detector.stats.deadlocks_avoided == 1

    def test_avoided_deadlock_is_catchable_in_the_task(self):
        rt = CooperativeRuntime(policy="TJ-SP")
        box = {}

        def task1():
            while "f2" not in box:
                yield None
            try:
                return (yield box["f2"])
            except DeadlockAvoidedError:
                return "t1-recovered"

        def task2():
            try:
                return (yield box["f1"])
            except DeadlockAvoidedError:
                return "t2-recovered"

        def main():
            box["f1"] = rt.fork(task1)
            box["f2"] = rt.fork(task2)
            r1 = yield box["f1"]
            r2 = yield box["f2"]
            return {r1, r2}

        results = rt.run(main)
        recovered = {r for r in results if isinstance(r, str) and "recovered" in r}
        assert len(recovered) == 1
        assert rt.detector.stats.deadlocks_avoided == 1

    def test_policy_violation_without_fallback(self):
        rt = CooperativeRuntime(policy="TJ-SP", fallback=False)

        def main():
            fut = rt.fork(lambda: 1)
            own = {}

            def child():
                try:
                    yield own["fut"]
                except PolicyViolationError:
                    return "faulted"
                return "not reached"

            own["fut"] = rt.fork(child)
            yield fut
            return (yield own["fut"])

        assert rt.run(main) == "faulted"

    def test_self_join_refused(self):
        """A task yielding its own future: the irreflexive order refuses
        it before it can block forever."""
        rt = CooperativeRuntime(policy="TJ-SP")
        box = {}

        def selfish():
            while "me" not in box:
                yield None
            try:
                yield box["me"]
            except (PolicyViolationError, DeadlockAvoidedError) as exc:
                return type(exc).__name__
            return "not reached"

        def main():
            box["me"] = rt.fork(selfish)
            return (yield box["me"])

        result = rt.run(main)
        assert result in ("PolicyViolationError", "DeadlockAvoidedError")

    def test_self_cycle_three_tasks(self):
        """A three-task ring, deterministically avoided."""
        rt = CooperativeRuntime(policy="TJ-SP")
        box = {}

        def worker(me, other):
            while other not in box:
                yield None
            try:
                return (yield box[other])
            except DeadlockAvoidedError:
                return f"{me}-avoided"

        def main():
            box["f1"] = rt.fork(worker, "t1", "f2")
            box["f2"] = rt.fork(worker, "t2", "f3")
            box["f3"] = rt.fork(worker, "t3", "f1")
            results = []
            for key in ("f1", "f2", "f3"):
                results.append((yield box[key]))
            return results

        results = rt.run(main)
        # Exactly one worker was refused and recovered; the other two
        # joined successfully and returned the recovered value onward.
        assert len(set(results)) == 1
        assert results[0].endswith("-avoided")
        assert rt.detector.stats.deadlocks_avoided == 1


class _Result:
    """A weak-referenceable task result."""


class TestMemory:
    def test_dropped_futures_free_their_results(self):
        """The runtime holds no completed future: once the program drops
        a joined future, its result is garbage."""
        rt = CooperativeRuntime()
        refs = []

        def leaf():
            result = _Result()
            refs.append(weakref.ref(result))
            return result

        def main():
            for _ in range(100):
                yield rt.fork(leaf)
            # The step that resumes a join passes its result as the send
            # argument; a scheduling yield makes this step deliver None.
            yield None
            gc.collect()
            return sum(ref() is not None for ref in refs)

        assert rt.run(main) == 0
        assert len(refs) == 100


def _contract_program(rt):
    """Fan-out, a younger-sibling join and a mutual-join pair."""
    box = {}

    def leaf(i):
        return i

    def older():
        while "young" not in box:
            yield None
        return (yield box["young"])  # flagged by TJ, admitted by Armus

    def mutual(other):
        while other not in box:
            yield None
        try:
            return (yield box[other])
        except DeadlockAvoidedError:
            return -1

    def main():
        total = 0
        for fut in [rt.fork(leaf, i) for i in range(20)]:
            total += yield fut
        first = rt.fork(older)
        box["young"] = rt.fork(leaf, 100)
        total += yield first
        box["m1"] = rt.fork(mutual, "m2")
        box["m2"] = rt.fork(mutual, "m1")
        total += yield box["m1"]
        total += yield box["m2"]
        return total

    return main


#: joins _contract_program makes: 20 fan-out, 1 younger-sibling, the
#: parent's join of that sibling's joiner, 2 in the pair, 2 of the pair
CONTRACT_JOINS = 26


class TestFastPathContract:
    """What a faster scheduler must not change."""

    def test_pinned_counts(self):
        rt = CooperativeRuntime()
        assert rt.run(_contract_program(rt)) == sum(range(20)) + 100 - 2
        assert rt.steps == 51
        stats = rt.verifier.stats
        assert (stats.forks, stats.joins_checked, stats.joins_rejected) == (25, 26, 2)
        armus = rt.detector.stats
        assert (armus.false_positives, armus.deadlocks_avoided) == (2, 1)

    def test_layer_boundaries_are_called_through_the_class(self, monkeypatch):
        """Tracing and telemetry wrap the verifier layers on the class;
        every join must pass through those wrappers, even when they are
        installed after the runtime was built."""
        rt = CooperativeRuntime()
        seen = {"begin_join": 0, "check_join": 0}

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                seen[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(HybridVerifier, "begin_join")
        counting(Verifier, "check_join")
        rt.run(_contract_program(rt))
        assert seen == {"begin_join": CONTRACT_JOINS, "check_join": CONTRACT_JOINS}
        assert rt.verifier.stats.joins_checked == CONTRACT_JOINS
