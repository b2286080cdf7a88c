"""The cooperative (single-threaded, deterministic) runtime.

The paper's footnote 4 mentions an alternative *cooperative work-sharing*
runtime used for NQueens; this module provides the Python analogue.
Tasks are generator functions; a task joins by yielding the future::

    def reducer(futs):
        total = 0
        for f in futs:
            total += (yield f)      # join
        return total

``yield None`` is a pure scheduling yield (the analogue of
``Thread.yield()`` in Listing 2's spin loop).  Plain (non-generator)
functions are also accepted and simply run to completion when scheduled.

Because scheduling is deterministic (FIFO), this runtime doubles as the
repository's deadlock sandbox: with verification disabled a cyclic join
pattern is *detected* (the scheduler observes that no task can make
progress and raises :class:`DeadlockDetectedError` instead of hanging),
and with verification enabled the same program receives a recoverable
:class:`DeadlockAvoidedError`/:class:`PolicyViolationError` at the
offending ``yield`` — tasks can catch it, exactly the recovery story of
Section 1.

Being single-threaded, this runtime never sleeps on a future: the
scheduler observes completion synchronously at each scheduling step, so
the event-driven waker protocol on :class:`~repro.runtime.future.Future`
(targeted wakes for the blocking runtimes' supervised waits) is simply
unused here — blocked generators are parked in data structures and
resumed when their future's task terminates.

Each task is one slotted record, :class:`_Task`: its
:class:`~repro.runtime.task.TaskHandle` identity plus the generator, the
future, and what to deliver at the next step (a value to send or an
exception to throw).  A scheduler step reads the record, installs the
task as the thread's current task, resumes the generator once, restores
the previous current task and acts on what was yielded; no per-step
object is allocated, and only a join that really blocks touches the
task-keyed waits-for map.  A completed task's record drops its
generator and future, so a result lives exactly as long as the program
holds its future.

Verification is the shared :class:`~repro.runtime.core.JoinCore`: a
yielded future passes the core's gate, and a join completes through the
core when the joinee has terminated — at once, or when the scheduler
wakes the parked joiner.  The verification layers are reached through
class attributes on every fork and join (``Verifier.on_fork``,
``HybridVerifier.begin_join``, ...), never through bound methods cached
at construction: tracing and telemetry wrap those attributes on the
class, and a cached bound method would hide the layer from them.
"""

from __future__ import annotations

import inspect
from collections import deque
from types import FunctionType
from typing import Any, Callable, Generator, Optional, Union

from .context import _tls, require_current_task
from .core import JoinCore
from .future import Future
from .task import TaskHandle, TaskState
from ..core.policy import JoinPolicy
from ..errors import (
    DeadlockDetectedError,
    RuntimeStateError,
    TaskCancelledError,
    TaskFailedError,
)
from ..formal.deadlock import find_cycle

__all__ = ["CooperativeRuntime"]


class _Task(TaskHandle):
    """A cooperative task: its handle plus everything the scheduler keeps.

    ``value``/``exc`` is what the next step sends or throws into ``gen``;
    ``gen`` and ``future`` are dropped when the task completes.
    """

    __slots__ = ("gen", "future", "value", "exc")


class CooperativeRuntime(JoinCore):
    """Deterministic single-threaded futures runtime with generator tasks."""

    def __init__(
        self,
        policy: Union[None, str, JoinPolicy] = "TJ-SP",
        *,
        fallback: bool = True,
        scheduler: Optional[Callable[[int], int]] = None,
    ) -> None:
        """``scheduler``, if given, picks which ready task runs next: it
        receives the current ready-queue length and returns an index into
        it.  The default (None) is FIFO.  Schedule exploration
        (:mod:`repro.runtime.explore`) uses this hook to drive a program
        through many interleavings deterministically."""
        self._init_core(policy, fallback=fallback)
        self._scheduler = scheduler
        self._ready: deque[_Task] = deque()
        #: task -> future it is blocked on (the cooperative waits-for map)
        self._blocked_on: dict[_Task, Future] = {}
        self._waiters: dict[Future, list[_Task]] = {}
        self._running = False
        self._steps = 0

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Scheduler steps executed so far (determinism aid for tests)."""
        return self._steps

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Execute *fn* as the root task; drive the scheduler to completion."""
        self._claim_root()
        vertex = self._verifier.on_init()
        root = self._make_task(
            vertex, fn, args, kwargs, getattr(_tls, "task", None), name="root"
        )
        root_future = root.future
        self._running = True
        try:
            self._loop()
        finally:
            self._running = False
        assert root_future._done
        root_future._joined = True
        return root_future._result_now()

    def fork(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """``async fn(*args)`` from within a running task.

        Forking is a cancellation point: a cancelled task faults here
        with :class:`~repro.errors.TaskCancelledError`.
        """
        parent = getattr(_tls, "task", None)
        if parent is None:
            parent = require_current_task()  # raises: not inside a task
        if parent.cancel_token._cancelled:
            raise TaskCancelledError(parent)
        vertex = self._verifier.on_fork(parent.vertex)
        return self._make_task(vertex, fn, args, kwargs, parent).future

    def join(self, future: Future, *, timeout: Optional[float] = None) -> Any:
        """Synchronous join — only legal on an already-terminated future.

        A cooperative task that needs to *wait* must use ``yield future``;
        blocking here would freeze the whole scheduler, so it is refused.
        ``timeout`` is accepted for interface parity with the blocking
        runtimes and ignored: a join that is legal here never waits.
        """
        if future._runtime is not self:
            raise RuntimeStateError("future belongs to a different runtime")
        joiner = require_current_task()
        if not future.done():
            raise RuntimeStateError(
                "cooperative tasks must join with `result = yield future`; "
                "Future.join() can only collect already-terminated tasks"
            )
        self._gate_join(joiner, future.task, True)
        return self._finish_join(joiner, future)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _make_task(
        self,
        vertex: object,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        parent: Optional[TaskHandle],
        *,
        name: Optional[str] = None,
    ) -> _Task:
        task = _Task(
            vertex, code=fn, name=name, parent_uid=None if parent is None else parent.uid
        )
        task.future = Future(self, task)
        task.value = task.exc = None
        # Instantiate the body immediately so generator-function detection
        # happens at fork time; execution starts at the first scheduler step.
        if type(fn) is FunctionType:
            is_generator = fn.__code__.co_flags & inspect.CO_GENERATOR
        else:
            is_generator = inspect.isgeneratorfunction(fn)
        if is_generator:
            task.gen = fn(*args, **kwargs)
        else:
            # Plain callables run atomically when first scheduled.
            task.gen = _as_generator(fn, args, kwargs)
        task.state = TaskState.RUNNING
        self._ready.append(task)
        return task

    def _loop(self) -> None:
        while True:
            if not self._ready:
                # The idle hook may wake parked tasks (the simulator's
                # virtual clock fires timers here); when it reports no
                # progress the run is over — or stuck.
                if self._on_idle():
                    continue
                break
            self._step(self._select_task())

    def _select_task(self) -> _Task:
        """Pick the next ready task to step (the scheduling decision)."""
        if self._scheduler is None:
            return self._ready.popleft()
        at = self._scheduler(len(self._ready))
        if not 0 <= at < len(self._ready):
            raise RuntimeStateError(
                f"scheduler returned index {at} for queue of "
                f"{len(self._ready)}"
            )
        self._ready.rotate(-at)
        task = self._ready.popleft()
        self._ready.rotate(at)
        return task

    def _on_idle(self) -> bool:
        """No task is ready.  Returns True when progress was made.

        The base runtime can make none: blocked tasks with an empty
        ready queue are a deadlock (reported), and no blocked tasks
        means the program is done.  :class:`~repro.runtime.sim.SimRuntime`
        overrides this to advance its virtual clock and fire timers.
        """
        if self._blocked_on:
            self._report_stuck()
        return False

    def _report_stuck(self) -> None:
        """No runnable task but blocked tasks remain: a real deadlock.

        Unreachable while avoidance is active (that is Theorem 3.11 at
        work); with verification disabled this converts a hang into a
        diagnosable error carrying the cycle.
        """
        graph: dict[Any, set[Any]] = {}
        for task, future in self._blocked_on.items():
            graph.setdefault(task, set()).add(future.task)
            graph.setdefault(future.task, set())
        cycle = find_cycle(graph)
        raise DeadlockDetectedError(
            cycle=tuple(cycle) if cycle else tuple(self._blocked_on),
            message=None
            if cycle
            else "all tasks blocked but no cycle found (external future?)",
        )

    def _step(self, task: _Task) -> None:
        self._steps += 1
        exc = task.exc
        if exc is not None:
            task.exc = None
        elif task.cancel_token._cancelled:
            # Scheduling is a cancellation point: deliver the request as
            # an exception thrown into the generator, so the task can
            # run its cleanup (or catch and finish gracefully).
            exc = TaskCancelledError(task)
        value = task.value
        task.value = None
        prev = getattr(_tls, "task", None)
        _tls.task = task
        try:
            if exc is None:
                yielded = task.gen.send(value)
            else:
                yielded = task.gen.throw(exc)
        except StopIteration as stop:
            _tls.task = prev
            self._complete(task, stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - delivered at joins
            _tls.task = prev
            self._complete(task, exc=failure)
            return
        _tls.task = prev
        self._handle_yield(task, yielded)

    def _handle_yield(self, task: _Task, yielded: Any) -> None:
        if yielded is None:
            # Pure scheduling yield: go to the back of the ready queue.
            self._ready.append(task)
            return
        if not isinstance(yielded, Future):
            if self._handle_other_yield(task, yielded):
                return
            task.exc = RuntimeStateError(f"task yielded {yielded!r}; yield a Future or None")
            self._ready.append(task)
            return
        future = yielded
        if future._runtime is not self:
            task.exc = RuntimeStateError("future belongs to a different runtime")
            self._ready.append(task)
            return
        done = future._done
        try:
            self._gate_join(task, future.task, done)
        except BaseException as exc:  # policy fault or avoided deadlock
            task.exc = exc
            self._ready.append(task)
            return
        if done:
            # The result (or failure) is delivered at the next resume.
            try:
                task.value = self._finish_join(task, future)
            except TaskFailedError as exc:
                task.exc = exc
            self._ready.append(task)
            return
        # Genuinely blocked: park until the joinee completes.
        task.state = TaskState.BLOCKED
        self._blocked_on[task] = future
        self._waiters.setdefault(future, []).append(task)
        self._parked(task, future)

    def _handle_other_yield(self, task: _Task, yielded: Any) -> bool:
        """Hook for subclass yield vocabulary (e.g. the simulator's
        sleep markers).  Return True when *yielded* was consumed."""
        return False

    def _parked(self, task: _Task, future: Future) -> None:
        """Hook: *task* just blocked on *future* (simulator deadlines)."""

    def _complete(self, task: _Task, value: Any = None, exc: Optional[BaseException] = None) -> None:
        future = task.future
        # A finished record keeps neither the generator nor the future:
        # the result lives exactly as long as the program holds the future.
        task.gen = task.future = None
        if exc is not None:
            task.state = TaskState.FAILED
            future._set_exception(exc)
        else:
            task.state = TaskState.DONE
            future._set_result(value)
        for waiter in self._waiters.pop(future, ()):
            del self._blocked_on[waiter]
            waiter.state = TaskState.RUNNING
            try:
                waiter.value = self._finish_join(waiter, future, True)
            except TaskFailedError as exc:
                waiter.exc = exc
            self._ready.append(waiter)


def _as_generator(fn: Callable[..., Any], args: tuple, kwargs: dict) -> Generator:
    """Wrap a plain callable as a single-step generator task body."""
    if False:  # pragma: no cover - makes this function a generator
        yield None
    return fn(*args, **kwargs)
