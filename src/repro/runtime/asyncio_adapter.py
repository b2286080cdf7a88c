"""Policy-checked futures for asyncio coroutines.

The paper claims TJ "is applicable to a wide range of parallel
programming models" (abstract, Section 8); this adapter makes that
concrete for Python's own concurrency model.  ``AsyncioRuntime.fork``
wraps ``loop.create_task`` and hands back an awaitable whose ``await``
runs the full verification pipeline: policy gate, Armus cycle filter,
blocking-edge bookkeeping, KJ-learn (under a KJ policy).

Two coroutines awaiting each other's futures would hang an ordinary
asyncio program forever; here, the second await raises
:class:`DeadlockAvoidedError` inside the offending coroutine instead.
"""

from __future__ import annotations

import asyncio
import contextvars
from typing import Any, Awaitable, Callable, Generator, Optional, Union

from .core import JoinCore
from .task import TaskHandle, TaskState
from ..core.policy import JoinPolicy
from ..errors import RuntimeStateError

__all__ = ["AsyncioRuntime", "AsyncFuture"]

_current_task: "contextvars.ContextVar[Optional[TaskHandle]]" = contextvars.ContextVar(
    "repro_asyncio_current_task", default=None
)


class AsyncFuture:
    """The joinable handle of one verified asyncio task.

    ``await future`` performs a policy-checked join; so does
    ``await future.join()``.  ``_joined``, ``_exc`` and ``_value`` are the
    parts of the :class:`~repro.runtime.future.Future` interface the join
    core reads once the task has finished.
    """

    __slots__ = ("_runtime", "task", "_aio_task", "_joined")

    def __init__(self, runtime: "AsyncioRuntime", task: TaskHandle, aio_task: "asyncio.Task") -> None:
        self._runtime = runtime
        self.task = task
        self._aio_task = aio_task
        self._joined = False

    @property
    def _exc(self) -> Optional[BaseException]:
        return self._aio_task.exception()

    @property
    def _value(self) -> Any:
        return self._aio_task.result()

    def done(self) -> bool:
        return self._aio_task.done()

    async def join(self) -> Any:
        return await self._runtime._join(self)

    def __await__(self) -> Generator[Any, None, Any]:
        return self.join().__await__()

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"<AsyncFuture of {self.task.name}: {state}>"


class AsyncioRuntime(JoinCore):
    """Deadlock-avoiding task verification for asyncio programs."""

    def __init__(
        self,
        policy: Union[None, str, JoinPolicy] = "TJ-SP",
        *,
        fallback: bool = True,
    ) -> None:
        self._init_core(policy, fallback=fallback)

    @staticmethod
    def current_task() -> Optional[TaskHandle]:
        return _current_task.get()

    # ------------------------------------------------------------------
    async def run(self, fn: Callable[..., Awaitable[Any]], *args: Any, **kwargs: Any) -> Any:
        """Execute the coroutine function *fn* as the root task."""
        self._claim_root()
        vertex = self._verifier.on_init()
        root = TaskHandle(vertex, code=fn, name="root")
        root.state = TaskState.RUNNING
        token = _current_task.set(root)
        try:
            result = await fn(*args, **kwargs)
            root.state = TaskState.DONE
            return result
        except BaseException:
            root.state = TaskState.FAILED
            raise
        finally:
            _current_task.reset(token)

    def fork(
        self, fn: Callable[..., Awaitable[Any]], *args: Any, **kwargs: Any
    ) -> AsyncFuture:
        """``async fn(*args)``: schedule *fn* as a new verified task."""
        parent = _current_task.get()
        if parent is None:
            raise RuntimeStateError(
                "fork() must be called from inside a coroutine running under "
                "AsyncioRuntime.run()"
            )
        vertex = self._verifier.on_fork(parent.vertex)
        handle = TaskHandle(vertex, code=fn, parent_uid=parent.uid)

        async def body():
            token = _current_task.set(handle)
            handle.state = TaskState.RUNNING
            try:
                result = await fn(*args, **kwargs)
                handle.state = TaskState.DONE
                return result
            except BaseException:
                handle.state = TaskState.FAILED
                raise
            finally:
                _current_task.reset(token)

        aio_task = asyncio.get_running_loop().create_task(body(), name=handle.name)
        return AsyncFuture(self, handle, aio_task)

    # ------------------------------------------------------------------
    async def _join(self, future: AsyncFuture) -> Any:
        if future._runtime is not self:
            raise RuntimeStateError("future belongs to a different runtime")
        joiner = _current_task.get()
        if joiner is None:
            raise RuntimeStateError("join outside any task context")
        joinee = future.task
        waited = self._gate_join(joiner, joinee, future.done())
        prev_state = joiner.state
        joiner.state = TaskState.BLOCKED
        try:
            await _settled(future._aio_task)
        except BaseException:
            if waited:
                self._abandon_join(joiner, joinee)
            raise
        finally:
            joiner.state = prev_state
        return self._finish_join(joiner, future, waited)


async def _settled(task: "asyncio.Task") -> None:
    """Wait for *task* to finish; its failure is the join's to report."""
    try:
        await task
    except asyncio.CancelledError:
        raise
    except BaseException:  # noqa: BLE001 - read back by the join core
        pass
