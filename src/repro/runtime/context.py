"""Tracking the currently executing task.

The threaded runtime associates one task with one thread, so a
thread-local slot suffices; the cooperative runtime multiplexes tasks on
one thread and sets the slot around each step.  Both go through this
module so user code has a single :func:`current_task`.
"""

from __future__ import annotations

import threading
from typing import Optional, TYPE_CHECKING

from ..errors import RuntimeStateError

if TYPE_CHECKING:  # pragma: no cover
    from .task import TaskHandle

__all__ = ["current_task", "require_current_task", "task_scope"]

_tls = threading.local()


def current_task() -> Optional["TaskHandle"]:
    """The task executing on this thread, or None outside any runtime."""
    return getattr(_tls, "task", None)


def require_current_task() -> "TaskHandle":
    """Like :func:`current_task` but raises outside a task context."""
    task = current_task()
    if task is None:
        raise RuntimeStateError(
            "no current task: fork/join must be called from inside a runtime "
            "task (did you call fork() before runtime.run()?)"
        )
    return task


class task_scope:
    """Install *task* as this thread's current task for the duration.

    A plain slotted context manager rather than a ``@contextmanager``
    generator: the pool, process and executor runtimes enter one per
    task, and this form costs no generator or helper object.  Scopes
    nest, and the previous task is restored on exit, exception or not.
    """

    __slots__ = ("_task", "_prev")

    def __init__(self, task: "TaskHandle") -> None:
        self._task = task

    def __enter__(self) -> None:
        self._prev = getattr(_tls, "task", None)
        _tls.task = self._task

    def __exit__(self, *exc_info: object) -> None:
        _tls.task = self._prev
