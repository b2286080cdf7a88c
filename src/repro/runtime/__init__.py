"""Task-parallel futures runtimes (the programming model of Section 2.2).

Six runtimes share one verified-join core,
:class:`~repro.runtime.core.JoinCore`, which owns the verifier, the
policy or Armus gate, KJ-learn and the journal's join and outcome
records; each runtime only schedules:

* :class:`TaskRuntime` — blocking, thread-per-task (the default for the
  evaluation benchmarks);
* :class:`WorkSharingRuntime` — a self-compensating worker pool (the
  paper's blocking work-sharing runtime);
* :class:`ProcessRuntime` — tasks dispatched to worker processes;
* :class:`CooperativeRuntime` — deterministic single-threaded generator
  scheduling (the paper's footnote-4 alternative; also the repository's
  safe sandbox for real deadlock scenarios);
* :class:`~repro.runtime.sim.SimRuntime` — the cooperative scheduler
  with seeded, recorded schedules and a virtual clock;
* :class:`AsyncioRuntime` — verified joins for asyncio coroutines.
"""

from .context import current_task, require_current_task, task_scope
from .cooperative import CooperativeRuntime
from .core import resolve_policy
from .future import Future
from .retry import RetryPolicy
from .supervisor import BlockedJoin, JoinRegistry, StallWatchdog
from .task import CancelToken, TaskHandle, TaskState
from .threaded import TaskRuntime

__all__ = [
    "TaskRuntime",
    "RetryPolicy",
    "CooperativeRuntime",
    "WorkSharingRuntime",
    "AsyncioRuntime",
    "AsyncFuture",
    "Future",
    "TaskHandle",
    "TaskState",
    "CancelToken",
    "BlockedJoin",
    "JoinRegistry",
    "StallWatchdog",
    "current_task",
    "require_current_task",
    "task_scope",
    "resolve_policy",
]

from .asyncio_adapter import AsyncFuture, AsyncioRuntime  # noqa: E402 (cycle-free tail import)
from .executor import VerifiedExecutor  # noqa: E402
from .phaser import Phaser  # noqa: E402
from .pool import WorkSharingRuntime  # noqa: E402
from .procs import ProcessRuntime  # noqa: E402

__all__ += ["Phaser", "VerifiedExecutor", "ProcessRuntime"]
