"""The multi-process task runtime: verified fork/join past the GIL.

:class:`ProcessRuntime` keeps the verified fork/join API of
:class:`~repro.runtime.threaded.TaskRuntime` — ``fork``, ``join``,
``join_batch``, and the ``finish`` construct on top of them — but runs
the forked tasks across a pool of **worker processes**, so CPU-bound
task bodies scale with cores instead of serialising on the GIL.

Architecture
------------
The parent process hosts the root task and dispatches every
``ProcessRuntime.fork`` to a worker over a per-worker queue; the
dispatched function runs inside the worker's own private
:class:`~repro.runtime.threaded.TaskRuntime` (the *engine*) and
receives that engine as its first argument, through which it forks and
joins worker-local subtasks with the full supervised join protocol.
Results stream back on a shared result queue; a collector thread in the
parent completes the dispatched futures.

Spawn paths — the TJ-SP fork tree every verdict derives from — live in
one of two representations, chosen by ``spawn_paths``:

* ``"shm"`` (default where available): the struct-of-arrays forest of
  :class:`~repro.core.shared_tree.SharedFlatTree` in
  ``multiprocessing.shared_memory``.  Every process reads the same rows
  through int64 loads; segments double in capacity and are attached
  lazily via the generation handshake, and ids are striped per process
  so ``AddChild`` never takes an interprocess lock.
* ``"wire"``: no shared memory at all.  Each process keeps a private
  DePa-style path store (:class:`WireSpawnPaths`) and every dispatch
  ships the task's spawn-path lineage — a compact list of
  ``(vid, parent, edge, depth)`` rows — so the worker can verify
  locally against paths alone.

Join resolution — every join is decided in its own process
-----------------------------------------------------------
Each process runs a :class:`ShardVerifier`: the plain
:class:`~repro.core.verifier.Verifier` over that process's view of the
spawn paths, plus locality counting.  TJ-SP verdicts are fixed at fork
time and follow from the fork tree alone (the LCA and sibling edges,
Thms 3.15/3.17), and every process already holds the rows of every
vertex it can join — the shared forest, or the lineage its dispatch
shipped — so no join ever leaves the process that runs it.  A join
whose joiner was **forked in this process** counts as local (the
expected >90% case: a task joins the children it forked); one whose
joiner was forked in *another* process (the dispatched task joining its
own subtasks is the canonical case) counts as a **cross-process** join.
Both take the same path through the shard's own policy.

The sidecar (``sidecar=``) only observes.  The parent's one
:class:`~repro.service.client.SessionClient` session announces the root
and every dispatched vertex with its authoritative edge/depth placement,
keeps the connection alive, and at shutdown pulls the sidecar's stats
(and, with tracing on, its span ring).  A tenant client that lacks the
tree can therefore still ask the sidecar about the dispatch tree; the
runtime itself never asks it anything, and a dead sidecar changes no
verdict.

Worker death (at-least-once redispatch)
---------------------------------------
A monitor thread watches worker sentinels.  When a worker dies —
including ``SIGKILL`` mid-task, which the chaos suite injects — its
in-flight dispatches are re-forked under **fresh vertices** (a new
``AddChild`` under the same parent: a later sibling, so by the
no-widening property every verdict stays sound) and redispatched to the
surviving workers.  Task bodies therefore run *at least once*; bodies
with external side effects should be idempotent.  The shared-memory
rows the dead worker wrote are simply orphaned (the forest only grows),
and because no interprocess locks exist anywhere, a kill can never
strand one.

The API is identical where it can be: ``run`` hosts one root,
``fork``/``join``/``join_batch`` are the verified operations, failures
cross the process boundary as the package's picklable exceptions.  The
one necessary difference: a *dispatched* function must be picklable
(module-level) and receives the hosting engine as its first argument —
closures cannot cross a process boundary.
"""

from __future__ import annotations

import pickle
import secrets
import threading
import time
from multiprocessing.connection import wait as _mpc_wait
from typing import Any, Callable, Optional, Sequence, Union

from .context import require_current_task, task_scope
from .future import Future
from .supervisor import StallWatchdog, SupervisedJoinMixin
from .task import TaskHandle, TaskState
from .threaded import TaskRuntime
from ..core.shared_tree import (
    SharedFlatTree,
    SharedTJPolicy,
    SharedTreeHandle,
    shm_available,
)
from ..core.tj_sp_rows import RowsTJPolicy
from ..core.verifier import Verifier
from ..errors import ReproError, RuntimeStateError
from ..obs.metrics import CounterGroup, label_snapshot, merge_snapshots
from ..obs.tracing import current_trace_context, flow_id

__all__ = ["ProcessRuntime", "ShardVerifier", "WireSpawnPaths"]

#: worker -> parent result-queue message kinds
_R_DONE = "done"
_R_STATS = "stats"

#: how many dispatched tasks a worker completes between stats messages
_STATS_EVERY = 256

#: with telemetry on, a worker also pushes stats when idle this long —
#: the live introspection plane refreshes even between dispatch bursts
_STATS_IDLE_PUSH = 1.0

#: how often the monitor thread pings the parent's sidecar connection
#: (well inside the server's 5 s liveness window)
_CLIENT_PING_EVERY = 1.0


# ----------------------------------------------------------------------
# wire-mode spawn paths: DePa-style rows, striped id allocation
# ----------------------------------------------------------------------
class WireSpawnPaths(RowsTJPolicy):
    """Per-process TJ-SP path store for the no-shared-memory fallback.

    The rows-based Algorithm 3 verdicts of
    :class:`~repro.core.tj_sp_rows.RowsTJPolicy` over a private row
    dict.  Ids are *allocated* here (striped per process, like the
    shared tree: process ``r`` of ``n`` owns ids ``r, r+n, r+2n, ...``),
    and remote lineages arrive via :meth:`adopt` — the compact
    ``(vid, parent, edge, depth)`` row lists a dispatch ships.
    """

    name = "TJ-SP-wire"
    backend = "wire"

    def __init__(self, region: int, nprocs: int) -> None:
        super().__init__()
        self._next = region
        self._step = nprocs
        self._children: dict[int, int] = {}

    def add_child(self, parent: Optional[int]) -> int:
        vid = self._next
        self._next += self._step
        if parent is None or parent < 0:
            self.rows[vid] = (-1, 0, 0)
        else:
            edge = self._children.get(parent, 0)
            self._children[parent] = edge + 1
            self.rows[vid] = (parent, edge, self.rows[parent][2] + 1)
        return vid

    def adopt(self, rows: Sequence[tuple]) -> None:
        """Install remote rows (a shipped lineage) verbatim."""
        for vid, parent, edge, depth in rows:
            self.rows[vid] = (parent, edge, depth)

    def lineage(self, vid: int) -> list[tuple]:
        """Root-first ``(vid, parent, edge, depth)`` rows for *vid*."""
        out = []
        while vid >= 0:
            parent, edge, depth = self.rows[vid]
            out.append((vid, parent, edge, depth))
            vid = parent
        out.reverse()
        return out


# ----------------------------------------------------------------------
# the per-process verifier shard
# ----------------------------------------------------------------------
_SHARD_FIELDS = ("local_joins", "cross_joins")


class ShardVerifier(Verifier):
    """A :class:`Verifier` that counts where each join's joiner was forked.

    Every join takes the plain verifier path (policy verdict, stats,
    quarantine boundary) in this process — no I/O.  A joiner forked here
    makes it a local join; a joiner forked elsewhere (adopted from a
    dispatch) makes it a cross-process join, decided all the same from
    the shared rows or the shipped lineage.
    """

    def __init__(self, policy, *, fail_mode: str = "raise", journal=None) -> None:
        super().__init__(policy, fail_mode=fail_mode, journal=journal)
        self._local: set[int] = set()
        self._procs_events = CounterGroup(_SHARD_FIELDS)

    # -- bookkeeping ----------------------------------------------------
    def is_local(self, vid: object) -> bool:
        return vid in self._local

    def procs_stats(self) -> dict:
        return self._procs_events.totals()

    def adopt(self, vid: int, rows: Optional[Sequence[tuple]] = None) -> None:
        """Make a remotely-forked vertex resolvable here (NOT local).

        In wire mode *rows* carries the shipped lineage; in shm mode the
        shared forest already has the rows and there is nothing to copy.
        Adopted vertices stay outside the local set on purpose: joins
        from them count as cross-process.
        """
        if rows is not None:
            self.policy.adopt(rows)

    def _count(self, joiner, n: int) -> None:
        cell = self._procs_events.cell()
        if joiner in self._local:
            cell.local_joins += n
        else:
            cell.cross_joins += n

    # -- fork: track locality -------------------------------------------
    def on_init(self):
        vertex = super().on_init()
        if isinstance(vertex, int):
            self._local.add(vertex)
        return vertex

    def on_fork(self, parent):
        vertex = super().on_fork(parent)
        if isinstance(vertex, int):
            self._local.add(vertex)
        return vertex

    # -- join: count locality, decide here ------------------------------
    # Quarantined placeholders (non-int vertices) are not counted: the
    # base verifier owns their degraded semantics.
    def check_join(self, joiner, joinee) -> bool:
        if isinstance(joiner, int) and isinstance(joinee, int):
            self._count(joiner, 1)
        return super().check_join(joiner, joinee)

    def check_joins(self, joiner, joinees) -> list[bool]:
        joinees = list(joinees)
        if isinstance(joiner, int) and all(isinstance(j, int) for j in joinees):
            self._count(joiner, len(joinees))
        return super().check_joins(joiner, joinees)


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
class _WorkerEngine(TaskRuntime):
    """The private in-worker runtime that hosts dispatched task bodies.

    A thin :class:`TaskRuntime`: same pooled threads, same supervised
    joins, but driven by the worker's :class:`ShardVerifier` and able to
    host many dispatched tasks sequentially (``execute``) instead of
    exactly one root.
    """

    def __init__(self, verifier: ShardVerifier, **kwargs: Any) -> None:
        super().__init__(
            policy=verifier.policy,
            fallback=False,
            verifier=verifier,
            **kwargs,
        )
        #: vid -> live TaskHandle, for cancel targeting over the wake pipe
        self.dispatched: dict[int, TaskHandle] = {}

    def execute(
        self, vid: int, fn: Callable, args: tuple, kwargs: dict, tctx=None
    ):
        """Run one dispatched task body to completion in this thread.

        Returns ``("ok", value)`` or ``("err", exc)``; never raises.
        The body receives this engine as its first argument — its portal
        to the verified ``fork``/``join``/``join_batch`` API.  *tctx* is
        the dispatching fork's ``(trace_id, span_id)`` trace context:
        with tracing on, this task's ``run`` span parents under it (and
        every span it opens inherits the same trace id).
        """
        task = TaskHandle(vid, code=fn, name=f"dispatched-{vid}")
        task.state = TaskState.RUNNING
        self.dispatched[vid] = task
        obs = self._obs
        handle = None
        if obs is not None and obs.tracer is not None:
            handle = obs.tracer.begin_span("run", parent=tctx)
        try:
            with task_scope(task):
                value = fn(self, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            task.state = TaskState.FAILED
            return ("err", exc)
        else:
            task.state = TaskState.DONE
            return ("ok", value)
        finally:
            if handle is not None:
                obs.tracer.end_span(handle, args={"task": f"dispatched-{vid}"})
            self.dispatched.pop(vid, None)

    def cancel_dispatched(self, vid: int) -> None:
        task = self.dispatched.get(vid)
        if task is not None:
            task.cancel_token.cancel()


def _pickle_safe(obj: object) -> object:
    """*obj* if it pickles, else a :class:`ReproError` describing it."""
    try:
        pickle.dumps(obj)
    except Exception:  # noqa: BLE001 - any pickling failure
        return ReproError(f"unpicklable worker payload: {obj!r}")
    return obj


def _worker_stats(engine: _WorkerEngine, shard: ShardVerifier, done: int) -> dict:
    stats = {
        "tasks_dispatched": done,
        "tasks_started": engine.tasks_started,
        "threads_started": engine.threads_started,
    }
    stats.update(shard.procs_stats())
    stats.update(shard.stats.snapshot())
    return stats


def _serialize_blocked(session) -> list:
    """The session's blocked joins as queue-portable plain dicts."""
    now = time.monotonic()
    out = []
    for record in session.blocked_joins():
        try:
            out.append(
                {
                    "joiner": record.joiner.name,
                    "joinee": record.joinee.name,
                    "age": max(0.0, now - record.since),
                    "wakeups": record.wakeups,
                }
            )
        except Exception:  # noqa: BLE001 - a join mid-wake is not an error
            continue
    return out


def _worker_obs_payload(session, index: int) -> Optional[dict]:
    """One telemetry push: registry snapshot + trace buffer + blocked."""
    if session is None:
        return None
    payload: dict = {
        "metrics": session.snapshot(),
        "blocked": _serialize_blocked(session),
    }
    if session.tracer is not None:
        payload["trace"] = session.tracer.export_state(label=f"worker-{index}")
    return payload


def _worker_main(cfg: dict) -> None:
    """Entry point of one worker process (spawn-safe, module level)."""
    from .. import obs as _obs_mod

    index = cfg["index"]
    dispatch_q = cfg["dispatch_q"]
    result_q = cfg["result_q"]
    wake_r = cfg["wake_r"]

    session = None
    tcfg = cfg.get("telemetry")
    if tcfg is not None:
        # A fresh spawn process starts with telemetry off; re-create the
        # parent's choice here so the shard/engine capture it at
        # construction.  The trace id is inherited, so even spans that
        # never adopt a dispatch context share the run's trace.
        session = _obs_mod.Telemetry(
            tracing=tcfg.get("tracing", True),
            trace_capacity=tcfg.get("trace_capacity", 65536),
            trace_id=tcfg.get("trace_id"),
        )

    tree = None
    with _obs_mod.using(session):
        if cfg["tree_handle"] is not None:
            tree = SharedFlatTree.attach(
                SharedTreeHandle(*cfg["tree_handle"]), region=cfg["region"]
            )
            policy = SharedTJPolicy(tree)
        else:
            policy = WireSpawnPaths(cfg["region"], cfg["nprocs"])
        shard = ShardVerifier(policy, fail_mode=cfg["fail_mode"])
        engine = _WorkerEngine(shard)

    stop = threading.Event()

    def control_main() -> None:
        # The wake pipe: out-of-band stop/cancel, never behind a queue
        # of pending dispatches.
        while True:
            try:
                msg = wake_r.recv()
            except (EOFError, OSError):
                stop.set()
                return
            if msg is None or msg[0] == "stop":
                stop.set()
                return
            if msg[0] == "cancel":
                engine.cancel_dispatched(msg[1])

    threading.Thread(target=control_main, daemon=True, name="procs-wake").start()

    def push_stats() -> None:
        result_q.put(
            (
                _R_STATS,
                index,
                _worker_stats(engine, shard, completed),
                _worker_obs_payload(session, index),
            )
        )

    completed = 0
    last_push = time.monotonic()
    try:
        while not stop.is_set():
            try:
                item = dispatch_q.get(timeout=0.2)
            except Exception:  # noqa: BLE001 - Empty, or torn queue at exit
                if (
                    session is not None
                    and time.monotonic() - last_push >= _STATS_IDLE_PUSH
                ):
                    push_stats()
                    last_push = time.monotonic()
                continue
            if item is None:
                break
            vid, payload, lineage, tctx = item
            shard.adopt(vid, lineage)
            try:
                fn, args, kwargs = pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001
                result_q.put((_R_DONE, vid, "err", ReproError(f"undispatchable task: {exc!r}")))
                continue
            kind, value = engine.execute(vid, fn, args, kwargs, tctx)
            if kind == "ok":
                safe = _pickle_safe(value)
                if safe is not value:
                    result_q.put((_R_DONE, vid, "err", safe))
                else:
                    result_q.put((_R_DONE, vid, "ok", value))
            else:
                result_q.put((_R_DONE, vid, "err", _pickle_safe(value)))
            completed += 1
            if completed % _STATS_EVERY == 0:
                push_stats()
                last_push = time.monotonic()
    finally:
        try:
            push_stats()
        except Exception:  # noqa: BLE001 - parent may already be gone
            pass
        if tree is not None:
            tree.close()


# ----------------------------------------------------------------------
# parent-side plumbing
# ----------------------------------------------------------------------
class _CancelRelay:
    """A cancel-token waker that forwards the request over a wake pipe."""

    __slots__ = ("runtime", "vid")

    def __init__(self, runtime: "ProcessRuntime", vid: int) -> None:
        self.runtime = runtime
        self.vid = vid

    def set(self) -> None:
        self.runtime._relay_cancel(self.vid)


class _Inflight:
    __slots__ = ("future", "worker", "payload", "parent_vid", "attempts")

    def __init__(self, future, worker, payload, parent_vid, attempts=0):
        self.future = future
        self.worker = worker
        self.payload = payload
        self.parent_vid = parent_vid
        self.attempts = attempts


class _WorkerHandle:
    __slots__ = ("index", "proc", "dispatch_q", "wake_w", "alive", "stats")

    def __init__(self, index, proc, dispatch_q, wake_w):
        self.index = index
        self.proc = proc
        self.dispatch_q = dispatch_q
        self.wake_w = wake_w
        self.alive = True
        self.stats: dict = {}


class ProcessRuntime(SupervisedJoinMixin):
    """Verified fork/join across a pool of worker processes.

    Parameters
    ----------
    policy:
        Only the TJ-SP family is supported: cross-process soundness
        leans on verdicts that are fixed at fork time and derivable from
        spawn paths alone.  Pass ``"TJ-SP"`` (the default).
    workers:
        Worker process count (the parent is an additional process that
        hosts the root and the dispatch plumbing).
    spawn_paths:
        ``"shm"`` — shared-memory forest; ``"wire"`` — per-process path
        stores with shipped lineages; ``"auto"`` (default) picks shm
        where the platform has it.
    sidecar:
        An observer of the dispatch tree; joins never consult it.
        ``None`` — no sidecar; ``"auto"`` — spawn a private ``repro
        serve`` on an ephemeral port; a ``remote://host:port`` URL — use
        an existing sidecar.  The parent announces the root and every
        dispatched vertex under the tenant :attr:`run_id`, so a tenant
        client can ask the sidecar about them.
    redispatch:
        When True (default) a dead worker's in-flight tasks are re-run
        on surviving workers under fresh vertices (at-least-once);
        when False their futures fail with :class:`TaskFailedError`.
    introspect:
        ``None`` (default) — no introspection endpoint; an integer port
        (0 = ephemeral) — serve the live fleet snapshot over the wire
        protocol so ``repro top --live`` can attach while the run is in
        flight (see :mod:`repro.obs.live`).
    stripe, seg0:
        Shared-tree allocation geometry (shm mode), for tests.

    ``fail_mode``, ``default_join_timeout``, ``watchdog``,
    ``on_unjoined_failure`` behave as on :class:`TaskRuntime`.  There is
    no Armus fallback across processes: TJ-SP is pure avoidance here,
    and a rejected join faults immediately.
    """

    def __init__(
        self,
        policy: str = "TJ-SP",
        *,
        workers: int = 4,
        spawn_paths: str = "auto",
        sidecar: Union[None, str] = None,
        redispatch: bool = True,
        fail_mode: str = "raise",
        default_join_timeout: Optional[float] = None,
        watchdog: Union[bool, float, StallWatchdog] = True,
        watchdog_interval: float = 0.1,
        on_unjoined_failure: str = "warn",
        introspect: Optional[int] = None,
        stripe: int = 1024,
        seg0: int = 1 << 14,
    ) -> None:
        if isinstance(policy, str):
            policy_name = policy
        else:
            policy_name = getattr(policy, "name", str(policy))
        if not policy_name.startswith("TJ-SP"):
            raise ValueError(
                "ProcessRuntime requires a TJ-SP-family policy (verdicts "
                f"fixed at fork time); got {policy_name!r}"
            )
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if spawn_paths not in ("auto", "shm", "wire"):
            raise ValueError("spawn_paths must be 'auto', 'shm' or 'wire'")
        if spawn_paths == "auto":
            spawn_paths = "shm" if shm_available() else "wire"
        if spawn_paths == "shm" and not shm_available():  # pragma: no cover
            raise RuntimeError("shared memory unavailable; use spawn_paths='wire'")
        self.workers_requested = workers
        self.spawn_paths = spawn_paths
        self.redispatch = redispatch
        self._sidecar_spec = sidecar
        self._fail_mode = fail_mode
        self._stripe = stripe
        self._seg0 = seg0
        self.run_id = f"procs-{secrets.token_hex(4)}"
        self._nprocs = workers + 1  # workers plus the parent (region 0)

        self._tree: Optional[SharedFlatTree] = None
        self._sidecar_proc = None
        self._client = None

        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        self._result_q = self._ctx.Queue()
        self._workers: list[_WorkerHandle] = []
        self._lock = threading.Lock()
        self._inflight: dict[int, _Inflight] = {}
        self._rr = 0  # round-robin dispatch cursor
        self._stopping = threading.Event()
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

        # merged telemetry (parent's view; worker cells merge on arrival)
        self.tasks_dispatched = 0
        self.tasks_completed = 0
        self.worker_deaths = 0
        self.tasks_redispatched = 0
        self.orphan_results = 0
        self._worker_stats: dict[int, dict] = {}

        # fleet telemetry (tentpole PR 10): latest labelled registry
        # snapshot and blocked-join list per live worker, plus the
        # retired accumulator dead workers fold into — the process-level
        # mirror of the sharded counters' dead-cell fold, so merged
        # totals stay exact across worker churn.
        self._worker_metrics: dict[int, dict] = {}
        self._worker_blocked: dict[int, list] = {}
        self._fleet_retired: Optional[dict] = None
        self._sidecar_stats: Optional[dict] = None
        self._introspect_port = introspect
        self._introspect_server = None

        self._init_supervision(
            default_join_timeout=default_join_timeout,
            watchdog=watchdog,
            watchdog_interval=watchdog_interval,
            on_unjoined_failure=on_unjoined_failure,
        )
        obs = self._obs
        if obs is not None:
            self._m_tasks = obs.registry.counter("repro_procs_tasks_total")
            self._m_cross = obs.registry.counter("repro_procs_cross_joins_total")
            self._m_ratio = obs.registry.gauge("repro_procs_escalation_ratio")
        else:
            self._m_tasks = self._m_cross = self._m_ratio = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def sidecar_url(self) -> Optional[str]:
        if self._client is not None:
            return self._client.url
        return None

    def join_stats(self) -> dict:
        """Merged local/cross join counts across all processes.

        Every join is decided in its own process, so ``degraded_joins``
        is always 0 and ``escalation_ratio`` is the cross-process share
        of all joins.  Both keys stay under these names because the
        benchmark (``perfbench``) reads them.
        """
        out = {f: 0 for f in _SHARD_FIELDS}
        sources = [self._verifier.procs_stats()] if self._verifier else []
        sources += list(self._worker_stats.values())
        for stats in sources:
            for field in _SHARD_FIELDS:
                out[field] += stats.get(field, 0)
        checked = out["local_joins"] + out["cross_joins"]
        out["degraded_joins"] = 0
        out["escalation_ratio"] = out["cross_joins"] / checked if checked else 0.0
        return out

    def _metrics_snapshot(self) -> dict:
        out = super()._metrics_snapshot()
        joins = self.join_stats()
        out.update(
            procs_workers=len([w for w in self._workers if w.alive]),
            procs_tasks_total=self.tasks_completed
            + sum(s.get("tasks_started", 0) for s in self._worker_stats.values()),
            procs_tasks_dispatched=self.tasks_dispatched,
            procs_cross_joins_total=joins["cross_joins"],
            procs_local_joins_total=joins["local_joins"],
            procs_degraded_joins_total=joins["degraded_joins"],
            procs_escalation_ratio=joins["escalation_ratio"],
            procs_worker_deaths=self.worker_deaths,
            procs_tasks_redispatched=self.tasks_redispatched,
        )
        if self._m_ratio is not None:
            self._m_ratio.set(joins["escalation_ratio"])
        return out

    # ------------------------------------------------------------------
    # fleet telemetry: merged metrics, blocked joins, live introspection
    # ------------------------------------------------------------------
    def fleet_metrics(self) -> dict:
        """One merged registry snapshot for the whole fleet.

        Parent series carry ``process="parent"``, worker series
        ``worker="<index>"``.  Workers that died mid-run stay in the
        merge through the retired accumulator their last snapshot was
        folded into (the process-level analogue of the sharded
        counters' dead-cell fold), so counter totals are exact under
        churn.  Empty when telemetry is disabled.
        """
        parts: list[dict] = []
        obs = self._obs
        if obs is not None:
            parts.append(label_snapshot(obs.snapshot(), process="parent"))
        with self._lock:
            live = [self._worker_metrics[i] for i in sorted(self._worker_metrics)]
            retired = self._fleet_retired
        parts.extend(live)
        if retired is not None:
            parts.append(retired)
        return merge_snapshots(parts)

    def fleet_blocked_joins(self) -> list:
        """Currently blocked joins across every process, as plain dicts
        (``process``/``joiner``/``joinee``/``age``/``wakeups``).

        Worker entries are as-of that worker's latest stats push (at
        most :data:`_STATS_IDLE_PUSH` seconds stale); parent entries are
        live.
        """
        out: list = []
        obs = self._obs
        if obs is not None:
            now = time.monotonic()
            for record in obs.blocked_joins():
                try:
                    out.append(
                        {
                            "process": "parent",
                            "joiner": record.joiner.name,
                            "joinee": record.joinee.name,
                            "age": max(0.0, now - record.since),
                            "wakeups": record.wakeups,
                        }
                    )
                except Exception:  # noqa: BLE001 - join mid-wake
                    continue
        with self._lock:
            blocked = {i: list(v) for i, v in self._worker_blocked.items()}
        for index in sorted(blocked):
            for rec in blocked[index]:
                entry = dict(rec)
                entry["process"] = f"worker-{index}"
                out.append(entry)
        return out

    def _introspection_snapshot(self) -> dict:
        """The stats payload the introspection plane serves to
        ``repro top --live`` (wire ``stats`` → ``stats_reply``)."""
        with self._lock:
            workers = [
                {"index": w.index, "alive": w.alive, "pid": w.proc.pid}
                for w in self._workers
            ]
        return {
            "run_id": self.run_id,
            "kind": "procs",
            "workers": workers,
            "join_stats": self.join_stats(),
            "counters": self._metrics_snapshot(),
            "blocked": self.fleet_blocked_joins(),
            "metrics": self.fleet_metrics(),
            "sidecar": self.sidecar_url,
        }

    def _absorb_worker_obs(self, index: int, obs_state: dict) -> None:
        """Fold one worker telemetry push into the parent's fleet view."""
        metrics = obs_state.get("metrics")
        blocked = obs_state.get("blocked")
        with self._lock:
            if metrics is not None:
                self._worker_metrics[index] = label_snapshot(
                    metrics, worker=str(index)
                )
            self._worker_blocked[index] = blocked or []
        trace = obs_state.get("trace")
        obs = self._obs
        if trace is not None and obs is not None and obs.tracer is not None:
            obs.tracer.absorb_remote(trace)

    @property
    def introspect_url(self) -> Optional[str]:
        """The live introspection endpoint, if one was requested."""
        if self._introspect_server is None:
            return None
        return self._introspect_server.url

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start_sidecar(self) -> Optional[str]:
        spec = self._sidecar_spec
        if spec is None:
            return None
        if spec == "auto":
            from ..service.proc import SidecarProcess

            obs = self._obs
            kwargs: dict = {}
            if obs is not None:
                # A telemetry-enabled run wants the private sidecar in
                # the same distributed trace: its spans (tenant clients'
                # join_check) ship home via the stats reply at shutdown.
                kwargs["obs"] = True
                if obs.tracer is not None:
                    kwargs["trace_id"] = obs.tracer.trace_id
            self._sidecar_proc = SidecarProcess(port=0, **kwargs)
            return self._sidecar_proc.url
        return spec

    def _start(self) -> None:
        url = self._start_sidecar()
        if url is not None:
            from ..service.client import SessionClient

            self._client = SessionClient(url, f"{self.run_id}-p", tenant=self.run_id)
            self._client.connect()
        if self.spawn_paths == "shm":
            self._tree = SharedFlatTree.create(
                nprocs=self._nprocs, stripe=self._stripe, seg0=self._seg0
            )
            policy = SharedTJPolicy(self._tree)
            tree_handle = tuple(self._tree.handle())
        else:
            policy = WireSpawnPaths(0, self._nprocs)
            tree_handle = None
        # No Armus across processes: TJ-SP is pure avoidance here.
        self._init_core(
            policy,
            fallback=False,
            verifier=ShardVerifier(policy, fail_mode=self._fail_mode),
        )
        obs = self._obs
        telemetry_cfg = None
        if obs is not None:
            # Workers re-create the parent's telemetry choice at startup
            # and inherit the run's trace id, so every process's spans
            # land in one distributed trace.
            telemetry_cfg = {
                "tracing": obs.tracer is not None,
                "trace_capacity": (
                    obs.tracer.capacity if obs.tracer is not None else 65536
                ),
                "trace_id": (
                    obs.tracer.trace_id if obs.tracer is not None else None
                ),
            }
        for i in range(self.workers_requested):
            dispatch_q = self._ctx.Queue()
            wake_r, wake_w = self._ctx.Pipe(duplex=False)
            cfg = {
                "index": i,
                "region": i + 1,
                "nprocs": self._nprocs,
                "tree_handle": tree_handle,
                "fail_mode": self._fail_mode,
                "dispatch_q": dispatch_q,
                "result_q": self._result_q,
                "wake_r": wake_r,
                "telemetry": telemetry_cfg,
            }
            proc = self._ctx.Process(
                target=_worker_main,
                args=(cfg,),
                name=f"repro-procs-{i}",
                daemon=True,
            )
            proc.start()
            wake_r.close()
            self._workers.append(_WorkerHandle(i, proc, dispatch_q, wake_w))
        self._collector = threading.Thread(
            target=self._collector_main, daemon=True, name="procs-collect"
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._monitor_main, daemon=True, name="procs-monitor"
        )
        self._monitor.start()
        if self._introspect_port is not None:
            from ..obs.live import IntrospectionServer

            self._introspect_server = IntrospectionServer(
                self._introspection_snapshot, port=self._introspect_port
            )
            self._introspect_server.start()

    def _root_vertex(self) -> int:
        vertex = self._verifier.on_init()
        self._announce(vertex)
        return vertex

    def _announce(self, vertex: int) -> None:
        """Mirror one dispatch-tree vertex on the sidecar, with its
        authoritative placement, for tenant clients that lack the tree."""
        client = self._client
        if client is None:
            return
        parent, edge, depth = self._verifier.policy.row_of(vertex)
        if parent < 0:
            client.init(vertex)
        else:
            client.fork(parent, vertex, edge, depth)
        client.flush()

    def _stop(self) -> None:
        self._stopping.set()
        for w in self._workers:
            if w.alive:
                try:
                    w.wake_w.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
                try:
                    w.dispatch_q.put(None)
                except Exception:  # noqa: BLE001 - queue may be torn
                    pass
        deadline = time.monotonic() + 10.0
        for w in self._workers:
            w.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=5.0)
        # One sentinel value unblocks the collector; it drains anything
        # (late results, final stats) queued before it.
        self._result_q.put(None)
        if self._collector is not None:
            self._collector.join(timeout=10.0)
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
        if self._introspect_server is not None:
            self._introspect_server.stop()
        obs = self._obs
        if obs is not None and self._client is not None:
            # Last stats pull before hanging up: the sidecar's trace
            # buffer (its own track) folds into the merged trace.
            stats = None
            if not self._client.degraded:
                try:
                    stats = self._client.stats()
                except Exception:  # noqa: BLE001 - a dying sidecar is fine
                    stats = None
            if stats is None and self.sidecar_url is not None:
                # The long-lived connection may have died (degraded, or
                # reaped by the server's liveness sweeper); one fresh
                # dial for the final pull costs a handshake and saves
                # the sidecar's whole track.
                from ..service.client import SessionClient

                try:
                    fresh = SessionClient(
                        self.sidecar_url,
                        f"{self.run_id}-stats",
                        tenant=self.run_id,
                    )
                    if fresh.connect():
                        stats = fresh.stats()
                    fresh.close()
                except Exception:  # noqa: BLE001 - a dying sidecar is fine
                    stats = None
            if stats is not None:
                self._sidecar_stats = stats
                trace = stats.get("trace")
                if trace is not None and obs.tracer is not None:
                    obs.tracer.absorb_remote(trace)
        if self._client is not None:
            self._client.close()
        if self._sidecar_proc is not None:
            self._sidecar_proc.stop()
        if self._tree is not None:
            self._tree.close()

    # ------------------------------------------------------------------
    # fork: dispatch to a worker
    # ------------------------------------------------------------------
    def fork(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Dispatch *fn* to a worker process; return its parent-side Future.

        *fn* must be picklable (module level) and receives the worker's
        engine — a full verified :class:`TaskRuntime` — as its first
        argument: ``fn(rt, *args, **kwargs)``.
        """
        parent = require_current_task()
        parent.cancel_token.raise_if_cancelled(parent)
        try:
            payload = pickle.dumps((fn, args, kwargs))
        except Exception as exc:
            raise RuntimeStateError(
                f"dispatched task {getattr(fn, '__name__', fn)!r} must be "
                f"picklable: {exc}"
            ) from exc
        vertex = self._verifier.on_fork(parent.vertex)
        self._announce(vertex)
        task = TaskHandle(vertex, code=fn, parent_uid=parent.uid)
        future = Future(self, task)
        task.state = TaskState.RUNNING
        lineage = None
        if self.spawn_paths == "wire":
            lineage = self._verifier.policy.lineage(vertex)
        with self._lock:
            self.tasks_dispatched += 1
            worker = self._pick_worker_locked()
            if worker is None:
                raise RuntimeStateError("no live worker processes")
            self._inflight[vertex] = _Inflight(
                future, worker.index, payload, parent.vertex
            )
        task.cancel_token._add_waker(_CancelRelay(self, vertex))
        obs = self._obs
        tctx = None
        if obs is not None and obs.tracer is not None:
            tctx = current_trace_context()
            if tctx is not None:
                obs.tracer.instant(
                    "fork", cat="dispatch",
                    args={"child": vertex, "worker": worker.index},
                )
                obs.tracer.flow("s", "dispatch", flow_id(tctx))
        worker.dispatch_q.put((vertex, payload, lineage, tctx))
        return future

    def _pick_worker_locked(self) -> Optional[_WorkerHandle]:
        live = [w for w in self._workers if w.alive]
        if not live:
            return None
        worker = live[self._rr % len(live)]
        self._rr += 1
        return worker

    def _relay_cancel(self, vid: int) -> None:
        with self._lock:
            entry = self._inflight.get(vid)
            worker = self._workers[entry.worker] if entry is not None else None
        if worker is not None and worker.alive:
            try:
                worker.wake_w.send(("cancel", vid))
            except (OSError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # result collection and worker supervision
    # ------------------------------------------------------------------
    def _collector_main(self) -> None:
        while True:
            try:
                msg = self._result_q.get(timeout=1.0)
            except Exception:  # noqa: BLE001 - Empty or torn queue
                if self._stopping.is_set() and not any(
                    w.proc.is_alive() for w in self._workers
                ):
                    return
                continue
            if msg is None:
                # shutdown sentinel: drain whatever is already queued
                while True:
                    try:
                        msg = self._result_q.get_nowait()
                    except Exception:  # noqa: BLE001
                        return
                    if msg is not None:
                        self._handle_result(msg)
                return
            self._handle_result(msg)

    def _handle_result(self, msg) -> None:
        try:
            kind = msg[0]
            if kind == _R_STATS:
                _, index, stats, obs_state = msg
                self._worker_stats[index] = stats
                if obs_state is not None:
                    self._absorb_worker_obs(index, obs_state)
                if self._m_cross is not None:
                    joins = self.join_stats()
                    delta = joins["cross_joins"] - self._m_cross.value
                    if delta > 0:
                        self._m_cross.inc(delta)
                    self._m_ratio.set(joins["escalation_ratio"])
                return
            _, vid, status, value = msg
        except (TypeError, ValueError, IndexError):
            self.orphan_results += 1
            return
        with self._lock:
            entry = self._inflight.pop(vid, None)
        if entry is None:
            self.orphan_results += 1  # redispatch raced a late result
            return
        self.tasks_completed += 1
        if self._m_tasks is not None:
            self._m_tasks.inc()
        future = entry.future
        if status == "ok":
            self._settle(future.task, future, value)
        else:
            self._settle(future.task, future, exc=value)

    def _monitor_main(self) -> None:
        last_ping = time.monotonic()
        while not self._stopping.is_set():
            sentinels = {
                w.proc.sentinel: w for w in self._workers if w.alive
            }
            if not sentinels:
                return
            ready = _mpc_wait(list(sentinels), timeout=0.2)
            for sentinel in ready:
                self._on_worker_death(sentinels[sentinel])
            # Keep the parent's announce-only sidecar connection alive so
            # the server's liveness sweeper doesn't reap it mid-run and
            # the shutdown stats pull finds the stream still open.
            now = time.monotonic()
            if self._client is not None and now - last_ping >= _CLIENT_PING_EVERY:
                last_ping = now
                self._client.ping()

    def _on_worker_death(self, worker: _WorkerHandle) -> None:
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            if self._stopping.is_set():
                # Normal teardown: the exit is expected, nothing is stranded.
                return
            self.worker_deaths += 1
            # The dead worker's last labelled snapshot folds into the
            # retired accumulator: its counts survive in merged fleet
            # totals even though the live cell is gone (same rule as
            # the sharded counters' dead-cell fold, one level up).
            dead = self._worker_metrics.pop(worker.index, None)
            if dead is not None:
                self._fleet_retired = (
                    dead
                    if self._fleet_retired is None
                    else merge_snapshots([self._fleet_retired, dead])
                )
            self._worker_blocked.pop(worker.index, None)
            stranded = [
                (vid, entry)
                for vid, entry in self._inflight.items()
                if entry.worker == worker.index
            ]
            for vid, _ in stranded:
                del self._inflight[vid]
        for vid, entry in stranded:
            self._recover_task(vid, entry)

    def _recover_task(self, vid: int, entry: _Inflight) -> None:
        future = entry.future
        if future.done():
            return
        if not self.redispatch or entry.attempts + 1 >= 3:
            self._settle(
                future.task,
                future,
                exc=ReproError(f"worker process died while running task {vid}"),
            )
            return
        # A fresh vertex under the original parent: the retry is a later
        # sibling, so every existing verdict stays sound (no-widening).
        new_vid = self._verifier.on_fork(entry.parent_vid)
        self._announce(new_vid)
        future.task.vertex = new_vid
        lineage = None
        if self.spawn_paths == "wire":
            lineage = self._verifier.policy.lineage(new_vid)
        with self._lock:
            worker = self._pick_worker_locked()
            if worker is None:
                self._settle(
                    future.task,
                    future,
                    exc=ReproError("no live worker processes to redispatch to"),
                )
                return
            self.tasks_redispatched += 1
            self._inflight[new_vid] = _Inflight(
                future, worker.index, entry.payload, entry.parent_vid,
                attempts=entry.attempts + 1,
            )
        # Redispatch carries no trace context: the original dispatch span
        # may be long gone, so the retry's run span roots its own tree.
        worker.dispatch_q.put((new_vid, entry.payload, lineage, None))

    # run / join / join_batch come from SupervisedJoinMixin and JoinCore,
    # driving the parent's ShardVerifier exactly like TaskRuntime drives
    # its own.
