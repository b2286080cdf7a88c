"""The verified-join core every runtime shares.

Algorithm 1 instruments a program at two points: ``Fork`` installs a
vertex for the new task, and ``Join`` consults the policy before the
joiner may wait; Section 6 composes that gate with Armus cycle
detection.  :class:`JoinCore` is the one implementation of that protocol.
The runtimes inherit it and only decide scheduling: where a task body
runs, how a pending join waits, how a blocked worker is compensated.

The core owns the construction of the verifier, the journal and the
*gate* — a :class:`~repro.armus.hybrid.HybridVerifier` with
``fallback=True``, a :class:`PolicyGate` without — and the steps every
join and task outcome go through: :meth:`JoinCore._gate_join` (the
gate), :meth:`JoinCore._abandon_join` and :meth:`JoinCore._finish_join`
(the end of the wait) and :meth:`JoinCore._settle` (the task outcome).
Both gates speak the same begin/end protocol, so no runtime branches on
``fallback``.

The gate and the verifier are looked up on every call, never cached as
bound methods: tracing and telemetry wrap ``HybridVerifier.begin_join``,
``Verifier.check_join`` and friends on the class.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..armus.hybrid import HybridVerifier
from ..core.policy import JoinPolicy, NullPolicy, make_policy
from ..core.verifier import Verifier
from ..errors import (
    DeadlockAvoidedError,
    PolicyViolationError,
    RuntimeStateError,
    TaskFailedError,
)
from .task import TaskState

__all__ = ["JoinCore", "PolicyGate", "resolve_policy"]


def resolve_policy(policy: Union[None, str, JoinPolicy]) -> JoinPolicy:
    """Accept a policy instance, a registered name, or None (unchecked)."""
    if policy is None:
        return NullPolicy()
    if isinstance(policy, str):
        return make_policy(policy)
    return policy


class PolicyGate:
    """The ``fallback=False`` gate: a policy rejection faults at once
    (pure Algorithm 1), and there is no wait-for graph to maintain."""

    __slots__ = ("verifier",)

    detector = None

    def __init__(self, verifier: Verifier) -> None:
        self.verifier = verifier

    def begin_join(
        self,
        joiner_task: object,
        joinee_task: object,
        joiner_vertex: object,
        joinee_vertex: object,
        *,
        joinee_done: bool,
        flagged: Optional[bool] = None,
    ) -> bool:
        """``HybridVerifier.begin_join`` without the Armus referral."""
        if flagged is None:
            flagged = not self.verifier.check_join(joiner_vertex, joinee_vertex)
        if flagged:
            raise PolicyViolationError(
                self.verifier.policy.name, joiner_vertex, joinee_vertex
            )
        return not joinee_done

    def end_join(self, joiner_task: object, joinee_task: object) -> None:
        """No wait edge to release."""


class JoinCore:
    """The fork/join instrumentation every runtime inherits.

    A runtime calls :meth:`_init_core` from its constructor (the process
    runtime once its verifier exists).
    """

    _verifier: Optional[Verifier] = None
    _gate: Union[None, HybridVerifier, PolicyGate] = None
    _journal = None
    _owns_journal = False
    _owns_verifier = False
    _root_started = False

    def _init_core(
        self,
        policy: Union[None, str, JoinPolicy],
        *,
        fallback: bool,
        fail_mode: str = "raise",
        journal: "Union[None, str, object]" = None,
        verifier: "Union[None, str, Verifier]" = None,
    ) -> None:
        """Build the verifier, the gate and the journal.

        A journal path, or a ``"remote://host:port"`` verifier, makes an
        instance the runtime owns and :meth:`_close_owned` closes; an
        instance passed in is used as-is and left open (tests and chaos
        harnesses inspect it after the run).  A remote verifier sits
        inside the hybrid gate like a local one, which keeps degradation
        sound: a degraded remote verifier reports ``unsound`` and Armus
        force-checks every blocking join.
        """
        policy = resolve_policy(policy)
        self._owns_journal = isinstance(journal, str)
        if self._owns_journal:
            from ..tools.journal import TraceJournal  # deferred: import cycle

            journal = TraceJournal(journal)
        self._owns_verifier = isinstance(verifier, str)
        if self._owns_verifier:
            from ..service.client import RemoteVerifier  # deferred: import cycle

            verifier = RemoteVerifier(
                verifier, policy, fail_mode=fail_mode, journal=journal
            )
        elif verifier is None:
            verifier = Verifier(policy, fail_mode=fail_mode, journal=journal)
        self._verifier = verifier
        self._journal = journal
        self._gate = (
            HybridVerifier(policy, verifier=verifier) if fallback else PolicyGate(verifier)
        )
        if journal is not None:
            journal.log_start(
                policy=policy.name, runtime=type(self).__name__, fail_mode=fail_mode
            )

    def _claim_root(self) -> None:
        """A runtime hosts one root task: the verifier assumes one fork tree."""
        if self._root_started:
            raise RuntimeStateError(
                "this runtime already hosted a root task; create a fresh "
                f"{type(self).__name__} per program run"
            )
        self._root_started = True

    def _close_owned(self) -> None:
        """Close the verifier and journal this runtime opened itself."""
        if self._owns_verifier:
            self._verifier.close()
        if self._owns_journal:
            self._journal.close()

    @property
    def policy(self) -> Optional[JoinPolicy]:
        return self._verifier.policy if self._verifier is not None else None

    @property
    def verifier(self) -> Optional[Verifier]:
        return self._verifier

    @property
    def detector(self):
        """The Armus detector, or None when ``fallback=False``."""
        return self._gate.detector if self._gate is not None else None

    @property
    def journal(self):
        """The trace journal, or None when journaling is disabled."""
        return self._journal

    # ------------------------------------------------------------------
    # the join steps
    # ------------------------------------------------------------------
    def _gate_join(
        self, joiner, joinee, done: bool, flagged: Optional[bool] = None
    ) -> bool:
        """The gate every join passes before it may wait.

        Returns True when the joinee is still running: the caller waits,
        then calls :meth:`_finish_join` with ``waited=True`` — or
        :meth:`_abandon_join` if it gives up.  ``flagged`` is a verdict
        already computed in a batch.  Raises
        :class:`~repro.errors.PolicyViolationError` (policy-only gate) or
        :class:`~repro.errors.DeadlockAvoidedError` (a true cycle).
        """
        joiner_vertex, joinee_vertex = joiner.vertex, joinee.vertex
        try:
            return self._gate.begin_join(
                joiner,
                joinee,
                joiner_vertex,
                joinee_vertex,
                joinee_done=done,
                flagged=flagged,
            )
        except DeadlockAvoidedError:
            if self._journal is not None:
                self._journal.log_avoided(joiner_vertex, joinee_vertex)
            raise

    def _abandon_join(self, joiner, joinee) -> None:
        """Release the wait of a join that ended without completing."""
        self._gate.end_join(joiner, joinee)

    def _finish_join(self, joiner, future, waited: bool = False) -> Any:
        """Complete a join: release the wait, learn, journal, and return
        the joinee's result (a failed joinee raises
        :class:`~repro.errors.TaskFailedError`).

        The verifier learns from, and the journal names, the vertices the
        two tasks hold now: a joinee retried during the wait is named by
        the attempt that completed.
        """
        joinee = future.task
        if waited:
            self._gate.end_join(joiner, joinee)
        joiner_vertex, joinee_vertex = joiner.vertex, joinee.vertex
        self._verifier.on_join_completed(joiner_vertex, joinee_vertex)
        if self._journal is not None:
            self._journal.log_join(joiner_vertex, joinee_vertex)
        future._joined = True
        exc = future._exc
        if exc is not None:
            raise TaskFailedError(joinee, exc)
        return future._value

    def _settle(
        self, task, future, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        """The task outcome: state, future, and the journal's ``complete``."""
        if exc is None:
            task.state = TaskState.DONE
            future._set_result(value)
        else:
            task.state = TaskState.FAILED
            future._set_exception(exc)
        if self._journal is not None:
            self._journal.log_complete(task.vertex, ok=exc is None)
