"""``RemoteVerifier``: the sidecar-backed drop-in for :class:`Verifier`.

The runtimes select it with ``runtime(..., verifier="remote://host:port")``
and drive it through the ordinary verifier protocol; underneath, state
events stream to the sidecar fire-and-forget and join-permit checks are
synchronous round trips.  It subclasses :class:`~repro.core.verifier.
Verifier` so everything layered on the verifier — sharded stats, the
quarantine surface, ``require_join(s)``, the supervision layer's
``unsound`` consultation — works unchanged; the local policy instance
is *metadata only* (name, ``stable_permits``) and never sees an event.

Failure posture (the point of this module)
------------------------------------------
Every network failure funnels into one transition: **degrade**.  A
degraded verifier answers every check ``True`` locally (fail-open) and
reports :attr:`unsound` — which makes :class:`~repro.armus.hybrid.
HybridVerifier` force-check every blocking join against the Armus
wait-for graph, so true deadlocks are still avoided with zero sidecar
involvement.  The transition emits one :class:`~repro.errors.
ServiceDegradedWarning` per episode.  Nothing is lost meanwhile:

* state events (init/fork/join) keep accumulating in the **replay
  buffer** — the same buffer that covers in-flight loss, pruned by the
  server's journal-durability ``ack`` watermarks;
* locally-answered checks are remembered (bounded) for **reconcile**.

A heartbeat thread pings inside the liveness deadline and, while
degraded, retries the connection on the
:class:`~repro.runtime.retry.RetryPolicy` deterministic backoff
schedule.  On reconnect the client resumes its session: the server's
``welcome`` quotes ``last_seq``, the client replays exactly the gap
(``cseq > last_seq``; the server drops duplicates idempotently), then
replays the degraded-window checks as fire-and-forget ``recheck``
records so the server re-derives those verdicts and its per-session
stats match an uninterrupted run.

Backpressure is the one failure that is *not* absorbed: a server
refusal surfaces as :class:`~repro.errors.ServiceBackpressureError` at
the next synchronous call — the contract is explicit failure, never
unbounded buffering on either side.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import warnings
from time import monotonic, perf_counter_ns
from typing import Optional, Sequence

from ..core.policy import JoinPolicy, make_policy
from ..core.verifier import Verifier
from ..errors import (
    PolicyQuarantinedError,
    PolicyQuarantineWarning,
    ServiceBackpressureError,
    ServiceDegradedWarning,
    ServiceError,
    ServiceProtocolError,
    ServiceUnavailableError,
)
from ..obs.metrics import RTT_NS_BUCKETS
from ..obs.tracing import current_trace_context
from ..runtime.retry import RetryPolicy
from .wire import SERVER_KINDS, WIRE_VERSION, RecordStream, validate_record

__all__ = ["RemoteVerifier", "RemoteVertex", "SessionClient", "parse_remote_url"]

#: distinguishes sessions of one process; the pid distinguishes processes
_SESSION_COUNTER = itertools.count()

#: default client-side retry schedule for connect attempts
_DEFAULT_RETRY = RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=1.0, jitter=0.5)

#: bound on remembered degraded-window checks (reconcile fidelity is
#: best-effort past this; the counter records what was dropped)
_MAX_RECHECKS = 65536


def _stamp_trace(record: dict) -> None:
    """Attach the ambient ``(trace, span)`` context to a check record.

    The fields are optional on the wire (old servers ignore them); with
    them the sidecar parents its ``join_check`` span under the span that
    sent the check, stitching its track into the caller's
    distributed trace.  Disabled telemetry is one contextvar read.
    """
    tctx = current_trace_context()
    if tctx is not None:
        record["trace"], record["span"] = tctx


def parse_remote_url(url: str) -> tuple[str, int]:
    """``"remote://host:port"`` → ``(host, port)``."""
    prefix = "remote://"
    if not url.startswith(prefix):
        raise ValueError(f"remote verifier URL must start with {prefix!r}: {url!r}")
    rest = url[len(prefix):]
    host, sep, port = rest.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"remote verifier URL must be remote://host:port: {url!r}")
    return host, int(port)


class RemoteVertex:
    """A client-side task handle: a dense integer id the server mirrors."""

    __slots__ = ("rid", "parent")

    def __init__(self, rid: int, parent: "RemoteVertex | None" = None) -> None:
        self.rid = rid
        self.parent = parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<remote-vertex r{self.rid}>"


class _Pending:
    """One in-flight synchronous request."""

    __slots__ = ("event", "outcome", "value")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.outcome: Optional[str] = None  # "ok" | "exc" | "degraded"
        self.value: object = None

    def resolve(self, outcome: str, value: object = None) -> None:
        self.outcome = outcome
        self.value = value
        self.event.set()


class RemoteVerifier(Verifier):
    """A :class:`Verifier` whose policy lives in the verification sidecar.

    Parameters
    ----------
    url:
        ``"remote://host:port"`` (or a pre-split ``(host, port)`` tuple).
    policy:
        Registered policy name; the server instantiates the real one,
        the client keeps a local instance purely for metadata.
    fail_mode:
        The usual verifier fault boundary.  Sent to the server in
        ``hello`` (which coerces ``"raise"`` to ``"open"`` — exceptions
        cannot cross a process boundary); locally it governs how a
        remote quarantine announcement is surfaced.
    session:
        Session id; defaults to a host-pid-counter string unique enough
        for many client processes against one sidecar.
    retry:
        :class:`RetryPolicy` driving connect/reconnect backoff (its
        deterministic jitter keeps chaos runs reproducible).
    liveness_timeout:
        Seconds of server silence (or one unanswered check) after which
        the client degrades.  Heartbeats go out at a third of this.
    journal:
        Optional local :class:`~repro.tools.journal.TraceJournal`
        written like any verifier's — this is the client-side record
        the degradation story replays from.
    connect:
        When False, skip the constructor's connection attempt and start
        degraded (tests use this to exercise reconcile from birth).
    """

    def __init__(
        self,
        url: "str | tuple[str, int]",
        policy: "str | JoinPolicy" = "TJ-SP",
        *,
        fail_mode: str = "open",
        session: "str | None" = None,
        retry: "RetryPolicy | None" = None,
        liveness_timeout: float = 2.0,
        journal: "object | None" = None,
        connect: bool = True,
    ) -> None:
        local_policy = make_policy(policy) if isinstance(policy, str) else policy
        super().__init__(local_policy, fail_mode=fail_mode, journal=journal)
        self.host, self.port = parse_remote_url(url) if isinstance(url, str) else url
        self.session_id = session or (
            f"{socket.gethostname()}-{os.getpid()}-{next(_SESSION_COUNTER)}"
        )
        self.retry = retry if retry is not None else _DEFAULT_RETRY
        self.liveness_timeout = liveness_timeout
        #: the KJ-learn optimisation: ``join`` events only travel when
        #: the policy actually overrides ``on_join`` (TJ policies don't)
        self._send_joins = type(local_policy).on_join is not JoinPolicy.on_join
        # --- connection state (guarded by _state_lock) ---
        self._state_lock = threading.Lock()
        self._stream: Optional[RecordStream] = None
        self._gen = 0  # connection generation; stale threads check it
        self._is_degraded = True  # until the first connect succeeds
        self._warned_episode = -1
        self._last_heard = monotonic()
        self._closed = threading.Event()
        # --- outbound state stream (guarded by _send_lock) ---
        self._send_lock = threading.Lock()
        self._next_rid = itertools.count()
        self._next_cseq = itertools.count()
        self._replay: list[dict] = []  # unacked state events, cseq order
        self._acked_seq = -1
        # --- synchronous requests ---
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._next_req = itertools.count()
        # --- reconcile bookkeeping ---
        self._degraded_checks: list[tuple[int, int]] = []
        self._rechecks_dropped = 0
        self._backpressure: Optional[ServiceBackpressureError] = None
        #: counters the tests and `top` read
        self.degradations = 0
        self.reconciles = 0
        self.events_replayed = 0
        self.rechecks_sent = 0
        obs = self._obs  # set by Verifier.__init__
        if obs is not None:
            labels = {"session": self.session_id}
            self._rtt_hist = obs.registry.histogram(
                "repro_service_rtt_ns", buckets=RTT_NS_BUCKETS, labels=labels
            )
            self._degradations_counter = obs.registry.counter(
                "repro_service_degradations_total", labels=labels
            )
            self._reconciles_counter = obs.registry.counter(
                "repro_service_reconciles_total", labels=labels
            )
        else:
            self._rtt_hist = None
            self._degradations_counter = None
            self._reconciles_counter = None
        if connect:
            self._connect_with_retry()
        if self._is_degraded:
            self._warn_degraded("sidecar unreachable at construction")
        self._heartbeat = threading.Thread(
            target=self._heartbeat_main,
            name=f"repro-remote-hb-{self.session_id}",
            daemon=True,
        )
        self._heartbeat.start()

    # ------------------------------------------------------------------
    # state surface the hybrid/supervision layers consult
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while answering locally because the sidecar is unreachable."""
        return self._is_degraded

    @property
    def unsound(self) -> bool:
        """Degradation *or* quarantine voids the policy's soundness theorem."""
        return self._is_degraded or self._quarantine is not None

    @property
    def connected(self) -> bool:
        return not self._is_degraded

    # ------------------------------------------------------------------
    # verifier protocol: state events
    # ------------------------------------------------------------------
    def on_init(self) -> RemoteVertex:
        self._shard().forks += 1
        vertex = RemoteVertex(next(self._next_rid))
        self._emit_event({"kind": "init", "task": vertex.rid})
        if self.journal is not None:
            self.journal.log_init(vertex)
        return vertex

    def on_fork(self, parent: "RemoteVertex | None") -> RemoteVertex:
        self._shard().forks += 1
        vertex = RemoteVertex(next(self._next_rid), parent)
        self._emit_event(
            {
                "kind": "fork",
                "parent": parent.rid if parent is not None else None,
                "child": vertex.rid,
            }
        )
        if self.journal is not None:
            self.journal.log_fork(parent, vertex)
        return vertex

    def on_join_completed(self, joiner: RemoteVertex, joinee: RemoteVertex) -> None:
        if not self._send_joins:
            return  # the policy's on_join is the no-op default: no traffic
        self._emit_event(
            {"kind": "join", "waiter": joiner.rid, "joinee": joinee.rid}
        )

    def _emit_event(self, record: dict) -> None:
        """Sequence, buffer, and (when connected) send one state event.

        Never raises for network trouble — a failed send degrades and
        the buffered record rides the next reconcile.
        """
        with self._send_lock:
            record["cseq"] = next(self._next_cseq)
            self._replay.append(record)
            stream = self._stream
            if stream is None:
                return
            try:
                stream.send(record)
            except ServiceUnavailableError as exc:
                self._enter_degraded(f"send failed: {exc}")

    # ------------------------------------------------------------------
    # verifier protocol: synchronous checks
    # ------------------------------------------------------------------
    def check_join(self, joiner: RemoteVertex, joinee: RemoteVertex) -> bool:
        ok = bool(self._roundtrip_check(joiner.rid, joinee.rid))
        shard = self._shard()
        shard.joins_checked += 1
        if not ok:
            shard.joins_rejected += 1
        if self.journal is not None:
            self.journal.log_verdict(joiner, joinee, ok)
        return ok

    def check_joins(self, joiner: RemoteVertex, joinees: Sequence[RemoteVertex]) -> list[bool]:
        joinees = list(joinees)
        if not joinees:
            return []
        verdicts = self._roundtrip_check(
            joiner.rid, [j.rid for j in joinees], batch=True
        )
        verdicts = [bool(v) for v in verdicts]
        if len(verdicts) != len(joinees):
            # a malformed reply must not misalign verdicts with joinees
            self._enter_degraded("verdict batch length mismatch")
            verdicts = self._degraded_batch(joiner.rid, [j.rid for j in joinees])
        shard = self._shard()
        shard.joins_checked += len(verdicts)
        shard.joins_rejected += verdicts.count(False)
        if self.journal is not None:
            for joinee, ok in zip(joinees, verdicts):
                self.journal.log_verdict(joiner, joinee, ok)
        return verdicts

    def _roundtrip_check(self, waiter: int, joinee, *, batch: bool = False):
        """One synchronous permit query; every failure path answers locally."""
        bp = self._backpressure
        if bp is not None:
            self._backpressure = None
            raise bp
        q = self._quarantine
        if q is not None and self.fail_mode == "closed":
            raise q
        if self._is_degraded:
            return (
                self._degraded_batch(waiter, joinee)
                if batch
                else self._degraded_answer(waiter, joinee)
            )
        pending = _Pending()
        req = next(self._next_req)
        with self._pending_lock:
            self._pending[req] = pending
        if batch:
            record = {"kind": "check_batch", "waiter": waiter, "joinees": joinee, "req": req}
        else:
            record = {"kind": "check", "waiter": waiter, "joinee": joinee, "req": req}
        _stamp_trace(record)
        t0 = perf_counter_ns()
        with self._send_lock:
            stream = self._stream
            if stream is not None:
                try:
                    stream.send(record)
                except ServiceUnavailableError as exc:
                    self._enter_degraded(f"send failed: {exc}")
                    stream = None
        if stream is None:
            with self._pending_lock:
                self._pending.pop(req, None)
            return (
                self._degraded_batch(waiter, joinee)
                if batch
                else self._degraded_answer(waiter, joinee)
            )
        if not pending.event.wait(self.liveness_timeout * 2):
            self._enter_degraded("permit query timed out")
        with self._pending_lock:
            self._pending.pop(req, None)
        if pending.outcome == "ok":
            if self._rtt_hist is not None:
                self._rtt_hist.observe(perf_counter_ns() - t0)
            return pending.value
        if pending.outcome == "exc":
            raise pending.value  # quarantine (closed) or backpressure
        # degraded (or timed out, which degraded us): answer locally
        return (
            self._degraded_batch(waiter, joinee)
            if batch
            else self._degraded_answer(waiter, joinee)
        )

    def _degraded_answer(self, waiter: int, joinee: int) -> bool:
        """Fail-open local verdict, remembered for reconcile."""
        if len(self._degraded_checks) < _MAX_RECHECKS:
            self._degraded_checks.append((waiter, joinee))
        else:
            self._rechecks_dropped += 1
        return True

    def _degraded_batch(self, waiter: int, joinees: list) -> list[bool]:
        return [self._degraded_answer(waiter, j) for j in joinees]

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _connect_with_retry(self) -> bool:
        """Constructor-time connect on the RetryPolicy schedule."""
        for attempt in range(1, self.retry.max_attempts + 1):
            if self._try_connect():
                return True
            if attempt < self.retry.max_attempts:
                self._closed.wait(self.retry.delay(attempt, site="service-connect"))
        return False

    def _try_connect(self) -> bool:
        """One connect + handshake + reconcile attempt; False on failure."""
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.liveness_timeout
            )
        except OSError:
            return False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.liveness_timeout * 2)
            stream = RecordStream(sock)
            stream.send(
                {
                    "kind": "hello",
                    "session": self.session_id,
                    "policy": self.policy.name,
                    "fail_mode": self.fail_mode,
                    "wire": WIRE_VERSION,
                    "resume": True,
                }
            )
            welcome = stream.recv()
            if welcome is None:
                raise ServiceUnavailableError("server closed during handshake")
            kind = validate_record(welcome, SERVER_KINDS)
            if kind == "error":
                raise ServiceProtocolError(welcome["message"])
            if kind != "welcome":
                raise ServiceProtocolError(f"expected welcome, got {kind!r}")
            sock.settimeout(None)
        except (ServiceUnavailableError, ServiceProtocolError, OSError) as exc:
            try:
                sock.close()
            except OSError:
                pass
            if isinstance(exc, ServiceProtocolError):
                # The server *rejected* us (policy mismatch, version skew):
                # retrying cannot help, and hiding it would mask misconfig.
                warnings.warn(
                    f"sidecar refused session {self.session_id!r}: {exc}",
                    ServiceDegradedWarning,
                    stacklevel=3,
                )
            return False
        # Handshake done: install the stream and reconcile under the send
        # lock so no fresh event can jump ahead of the replayed gap.
        with self._send_lock:
            was_degraded = self._is_degraded
            with self._state_lock:
                self._gen += 1
                gen = self._gen
                self._stream = stream
                self._is_degraded = False
                self._last_heard = monotonic()
            if welcome.get("quarantined") and self._quarantine is None:
                self._adopt_quarantine("resume", "policy quarantined before resume")
            try:
                self._reconcile_locked(stream, int(welcome["last_seq"]))
            except ServiceUnavailableError as exc:
                self._enter_degraded(f"reconcile failed: {exc}")
                return False
        receiver = threading.Thread(
            target=self._receiver_main,
            args=(stream, gen),
            name=f"repro-remote-rx-{self.session_id}",
            daemon=True,
        )
        receiver.start()
        if was_degraded and self.reconciles > 0:
            if self._reconciles_counter is not None:
                self._reconciles_counter.inc()
        return True

    def _reconcile_locked(self, stream: RecordStream, last_seq: int) -> None:
        """Replay the gap and the degraded-window checks (send lock held)."""
        replayed = 0
        for record in self._replay:
            if record["cseq"] > last_seq:
                stream.send(record)
                replayed += 1
        self.events_replayed += replayed
        rechecks, self._degraded_checks = self._degraded_checks, []
        for waiter, joinee in rechecks:
            stream.send({"kind": "recheck", "waiter": waiter, "joinee": joinee})
        self.rechecks_sent += len(rechecks)
        if replayed or rechecks:
            self.reconciles += 1

    def try_reconnect(self) -> bool:
        """One immediate reconnect attempt (tests and the heartbeat use it)."""
        if self._closed.is_set() or not self._is_degraded:
            return not self._is_degraded
        return self._try_connect()

    def _enter_degraded(self, reason: str) -> None:
        """The one-way-per-episode transition to local answering."""
        with self._state_lock:
            if self._is_degraded:
                return
            self._is_degraded = True
            self._gen += 1
            stream, self._stream = self._stream, None
        self.degradations += 1
        if self._degradations_counter is not None:
            self._degradations_counter.inc()
        if stream is not None:
            try:
                stream.sock.close()
            except OSError:
                pass
        # Anyone blocked on a verdict answers locally instead of hanging.
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for p in pending.values():
            p.resolve("degraded")
        self._warn_degraded(reason)

    def _warn_degraded(self, reason: str) -> None:
        if self._warned_episode == self.degradations:
            return
        self._warned_episode = self.degradations
        warnings.warn(
            f"verification sidecar at {self.host}:{self.port} unavailable "
            f"({reason}); session {self.session_id!r} degraded to local "
            "fail-open checking — Armus force-checks every blocking join",
            ServiceDegradedWarning,
            stacklevel=2,
        )

    def _test_drop_connection(self) -> None:
        """Test seam: sever the link as if the network died right now."""
        self._enter_degraded("test-injected connection drop")

    # ------------------------------------------------------------------
    # background threads
    # ------------------------------------------------------------------
    def _receiver_main(self, stream: RecordStream, gen: int) -> None:
        try:
            while not self._closed.is_set():
                record = stream.recv()
                if record is None:
                    raise ServiceUnavailableError("server closed the connection")
                self._last_heard = monotonic()
                self._handle(record, validate_record(record, SERVER_KINDS))
        except (ServiceUnavailableError, ServiceProtocolError, OSError) as exc:
            with self._state_lock:
                stale = gen != self._gen
            if not stale and not self._closed.is_set():
                self._enter_degraded(str(exc))

    def _handle(self, record: dict, kind: str) -> None:
        if kind == "verdict" or kind == "verdicts":
            with self._pending_lock:
                pending = self._pending.pop(record["req"], None)
            if pending is not None:
                pending.resolve("ok", record["ok"])
        elif kind == "pong":
            pass  # _last_heard already refreshed
        elif kind == "ack":
            seq = record["seq"]
            with self._send_lock:
                if seq > self._acked_seq:
                    self._acked_seq = seq
                    self._replay = [r for r in self._replay if r["cseq"] > seq]
        elif kind == "quarantine":
            self._adopt_quarantine(
                record.get("site", "?"), record.get("error", ""), record.get("req")
            )
        elif kind == "backpressure":
            exc = ServiceBackpressureError(self.session_id, record["limit"])
            req = record.get("req")
            if req is not None:
                with self._pending_lock:
                    pending = self._pending.pop(req, None)
                if pending is not None:
                    pending.resolve("exc", exc)
            else:
                # refusal of a fire-and-forget event: surface at the next
                # synchronous call (the event stays in the replay buffer,
                # so a later reconcile re-delivers it)
                self._backpressure = exc
        elif kind == "error":
            req = record.get("req")
            if req is not None:
                with self._pending_lock:
                    pending = self._pending.pop(req, None)
                if pending is not None:
                    pending.resolve("exc", ServiceProtocolError(record["message"]))
        elif kind == "welcome":
            pass  # duplicate welcome: harmless

    def _adopt_quarantine(self, site: str, error: str, req: "int | None" = None) -> None:
        """The server's policy quarantined: mirror it locally."""
        q = self._quarantine
        if q is None:
            q = PolicyQuarantinedError(self.policy.name, site, original=error or None)
            with self._quarantine_lock:
                if self._quarantine is None:
                    self._quarantine = q
                    announced = True
                else:
                    q = self._quarantine
                    announced = False
            if announced:
                self._shard().policy_faults += 1
                warnings.warn(
                    f"sidecar quarantined policy {self.policy.name!r} for session "
                    f"{self.session_id!r} (site {site}); "
                    + (
                        "failing closed"
                        if self.fail_mode == "closed"
                        else "Armus force-checks every blocking join"
                    ),
                    PolicyQuarantineWarning,
                    stacklevel=2,
                )
        if req is not None:
            with self._pending_lock:
                pending = self._pending.pop(req, None)
            if pending is not None:
                pending.resolve("exc", q)

    def _heartbeat_main(self) -> None:
        interval = max(0.05, self.liveness_timeout / 3)
        attempt = 0
        while not self._closed.wait(interval):
            if self._is_degraded:
                attempt += 1
                if self._try_connect():
                    attempt = 0
                else:
                    # deterministic backoff between reconnect attempts
                    capped = min(attempt, 16)
                    self._closed.wait(self.retry.delay(capped, site="service-reconnect"))
                continue
            if monotonic() - self._last_heard > self.liveness_timeout:
                self._enter_degraded("liveness deadline exceeded")
                continue
            with self._send_lock:
                stream = self._stream
                if stream is None:
                    continue
                try:
                    stream.send({"kind": "ping"})
                except ServiceUnavailableError as exc:
                    self._enter_degraded(f"heartbeat send failed: {exc}")

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Best-effort: nothing to do — events are sent as they happen."""

    def close(self) -> None:
        """Leave the session: bye, close the socket, stop the threads."""
        if self._closed.is_set():
            return
        self._closed.set()
        with self._send_lock:
            stream = self._stream
            if stream is not None:
                try:
                    stream.send({"kind": "bye"})
                except ServiceUnavailableError:
                    pass
        with self._state_lock:
            self._gen += 1
            stream, self._stream = self._stream, None
        if stream is not None:
            try:
                stream.sock.close()
            except OSError:
                pass
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for p in pending.values():
            p.resolve("degraded")
        self._heartbeat.join(timeout=5.0)

    def __enter__(self) -> "RemoteVerifier":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def service_snapshot(self) -> dict:
        """Client-side service counters (tests and `top`)."""
        return {
            "session": self.session_id,
            "degraded": self._is_degraded,
            "degradations": self.degradations,
            "reconciles": self.reconciles,
            "events_replayed": self.events_replayed,
            "rechecks_sent": self.rechecks_sent,
            "rechecks_dropped": self._rechecks_dropped,
            "replay_buffer": len(self._replay),
            "acked_seq": self._acked_seq,
        }


class SessionClient:
    """A thin rid-level sidecar session: tenant announcements and queries.

    Where :class:`RemoteVerifier` *is* a verifier (vertices, replay
    buffer, reconcile machinery), this client is deliberately less.  The
    multi-process runtime decides every join in-process and uses one
    session only to *mirror* its dispatch tree: it ships plain integer
    rids (its spawn-path vertex ids) with their authoritative placement
    as buffered fire-and-forget state events (flushed every
    :attr:`FLUSH_EVERY`, on :meth:`flush`, or before any request).  A
    tenant client that lacks the tree joins the same tenant and asks
    the mirror with synchronous :meth:`check` and :meth:`stats`
    requests, answered by request id.

    Degradation is **permanent and local**: on any connect, send,
    receive, timeout or backpressure failure the client goes silent and
    every later call is a no-op — requests return ``None``.  There is no
    replay buffer and no reconcile: the sidecar's copy is for
    observability and post-mortems, and a runtime that outlives its
    sidecar is unaffected.  One lock serialises the socket.
    """

    #: buffered state events forcing a flush
    FLUSH_EVERY = 64

    def __init__(
        self,
        url: str,
        session_id: str,
        *,
        policy: str = "TJ-SP",
        tenant: "str | None" = None,
        fail_mode: str = "open",
        timeout: float = 5.0,
    ) -> None:
        self.url = url
        self.session_id = session_id
        self.policy_name = policy
        self.tenant = tenant
        self.fail_mode = fail_mode
        self.timeout = timeout
        self._lock = threading.Lock()
        self._stream: Optional[RecordStream] = None
        self._buffer: list[dict] = []
        self._cseq = itertools.count()
        self._req = itertools.count(1)
        self.events_sent = 0
        self.checks_sent = 0
        self.degraded = False
        self.degrade_reason: Optional[str] = None
        self.quarantined = False

    # ------------------------------------------------------------------
    def connect(self) -> bool:
        """Dial and handshake; False (and degraded) if the sidecar is gone."""
        host, port = parse_remote_url(self.url)
        try:
            sock = socket.create_connection((host, port), timeout=self.timeout)
            sock.settimeout(self.timeout)
            stream = RecordStream(sock)
            hello = {
                "kind": "hello",
                "wire": WIRE_VERSION,
                "session": self.session_id,
                "policy": self.policy_name,
                "fail_mode": self.fail_mode,
            }
            if self.tenant is not None:
                hello["tenant"] = self.tenant
            stream.send(hello)
            welcome = stream.recv()
            if welcome is None or welcome.get("kind") != "welcome":
                raise ServiceProtocolError(f"expected welcome, got {welcome!r}")
        except (OSError, ServiceError) as exc:
            self._degrade(f"connect: {exc}")
            return False
        with self._lock:
            self._stream = stream
        return True

    # ------------------------------------------------------------------
    # fire-and-forget state events (buffered)
    # ------------------------------------------------------------------
    def init(self, rid: int) -> None:
        self._buffer_event({"kind": "init", "task": rid})

    def fork(self, parent_rid: int, child_rid: int, edge: int, depth: int) -> None:
        # edge/depth are the authoritative placement (sibling index and
        # tree depth from the caller's own spawn tree).  Tenant sessions
        # from different workers race their announcements, so the server
        # must never re-derive sibling order from arrival order.
        self._buffer_event(
            {
                "kind": "fork",
                "parent": parent_rid,
                "child": child_rid,
                "edge": edge,
                "depth": depth,
            }
        )

    def _buffer_event(self, record: dict) -> None:
        if self.degraded:
            return
        with self._lock:
            record["cseq"] = next(self._cseq)
            self._buffer.append(record)
            if len(self._buffer) >= self.FLUSH_EVERY:
                self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self.degraded or self._stream is None:
            self._buffer.clear()
            return
        try:
            for record in self._buffer:
                self._stream.send(record)
            self.events_sent += len(self._buffer)
            self._buffer.clear()
        except (OSError, ServiceError) as exc:
            self._degrade_locked(f"flush: {exc}")

    # ------------------------------------------------------------------
    # synchronous requests
    # ------------------------------------------------------------------
    def check(self, waiter_rid: int, joinee_rid: int) -> "bool | None":
        """One join-permit query against the tenant mirror; None = degraded."""
        record = {"kind": "check", "waiter": waiter_rid, "joinee": joinee_rid}
        _stamp_trace(record)
        reply = self._roundtrip(record, "verdict")
        return None if reply is None else bool(reply["ok"])

    def stats(self) -> "dict | None":
        """The server's full stats snapshot; None = degraded.

        Rides the same request-id round-trip as checks — the server
        answers from the connection reader, ahead of any queued
        verification stream.
        """
        reply = self._roundtrip({"kind": "stats"}, "stats_reply")
        return None if reply is None else reply["stats"]

    def ping(self) -> None:
        """Fire-and-forget keepalive (the pong is drained later).

        The runtime's client only sends when it dispatches, and can sit
        idle for long stretches of a run; without an occasional ping the
        server's liveness sweeper reaps the connection as dead and the
        final stats pull finds a closed stream.
        """
        if self.degraded:
            return
        with self._lock:
            stream = self._stream
            if stream is None:
                return
            try:
                stream.send({"kind": "ping"})
            except (OSError, ServiceError) as exc:
                self._degrade_locked(f"ping: {exc}")

    def _roundtrip(self, record: dict, want: str) -> "dict | None":
        if self.degraded:
            return None
        with self._lock:
            stream = self._stream
            if stream is None:
                return None
            req = next(self._req)
            record["req"] = req
            self._flush_locked()
            if self.degraded:
                return None
            try:
                stream.send(record)
                self.checks_sent += 1
                while True:
                    reply = stream.recv()
                    if reply is None:
                        raise ServiceUnavailableError("sidecar closed the stream")
                    kind = reply.get("kind")
                    if kind == want and reply.get("req") == req:
                        return reply
                    if kind == "quarantine":
                        # Tenant policy quarantined server-side: its
                        # verdicts mean nothing any more, so treat it
                        # like degradation for this and future checks.
                        self.quarantined = True
                        if reply.get("req") == req:
                            self._degrade_locked("server policy quarantined")
                            return None
                    elif kind == "backpressure":
                        self._degrade_locked("server backpressure")
                        return None
                    elif kind == "error":
                        raise ServiceProtocolError(str(reply.get("message")))
                    # acks/pongs and stale replies: keep reading
            except (OSError, ServiceError) as exc:
                self._degrade_locked(f"check: {exc}")
                return None

    # ------------------------------------------------------------------
    def _degrade(self, reason: str) -> None:
        with self._lock:
            self._degrade_locked(reason)

    def _degrade_locked(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degrade_reason = reason
        self._buffer.clear()
        stream, self._stream = self._stream, None
        if stream is not None:
            try:
                stream.sock.close()
            except OSError:
                pass

    def close(self) -> None:
        """Flush what we can, say goodbye, drop the socket."""
        with self._lock:
            stream = self._stream
            if stream is None:
                return
            self._flush_locked()
            try:
                if not self.degraded:
                    stream.send({"kind": "bye"})
            except (OSError, ServiceError):
                pass
            self._stream = None
            try:
                stream.sock.close()
            except OSError:
                pass

    def snapshot(self) -> dict:
        return {
            "session": self.session_id,
            "tenant": self.tenant,
            "events_sent": self.events_sent,
            "checks_sent": self.checks_sent,
            "degraded": self.degraded,
            "degrade_reason": self.degrade_reason,
            "quarantined": self.quarantined,
        }

    def __enter__(self) -> "SessionClient":
        self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
