"""Task bodies that execute a spec, one interpreter per runtime.

Every interpreter times each join as its caller sees it (from the join
call to its return; on the cooperative runtime that spans the ``yield``)
and records the outcome in a :class:`JoinLog`.  A refused join outside a
mutual-join pair is a failure; inside a pair, each refusal is counted so
the caller can check that every cycle was refused exactly once.

The ``procs_*`` functions run inside :class:`repro.runtime.ProcessRuntime`
workers and must stay importable at module level: the runtime pickles
them by name.
"""

from __future__ import annotations

import threading
from time import perf_counter_ns

from repro.errors import DeadlockAvoidedError, PolicyViolationError

from .spec import CHILD, MOD

__all__ = [
    "JoinLog",
    "coop_task",
    "threaded_task",
    "procs_subtree",
    "procs_expected",
]

_REFUSALS = (DeadlockAvoidedError, PolicyViolationError)


class JoinLog:
    """Join latencies and refusals of one program run."""

    __slots__ = ("latency_ns", "bad_refusals", "pair_refusals")

    def __init__(self, pairs: int = 0) -> None:
        self.latency_ns: list = []
        #: refusals of joins that cannot deadlock (each one is a failure)
        self.bad_refusals = 0
        #: refusals per mutual-join pair (each must end at exactly 1)
        self.pair_refusals = [0] * pairs

    def refused(self, pair: int) -> None:
        if pair:
            self.pair_refusals[pair - 1] += 1
        else:
            self.bad_refusals += 1


def coop_task(rt, nodes, nid, sibs, log):
    """A generator task for ``CooperativeRuntime``: fork, then join."""
    node = nodes[nid]
    futs: list = []
    fork = rt.fork
    if not node.seq:
        for child in node.children:
            futs.append(fork(coop_task, rt, nodes, child, futs, log))
    acc = node.val
    lat = log.latency_ns
    for kind, idx, pair in node.joins:
        if node.seq:
            futs.append(fork(coop_task, rt, nodes, node.children[idx], futs, log))
        fut = futs[idx] if kind == CHILD else sibs[idx]
        t0 = perf_counter_ns()
        try:
            value = yield fut
        except _REFUSALS:
            lat.append(perf_counter_ns() - t0)
            log.refused(pair)
            continue
        lat.append(perf_counter_ns() - t0)
        if not pair:
            acc = (acc + value) % MOD
    return acc


def threaded_task(rt, nodes, nid, sibs, siblings_forked, log):
    """A blocking task for ``TaskRuntime``: fork, then join.

    Children of a ``sync`` parent may join younger siblings, whose futures
    exist only once the parent has forked them all; they wait on the
    parent's event first (the parent never joins before setting it).
    """
    node = nodes[nid]
    futs: list = []
    forked = threading.Event() if node.sync else None
    fork = rt.fork
    if not node.seq:
        for child in node.children:
            futs.append(fork(threaded_task, rt, nodes, child, futs, forked, log))
    if forked is not None:
        forked.set()
    acc = node.val
    lat = log.latency_ns
    for kind, idx, pair in node.joins:
        if node.seq:
            futs.append(fork(threaded_task, rt, nodes, node.children[idx], futs, None, log))
        if kind == CHILD:
            fut = futs[idx]
        else:
            siblings_forked.wait()
            fut = sibs[idx]
        t0 = perf_counter_ns()
        try:
            value = fut.join()
        except _REFUSALS:
            lat.append(perf_counter_ns() - t0)
            log.refused(pair)
            continue
        lat.append(perf_counter_ns() - t0)
        if not pair:
            acc = (acc + value) % MOD
    return acc


# ----------------------------------------------------------------------
# procs-sidecar: dispatch x mids x leaves
# ----------------------------------------------------------------------
def _leaf_value(x: int) -> int:
    return (x * 2654435761 + 97) % MOD


def procs_leaf(x: int) -> int:
    return _leaf_value(x)


def procs_mid(rt, base: int, leaves: int):
    futs = [rt.fork(procs_leaf, base + i) for i in range(leaves)]
    acc, lat = base, []
    for fut in futs:
        t0 = perf_counter_ns()
        acc = (acc + fut.join()) % MOD
        lat.append(perf_counter_ns() - t0)
    return acc, lat


def procs_subtree(rt, base: int, mids: int, leaves: int):
    """The dispatched task: its joins of the mids are cross-process joins."""
    futs = [rt.fork(procs_mid, rt, base + m * leaves, leaves) for m in range(mids)]
    acc, lat = base, []
    for fut in futs:
        t0 = perf_counter_ns()
        value, inner = fut.join()
        lat.append(perf_counter_ns() - t0)
        lat.extend(inner)
        acc = (acc + value) % MOD
    return acc, lat


def procs_expected(base: int, mids: int, leaves: int) -> int:
    """The checksum ``procs_subtree(rt, base, mids, leaves)`` must return."""
    acc = base
    for m in range(mids):
        mid_base = base + m * leaves
        mid = mid_base
        for i in range(leaves):
            mid = (mid + _leaf_value(mid_base + i)) % MOD
        acc = (acc + mid) % MOD
    return acc


def procs_noop(rt) -> int:
    return 0
