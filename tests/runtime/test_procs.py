"""The multi-process runtime: verified dispatch, local/cross join
accounting, the observe-only sidecar, worker-death recovery, and the
pickling boundary.

Dispatched bodies must be module-level (they cross a process boundary),
so every task body here is a top-level function.  Pool geometry is kept
tiny (two workers, small shared-tree segments) — each test still pays a
couple of spawn startups, so this file leans on a handful of dense
programs rather than many micro-cases.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.constructs import finish
from repro.errors import (
    ReproError,
    RuntimeStateError,
    TaskFailedError,
)
from repro.runtime import ProcessRuntime, require_current_task
from repro.runtime.procs import ShardVerifier, WireSpawnPaths
from repro.core.shared_tree import shm_available
from repro.service.client import SessionClient

MODES = ["wire"] + (["shm"] if shm_available() else [])


def _rt(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("seg0", 64)
    kw.setdefault("stripe", 16)
    return ProcessRuntime(**kw)


# ----------------------------------------------------------------------
# dispatched bodies (module level: they are pickled by reference)
# ----------------------------------------------------------------------
def square(x):
    return x * x


def subtree(rt, base, fanout):
    futs = [rt.fork(square, base + i) for i in range(fanout)]
    return sum(rt.join_batch(futs))


def deep_subtree(rt, base, mids, leaves):
    # In-worker forks are plain TaskRuntime forks (no engine prepended),
    # so the engine rides along as an explicit argument.
    futs = [
        rt.fork(subtree_level, rt, base + 100 * m, leaves) for m in range(mids)
    ]
    return sum(rt.join_batch(futs))


def subtree_level(rt, base, leaves):
    futs = [rt.fork(square, base + i) for i in range(leaves)]
    return sum(rt.join_batch(futs))


def boom(rt):
    raise ValueError("boom in worker")


def returns_unpicklable(rt):
    return lambda: 1  # pragma: no cover - never called


def slow_then_square(rt, x, delay):
    time.sleep(delay)
    return x * x


def cancellable_loop(rt, barrier_path):
    with open(barrier_path, "w") as fh:
        fh.write("running")
    task = require_current_task()
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        task.cancel_token.raise_if_cancelled(task)
        time.sleep(0.01)
    return "never cancelled"  # pragma: no cover


# ----------------------------------------------------------------------
# round trips and verdict accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_fork_join_round_trip(mode):
    rt = _rt(spawn_paths=mode)

    def root():
        futs = [rt.fork(subtree, 10 * t, 4) for t in range(6)]
        return rt.join_batch(futs)

    totals = rt.run(root)
    assert totals == [sum((10 * t + i) ** 2 for i in range(4)) for t in range(6)]
    # Only parent-side dispatches count here; the 24 leaves are
    # in-worker tasks hosted by the workers' own engines.
    assert rt.tasks_dispatched == rt.tasks_completed == 6
    assert rt.worker_deaths == 0


@pytest.mark.parametrize("mode", MODES)
def test_join_stats_split_local_vs_cross(mode):
    rt = _rt(spawn_paths=mode)

    def root():
        futs = [rt.fork(subtree, 10 * t, 5) for t in range(4)]
        return rt.join_batch(futs)

    rt.run(root)
    js = rt.join_stats()
    # The parent joining its dispatched tasks is local (it forked them);
    # each dispatched task joining its in-worker children is the
    # cross-process edge.
    assert js["cross_joins"] == 20  # 4 subtrees x 5 leaves
    assert js["local_joins"] >= 4  # the parent's joins at minimum
    # Every join, cross-process ones included, is decided in-process.
    assert js["degraded_joins"] == 0
    assert 0.0 < js["escalation_ratio"] < 1.0


def test_fork_heavy_shape_keeps_escalation_in_the_minority():
    rt = _rt()

    def root():
        futs = [rt.fork(deep_subtree, 1000 * t, 3, 6) for t in range(4)]
        return rt.join_batch(futs)

    rt.run(root)
    js = rt.join_stats()
    # Only the dispatched tasks' own joins are cross-process; the two
    # in-worker levels below them are local.  That is the >90%-local design point
    # scaled down: here 12 cross out of 12 + (12*6 local + 4 parent).
    assert js["local_joins"] > js["cross_joins"]
    assert js["escalation_ratio"] < 0.5


@pytest.mark.parametrize("mode", MODES)
def test_sidecar_only_observes_joins_stay_in_process(mode):
    """A sidecar changes nothing about joins: same results, same counts,
    no check from the runtime's sessions — yet a tenant client that
    lacks the tree still gets verdicts over the mirrored dispatch tree."""

    def run(sidecar):
        rt = _rt(spawn_paths=mode, sidecar=sidecar)
        seen = {}

        def root():
            futs = [rt.fork(subtree, 10 * t, 5) for t in range(4)]
            totals = rt.join_batch(futs)
            if rt.sidecar_url is not None:
                probe_id = f"{rt.run_id}-probe"
                client = SessionClient(rt.sidecar_url, probe_id, tenant=rt.run_id)
                try:
                    assert client.connect()
                    root_vid = require_current_task().vertex
                    seen["verdict"] = client.check(root_vid, futs[0].task.vertex)
                    per_session = client.stats()["per_session"]
                finally:
                    client.close()
                seen["runtime_sessions"] = {
                    sid: snap
                    for sid, snap in per_session.items()
                    if sid.startswith(rt.run_id) and sid != probe_id
                }
            return totals

        return rt.run(root), rt.join_stats(), seen

    plain, plain_js, _ = run(None)
    observed, observed_js, seen = run("auto")
    assert observed == plain
    for js in (plain_js, observed_js):
        assert js["cross_joins"] == 20
        assert js["degraded_joins"] == 0
    assert observed_js["local_joins"] == plain_js["local_joins"]
    # only the parent's announcing session; it never asked for a verdict
    assert len(seen["runtime_sessions"]) == 1
    assert sum(s["checks"] for s in seen["runtime_sessions"].values()) == 0
    assert seen["verdict"] is True


def test_finish_construct_drives_the_worker_engine():
    rt = _rt()
    seen = []

    def root():
        with finish(rt) as scope:
            for t in range(3):
                seen.append(scope.async_(subtree, 100 * t, 3))
        return [f._result_now() for f in seen]

    totals = rt.run(root)
    assert totals == [sum((100 * t + i) ** 2 for i in range(3)) for t in range(3)]


# ----------------------------------------------------------------------
# failures crossing the process boundary
# ----------------------------------------------------------------------
def test_worker_exception_round_trips_to_the_parent():
    rt = _rt(workers=1)

    def root():
        fut = rt.fork(boom)
        with pytest.raises(TaskFailedError) as exc_info:
            rt.join(fut)
        return exc_info.value

    err = rt.run(root)
    assert isinstance(err.__cause__, ValueError)
    assert "boom in worker" in str(err.__cause__)


def test_unpicklable_fn_fails_synchronously():
    rt = _rt(workers=1)

    def root():
        with pytest.raises(RuntimeStateError, match="picklable"):
            rt.fork(lambda: 1)
        return "ok"

    assert rt.run(root) == "ok"


def test_unpicklable_result_becomes_a_described_error():
    rt = _rt(workers=1)

    def root():
        fut = rt.fork(returns_unpicklable)
        with pytest.raises(TaskFailedError) as exc_info:
            rt.join(fut)
        return exc_info.value

    err = rt.run(root)
    assert isinstance(err.__cause__, ReproError)
    assert "unpicklable" in str(err.__cause__)


def test_cancel_relays_to_the_worker(tmp_path):
    rt = _rt(workers=1)
    barrier = str(tmp_path / "running")

    def root():
        fut = rt.fork(cancellable_loop, barrier)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(barrier):
            assert time.monotonic() < deadline, "worker never started the body"
            time.sleep(0.01)
        fut.cancel()
        with pytest.raises(ReproError):
            rt.join(fut, timeout=10.0)
        return "cancelled"

    t0 = time.monotonic()
    assert rt.run(root) == "cancelled"
    # The loop runs 20s if cancellation never lands.
    assert time.monotonic() - t0 < 15.0


# ----------------------------------------------------------------------
# worker death and redispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_sigkill_mid_task_redispatches_under_fresh_vertices(mode):
    rt = _rt(workers=3, spawn_paths=mode)
    killed = []

    def killer():
        time.sleep(0.6)
        victim = rt._workers[0].proc
        if victim.is_alive():
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

    def root():
        threading.Thread(target=killer, daemon=True).start()
        futs = [rt.fork(slow_then_square, t, 0.3) for t in range(9)]
        return rt.join_batch(futs)

    totals = rt.run(root)
    assert totals == [t * t for t in range(9)]
    assert killed, "the killer thread never fired"
    assert rt.worker_deaths == 1
    assert rt.tasks_redispatched >= 1


def test_redispatch_off_fails_the_stranded_futures():
    rt = _rt(workers=2, redispatch=False, on_unjoined_failure="ignore")

    def killer():
        time.sleep(0.4)
        for w in rt._workers:
            if w.proc.is_alive():
                os.kill(w.proc.pid, signal.SIGKILL)
                return

    def root():
        threading.Thread(target=killer, daemon=True).start()
        futs = [rt.fork(slow_then_square, t, 0.4) for t in range(6)]
        outcomes = []
        for f in futs:
            try:
                outcomes.append(("ok", rt.join(f, timeout=15.0)))
            except ReproError as exc:
                outcomes.append(("err", type(exc).__name__))
        return outcomes

    outcomes = rt.run(root)
    assert rt.worker_deaths == 1
    assert rt.tasks_redispatched == 0
    assert any(kind == "err" for kind, _ in outcomes)
    assert any(kind == "ok" for kind, _ in outcomes)


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------
def test_rejects_non_tj_sp_policies():
    with pytest.raises(ValueError, match="TJ-SP"):
        ProcessRuntime(policy="KJ-VC")


def test_one_root_per_runtime():
    rt = _rt(workers=1)
    assert rt.run(lambda: "first") == "first"
    with pytest.raises(RuntimeStateError):
        rt.run(lambda: "second")


def test_wire_spawn_paths_striping_and_lineage():
    a = WireSpawnPaths(0, 3)
    b = WireSpawnPaths(1, 3)
    root = a.add_child(None)
    kids = [a.add_child(root) for _ in range(4)]
    assert root == 0 and kids == [3, 6, 9, 12]
    assert all(v % 3 == 0 for v in kids)
    # region 1 allocates 1, 4, 7, ... - disjoint by construction
    b.adopt(a.lineage(kids[2]))
    remote = b.add_child(kids[2])
    assert remote % 3 == 1
    assert b.rows[kids[2]] == a.rows[kids[2]]
    # the adopting store decides over the shipped lineage: a parent may
    # join its child, a child never its parent, a later sibling an
    # earlier one's descendant
    assert b.permits(kids[2], remote) and not b.permits(remote, kids[2])
    b.adopt(a.lineage(kids[3]))
    assert b.permits(kids[3], remote) and not b.permits(remote, kids[3])
    lineage = a.lineage(kids[2])
    assert lineage[0][0] == root and lineage[-1][0] == kids[2]
    assert [d for _, _, _, d in lineage] == [0, 1]


def test_shard_verifier_counts_and_locality():
    pol = WireSpawnPaths(0, 1)
    shard = ShardVerifier(pol)
    root = shard.on_init()
    child = shard.on_fork(root)
    assert shard.is_local(root) and shard.is_local(child)
    assert shard.check_join(root, child) is True
    # a remotely-forked joiner: adopted, not local -> counted as cross,
    # and decided by the shard's own policy all the same
    remote = pol.add_child(root)
    shard.adopt(remote)
    grand = shard.on_fork(remote)
    assert not shard.is_local(remote) and shard.is_local(grand)
    assert shard.check_join(remote, grand) is True
    assert shard.check_joins(remote, [grand, root]) == [True, False]
    assert shard.procs_stats() == {"local_joins": 1, "cross_joins": 3}
    assert shard.stats.joins_checked == 4
    assert shard.stats.joins_rejected == 1
