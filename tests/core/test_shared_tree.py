"""The shared-memory spawn-path forest: cross-process agreement, growth,
lock-free striping, and leak-free teardown.

Tiny geometry (``stripe=8, seg0=16``) on purpose: every test crosses
several doubling generations, exercising the create-vs-attach handshake
that real runs hit only at scale.
"""

from __future__ import annotations

import glob
import multiprocessing

import pytest

from repro.core.shared_tree import (
    SharedFlatTree,
    SharedTJPolicy,
    shm_available,
)
from repro.core.tj_sp_flat import TJSpawnPathsFlat
from repro.core.tj_sp_rows import rows_less

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def _leaked(base: str) -> list[str]:
    return glob.glob(f"/dev/shm/*{base}*")


# ----------------------------------------------------------------------
# single process: semantics versus the reference flat policy
# ----------------------------------------------------------------------
def test_verdicts_match_the_flat_reference_policy():
    with SharedFlatTree.create(nprocs=1, stripe=8, seg0=16) as tree:
        shm_pol = SharedTJPolicy(tree)
        ref_pol = TJSpawnPathsFlat()
        sv, rv = {}, {}
        sv[0] = shm_pol.add_child(None)
        rv[0] = ref_pol.add_child(None)
        # a bushy tree: every third vertex forks from its grandparent
        parents = [0]
        for i in range(1, 120):
            parent = parents[i % len(parents)]
            sv[i] = shm_pol.add_child(sv[parent])
            rv[i] = ref_pol.add_child(rv[parent])
            parents.append(i)
        for a in range(0, 120, 7):
            for b in range(0, 120, 11):
                assert shm_pol.permits(sv[a], sv[b]) == ref_pol.permits(
                    rv[a], rv[b]
                ), (a, b)


def test_rows_survive_generation_growth():
    with SharedFlatTree.create(nprocs=1, stripe=8, seg0=16) as tree:
        root = tree.add_child(-1)
        chain = [root]
        for _ in range(300):  # crosses several seg doublings
            chain.append(tree.add_child(chain[-1]))
        assert tree.depth_of(chain[-1]) == 300
        assert tree.row_of(chain[1]) == (root, 0, 1)
        assert rows_less(tree.row_of, root, chain[-1])
        assert not rows_less(tree.row_of, chain[-1], root)
        assert tree.path_of(chain[3]) == (0, 0, 0)


def test_striped_ids_never_collide_across_regions():
    with SharedFlatTree.create(nprocs=3, stripe=8, seg0=32) as tree:
        mine = {tree.add_child(-1) for _ in range(100)}
        assert len(mine) == 100
        for vid in mine:
            assert (vid // 8) % 3 == 0  # region 0 stripes only


# ----------------------------------------------------------------------
# cross-process: workers fork concurrently, everyone agrees
# ----------------------------------------------------------------------
def _forker(handle, region, root, out_q):
    tree = SharedFlatTree.attach(handle, region)
    pol = SharedTJPolicy(tree)
    kids = [pol.add_child(root) for _ in range(60)]
    verdicts = (
        all(pol.permits(root, k) for k in kids),
        pol.permits(kids[1], kids[0]),  # later sibling joins earlier
        pol.permits(kids[0], kids[1]),  # earlier may not join later
        pol.permits(kids[0], root),  # descendant never joins ancestor
    )
    out_q.put((region, kids[:4], verdicts))
    tree.close()


def test_concurrent_workers_grow_one_agreed_forest():
    ctx = multiprocessing.get_context("spawn")
    tree = SharedFlatTree.create(nprocs=3, stripe=8, seg0=16)
    base = tree.handle().base
    try:
        pol = SharedTJPolicy(tree)
        root = pol.add_child(None)
        out_q = ctx.Queue()
        procs = [
            ctx.Process(target=_forker, args=(tree.handle(), r, root, out_q))
            for r in (1, 2)
        ]
        for p in procs:
            p.start()
        results = [out_q.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        for region, kids, (all_ok, later_ok, earlier_ok, up_ok) in results:
            assert all_ok and later_ok
            assert not earlier_ok and not up_ok
            # the parent agrees about rows it never wrote
            for k in kids:
                assert pol.permits(root, k)
                assert not pol.permits(k, root)
        # cross-region sibling order: edge indices decide, not id order
        (_, kids_a, _), (_, kids_b, _) = sorted(results)
        order = SharedTJPolicy(tree)
        for a, b in zip(kids_a, kids_b):
            ea = tree.row_of(a)[1]
            eb = tree.row_of(b)[1]
            assert order.permits(a, b) == (ea > eb)
    finally:
        tree.close()
    assert not _leaked(base)


def test_owner_close_unlinks_worker_created_generations():
    ctx = multiprocessing.get_context("spawn")
    tree = SharedFlatTree.create(nprocs=2, stripe=8, seg0=16)
    base = tree.handle().base
    out_q = ctx.Queue()
    root = tree.add_child(-1)
    p = ctx.Process(target=_forker, args=(tree.handle(), 1, root, out_q))
    p.start()
    out_q.get(timeout=60)  # worker forked 60 vertices: created generations
    p.join(timeout=60)
    assert _leaked(base)  # segments exist while the owner is open
    tree.close()
    assert not _leaked(base)
