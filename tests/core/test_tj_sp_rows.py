"""The one rows-based Algorithm 3 ``Less``, under every row store.

The shared-memory forest, the multi-process runtime's wire store and the
sidecar's tenant mirror all decide joins through
:class:`~repro.core.tj_sp_rows.RowsTJPolicy`.  Here the three stores
grow the same 1000 random trees (as roots of one forest each) and must
answer every pair exactly like the seed tuple implementation.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.core.shared_tree import SharedFlatTree, SharedTJPolicy, shm_available
from repro.core.tj_sp import TJSpawnPathsLegacy
from repro.runtime.procs import WireSpawnPaths
from repro.service.mirror import MirroredSpawnPaths


def _mirror_add(mirror: MirroredSpawnPaths, wire: WireSpawnPaths, vid: int) -> int:
    """Stage *vid*'s authoritative placement the way a tenant session does."""
    mirror.stage(vid, *wire.row_of(vid))
    return mirror.add_child(None)


def test_1000_trees_every_row_store_matches_the_seed_tuples():
    rng = random.Random(0x5EED)
    wire = WireSpawnPaths(0, 1)
    mirror = MirroredSpawnPaths()
    forest = (
        SharedFlatTree.create(nprocs=1, stripe=64, seg0=1024)
        if shm_available()
        else nullcontext()
    )
    with forest as tree:
        shm = SharedTJPolicy(tree) if tree is not None else None
        for t in range(1000):
            n = rng.randint(2, 14)
            parents = [None] + [rng.randrange(i) for i in range(1, n)]
            legacy = TJSpawnPathsLegacy()
            lv, wv, mv, sv = [], [], [], []
            for p in parents:
                lv.append(legacy.add_child(None if p is None else lv[p]))
                wv.append(wire.add_child(None if p is None else wv[p]))
                mv.append(_mirror_add(mirror, wire, wv[-1]))
                if shm is not None:
                    sv.append(shm.add_child(None if p is None else sv[p]))
            for a in range(n):
                for b in range(n):
                    want = legacy.permits(lv[a], lv[b])
                    assert wire.permits(wv[a], wv[b]) == want, (t, a, b)
                    assert mirror.permits(mv[a], mv[b]) == want, (t, a, b)
                    if shm is not None:
                        assert shm.permits(sv[a], sv[b]) == want, (t, a, b)


def test_the_mirror_copies_announced_rows_verbatim():
    wire = WireSpawnPaths(1, 3)
    root = wire.add_child(None)
    kids = [wire.add_child(root) for _ in range(3)]
    assert wire.row_of(root) == (-1, 0, 0)
    assert [wire.row_of(k) for k in kids] == [(root, e, 1) for e in range(3)]
    mirror = MirroredSpawnPaths()
    # arrival order does not matter: the placement decides the verdict
    for vid in [kids[2], root, kids[0], kids[1]]:
        _mirror_add(mirror, wire, vid)
    assert mirror.permits(kids[2], kids[0]) and not mirror.permits(kids[0], kids[2])
    with pytest.raises(ValueError, match="staged placement"):
        mirror.add_child(None)

