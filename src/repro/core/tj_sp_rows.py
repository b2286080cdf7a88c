"""TJ-SP over ``(parent, edge, depth)`` rows: one ``Less`` for every row store.

Three spawn-path stores hold the fork tree as one row per vertex —
``(parent id | -1, sibling edge index, depth)`` — rather than as the
private buffers of :mod:`repro.core.tj_sp_flat`:

* the shared-memory forest (:class:`~repro.core.shared_tree.SharedTJPolicy`),
  every process reading the same int64 segments;
* the per-process wire store of the multi-process runtime
  (:class:`~repro.runtime.procs.WireSpawnPaths`), filled by its own
  forks plus the DePa-style lineages each dispatch ships;
* the sidecar's tenant mirror
  (:class:`~repro.service.mirror.MirroredSpawnPaths`), filled by the
  authoritative placements clients announce.

They differ only in where a row comes from, so :class:`RowsTJPolicy`
owns the verdict: Algorithm 3 ``Less`` walking rows through one
``row_of`` callable, plus the monotone ``last_ok`` permission cache
(sound because TJ verdicts are fixed at fork time).  Stores keep only
what is theirs — id allocation, adoption, staging, accounting.
"""

from __future__ import annotations

from typing import Callable, Optional

from .policy import JoinPolicy

__all__ = ["Row", "RowsTJPolicy", "rows_less"]

#: ``(parent id | -1, edge, depth)``
Row = tuple[int, int, int]


def rows_less(row_of: Callable[[int], Row], a: int, b: int) -> bool:
    """Algorithm 3 ``Less``: is *a* below *b* in the TJ order?

    Climb the deeper vertex to the shallower one's depth, then both in
    lockstep to their LCA, remembering the last edge each side took; the
    two edges decide (Thms 3.15/3.17).
    """
    if a == b:
        return False
    pa, ea, da = row_of(a)
    pb, eb, db = row_of(b)
    e1 = e2 = -1
    while db > da:
        e2 = eb
        b = pb
        pb, eb, db = row_of(b)
    while da > db:
        e1 = ea
        a = pa
        pa, ea, da = row_of(a)
    while a != b:
        e1 = ea
        e2 = eb
        a, b = pa, pb
        pa, ea, da = row_of(a)
        pb, eb, db = row_of(b)
    if e1 < 0:
        return e2 >= 0  # anc+: a proper ancestor is permitted
    if e2 < 0:
        return False  # dec*: a descendant never is
    return e1 > e2  # sib: the later sibling is smaller


class RowsTJPolicy(JoinPolicy):
    """TJ-SP verdicts over a row store.

    Pass the store's ``row_of``; with none, the policy keeps its own
    ``rows`` dict (``vid -> (parent, edge, depth)``) and subclasses fill
    it.  ``add_child`` is the store's business.
    """

    name = "TJ-SP"
    stable_permits = True

    def __init__(self, row_of: Optional[Callable[[int], Row]] = None) -> None:
        if row_of is None:
            self.rows: dict[int, Row] = {}
            row_of = self.rows.__getitem__
        self.row_of = row_of
        self._last_ok: dict[int, int] = {}

    def permits(self, joiner: int, joinee: int) -> bool:
        if self._last_ok.get(joiner) == joinee:
            return True
        if rows_less(self.row_of, joiner, joinee):
            self._last_ok[joiner] = joinee
            return True
        return False

    def space_units(self) -> int:
        return 4 * len(self.rows) + len(self._last_ok)
