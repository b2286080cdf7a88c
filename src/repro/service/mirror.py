"""An authoritative spawn-path mirror for tenant verification.

The multi-process runtime decides every join in the process that runs
it; the sidecar only mirrors its dispatch tree, so that a tenant client
that does not hold the tree (a probe, a ``repro top`` operator, a
post-mortem) can still ask for a verdict over it.  The runtime's parent
announces the root and every dispatched vertex, and its fork records
carry the **authoritative placement** — ``edge`` and ``depth`` straight
from the runtime's own rows — which this policy applies verbatim
instead of re-deriving anything.  Arrival order then cannot matter: a
row is identical no matter which session lands first, so several
sessions of one tenant may announce concurrently without flipping a
sibling verdict.

Vertices are the client rids themselves (plain ints).  The placement
travels through :meth:`stage`: the session stages ``(rid, parent, edge,
depth)`` under the tenant lock, then drives the ordinary
:class:`~repro.core.verifier.Verifier` protocol, whose ``add_child``
call consumes the staged row — so stats, quarantine, journaling and
fail modes all work unchanged on top.

The verdict rule is the rows-based Algorithm 3 ``Less`` of
:class:`~repro.core.tj_sp_rows.RowsTJPolicy`; a tenant therefore only
accepts TJ-SP-family policies (the server enforces this), which is no
restriction in practice — the procs runtime that uses tenants is TJ-SP
by construction.
"""

from __future__ import annotations

from typing import Optional

from ..core.tj_sp_rows import RowsTJPolicy

__all__ = ["MirroredSpawnPaths"]


class MirroredSpawnPaths(RowsTJPolicy):
    """TJ-SP over client-authoritative ``(parent, edge, depth)`` rows."""

    backend = "mirror"

    def __init__(self, name: str = "TJ-SP") -> None:
        super().__init__()
        #: reported policy name (what the tenant's clients asked for)
        self.name = name
        self._staged: "tuple[int, int, int, int] | None" = None

    def stage(self, rid: int, parent: int, edge: int, depth: int) -> None:
        """Declare the next vertex's authoritative placement.

        Called by the session (tenant lock held) immediately before the
        verifier's ``on_init``/``on_fork`` drives :meth:`add_child`.
        """
        self._staged = (rid, parent, edge, depth)

    def add_child(self, parent: Optional[int]) -> int:
        staged = self._staged
        if staged is None:
            raise ValueError(
                "mirrored policy needs a staged placement; tenant fork records "
                "must carry edge/depth"
            )
        self._staged = None
        rid, parent_rid, edge, depth = staged
        self.rows[rid] = (parent_rid, edge, depth)
        return rid
