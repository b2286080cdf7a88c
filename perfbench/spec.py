"""Seeded program specs for the generated workloads.

A spec is a fork tree in which every task knows which futures it joins.
The same spec drives ``fine-coop`` (generator tasks on
``CooperativeRuntime``) and ``fine-threaded`` (plain tasks on
``TaskRuntime``), so the two workloads differ only in the runtime.

One program is a root that runs these phases one after another (it forks
a phase and joins it before forking the next):

* a wide fan-out: one task forks ``FANOUT`` leaves and joins them in order;
* a binary divide-and-conquer tree of depth ``DNC_DEPTH``;
* a sibling wavefront of ``WAVE`` tasks, each joining up to three older
  siblings; a fifth of them join nothing (wavefront leaves), and about
  ``YOUNGER_SHARE`` of all joins are an older task joining a younger leaf
  sibling, which TJ flags although it cannot deadlock;
* ``PAIRS`` mutual-join pairs: two siblings that join each other, a real
  cycle that must be refused at exactly one of its two joins.

The seed decides values, which older siblings each wavefront task joins
and where the younger-sibling joins go.  Sizes and the phase order are
fixed, so every seed costs about the same.

Everything a run checks is predicted here, before any runtime starts: the
program's checksum, and for every join whether the TJ relation permits it.
The TJ verdicts come from :class:`repro.formal.tj_relation.TJOrderOracle`
applied to the fork actions that created the ancestors of the two tasks,
which is all of the trace that ``<`` depends on (the LCA/sibling order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.formal.actions import Fork, Init
from repro.formal.tj_relation import TJOrderOracle

__all__ = ["Node", "Spec", "make_spec", "CHILD", "SIBLING", "MOD"]

FANOUT = 4000
DNC_DEPTH = 8
WAVE = 300
WAVE_LEAF_SHARE = 0.2
YOUNGER_SHARE = 0.02
PAIRS = 3

#: checksums are sums modulo this prime
MOD = (1 << 61) - 1

#: join targets: an own child, or a sibling (an index into the parent's children)
CHILD = 0
SIBLING = 1


@dataclass(frozen=True)
class Node:
    """One task: its value, its children and the joins it performs.

    ``joins`` holds ``(kind, index, pair)`` triples in join order; ``pair``
    is 0 for an ordinary join and ``k + 1`` for a join of mutual-join pair
    ``k``.  ``sync`` marks a parent whose children join younger siblings:
    on a threaded runtime those children wait until every sibling exists.
    ``seq`` marks a parent that joins each child before forking the next
    (its ``joins`` are then its children in order).
    """

    val: int
    children: tuple
    joins: tuple
    sync: bool = False
    seq: bool = False


@dataclass
class Spec:
    seed: int
    nodes: list
    root: int
    #: the root's return value, computed without any runtime
    checksum: int
    tasks: int
    joins: int
    #: joins the TJ relation does not permit (formal oracle)
    flagged: int
    #: flagged joins outside mutual-join pairs: younger-sibling joins
    younger: int
    pairs: int
    parent: list = field(repr=False, default_factory=list)


class _TreeMaker:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.nodes: list = []
        self.parent: list = []

    def add(self, val: int, children=(), joins=(), sync=False, seq=False) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(val, tuple(children), tuple(joins), sync, seq))
        self.parent.append(-1)
        for c in children:
            self.parent[c] = nid
        return nid

    def value(self) -> int:
        return self.rng.randrange(1, 1 << 30)

    def leaf(self) -> int:
        return self.add(self.value())

    def fanout(self) -> int:
        kids = [self.leaf() for _ in range(FANOUT)]
        return self.add(self.value(), kids, [(CHILD, i, 0) for i in range(FANOUT)])

    def dnc(self, depth: int) -> int:
        if depth == 0:
            return self.leaf()
        kids = [self.dnc(depth - 1), self.dnc(depth - 1)]
        return self.add(self.value(), kids, [(CHILD, 0, 0), (CHILD, 1, 0)])

    def wavefront(self, younger_budget: int) -> tuple[int, int]:
        rng = self.rng
        leaves = sorted(rng.sample(range(WAVE), int(WAVE * WAVE_LEAF_SHARE)))
        is_leaf = set(leaves)
        joins: list = [[] for _ in range(WAVE)]
        for i in range(WAVE):
            if i in is_leaf or i == 0:
                continue
            older = rng.sample(range(max(0, i - 3), i), min(3, i))
            joins[i] = [(SIBLING, j, 0) for j in older[: rng.randint(1, len(older))]]
        # younger-sibling joins: a non-leaf joins a younger wavefront leaf,
        # which joins nothing, so no cycle can close through it
        candidates = [i for i in range(WAVE) if i not in is_leaf]
        placed = 0
        while placed < younger_budget:
            i = rng.choice(candidates)
            later = [j for j in leaves if j > i]
            if not later:
                continue
            j = rng.choice(later)
            at = rng.randint(0, len(joins[i]))
            joins[i].insert(at, (SIBLING, j, 0))
            placed += 1
        kids = [self.add(self.value(), (), joins[i]) for i in range(WAVE)]
        holder = self.add(
            self.value(), kids, [(CHILD, i, 0) for i in range(WAVE)], sync=True
        )
        return holder, placed

    def pair(self, k: int) -> int:
        a = self.add(self.value(), (), [(SIBLING, 1, k + 1)])
        b = self.add(self.value(), (), [(SIBLING, 0, k + 1)])
        return self.add(self.value(), (a, b), [(CHILD, 0, 0), (CHILD, 1, 0)], sync=True)


def _base_joins() -> int:
    wave_older_max = 3 * WAVE  # upper bound; the exact count is seeded
    return FANOUT + (2 ** (DNC_DEPTH + 1) - 2) + WAVE + wave_older_max // 2 + 4 * PAIRS


def make_spec(seed: int) -> Spec:
    """The program spec for *seed* (same seed, same spec)."""
    rng = random.Random(seed)
    b = _TreeMaker(rng)
    younger_budget = round(YOUNGER_SHARE * _base_joins())
    phases = [b.fanout(), b.dnc(DNC_DEPTH)]
    wave, younger = b.wavefront(younger_budget)
    phases.append(wave)
    phases += [b.pair(k) for k in range(PAIRS)]
    root = b.add(
        b.value(), phases, [(CHILD, i, 0) for i in range(len(phases))], seq=True
    )
    nodes, parent = b.nodes, b.parent
    flagged = sum(not ok for ok in _tj_verdicts(nodes, parent))
    joins = sum(len(n.joins) for n in nodes)
    return Spec(
        seed=seed,
        nodes=nodes,
        root=root,
        checksum=_checksum(nodes, root, parent),
        tasks=len(nodes),
        joins=joins,
        flagged=flagged,
        younger=younger,
        pairs=PAIRS,
        parent=parent,
    )


def join_targets(nodes: list, parent: list):
    """Yield ``(joiner, joinee, pair)`` node ids for every join of the spec."""
    for nid, node in enumerate(nodes):
        for kind, idx, pair in node.joins:
            if kind == CHILD:
                yield nid, node.children[idx], pair
            else:
                yield nid, nodes[parent[nid]].children[idx], pair


def _checksum(nodes: list, root: int, parent: list) -> int:
    """Each task returns its value plus the results of its ordinary joins.

    Mutual-join pair joins add nothing: which of the two is refused
    depends on the schedule, and the checksum must not.
    """
    memo: dict = {}
    targets: dict = {}
    for joiner, joinee, pair in join_targets(nodes, parent):
        if not pair:
            targets.setdefault(joiner, []).append(joinee)
    stack = [root]
    while stack:
        nid = stack[-1]
        pending = [t for t in targets.get(nid, ()) if t not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if nid not in memo:
            acc = nodes[nid].val
            for t in targets.get(nid, ()):
                acc = (acc + memo[t]) % MOD
            memo[nid] = acc
    return memo[root]


def _path(parent: list, nid: int) -> list:
    out = [nid]
    while parent[out[-1]] >= 0:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def tj_permits(nodes: list, parent: list, joiner: int, joinee: int, cache: dict) -> bool:
    """``t ⊢ joiner < joinee`` by the formal oracle on the ancestor forks.

    The relation between two tasks depends only on their depths below
    their lowest common ancestor and on the fork order of the two children
    of that ancestor they descend from, so verdicts are cached by that
    signature and each is derived once from a minimal trace.
    """
    pa, pb = _path(parent, joiner), _path(parent, joinee)
    k = 0
    while k < min(len(pa), len(pb)) and pa[k] == pb[k]:
        k += 1
    da, db = len(pa) - k, len(pb) - k
    if da and db:
        lca_children = nodes[pa[k - 1]].children
        a_first = lca_children.index(pa[k]) < lca_children.index(pb[k])
    else:
        a_first = None
    key = (da, db, a_first)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _oracle_verdict(da, db, a_first)
    return hit


def _oracle_verdict(da: int, db: int, a_first) -> bool:
    trace = [Init("lca")]
    names = {"a": "lca", "b": "lca"}
    order = ("a", "b") if a_first in (None, True) else ("b", "a")
    for side in order:
        for level in range(da if side == "a" else db):
            child = f"{side}{level}"
            trace.append(Fork(names[side], child))
            names[side] = child
    return TJOrderOracle.from_trace(trace).less(names["a"], names["b"])


def _tj_verdicts(nodes: list, parent: list) -> list:
    cache: dict = {}
    return [
        tj_permits(nodes, parent, a, b, cache)
        for a, b, _ in join_targets(nodes, parent)
    ]
