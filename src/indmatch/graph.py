"""Mutable undirected simple graph with O(1) edge removal and LIFO rollback.

Edges and vertices carry dense integer ids that stay stable across
removal: removing hides an edge from its endpoints' adjacency lists
without renumbering anything, and a rollback relinks the hidden list
nodes in reverse order (dancing-links style), restoring the exact
adjacency structure.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from .errors import DuplicateEdge, EdgeNotAlive, SelfLoop, StaleMark, UnknownEdge

# A matching is a sequence of edge ids; solutions are emitted as tuples.
Matching = Sequence[int]

# An undo mark is a position in the removal log.
UndoMark = int


class DynamicGraph:
    """Undirected simple graph over dense vertex ids 0..n-1.

    Adjacency is kept as one intrusive doubly-linked list per vertex
    over "arcs" (edge endpoints): edge e owns arcs 2e and 2e+1.  Edge
    removal unlinks both arcs in O(1); restoration relinks them using
    their retained prev/next fields, which is correct because removals
    are undone in LIFO order.  The lists (`head`, `nxt`, `prv`) and
    `degree` are built from `eu`/`ev` on first access.
    """

    __slots__ = (
        "n",
        "m",
        "eu",
        "ev",
        "head",
        "nxt",
        "prv",
        "alive_edge",
        "degree",
        "undo_log",
        "live_edge_count",
        "labels",
        "listener",
    )

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], labels=None):
        self._init(n, [u for u, _ in edges], [v for _, v in edges], labels)

    @classmethod
    def from_arrays(cls, n: int, eu: list[int], ev: list[int], labels=None) -> "DynamicGraph":
        """The graph whose edge e is (eu[e], ev[e]); takes the lists over."""
        g = cls.__new__(cls)
        g._init(n, eu, ev, labels)
        return g

    def _init(self, n: int, eu: list[int], ev: list[int], labels) -> None:
        m = len(eu)
        self.n = n
        self.m = m
        self.eu = eu
        self.ev = ev
        self.labels = labels if labels is not None else list(range(n))
        self.alive_edge = bytearray([1]) * m
        self.undo_log: list[int] = []
        self.live_edge_count = m
        self.listener = None

    def __getattr__(self, name: str):
        # The adjacency lists and degrees are built on first use: the
        # native kernel builds its own from eu/ev, so a graph that only
        # goes to it never needs them.  Every mutation reads them, so they
        # are built while all edges are still alive.
        if name not in ("head", "nxt", "prv", "degree"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._link()
        return object.__getattribute__(self, name)

    def _link(self) -> None:
        # Arcs 2e (at u) and 2e+1 (at v) are linked in ascending order,
        # each at the front of its vertex's list.
        n, m = self.n, self.m
        head = [-1] * n
        nxt = [-1] * (2 * m)
        prv = [0] * (2 * m)
        degree = [0] * n
        arc = 0
        for u, v in zip(self.eu, self.ev):
            for w in (u, v):
                h = head[w]
                nxt[arc] = h
                prv[arc] = -(w + 1)
                if h != -1:
                    prv[h] = arc
                head[w] = arc
                degree[w] += 1
                arc += 1
        self.head = head
        self.nxt = nxt
        self.prv = prv
        self.degree = degree

    # -- queries ------------------------------------------------------

    def edge(self, e: int) -> tuple[int, int]:
        return self.eu[e], self.ev[e]

    def iter_incident(self, v: int) -> Iterator[tuple[int, int]]:
        """Yield (edge id, other endpoint) for every alive edge at v."""
        a = self.head[v]
        nxt, eu, ev = self.nxt, self.eu, self.ev
        while a != -1:
            e = a >> 1
            yield e, (ev[e] if a & 1 == 0 else eu[e])
            a = nxt[a]

    def live_edges(self) -> list[int]:
        return [e for e in range(self.m) if self.alive_edge[e]]

    def adjacency_sets(self) -> list[set[int]]:
        """Current alive adjacency as vertex sets (test/inspection aid)."""
        return [{e for e, _ in self.iter_incident(v)} for v in range(self.n)]

    # -- mutation -----------------------------------------------------

    def remove_edge(self, e: int) -> None:
        if not (0 <= e < self.m) or not self.alive_edge[e]:
            raise EdgeNotAlive(f"edge {e} is not alive")
        self._unlink_edge(e)
        self.undo_log.append(e)

    def _unlink_edge(self, e: int) -> None:
        nxt, prv, head = self.nxt, self.prv, self.head
        for arc in (2 * e, 2 * e + 1):
            p, n = prv[arc], nxt[arc]
            if p < 0:
                head[-p - 1] = n
            else:
                nxt[p] = n
            if n != -1:
                prv[n] = p
        self.alive_edge[e] = 0
        self.live_edge_count -= 1
        u, v = self.eu[e], self.ev[e]
        du = self.degree[u]
        dv = self.degree[v]
        self.degree[u] = du - 1
        self.degree[v] = dv - 1
        if self.listener is not None:
            self.listener.on_degree_change(u, du, du - 1)
            self.listener.on_degree_change(v, dv, dv - 1)

    def _relink_edge(self, e: int) -> None:
        nxt, prv, head = self.nxt, self.prv, self.head
        for arc in (2 * e + 1, 2 * e):
            p, n = prv[arc], nxt[arc]
            if p < 0:
                head[-p - 1] = arc
            else:
                nxt[p] = arc
            if n != -1:
                prv[n] = arc
        self.alive_edge[e] = 1
        self.live_edge_count += 1
        u, v = self.eu[e], self.ev[e]
        du = self.degree[u]
        dv = self.degree[v]
        self.degree[u] = du + 1
        self.degree[v] = dv + 1
        if self.listener is not None:
            self.listener.on_degree_change(u, du, du + 1)
            self.listener.on_degree_change(v, dv, dv + 1)

    def mark(self) -> UndoMark:
        return len(self.undo_log)

    def rollback(self, m: UndoMark) -> None:
        log = self.undo_log
        if m > len(log):
            raise StaleMark(f"mark {m} is past the current log end {len(log)}")
        while len(log) > m:
            self._relink_edge(log.pop())


def build_graph(edge_pairs: Iterable[tuple[Hashable, Hashable]]) -> DynamicGraph:
    """Build a graph from labelled endpoint pairs.

    Labels map to dense vertex ids in first-appearance order; edge ids
    follow input order.  Raises SelfLoop / DuplicateEdge on bad input.
    """
    ids: dict[Hashable, int] = {}
    eu: list[int] = []
    ev: list[int] = []
    seen: set[tuple[int, int]] = set()
    for a, b in edge_pairs:
        if a == b:
            raise SelfLoop(f"edge ({a!r}, {b!r}) is a self-loop")
        u = ids.setdefault(a, len(ids))
        v = ids.setdefault(b, len(ids))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge ({a!r}, {b!r}) repeats an earlier pair")
        seen.add(key)
        eu.append(u)
        ev.append(v)
    labels = list(ids)
    return DynamicGraph.from_arrays(len(labels), eu, ev, labels)


def is_induced_matching(g: DynamicGraph, matching: Matching) -> bool:
    """Check the induced-matching predicate against the original graph.

    True iff the edges of `matching` have pairwise distinct endpoints
    and no edge of g connects endpoints of two distinct matching edges
    (edge-to-edge distance >= 2 for every pair).
    """
    owner: dict[int, int] = {}
    for i, e in enumerate(matching):
        if not 0 <= e < g.m:
            raise UnknownEdge(f"edge id {e} out of range")
        for x in (g.eu[e], g.ev[e]):
            if x in owner:
                return False
            owner[x] = i
    if not owner:
        return True
    for u, v in zip(g.eu, g.ev):
        iu = owner.get(u)
        if iu is None:
            continue
        iv = owner.get(v)
        if iv is not None and iv != iu:
            return False
    return True
