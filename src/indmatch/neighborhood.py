"""Concentric edge classification around a pivot vertex.

A depth-2 breadth-first sweep from the pivot labels vertices with their
distance and places every live edge within distance 2 into exactly one
of four classes by its endpoint distances:

  d01  pivot-incident edges {v, u}
  d11  both endpoints at distance 1
  d12  endpoints at distances 1 and 2
  d2   the remaining distance-2 edges (2-2 and 2-3)

The distance-1 ring is the far ends of the pivot-incident edges.  The
parents of a distance-2 vertex (its neighbours at distance 1) come from
the walk over its edges that finds the d2 edges: there they are the far
ends of the edges already classified as 1-2.  Sector sets (the d2 edges
at distance 1 from a given pivot-incident edge) are derived from these
parents, the anchors of each d2 edge, and are never recomputed after
the graph mutates, since the enumerator needs them after the
surrounding edges are already removed.

Distance labels use an epoch counter instead of clearing, keeping the
cost of a classification proportional to the neighborhood it touches.
"""

from __future__ import annotations

from .errors import EdgeNotInPivotStar, ZeroDegreePivot
from .graph import DynamicGraph


class PivotClassification:
    __slots__ = ("g", "pivot", "d01", "d11", "d12", "d2", "dist2_incount", "sect_map", "_star")

    def __init__(self, g, pivot, d01, d11, d12, d2, dist2_incount, sect_map, star):
        self.g = g
        self.pivot = pivot
        self.d01 = d01
        self.d11 = d11
        self.d12 = d12
        self.d2 = d2
        # distance-2 vertex -> number of 1-2 edges ending there
        self.dist2_incount = dist2_incount
        # non-pivot endpoint of a 0-1 edge -> its sector (list of d2 edge ids)
        self.sect_map = sect_map
        # edge id -> non-pivot endpoint, for d01 edges
        self._star = star


class Classifier:
    """Reusable classification scratch state bound to one graph."""

    __slots__ = ("g", "epoch", "vmark", "vdist", "emark")

    def __init__(self, g: DynamicGraph):
        self.g = g
        self.epoch = 0
        self.vmark = [0] * g.n
        self.vdist = [0] * g.n
        self.emark = [0] * g.m

    def classify(self, v: int) -> PivotClassification:
        g = self.g
        if not 0 <= v < g.n:
            raise IndexError(f"vertex {v} is out of range")
        if g.degree[v] == 0:
            raise ZeroDegreePivot(f"vertex {v} has degree 0")
        self.epoch += 1
        ep = self.epoch
        vmark, vdist, emark = self.vmark, self.vdist, self.emark
        nxt, eu, ev = g.nxt, g.eu, g.ev
        vmark[v] = ep
        vdist[v] = 0

        d01: list[int] = []
        d11: list[int] = []
        d12: list[int] = []
        d2: list[int] = []
        star: dict[int, int] = {}
        level2: list[int] = []
        parents: dict[int, list[int]] = {}

        a = g.head[v]
        while a != -1:
            e = a >> 1
            u = ev[e] if a & 1 == 0 else eu[e]
            d01.append(e)
            star[e] = u
            emark[e] = ep
            vmark[u] = ep
            vdist[u] = 1
            a = nxt[a]

        for u in star.values():
            a = g.head[u]
            while a != -1:
                e = a >> 1
                if emark[e] != ep:
                    emark[e] = ep
                    w = ev[e] if a & 1 == 0 else eu[e]
                    if vmark[w] != ep:
                        vmark[w] = ep
                        vdist[w] = 2
                        level2.append(w)
                    if vdist[w] == 1:
                        d11.append(e)
                    else:
                        d12.append(e)
                a = nxt[a]

        for x in level2:
            parents[x] = px = []
            a = g.head[x]
            while a != -1:
                e = a >> 1
                if emark[e] != ep:
                    # The other endpoint is at distance 2 or beyond: every
                    # edge toward distance 1 was marked in the previous pass.
                    emark[e] = ep
                    d2.append(e)
                else:
                    # a 1-2 edge, or a d2 edge found from an earlier x
                    w = ev[e] if a & 1 == 0 else eu[e]
                    if vdist[w] == 1:
                        px.append(w)
                a = nxt[a]

        sect_map: dict[int, list[int]] = {}
        for f in d2:
            anchors: list[int] = []
            for x in (eu[f], ev[f]):
                if vmark[x] == ep and vdist[x] == 2:
                    for p in parents[x]:
                        if p not in anchors:
                            anchors.append(p)
            for p in anchors:
                sect_map.setdefault(p, []).append(f)

        dist2_incount = {x: len(parents[x]) for x in level2}
        return PivotClassification(g, v, d01, d11, d12, d2, dist2_incount, sect_map, star)


def sect2(c: PivotClassification, e: int) -> list[int]:
    """The d2 edges at distance exactly 1 from the pivot-incident edge e."""
    if e not in c._star:
        raise EdgeNotInPivotStar(f"edge {e} is not a 0-1 edge of pivot {c.pivot}")
    return c.sect_map.get(c._star[e], [])


def check_c4free_local(c: PivotClassification) -> list[tuple[str, object]]:
    """Per-iteration structural checks that hold in C4-free graphs.

    Returns violation records: ("one_incoming_12", vertex) when a
    distance-2 vertex touches more than one 1-2 edge,
    ("one_adjacent_11", edge) when a 0-1 edge has two adjacent 1-1
    edges, and ("sector_sum", (total, bound)) when the summed sector
    sizes exceed twice |d2|.
    """
    violations: list[tuple[str, object]] = []
    for x, cnt in c.dist2_incount.items():
        if cnt != 1:
            violations.append(("one_incoming_12", x))
    count11: dict[int, int] = {}
    eu, ev = c.g.eu, c.g.ev
    for f in c.d11:
        count11[eu[f]] = count11.get(eu[f], 0) + 1
        count11[ev[f]] = count11.get(ev[f], 0) + 1
    for e in c.d01:
        if count11.get(c._star[e], 0) > 1:
            violations.append(("one_adjacent_11", e))
    total = sum(len(c.sect_map.get(c._star[e], ())) for e in c.d01)
    bound = 2 * len(c.d2)
    if total > bound:
        violations.append(("sector_sum", (total, bound)))
    return violations
