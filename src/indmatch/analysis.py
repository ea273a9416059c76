"""Graph-class checks (C4-freeness, girth) and seeded test generators."""

from __future__ import annotations

from ._record import Record
from .errors import InfeasibleSpec
from .graph import DynamicGraph

FAMILIES = ("path", "cycle", "star", "randomtree", "randomgirth5")


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64 increments).

    Fixed algorithm so generated corpora are identical across platforms
    and implementations.  `below(n)` reduces by modulo.
    """

    __slots__ = ("state",)
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n


def is_c4_free(g: DynamicGraph) -> bool:
    """True iff no 4-cycle subgraph exists in the live graph.

    Equivalent formulation: no two distinct vertices share two or more
    common neighbors.  Ranks the vertices by degree (ties by id) and,
    from each vertex v, follows only the 2-paths v-u-w whose u and w rank
    below v, stopping at the first w reached twice.  A 4-cycle is found
    from its top-ranked vertex (Chiba and Nishizeki 1985).  Walking u's
    list costs deg(u) <= deg(v), the smaller degree of the edge v-u;
    these minima sum to O(m * sqrt(m)), and to O(n) on a star.
    """
    rank = [0] * g.n
    for i, v in enumerate(sorted(range(g.n), key=g.degree.__getitem__)):
        rank[v] = i
    reached_from = [-1] * g.n
    for v in range(g.n):
        top = rank[v]
        for _, u in g.iter_incident(v):
            if rank[u] > top:
                continue
            for _, w in g.iter_incident(u):
                if rank[w] < top:
                    if reached_from[w] == v:
                        return False
                    reached_from[w] = v
    return True


def girth(g: DynamicGraph) -> int | None:
    """Length of a shortest cycle in the live graph, None for forests.

    Every cycle lies in the 2-core, so vertices of degree at most one are
    peeled off first: a forest peels away entirely and returns None in
    O(n + m).  A cycle through no vertex of core degree 3 or more is a
    whole component of the core, a plain cycle whose length is its size;
    these are measured in O(n + m).  Every other cycle is found by a BFS
    from one of its vertices of core degree 3 or more: any non-tree edge
    seen from u to an already labelled w closes a walk of length
    dist(u)+dist(w)+1 through the root, which is an upper bound on the
    girth and tight for a root on a shortest cycle.  Each BFS resets only
    the vertices it labelled and stops expanding at half the best cycle
    so far, but a core with many such vertices and only long cycles
    still takes O(n * m).
    """
    degree = list(g.degree)
    peel = [v for v in range(g.n) if degree[v] <= 1]
    in_core = [True] * g.n
    for v in peel:  # grows while it is read
        in_core[v] = False
        for _, w in g.iter_incident(v):
            degree[w] -= 1
            if degree[w] == 1:
                peel.append(w)
    adj = [[(e, w) for e, w in g.iter_incident(v) if in_core[w]] if in_core[v] else []
           for v in range(g.n)]
    best: int | None = None
    seen = [False] * g.n
    for s in range(g.n):
        if not adj[s] or seen[s]:
            continue
        seen[s] = True
        component = [s]
        for u in component:  # grows while it is read
            for _, w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        if all(len(adj[u]) == 2 for u in component) and (best is None or len(component) < best):
            best = len(component)
    dist = [-1] * g.n
    parent_edge = [-1] * g.n
    for s in range(g.n):
        if len(adj[s]) < 3:
            continue
        dist[s] = 0
        labelled = [s]
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                if best is not None and 2 * dist[u] >= best:
                    continue
                for e, w in adj[u]:
                    if e == parent_edge[u]:
                        continue
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        parent_edge[w] = e
                        nxt.append(w)
                    else:
                        cand = dist[u] + dist[w] + 1
                        if best is None or cand < best:
                            best = cand
            labelled += nxt
            frontier = nxt
        for v in labelled:
            dist[v] = parent_edge[v] = -1
    return best


class GenSpec(Record):
    """A graph family with its size and seed; immutable and hashable."""

    __slots__ = ("family", "n", "m", "seed")

    def __init__(self, family: str, n: int, m: int | None = None, seed: int = 0):
        for name, value in zip(self.__slots__, (family, n, m, seed)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"GenSpec is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GenSpec is immutable; cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


def generate(spec: GenSpec) -> DynamicGraph:
    """Deterministic graph for a spec; same spec, same edge list."""
    fam, n = spec.family, spec.n
    if n < 0:
        raise InfeasibleSpec(f"n must be at least 0, got {n}")
    if fam == "path":
        pairs = [(i, i + 1) for i in range(1, n)]
    elif fam == "cycle":
        if n < 3:
            raise InfeasibleSpec("cycle needs n >= 3")
        pairs = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    elif fam == "star":
        pairs = [(1, i) for i in range(2, n + 1)]
    elif fam == "randomtree":
        rng = SplitMix64(spec.seed)
        pairs = [(rng.below(i - 1) + 1, i) for i in range(2, n + 1)]
    elif fam == "randomgirth5":
        pairs = _random_girth5(n, spec.m if spec.m is not None else n, spec.seed)
    else:
        raise InfeasibleSpec(f"unknown family {fam!r}")
    # Vertices are labelled 1..n; isolated ones still count toward n.
    edges = [(a - 1, b - 1) for a, b in pairs]
    return DynamicGraph(n, edges, labels=list(range(1, n + 1)))


def _random_girth5(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Propose uniform vertex pairs, accept when current distance >= 4.

    Every accepted edge closes cycles of length at least 5, so the
    output has girth >= 5 (hence no C3 or C4).  Raises InfeasibleSpec
    when the proposal budget (100*n*m) runs out before reaching m edges.
    """
    rng = SplitMix64(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    pairs: list[tuple[int, int]] = []
    have: set[frozenset] = set()
    budget = 100 * n * max(m, 1)
    while len(pairs) < m:
        if budget <= 0:
            raise InfeasibleSpec(
                f"girth-5 generator: proposal budget exhausted at {len(pairs)}/{m} edges"
            )
        budget -= 1
        u = rng.below(n)
        v = rng.below(n)
        if u == v or frozenset((u, v)) in have:
            continue
        if _dist_less_than_4(adj, u, v):
            continue
        have.add(frozenset((u, v)))
        adj[u].append(v)
        adj[v].append(u)
        pairs.append((u + 1, v + 1))
    return pairs


def _dist_less_than_4(adj, u, v) -> bool:
    # distance < 4 iff N<=1(u) intersects N<=2(v)
    near_u = {u} | set(adj[u])
    if v in near_u:
        return True
    for w in adj[v]:
        if w in near_u:
            return True
        for x in adj[w]:
            if x in near_u:
                return True
    return False
