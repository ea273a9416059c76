"""Graph-class checks (C4-freeness, girth) and seeded test generators."""

from __future__ import annotations

from ._record import Record
from .errors import InfeasibleSpec
from .graph import DynamicGraph

try:
    from . import _fastcore
except ImportError:  # pure-Python fallback only
    _fastcore = None

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
    common neighbors.  The check runs in the native kernel when it is
    built, and in `is_c4_free_python` otherwise; both give the same
    answer on every simple graph.  The kernel checks its input as the
    native engines do: a non-int endpoint raises `TypeError`, an
    endpoint out of range, a self-loop or a live parallel edge
    `ValueError`.
    """
    if _fastcore is not None:
        return _fastcore.c4free(g.n, g.eu, g.ev, bytes(g.alive_edge))
    return is_c4_free_python(g)


def is_c4_free_python(g: DynamicGraph) -> bool:
    """The pure-Python C4 check, and the reference for the native one.

    Counts 2-paths out of each vertex and stops at the first vertex
    reached by two of them, in O(sum of squared degrees).
    """
    paths = [0] * g.n
    for v in range(g.n):
        touched = []
        ok = True
        for _, u in g.iter_incident(v):
            for _, w in g.iter_incident(u):
                if w == v:
                    continue
                paths[w] += 1
                touched.append(w)
                if paths[w] >= 2:
                    ok = False
                    break
            if not ok:
                break
        for w in touched:
            paths[w] = 0
        if not ok:
            return False
    return True


def girth(g: DynamicGraph) -> int | None:
    """Length of a shortest cycle in the live graph, None for forests.

    BFS from every vertex; any non-tree edge seen from u to an already
    labelled w closes a walk of length dist(u)+dist(w)+1 through the
    root, which is an upper bound on the girth and tight for a root on
    a shortest cycle.
    """
    best: int | None = None
    dist = [-1] * g.n
    for s in range(g.n):
        for i in range(g.n):
            dist[i] = -1
        dist[s] = 0
        parent_edge = [-1] * g.n
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                if best is not None and 2 * dist[u] >= best:
                    continue
                for e, w in g.iter_incident(u):
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
            frontier = nxt
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
