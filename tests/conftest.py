"""Shared builders, oracles and state snapshots for the test suite."""

import itertools
import random

import pytest

from indmatch import DynamicGraph, ListSink, enumerate_brute


def path_graph(k):
    return DynamicGraph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    return DynamicGraph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(k):
    """K_{1,k-1} with the hub at vertex 0."""
    return DynamicGraph(k, [(0, i) for i in range(1, k)])


def double_star_graph(k):
    """Hubs 0 and 1 joined by an edge, the other k-2 vertices split between them."""
    half = max(2, k // 2)
    return DynamicGraph(k, [(0, 1)] + [(0, i) for i in range(2, half)]
                        + [(1, i) for i in range(half, k)])


def friendship_graph(k):
    """Triangles (0, 2i+1, 2i+2) sharing the hub 0, on 2*((k-1)//2)+1 vertices."""
    t = (k - 1) // 2
    return DynamicGraph(2 * t + 1, [e for i in range(t)
                                    for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def complete_graph(k):
    return DynamicGraph(k, list(itertools.combinations(range(k), 2)))


def complete_bipartite_graph(a, b):
    """K_{a,b}: sides 0..a-1 and a..a+b-1."""
    return DynamicGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(w, h):
    """The w x h grid, vertex x*h + y at (x, y)."""
    edges = [(x * h + y, (x + 1) * h + y) for x in range(w - 1) for y in range(h)]
    edges += [(x * h + y, x * h + y + 1) for x in range(w) for y in range(h - 1)]
    return DynamicGraph(w * h, edges)


def hypercube_graph(d):
    """The d-cube: vertices 0..2^d-1, adjacent when they differ in one bit."""
    return DynamicGraph(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d)
                                 if not v >> i & 1])


def two_paths_graph(k):
    """Two disjoint copies of P_k."""
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    return DynamicGraph(2 * k, edges)


def random_graph(rng: random.Random, n_max=9, m_max=16) -> DynamicGraph:
    n = rng.randint(1, n_max)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = rng.randint(0, min(len(pool), m_max))
    return DynamicGraph(n, rng.sample(pool, m))


def brute_set(g) -> set:
    sink = ListSink()
    enumerate_brute(g, sink)
    return {frozenset(sol) for sol in sink.solutions}


def has_four_cycle(g) -> bool:
    """Exhaustive C4 subgraph search over vertex quadruples."""
    adj = [set() for _ in range(g.n)]
    for e in g.live_edges():
        u, v = g.eu[e], g.ev[e]
        adj[u].add(v)
        adj[v].add(u)
    for a, b, c, d in itertools.combinations(range(g.n), 4):
        for w, x, y, z in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            if x in adj[w] and y in adj[x] and z in adj[y] and w in adj[z]:
                return True
    return False


def girth_oracle(g):
    """Shortest cycle by edge-deletion BFS; None for forests."""
    adj = [set() for _ in range(g.n)]
    for e in g.live_edges():
        u, v = g.eu[e], g.ev[e]
        adj[u].add(v)
        adj[v].add(u)
    best = None
    for e in g.live_edges():
        u, v = g.eu[e], g.ev[e]
        adj[u].discard(v)
        adj[v].discard(u)
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if w not in dist:
                        dist[w] = dist[x] + 1
                        nxt.append(w)
            frontier = nxt
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
        adj[u].add(v)
        adj[v].add(u)
    return best


def graph_state(g):
    """Full structural snapshot; equal snapshots mean equal graphs."""
    return (
        list(g.head),
        list(g.nxt),
        list(g.prv),
        bytes(g.alive_edge),
        list(g.degree),
        g.live_edge_count,
        list(g.undo_log),
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
