"""Seeded input generators of the benchmark.

The benchmark makes its own graphs, so the inputs stay the same when the
package's generators change.  Vertices are labelled 1..n; a graph is a
vertex count and a list of 0-based (u, v) pairs in file order, which is
also the edge-id order `indmatch.build_graph` assigns.
"""

from __future__ import annotations

import random


def girth5(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """m uniform pairs, each accepted only when its endpoints are at
    distance >= 4, so every cycle has length >= 5 (no C3, no C4)."""
    adj: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    budget = 200 * m + 1000
    while len(edges) < m:
        budget -= 1
        if budget < 0:
            raise ValueError(f"girth-5 generator stuck at {len(edges)}/{m} edges (n={n})")
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or _within3(adj, u, v):
            continue
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
    return edges


def _within3(adj, u, v) -> bool:
    near_u = adj[u] | {u}
    if v in near_u:
        return True
    for w in adj[v]:
        if w in near_u or not near_u.isdisjoint(adj[w]):
            return True
    return False


def gnm_with_c4(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, m) with a planted 4-cycle first, so the graph is never C4-free."""
    a, b, c, d = rng.sample(range(n), 4)
    edges = [(a, b), (b, c), (c, d), (d, a)]
    have = {frozenset(e) for e in edges}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        key = frozenset((u, v))
        if u == v or key in have:
            continue
        have.add(key)
        edges.append((u, v))
    return edges


def edge_list_text(edges: list[tuple[int, int]]) -> str:
    return "".join(f"{u + 1} {v + 1}\n" for u, v in edges)
