"""Bucket index of vertices by current degree with O(1) max extraction.

Bucket i holds exactly the vertices of degree i, each bucket a
doubly-linked list.  The pivot query reads the tail of the highest
nonempty bucket, so ties go to the most recently inserted vertex and
enumeration order is deterministic.

Degrees change by one at a time, and a vertex whose degree drops is
re-inserted one bucket lower before the cached highest-nonempty-bucket
position walks down over emptied buckets, so that walk stops after at
most one step: every degree change is O(1) in the worst case.
"""

from __future__ import annotations

from .graph import DynamicGraph


class DegreeIndex:
    __slots__ = ("g", "cap", "bhead", "btail", "bnxt", "bprv", "max_nonempty")

    def __init__(self, g: DynamicGraph):
        self.g = g
        # Degrees never exceed the initial maximum: edges are only ever
        # removed and restored, never added.
        self.cap = max(g.degree, default=0)
        nb = self.cap + 1
        self.bhead = [-1] * nb
        self.btail = [-1] * nb
        self.bnxt = [-1] * g.n
        self.bprv = [-1] * g.n
        self.max_nonempty = -1
        for v in range(g.n):
            self._insert(v, g.degree[v])
        g.listener = self

    # -- linked-list plumbing -----------------------------------------

    def _insert(self, v: int, d: int) -> None:
        t = self.btail[d]
        self.bprv[v] = t
        self.bnxt[v] = -1
        if t == -1:
            self.bhead[d] = v
        else:
            self.bnxt[t] = v
        self.btail[d] = v
        if d > self.max_nonempty:
            self.max_nonempty = d

    def _unlink(self, v: int, d: int) -> None:
        """Takes v out of bucket d, the one it sits in."""
        p, n = self.bprv[v], self.bnxt[v]
        if p == -1:
            self.bhead[d] = n
        else:
            self.bnxt[p] = n
        if n == -1:
            self.btail[d] = p
        else:
            self.bprv[n] = p

    # -- graph hooks --------------------------------------------------

    def on_degree_change(self, v: int, old: int, new: int) -> None:
        # A restore re-raises the cached maximum in the insert.  After a
        # removal v already sits in bucket `new`, so the scan stops there.
        self._unlink(v, old)
        self._insert(v, new)
        if new < old:
            while self.bhead[self.max_nonempty] == -1:
                self.max_nonempty -= 1

    # -- queries ------------------------------------------------------

    def max_degree_vertex(self) -> int | None:
        """A vertex of current maximum degree, or None if all degrees are 0."""
        if self.max_nonempty <= 0:
            return None
        return self.btail[self.max_nonempty]

    def check_consistency(self) -> None:
        """Recompute bucket membership from scratch (test aid)."""
        g = self.g
        seen = set()
        for d in range(self.cap + 1):
            v = self.bhead[d]
            prev = -1
            while v != -1:
                assert g.degree[v] == d, (v, d, g.degree[v])
                assert self.bprv[v] == prev
                seen.add(v)
                prev, v = v, self.bnxt[v]
            assert self.btail[d] == prev
        assert seen == set(range(g.n))
        tops = [d for d in range(self.cap + 1) if self.bhead[d] != -1]
        assert self.max_nonempty == (max(tops) if tops else -1)
