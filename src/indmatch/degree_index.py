"""Bucket index of vertices by current degree with O(1) max extraction.

Bucket i holds exactly the vertices of degree i, each bucket a
doubly-linked list.  The pivot query reads the tail of the highest
nonempty bucket, so ties go to the most recently inserted vertex and
enumeration order is deterministic.

The cached highest-nonempty-bucket position only walks downward after a
removal empties the top bucket; each step of that walk is paid for by
an earlier edge deletion, so maintenance stays amortized O(1).
"""

from __future__ import annotations

from typing import Optional

from .graph import DynamicGraph


class DegreeIndex:
    __slots__ = ("g", "cap", "bhead", "btail", "bnxt", "bprv", "bucket", "max_nonempty")

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
        self.bucket = [-1] * g.n
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
        self.bucket[v] = d
        if d > self.max_nonempty:
            self.max_nonempty = d

    def _unlink(self, v: int, scan: bool = True) -> None:
        d = self.bucket[v]
        p, n = self.bprv[v], self.bnxt[v]
        if p == -1:
            self.bhead[d] = n
        else:
            self.bnxt[p] = n
        if n == -1:
            self.btail[d] = p
        else:
            self.bprv[n] = p
        self.bucket[v] = -1
        if scan and d == self.max_nonempty and self.bhead[d] == -1:
            while self.max_nonempty >= 0 and self.bhead[self.max_nonempty] == -1:
                self.max_nonempty -= 1

    # -- graph hooks --------------------------------------------------

    def on_degree_change(self, v: int, old: int, new: int) -> None:
        # A restore moves v upward and will re-raise the cached maximum
        # itself, so the downward scan is skipped in that direction.
        self._unlink(v, scan=new < old)
        self._insert(v, new)

    # -- queries ------------------------------------------------------

    def max_degree_vertex(self) -> Optional[int]:
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
                assert self.bucket[v] == d
                seen.add(v)
                prev, v = v, self.bnxt[v]
            assert self.btail[d] == prev
        assert seen == set(range(g.n))
        tops = [d for d in range(self.cap + 1) if self.bhead[d] != -1]
        assert self.max_nonempty == (max(tops) if tops else -1)
