"""The benchmark's own output checker, independent of the package.

An output is accepted when every solution is an induced matching of the
input, no solution repeats, and either (complete runs) the count and an
order-independent digest equal the reference computed here, or (cutoff
runs) exactly the cutoff was delivered.

The digest of a set of matchings is sum over matchings of the product of
per-edge random weights, modulo the prime 2**61 - 1.  Two different
multisets of matchings give different digests except with probability
about (max matching size) / 2**61, so count plus digest pin down the set.
The reference count and digest come from a memoized vertex-elimination
recurrence over induced subgraphs, which shares no code or method with
the package's partition engines:

    W(S) = W(S - v) + sum over neighbours u of v in S of
           w(uv) * W(S - N[u] - N[v])

with connected components of S multiplied together.
"""

from __future__ import annotations

import random
from math import prod

P = (1 << 61) - 1


class Instance:
    """One input graph as the checker sees it."""

    def __init__(self, n: int, edges: list[tuple[int, int]], weight_seed: int):
        self.n = n
        self.edges = edges
        rng = random.Random(weight_seed)
        self.weight = [rng.randrange(1, P) for _ in edges]
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self._line_ids: dict[str, int] | None = None

    def line_ids(self) -> dict[str, int]:
        """Canonical `a-b` token (labels in string order) -> edge id."""
        if self._line_ids is None:
            ids = {}
            for e, (u, v) in enumerate(self.edges):
                a, b = sorted((str(u + 1), str(v + 1)))
                ids[f"{a}-{b}"] = e
            self._line_ids = ids
        return self._line_ids

    def reference(self) -> tuple[int, int]:
        """(number of induced matchings, digest) of the whole graph."""
        nb = [0] * self.n
        for x in range(self.n):
            for y in self.adj[x]:
                nb[x] |= 1 << y
        closed = [nb[x] | (1 << x) for x in range(self.n)]
        wt = {}
        for (u, v), w in zip(self.edges, self.weight):
            wt[(u, v)] = wt[(v, u)] = w
        memo: dict[int, tuple[int, int]] = {}

        def bits(s):
            while s:
                low = s & -s
                yield low.bit_length() - 1
                s ^= low

        def component(s):
            seen = frontier = s & -s
            while frontier:
                grow = 0
                for x in bits(frontier):
                    grow |= nb[x]
                frontier = grow & s & ~seen
                seen |= frontier
            return seen

        def solve(s):
            s &= ~sum(1 << x for x in bits(s) if not nb[x] & s)  # drop isolated
            if not s:
                return 1, 1
            hit = memo.get(s)
            if hit is not None:
                return hit
            comp = component(s)
            if comp != s:
                c1, d1 = solve(comp)
                c2, d2 = solve(s & ~comp)
                res = (c1 * c2, d1 * d2 % P)
            else:
                v = max(bits(s), key=lambda x: (nb[x] & s).bit_count())
                cnt, dig = solve(s & ~(1 << v))
                for u in bits(nb[v] & s):
                    c, d = solve(s & ~closed[u] & ~closed[v])
                    cnt += c
                    dig = (dig + wt[(u, v)] * d) % P
                res = (cnt, dig)
            memo[s] = res
            return res

        return solve((1 << self.n) - 1)


class Verdict:
    """Result of checking one operation's output."""

    def __init__(self, count: int, digest: int, error: str | None):
        self.count = count
        self.digest = digest
        self.error = error


class _Lazy(dict):
    """Per-edge masks, built on first use (the large inputs are only
    checked on a few solutions)."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def check_matchings(inst: Instance, matchings) -> Verdict:
    """Check solutions given as sequences of edge ids.

    A matching is tracked by the bit mask V of its endpoints.  It is
    induced iff its edges are disjoint (|V| = 2k) and, for each edge uv,
    V meets N[u] | N[v] only in {u, v}.  An induced matching is the edge
    set of G[V], so V also identifies it for the duplicate check.
    """
    edges, adj = inst.edges, inst.adj

    def edge(e):
        if not 0 <= e < len(edges):
            raise IndexError(f"edge id {e} out of range")
        return edges[e]

    def closed(x):
        return sum(1 << y for y in adj[x]) | (1 << x)

    ends = _Lazy(lambda e: sum(1 << x for x in edge(e)))
    near = _Lazy(lambda e: closed(edge(e)[0]) | closed(edge(e)[1]))
    weight = inst.weight.__getitem__
    seen = set()
    count = total = 0
    for sol in matchings:
        mask = 0
        try:
            for e in sol:
                mask |= ends[e]
        except (IndexError, TypeError) as exc:
            return Verdict(count, total % P, f"bad edge id in {sol!r}: {exc}")
        if mask.bit_count() != 2 * len(sol) or any(near[e] & mask != ends[e] for e in sol):
            return Verdict(count, total % P, f"not an induced matching: {sorted(sol)}")
        if mask in seen:
            return Verdict(count, total % P, f"duplicate solution {sorted(sol)}")
        seen.add(mask)
        count += 1
        total += prod(map(weight, sol))
    return Verdict(count, total % P, None)


def check_lines(inst: Instance, text: str) -> Verdict:
    """Check canonical CLI lines: edges `a-b` with a < b as strings,
    sorted, space-separated; `{}` for the empty matching."""
    if text and not text.endswith("\n"):
        return Verdict(0, 0, "output does not end with a newline")
    ids = inst.line_ids()
    sols = []
    for line in text.splitlines():
        if line == "{}":
            sols.append(())
            continue
        parts = line.split(" ")
        if parts != sorted(parts):
            return Verdict(0, 0, f"edges not in canonical order: {line!r}")
        try:
            sols.append([ids[p] for p in parts])
        except KeyError:
            return Verdict(0, 0, f"not a canonical edge of the input: {line!r}")
    return check_matchings(inst, sols)


def judge(v: Verdict, reference: tuple[int, int] | None, cutoff: int | None) -> str | None:
    """None when the output is right; otherwise what is wrong with it.
    A run whose cutoff is below the total must deliver exactly the cutoff;
    any other run must deliver the reference set."""
    if v.error:
        return v.error
    if cutoff is not None and (reference is None or reference[0] > cutoff):
        if v.count != cutoff:
            return f"cutoff run delivered {v.count} solutions, expected {cutoff}"
        return None
    if (v.count, v.digest) != reference:
        return f"count/digest {v.count}/{v.digest:x} differ from reference {reference[0]}/{reference[1]:x}"
    return None
