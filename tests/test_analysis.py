"""Graph-class checks and the seeded generator families."""

import random

import pytest

from indmatch import DynamicGraph, GenSpec, generate, girth, is_c4_free
from indmatch.analysis import SplitMix64
from indmatch.errors import InfeasibleSpec

from conftest import (
    cycle_graph,
    double_star_graph,
    friendship_graph,
    girth_oracle,
    has_four_cycle,
    path_graph,
    random_graph,
    star_graph,
)


class TestSplitMix64:
    def test_reference_vector(self):
        # published splitmix64 outputs for seed 0
        r = SplitMix64(0)
        assert [r.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next() == SplitMix64(0).next()

    def test_below_range(self):
        r = SplitMix64(7)
        assert all(0 <= r.below(10) < 10 for _ in range(100))


class TestC4Free:
    def test_small_shapes(self):
        assert is_c4_free(DynamicGraph(0, []))
        assert is_c4_free(DynamicGraph(4, []))
        assert is_c4_free(cycle_graph(5))
        assert not is_c4_free(cycle_graph(4))
        assert is_c4_free(path_graph(6))
        assert not is_c4_free(DynamicGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))

    def test_respects_removals(self):
        g = cycle_graph(4)
        g.remove_edge(0)
        assert is_c4_free(g)

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(31337)
        found = set()
        for _ in range(600):
            # edges in either orientation, then again with about a quarter
            # of them removed
            n = rng.randint(0, 11)
            pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
            chosen = rng.sample(pool, rng.randint(0, min(len(pool), 18)))
            g = DynamicGraph(n, [p[::rng.choice((1, -1))] for p in chosen])
            assert is_c4_free(g) == (not has_four_cycle(g))
            for e in range(g.m):
                if rng.random() < 0.25:
                    g.remove_edge(e)
            got = is_c4_free(g)
            assert got == (not has_four_cycle(g))
            found.add(got)
        assert found == {True, False}

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_four_cycle(self, seed):
        # a new vertex z next to both ends a, c of a 2-path a-b-c in a
        # girth-5 graph closes its only 4-cycle: removing any of that
        # cycle's edges makes the graph C4-free again
        base = generate(GenSpec(family="randomgirth5", n=300, m=360, seed=seed))
        assert is_c4_free(base)
        a = next(v for v in range(base.n) if base.degree[v])
        _, b = next(base.iter_incident(a))
        c = next(w for _, w in base.iter_incident(b) if w != a)
        ab = next(e for e, w in base.iter_incident(a) if w == b)
        bc = next(e for e, w in base.iter_incident(b) if w == c)
        z = base.n
        g = DynamicGraph(base.n + 1, list(zip(base.eu, base.ev)) + [(a, z), (z, c)])
        assert not is_c4_free(g)
        for e in (ab, bc, base.m, base.m + 1):
            g.remove_edge(e)
            assert is_c4_free(g)
            g.rollback(0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 40, 10**5])
    @pytest.mark.parametrize("build", [star_graph, double_star_graph, friendship_graph])
    def test_hubs(self, build, n):
        # at scale, every vertex is next to a hub of degree n/2 or more: a
        # check that walks a hub's list from each of its neighbours takes
        # quadratic time
        g = build(n)
        assert is_c4_free(g)
        # from n = 5 on, the last two vertices share a hub, so a new vertex
        # z next to both closes a 4-cycle
        if n >= 5:
            z = g.n
            g = DynamicGraph(z + 1, list(zip(g.eu, g.ev)) + [(z, z - 2), (z, z - 1)])
            assert not is_c4_free(g)


class TestGirth:
    def test_forest_has_none(self):
        assert girth(path_graph(6)) is None
        assert girth(DynamicGraph(3, [])) is None

    def test_cycles(self):
        for k in (3, 4, 5, 6, 9):
            assert girth(cycle_graph(k)) == k

    @pytest.mark.parametrize("family", ["path", "star", "randomtree"])
    def test_large_forest_has_none(self, family):
        # peeled to an empty 2-core without a BFS
        assert girth(generate(GenSpec(family=family, n=10**5, seed=1))) is None

    def test_cycle_behind_a_tree(self):
        # a triangle at the end of a long path: only the triangle is left
        g = DynamicGraph(1002, [(i, i + 1) for i in range(1001)] + [(999, 1001)])
        assert girth(g) == 3

    def test_long_cycle(self):
        # a core of core degree 2 only: its size, with no BFS
        assert girth(generate(GenSpec(family="cycle", n=10**5))) == 10**5

    def test_cycle_components_and_a_tree(self):
        # cycles of lengths 5 (0..4) and 7 (5..11), a tree hung on the 7-cycle
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
        edges += [(11, 12), (12, 13), (12, 14), (14, 15)]
        assert girth(DynamicGraph(16, edges)) == 5

    def test_theta_graph(self):
        # hubs 0 and 1 joined by paths of 3, 4 and 6 edges: the shortest
        # cycle, 7, passes through the two vertices of core degree 3
        edges, nxt = [], 2
        for length in (3, 4, 6):
            chain = [0, *range(nxt, nxt + length - 1), 1]
            nxt += length - 1
            edges += list(zip(chain, chain[1:]))
        g = DynamicGraph(nxt, edges)
        assert girth(g) == girth_oracle(g) == 7

    def test_agrees_with_oracle(self):
        rng = random.Random(555)
        for _ in range(120):
            g = random_graph(rng, n_max=10)
            assert girth(g) == girth_oracle(g)


class TestFamilies:
    def test_path(self):
        g = generate(GenSpec(family="path", n=5))
        assert (g.n, g.m) == (5, 4)
        assert g.labels == [1, 2, 3, 4, 5]
        assert girth(g) is None

    def test_cycle(self):
        g = generate(GenSpec(family="cycle", n=6))
        assert (g.n, g.m) == (6, 6)
        assert girth(g) == 6
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(family="cycle", n=2))

    def test_star(self):
        g = generate(GenSpec(family="star", n=6))
        assert (g.n, g.m) == (6, 5)
        assert max(g.degree) == 5

    def test_random_tree_is_a_tree(self):
        for seed in range(5):
            g = generate(GenSpec(family="randomtree", n=12, seed=seed))
            assert g.m == 11
            assert girth(g) is None  # acyclic with n-1 edges => connected tree

    def test_random_tree_frozen_instance(self):
        g = generate(GenSpec(family="randomtree", n=8, seed=42))
        got = [(g.labels[g.eu[e]], g.labels[g.ev[e]]) for e in range(g.m)]
        assert got == [(1, 2), (2, 3), (1, 4), (1, 5), (1, 6), (1, 7), (3, 8)]

    def test_random_girth5(self):
        g = generate(GenSpec(family="randomgirth5", n=20, m=24, seed=9))
        assert (g.n, g.m) == (20, 24)
        assert girth(g) >= 5
        assert is_c4_free(g)

    def test_random_girth5_deterministic(self):
        spec = GenSpec(family="randomgirth5", n=25, m=30, seed=3)
        a, b = generate(spec), generate(spec)
        assert (a.eu, a.ev) == (b.eu, b.ev)

    def test_random_girth5_infeasible(self):
        # 4 vertices admit at most a tree (3 edges) at girth >= 5
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(family="randomgirth5", n=4, m=4, seed=0))

    @pytest.mark.parametrize("family", ["path", "star", "randomtree", "randomgirth5"])
    def test_negative_size(self, family):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(family=family, n=-5))

    def test_unknown_family(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(family="clique", n=4))
