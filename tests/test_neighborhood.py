"""Concentric classification, sectors, and the local structural checks."""

import random

import pytest

from indmatch import Classifier, DynamicGraph, build_graph, check_c4free_local, is_c4_free, sect2
from indmatch.errors import EdgeNotInPivotStar, ZeroDegreePivot

from conftest import cycle_graph, path_graph, random_graph, star_graph


class TestClassifyC6:
    # C6 on labels 1..6; edge ids follow input order, pivot is label 1.
    # Worked example frozen: d01 = {12, 61}, d12 = {23, 56}, d2 = {34, 45},
    # d11 empty; Sect(12) = {34}, Sect(61) = {45}.
    def graph(self):
        return build_graph([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])

    def test_classes(self):
        c = Classifier(self.graph()).classify(0)
        assert sorted(c.d01) == [0, 5]
        assert c.d11 == []
        assert sorted(c.d12) == [1, 4]
        assert sorted(c.d2) == [2, 3]

    def test_sectors(self):
        c = Classifier(self.graph()).classify(0)
        assert sect2(c, 0) == [2]
        assert sect2(c, 5) == [3]

    def test_every_dist2_vertex_has_one_incoming(self):
        c = Classifier(self.graph()).classify(0)
        assert set(c.dist2_incount.values()) == {1}

    def test_no_violations(self):
        assert check_c4free_local(Classifier(self.graph()).classify(0)) == []


class TestClassifyShapes:
    def test_star_is_all_d01(self):
        c = Classifier(star_graph(6)).classify(0)
        assert sorted(c.d01) == [0, 1, 2, 3, 4]
        assert c.d11 == c.d12 == c.d2 == []

    def test_path_middle_pivot(self):
        c = Classifier(path_graph(7)).classify(3)
        assert sorted(c.d01) == [2, 3]
        assert sorted(c.d12) == [1, 4]
        assert sorted(c.d2) == [0, 5]

    def test_triangle_has_d11(self):
        c = Classifier(cycle_graph(3)).classify(0)
        assert sorted(c.d01) == [0, 2]
        assert c.d11 == [1]
        assert c.d12 == [] and c.d2 == []

    def test_sect_non_member_raises(self):
        c = Classifier(path_graph(7)).classify(3)
        with pytest.raises(EdgeNotInPivotStar):
            sect2(c, 0)

    def test_dead_or_isolated_pivot_raises(self):
        g = star_graph(4)
        for e in range(3):
            g.remove_edge(e)
        with pytest.raises(ZeroDegreePivot):
            Classifier(g).classify(0)
        with pytest.raises(ZeroDegreePivot):
            Classifier(DynamicGraph(3, [(0, 1)])).classify(2)
        with pytest.raises(IndexError):
            Classifier(g).classify(4)


class TestStructuralChecks:
    def test_c4_triggers_incoming_violation(self):
        # in C4 the opposite vertex is reached by two 1-2 edges
        c = Classifier(cycle_graph(4)).classify(0)
        kinds = {kind for kind, _ in check_c4free_local(c)}
        assert "one_incoming_12" in kinds

    def test_k4_triggers_adjacent_11_violation(self):
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        kinds = {kind for kind, _ in check_c4free_local(Classifier(g).classify(0))}
        assert "one_adjacent_11" in kinds

    def test_partition_covers_radius_two(self):
        # classes are disjoint and contain exactly the live edges whose
        # nearest endpoint lies within distance 2 of the pivot
        rng = random.Random(99)
        for _ in range(80):
            g = random_graph(rng)
            pivots = [v for v in range(g.n) if g.degree[v] > 0]
            if not pivots:
                continue
            v = rng.choice(pivots)
            c = Classifier(g).classify(v)
            groups = [c.d01, c.d11, c.d12, c.d2]
            all_ids = [e for grp in groups for e in grp]
            assert len(all_ids) == len(set(all_ids))
            dist = {v: 0}
            frontier = [v]
            for d in (1, 2):
                frontier = [
                    w
                    for x in frontier
                    for _, w in g.iter_incident(x)
                    if dist.setdefault(w, d) == d
                ]
            expect = {
                e
                for e in g.live_edges()
                if min(dist.get(g.eu[e], 9), dist.get(g.ev[e], 9)) <= 2
            }
            assert set(all_ids) == expect

    def test_c4free_random_graphs_have_no_violations(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 40:
            g = random_graph(rng)
            if not is_c4_free(g):
                continue
            pivots = [v for v in range(g.n) if g.degree[v] > 0]
            if not pivots:
                continue
            assert check_c4free_local(Classifier(g).classify(rng.choice(pivots))) == []
            checked += 1
