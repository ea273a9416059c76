"""DynamicGraph structure, rollback semantics and the matching predicate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmatch import DynamicGraph, build_graph, is_induced_matching, parse_edge_list
from indmatch.errors import DuplicateEdge, EdgeNotAlive, SelfLoop, StaleMark, UnknownEdge

from conftest import graph_state, path_graph, random_graph


class TestBuildGraph:
    def test_labels_map_in_first_appearance_order(self):
        g = build_graph([("b", "a"), ("a", "c")])
        assert g.labels == ["b", "a", "c"]
        assert (g.eu, g.ev) == ([0, 1], [1, 2])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph([("x", "x")])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(DuplicateEdge):
            build_graph([(1, 2), (2, 1)])

    def test_equal_labels_are_one_vertex(self):
        # labels are dict keys: equal values name one vertex, so 1 and 1.0
        # make a self-loop and a repeated pair, while "1" and 1 differ
        with pytest.raises(SelfLoop):
            build_graph([(1, 1.0)])
        with pytest.raises(DuplicateEdge):
            build_graph([(1, 2), (2.0, 1.0)])
        assert build_graph([(1, 2), ("1", 2)]).n == 3

    def test_empty(self):
        g = build_graph([])
        assert g.n == 0 and g.m == 0


class TestAdjacency:
    def test_iter_incident_reports_other_endpoint(self):
        g = path_graph(3)
        assert dict(g.iter_incident(1)) == {0: 0, 1: 2}

    def test_adjacency_sets(self):
        g = path_graph(4)
        assert g.adjacency_sets() == [{0}, {0, 1}, {1, 2}, {2}]

    def test_degrees(self):
        g = path_graph(4)
        assert g.degree == [1, 2, 2, 1]

    def test_arc_layout(self):
        # arcs 2e and 2e+1 linked in edge order, each at the front of its
        # list; prv of a list's first arc is -(vertex + 1)
        g = DynamicGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (1, 4)])
        assert g.head == [5, 10, 6, 8, 11]
        assert g.nxt == [-1, -1, 1, -1, 3, 0, 4, -1, 7, -1, 2, 9]
        assert g.prv == [5, 2, 10, 4, 6, -1, -3, 8, -4, 11, -2, -5]
        assert g.degree == [2, 3, 3, 2, 2]
        assert g.adjacency_sets() == [{0, 2}, {0, 1, 5}, {1, 2, 3}, {3, 4}, {4, 5}]
        # a parsed graph builds the same layout on first access, and a
        # removal and rollback on a graph whose lists were never read
        # come back to it
        text = "0 1\n1 2\n2 0\n2 3\n3 4\n1 4\n"
        parsed = parse_edge_list(text)
        for name in ("head", "nxt", "prv", "degree"):
            with pytest.raises(AttributeError):
                getattr(DynamicGraph, name).__get__(parsed)  # not built yet
        assert (parsed.head, parsed.nxt, parsed.prv, parsed.degree) == (g.head, g.nxt, g.prv, g.degree)
        fresh = parse_edge_list(text)
        fresh.remove_edge(1)
        fresh.remove_edge(5)
        assert fresh.adjacency_sets() == [{0, 2}, {0}, {2, 3}, {3, 4}, {4}]
        assert fresh.degree == [2, 1, 2, 2, 1]
        fresh.rollback(0)
        assert graph_state(fresh) == graph_state(g)


class TestRemoveRollback:
    def test_remove_edge_hides_it_everywhere(self):
        g = path_graph(4)
        g.remove_edge(1)
        assert g.live_edges() == [0, 2]
        assert g.adjacency_sets() == [{0}, {0}, {2}, {2}]
        assert g.degree == [1, 1, 1, 1]
        assert g.live_edge_count == 2

    def test_rollback_restores_exact_structure(self):
        g = path_graph(5)
        before = graph_state(g)
        m = g.mark()
        g.remove_edge(2)
        g.remove_edge(0)
        g.remove_edge(3)
        g.rollback(m)
        assert graph_state(g) == before

    def test_nested_marks(self):
        g = path_graph(5)
        m0 = g.mark()
        g.remove_edge(0)
        mid = graph_state(g)
        m1 = g.mark()
        g.remove_edge(3)
        g.remove_edge(1)
        g.rollback(m1)
        assert graph_state(g) == mid
        g.rollback(m0)
        assert g.live_edge_count == 4

    def test_double_remove_raises(self):
        g = path_graph(3)
        g.remove_edge(0)
        with pytest.raises(EdgeNotAlive):
            g.remove_edge(0)

    def test_stale_mark_raises(self):
        g = path_graph(3)
        g.remove_edge(0)
        m = g.mark()
        g.rollback(0)
        with pytest.raises(StaleMark):
            g.rollback(m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 999), max_size=40))
    def test_random_ops_always_rewind(self, seed, choices):
        # interleaved removals and partial rollbacks against a model of
        # the live edge set, then a full rewind to the entry snapshot
        import random as _random

        rng = _random.Random(seed)
        g = random_graph(rng)
        before = graph_state(g)
        model = set(g.live_edges())
        marks = [(g.mark(), set(model))]
        for c in choices:
            if c % 3 == 0 and model:
                e = sorted(model)[c % len(model)]
                g.remove_edge(e)
                model.discard(e)
                marks.append((g.mark(), set(model)))
            elif c % 3 == 1 and len(marks) > 1:
                k = c % len(marks)
                mark, snap = marks[k]
                g.rollback(mark)
                del marks[k + 1:]
                model = set(snap)
            assert set(g.live_edges()) == model
        g.rollback(0)
        assert graph_state(g) == before


class TestIsInducedMatching:
    def test_empty_matching(self):
        assert is_induced_matching(path_graph(4), ())

    def test_single_edges(self):
        g = path_graph(4)
        for e in range(3):
            assert is_induced_matching(g, (e,))

    def test_adjacent_pair_rejected(self):
        assert not is_induced_matching(path_graph(4), (0, 1))

    def test_connected_pair_rejected(self):
        # P4 end edges share the middle edge as a connector
        assert not is_induced_matching(path_graph(4), (0, 2))

    def test_distance_two_pair_accepted(self):
        assert is_induced_matching(path_graph(5), (0, 3))

    def test_repeated_edge_rejected(self):
        assert not is_induced_matching(path_graph(4), (0, 0))

    def test_unknown_edge_raises(self):
        with pytest.raises(UnknownEdge):
            is_induced_matching(path_graph(3), (7,))

