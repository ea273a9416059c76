"""Bucket queue maintenance under edge removal and rollback."""

from hypothesis import given, settings
from hypothesis import strategies as st

from indmatch import DegreeIndex, DynamicGraph, EnumConfig, enumerate_with_stats
from indmatch import degree_index

from conftest import path_graph, random_graph, star_graph


def test_max_vertex_on_star():
    g = star_graph(6)
    idx = DegreeIndex(g)
    assert idx.max_degree_vertex() == 0
    assert idx.max_nonempty == 5


def test_tie_breaks_to_most_recent_insertion():
    # all degrees equal: the initial build inserts 0..n-1 in order and
    # the tail of the top bucket wins
    g = DynamicGraph(2, [(0, 1)])
    idx = DegreeIndex(g)
    assert idx.max_degree_vertex() == 1


def test_max_none_when_all_isolated():
    g = path_graph(3)
    idx = DegreeIndex(g)
    g.remove_edge(0)
    g.remove_edge(1)
    assert idx.max_degree_vertex() is None
    assert idx.max_nonempty == 0


def test_tracks_removal_and_rollback():
    g = path_graph(5)
    idx = DegreeIndex(g)
    assert idx.max_nonempty == 2
    m = g.mark()
    g.remove_edge(1)
    g.remove_edge(2)
    assert idx.max_nonempty == 1
    idx.check_consistency()
    g.rollback(m)
    assert idx.max_nonempty == 2
    idx.check_consistency()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 999), max_size=30))
def test_consistency_under_random_ops(seed, choices):
    import random as _random

    rng = _random.Random(seed)
    g = random_graph(rng)
    idx = DegreeIndex(g)
    marks = [g.mark()]
    for c in choices:
        live = g.live_edges()
        if c % 3 == 0 and live:
            g.remove_edge(live[c % len(live)])
            marks.append(g.mark())
        elif c % 3 == 1 and len(marks) > 1:
            k = c % len(marks)
            g.rollback(marks[k])
            del marks[k + 1:]
        idx.check_consistency()
        degs = list(g.degree)
        top = max(degs, default=-1)
        assert idx.max_nonempty == (top if degs else -1)
        if top > 0:
            v = idx.max_degree_vertex()
            assert g.degree[v] == top


def test_top_bucket_scan_is_constant_per_removal_on_a_star(monkeypatch):
    # The scan for the highest nonempty bucket is the only reader of
    # `bhead`.  On a star the hub's degree falls one step at a time from
    # the top; a scan that ran before the hub was re-inserted one bucket
    # lower walked down over every empty bucket to the leaves' bucket
    # each time, about k*k/2 probes for k leaves.
    k = 10_000
    probes = [0]

    class CountingHeads(list):
        def __getitem__(self, d):
            probes[0] += 1
            # stop early where the walk is quadratic
            assert probes[0] <= 100 * k, "top-bucket scan over budget"
            return list.__getitem__(self, d)

    class CountingIndex(DegreeIndex):
        def __init__(self, g):
            super().__init__(g)
            self.bhead = CountingHeads(self.bhead)

    # the Python engine looks the class up in its module when a run starts
    monkeypatch.setattr(degree_index, "DegreeIndex", CountingIndex)
    count, stats = enumerate_with_stats(star_graph(k + 1), EnumConfig(algorithm="c4free", backend="python"))
    assert count == k + 1
    assert stats.edge_deletions == stats.edge_restorations == k
    assert probes[0] <= 2 * (stats.edge_deletions + stats.edge_restorations)
