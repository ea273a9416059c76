"""Engine equivalence against the brute oracle, frozen counts, sinks,
cutoffs, and pure-Python vs compiled backend parity."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmatch import (
    CountingSink,
    DynamicGraph,
    EnumConfig,
    GenSpec,
    ListSink,
    count_induced_matchings,
    enumerate_brute,
    enumerate_c4free,
    enumerate_general,
    enumerate_solutions,
    generate,
    is_c4_free,
    is_induced_matching,
    native_available,
)
from indmatch.cli import EXIT_PARSE, main
from indmatch.errors import NotC4Free, TooLargeForOracle
from indmatch.stats import enumerate_with_stats

from conftest import (
    brute_set,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    double_star_graph,
    friendship_graph,
    graph_state,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_graph,
    star_graph,
    two_paths_graph,
)

BACKENDS = ["python"] + (["native"] if native_available() else [])
SINK_KINDS = ["list", "callable", "counting"]

# counts derived by the brute oracle ahead of the build, then frozen
FROZEN_COUNTS = [
    (lambda: path_graph(4), 4),
    (lambda: path_graph(5), 6),
    (lambda: cycle_graph(3), 4),
    (lambda: cycle_graph(6), 10),
    (lambda: cycle_graph(7), 15),
    (lambda: star_graph(6), 6),  # K_{1,5}
    (lambda: two_paths_graph(4), 16),
]


def solutions_of(g, algo, backend, cutoff=None, assertion_mode=False):
    sink = ListSink()
    config = EnumConfig(
        algorithm=algo,
        backend=backend,
        solution_cutoff=cutoff,
        assertion_mode=assertion_mode,
    )
    if algo == "c4free":
        enumerate_c4free(g, sink, config)
    elif algo == "general":
        enumerate_general(g, sink, config)
    else:
        enumerate_solutions(g, sink, config)
    return sink.solutions


def stream_and_stats(g, algo, backend, cutoff=None):
    sink = ListSink()
    config = EnumConfig(algorithm=algo, backend=backend, solution_cutoff=cutoff)
    _, stats = enumerate_with_stats(g, config, sink)
    return sink.solutions, stats


def parity_graphs(rng):
    """(name, graph) pairs the backends must agree on: random graphs, some
    with edges removed before the run; graphs whose distance-2 vertices
    have several parents and whose d2 edges have several anchors; sparse
    girth-5 graphs; and hubs, whose pivot stars are most of the graph."""
    graphs = [(f"random {i}", random_graph(rng)) for i in range(60)]
    graphs += [(f"random n<=12 {i}", random_graph(rng, n_max=12, m_max=20)) for i in range(60)]
    for i in range(30):
        g = random_graph(rng, n_max=12, m_max=20)
        for e in rng.sample(range(g.m), g.m * 15 // 100):
            g.remove_edge(e)
        graphs.append((f"pre-removed {i}", g))
    graphs += [(f"K{a},{b}", complete_bipartite_graph(a, b)) for a, b in ((2, 5), (3, 3), (4, 4))]
    graphs += [(f"K{k}", complete_graph(k)) for k in (5, 6, 7)]
    graphs += [("grid 4x4", grid_graph(4, 4)), ("4-cube", hypercube_graph(4))]
    graphs += [(f"randomgirth5 n={n} seed {s}",
                generate(GenSpec(family="randomgirth5", n=n, m=int(1.2 * n), seed=s)))
               for n in (16, 24, 32) for s in range(2)]
    graphs += [(f"{hub.__name__}({k})", hub(k))
               for hub in (star_graph, double_star_graph, friendship_graph) for k in (2, 5, 8, 11)]
    return graphs


def delivered(g, algo, backend, kind, cutoff=None, sink_cutoff=None):
    """(returned count, what the sink saw, CountingSink.cutoff_applied) of
    one run with a sink of the given kind."""
    config = EnumConfig(algorithm=algo, backend=backend, solution_cutoff=cutoff)
    if kind == "counting":
        sink = CountingSink(sink_cutoff)
        return enumerate_solutions(g, sink, config), sink.count, sink.cutoff_applied
    seen = []
    sink = ListSink() if kind == "list" else seen.append
    count = enumerate_solutions(g, sink, config)
    return count, sink.solutions if kind == "list" else seen, None


class TestFrozenCounts:
    @pytest.mark.parametrize("build,expected", FROZEN_COUNTS)
    def test_brute(self, build, expected):
        assert len(brute_set(build())) == expected

    @pytest.mark.parametrize("build,expected", FROZEN_COUNTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", ["general", "c4free"])
    def test_partition_engines(self, build, expected, backend, algo):
        g = build()
        if algo == "c4free" and not is_c4_free(g):
            pytest.skip("not C4-free")
        sols = solutions_of(g, algo, backend)
        assert len(sols) == expected
        assert len({frozenset(s) for s in sols}) == expected


class TestBruteOracle:
    def test_empty_graph_has_empty_solution(self):
        sink = ListSink()
        assert enumerate_brute(DynamicGraph(0, []), sink) == 1
        assert sink.solutions == [()]

    def test_emits_empty_matching_first(self):
        sink = ListSink()
        enumerate_brute(path_graph(4), sink)
        assert sink.solutions[0] == ()

    def test_guard(self):
        g = star_graph(27)
        with pytest.raises(TooLargeForOracle):
            enumerate_brute(g, ListSink())

    def test_respects_removed_edges(self):
        g = path_graph(4)
        g.remove_edge(1)
        assert brute_set(g) == {frozenset(), frozenset({0}), frozenset({2}), frozenset({0, 2})}

    def test_early_stop(self):
        sink = CountingSink(cutoff=2)
        enumerate_brute(cycle_graph(7), sink)
        assert sink.count == 2 and sink.cutoff_applied


class TestOracleEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_engines_agree_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        expected = brute_set(g)
        for backend in BACKENDS:
            got = {frozenset(s) for s in solutions_of(g, "general", backend)}
            assert got == expected
            if is_c4_free(g):
                got = {frozenset(s) for s in solutions_of(g, "c4free", backend)}
                assert got == expected

    def test_every_solution_is_valid(self, rng):
        for _ in range(40):
            g = random_graph(rng)
            for sol in solutions_of(g, "general", BACKENDS[-1]):
                assert is_induced_matching(g, sol)


class TestBackendParity:
    @pytest.mark.skipif(not native_available(), reason="compiled core not built")
    @pytest.mark.parametrize("algo", ["general", "c4free"])
    def test_identical_streams(self, algo, rng):
        for name, g in parity_graphs(rng):
            if algo == "c4free" and not is_c4_free(g):
                continue
            for cutoff in (None, 5, 500):
                python = stream_and_stats(g, algo, "python", cutoff)
                assert python == stream_and_stats(g, algo, "native", cutoff), (name, cutoff)

    @pytest.mark.skipif(not native_available(), reason="compiled core not built")
    @pytest.mark.parametrize("cutoff", [1, 3, 7])
    @pytest.mark.parametrize("kind", SINK_KINDS)
    @pytest.mark.parametrize("algo", ["general", "c4free"])
    def test_identical_streams_under_cutoff(self, algo, kind, cutoff):
        g = cycle_graph(10)
        assert delivered(g, algo, "python", kind, cutoff) == delivered(g, algo, "native", kind, cutoff)
        assert stream_and_stats(g, algo, "python", cutoff) == stream_and_stats(g, algo, "native", cutoff)

    def test_native_refuses_assertion_mode(self):
        if not native_available():
            pytest.skip("compiled core not built")
        config = EnumConfig(backend="native", assertion_mode=True)
        with pytest.raises(RuntimeError):
            enumerate_c4free(path_graph(4), ListSink(), config)


class TestSinksAndCutoffs:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cutoff_stops_stream(self, backend):
        sols = solutions_of(cycle_graph(9), "c4free", backend, cutoff=5)
        assert len(sols) == 5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sink_false_stops(self, backend):
        seen = []

        def sink(sol):
            seen.append(sol)
            return len(seen) < 3

        enumerate_general(path_graph(6), sink, EnumConfig(backend=backend))
        assert len(seen) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counting_sink_subclass_is_called(self, backend):
        class StopAtThree(CountingSink):
            def __call__(self, solution):
                super().__call__(solution)
                return self.count < 3

        sink = StopAtThree()
        assert enumerate_solutions(cycle_graph(9), sink, EnumConfig(backend=backend)) == 3
        assert sink.count == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_algorithm_is_rejected(self, backend):
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            count_induced_matchings(cycle_graph(6), EnumConfig(algorithm="bogus", backend=backend))

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            count_induced_matchings(cycle_graph(6), EnumConfig(backend="bogus"))

    def test_counting_sink_cutoff_flag(self):
        g = cycle_graph(8)
        sink = CountingSink(cutoff=4)
        enumerate_c4free(g, sink, EnumConfig(solution_cutoff=4))
        assert sink.count == 4 and sink.cutoff_applied

    @pytest.mark.parametrize("cutoff", [1, 3, 7])
    @pytest.mark.parametrize("kind", SINK_KINDS)
    @pytest.mark.parametrize("algo", ["brute", "general", "c4free"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_engine_honours_the_cutoff(self, backend, algo, kind, cutoff):
        # cycle(9) has 31 solutions
        count, seen, applied = delivered(cycle_graph(9), algo, backend, kind, cutoff)
        assert count == cutoff
        assert (seen if kind == "counting" else len(seen)) == cutoff
        assert applied is (True if kind == "counting" else None)

    @pytest.mark.parametrize("algo", ["brute", "general", "c4free"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_smaller_cutoff_wins(self, backend, algo):
        g = cycle_graph(9)
        assert delivered(g, algo, backend, "counting", 3, 5) == (3, 3, True)
        assert delivered(g, algo, backend, "counting", 5, 3) == (3, 3, True)
        assert delivered(g, algo, backend, "counting", None, 40) == (31, 31, False)

    def test_cutoff_below_one_is_rejected(self, tmp_path):
        g = cycle_graph(9)
        for bad in (0, -2):
            with pytest.raises(ValueError):
                count_induced_matchings(g, EnumConfig(solution_cutoff=bad))
            with pytest.raises(ValueError):
                enumerate_solutions(g, CountingSink(bad))
            path = tmp_path / "c9.txt"
            path.write_text("".join(f"{i} {(i + 1) % 9}\n" for i in range(9)))
            with pytest.raises(SystemExit) as exc:
                main(["enumerate", "--cutoff", str(bad), str(path)])
            assert exc.value.code == EXIT_PARSE

    def test_count_induced_matchings(self):
        assert count_induced_matchings(cycle_graph(6)) == 10
        assert count_induced_matchings(path_graph(5), EnumConfig(algorithm="brute")) == 6


class TestEntryStateAndPreRemoval:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", ["general", "c4free"])
    def test_graph_unchanged_after_run(self, backend, algo):
        g = cycle_graph(9)
        before = graph_state(g)
        solutions_of(g, algo, backend)
        assert graph_state(g) == before
        solutions_of(g, algo, backend, cutoff=3)  # aborted run
        assert graph_state(g) == before

    def test_python_run_restores_the_recursion_limit(self):
        # the engine raises the limit to 3m + 1000 for its own run only
        before = sys.getrecursionlimit()
        g = path_graph(before)
        assert count_induced_matchings(g, EnumConfig(backend="python", solution_cutoff=10)) == 10
        assert sys.getrecursionlimit() == before

        def failing(solution):
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            enumerate_solutions(g, failing, EnumConfig(backend="python"))
        assert sys.getrecursionlimit() == before

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", ["general", "c4free"])
    def test_enumerates_the_live_subgraph(self, backend, algo):
        g = cycle_graph(8)
        g.remove_edge(3)
        expected = brute_set(g)
        got = {frozenset(s) for s in solutions_of(g, algo, backend)}
        assert got == expected


class TestAssertionMode:
    def test_passes_on_c4_free(self):
        sols = solutions_of(cycle_graph(7), "c4free", "python", assertion_mode=True)
        assert len(sols) == 15

    def test_detects_c4(self):
        with pytest.raises(NotC4Free):
            solutions_of(cycle_graph(4), "c4free", "python", assertion_mode=True)


class TestAutoResolution:
    def test_auto_picks_c4free_for_c4_free_input(self):
        from indmatch.enumerate import resolve_algorithm

        assert resolve_algorithm(cycle_graph(5), EnumConfig()) == "c4free"
        assert resolve_algorithm(cycle_graph(4), EnumConfig()) == "general"

    def test_enumerate_solutions_auto(self):
        sink = CountingSink()
        enumerate_solutions(cycle_graph(4), sink)
        assert sink.count == 5
