"""Instrumentation counters, their invariants, and the benchmark harness."""

import copy
import pickle
import random

import pytest

from indmatch import BenchRow, DynamicGraph, EnumConfig, EnumStats, GenSpec, bench, is_c4_free, rows_to_csv
from indmatch.enumerate import native_available
from indmatch.stats import CSV_HEADER, enumerate_with_stats

from conftest import cycle_graph, path_graph, random_graph

BACKENDS = ["python"] + (["native"] if native_available() else [])


class TestEnumerateWithStats:
    def test_single_edge_trace(self):
        # one internal iteration (the pivot), two leaves: {} and {e}
        g = DynamicGraph(2, [(0, 1)])
        count, st = enumerate_with_stats(g, EnumConfig(algorithm="c4free"))
        assert count == 2
        assert st.iterations == 3
        assert st.internal_iterations == 1
        assert st.solutions == 2
        assert st.edge_deletions == st.edge_restorations == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_c6_frozen_counters(self, backend):
        g = cycle_graph(6)
        count, st = enumerate_with_stats(g, EnumConfig(algorithm="c4free", backend=backend))
        assert count == 10
        assert st.iterations == 16
        assert st.internal_iterations == 6
        assert st.max_depth == 3
        assert st.edge_deletions == st.edge_restorations == 15
        assert st.sect_sum_total == 3
        assert st.d2_total == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_c6_general_frozen_counters(self, backend):
        g = cycle_graph(6)
        count, st = enumerate_with_stats(g, EnumConfig(algorithm="general", backend=backend))
        assert count == 10
        assert st.iterations == 19
        assert st.max_depth == 6
        assert st.edge_deletions == st.edge_restorations == 30

    def test_brute_fallback_counts(self):
        count, st = enumerate_with_stats(path_graph(5), EnumConfig(algorithm="brute"))
        assert count == 6
        assert st.iterations == st.solutions == 6

    @pytest.mark.parametrize("algo", ["c4free", "general"])
    def test_invariants_on_random_graphs(self, algo, rng):
        # tree-size bound and balanced deletion/restoration on every run
        for _ in range(40):
            g = random_graph(rng)
            if algo == "c4free" and not is_c4_free(g):
                continue
            count, st = enumerate_with_stats(g, EnumConfig(algorithm=algo))
            assert st.iterations <= 2 * count - 1
            assert st.iterations == st.internal_iterations + count
            assert st.edge_deletions == st.edge_restorations
            assert st.lemma_violations == {}

    def test_sector_sum_bound_on_c4_free(self, rng):
        for _ in range(30):
            g = random_graph(rng)
            if not is_c4_free(g):
                continue
            _, st = enumerate_with_stats(g, EnumConfig(algorithm="c4free"))
            assert st.sect_sum_total <= 2 * st.d2_total


class TestBench:
    def test_header_is_frozen(self):
        assert CSV_HEADER == (
            "family,n,m,algorithm,solutions,iterations,wall_time_ns,"
            "ns_per_solution,deletions,cutoff_applied"
        )

    def test_rows_and_csv(self):
        specs = [GenSpec(family="cycle", n=8), GenSpec(family="path", n=6)]
        rows = bench(specs, ["c4free", "general"], repeats=1)
        assert len(rows) == 4
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 10
            assert fields[9] == "false"

    def test_cutoff_applied_flag(self):
        rows = bench([GenSpec(family="cycle", n=10)], ["c4free"], cutoff=3, repeats=1)
        assert rows[0].solutions == 3
        assert rows[0].cutoff_applied
        assert rows[0].csv_line().endswith("true")

    @pytest.mark.skipif(not native_available(), reason="compiled core not built")
    def test_backends_report_identical_counts(self):
        spec = GenSpec(family="randomgirth5", n=24, m=28, seed=1)
        rp = bench([spec], ["c4free"], repeats=1, backend="python")[0]
        rn = bench([spec], ["c4free"], repeats=1, backend="native")[0]
        assert (rp.solutions, rp.iterations, rp.deletions) == (
            rn.solutions,
            rn.iterations,
            rn.deletions,
        )


class TestValueClasses:
    """`EnumConfig`, `GenSpec`, `EnumStats` and `BenchRow` as values."""

    def test_construction_defaults_and_repr(self):
        assert EnumConfig("c4free", False, 5) == EnumConfig(algorithm="c4free", solution_cutoff=5)
        assert repr(EnumConfig()) == (
            "EnumConfig(algorithm='auto', assertion_mode=False, solution_cutoff=None, backend='auto')"
        )
        assert repr(GenSpec("path", 5)) == "GenSpec(family='path', n=5, m=None, seed=0)"
        assert repr(EnumStats(solutions=2)) == (
            "EnumStats(iterations=0, internal_iterations=0, solutions=2, max_depth=0, "
            "edge_deletions=0, edge_restorations=0, sect_sum_total=0, d2_total=0, lemma_violations={})"
        )
        row = BenchRow("cycle", 8, 8, "c4free", 47, 93, 1000, 21.3, 92, False)
        assert row == BenchRow(family="cycle", n=8, m=8, algorithm="c4free", solutions=47, iterations=93,
                               wall_time_ns=1000, ns_per_solution=21.3, deletions=92, cutoff_applied=False)
        assert repr(row).startswith("BenchRow(family='cycle', n=8, m=8, ")
        with pytest.raises(TypeError):
            GenSpec("path")

    def test_equality_is_by_class_and_fields(self):
        a, b = EnumStats(), EnumStats()
        assert a == b and a.lemma_violations is not b.lemma_violations
        b.lemma_violations["kind"] = 1
        assert a != b
        assert EnumStats() != EnumConfig()
        assert GenSpec("path", 5) != ("path", 5, None, 0)
        with pytest.raises(TypeError):
            hash(EnumStats())

    def test_genspec_is_hashable_and_immutable(self):
        spec = GenSpec("randomgirth5", 20, 24, seed=9)
        assert hash(spec) == hash(GenSpec(family="randomgirth5", n=20, m=24, seed=9))
        assert len({spec, GenSpec("randomgirth5", 20, 24, 9), GenSpec("path", 20)}) == 2
        with pytest.raises(AttributeError):
            spec.n = 21
        with pytest.raises(AttributeError):
            del spec.seed
        assert (spec.n, spec.seed) == (20, 9)

    def test_copy_and_pickle(self):
        for value in (EnumConfig(backend="python"), GenSpec("star", 6), EnumStats(iterations=3),
                      BenchRow("path", 6, 5, "general", 13, 25, 7, 0.5, 24, True)):
            assert pickle.loads(pickle.dumps(value)) == value
            assert copy.deepcopy(value) == value == copy.copy(value)
