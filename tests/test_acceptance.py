"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each criterion prints its verdict; with the suite's tee-sys capture the
run log always carries one line per criterion.
"""

import random
import time

import pytest

from indmatch import (
    CountingSink,
    DegreeIndex,
    DynamicGraph,
    EnumConfig,
    GenSpec,
    ListSink,
    bench,
    enumerate_brute,
    enumerate_c4free,
    enumerate_general,
    generate,
    is_c4_free,
    is_induced_matching,
)
from indmatch.stats import enumerate_with_stats

from conftest import (
    brute_set,
    complete_graph,
    cycle_graph,
    graph_state,
    has_four_cycle,
    path_graph,
    random_graph,
    star_graph,
    two_paths_graph,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\nacceptance {num} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def family_suite():
    """P_k, C_k (k <= 10), K_{1,k} (k <= 8), K4, random trees n <= 12."""
    graphs = [path_graph(k) for k in range(2, 11)]
    graphs += [cycle_graph(k) for k in range(3, 11)]
    graphs += [star_graph(k + 1) for k in range(1, 9)]
    graphs.append(complete_graph(4))
    graphs += [generate(GenSpec(family="randomtree", n=n, seed=s))
               for n in (6, 9, 12) for s in range(4)]
    return graphs


def random_suite(count, seed=20240901, n_max=9, m_max=16):
    rng = random.Random(seed)
    return [random_graph(rng, n_max, m_max) for _ in range(count)]


def engine_sets(g):
    """Solution lists of every applicable engine, keyed by name."""
    out = {}
    sink = ListSink()
    enumerate_brute(g, sink)
    out["brute"] = sink.solutions
    sink = ListSink()
    enumerate_general(g, sink)
    out["general"] = sink.solutions
    if is_c4_free(g):
        sink = ListSink()
        enumerate_c4free(g, sink)
        out["c4free"] = sink.solutions
    return out


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for g in family_suite() + random_suite(500):
        sets = {name: {frozenset(s) for s in sols} for name, sols in engine_sets(g).items()}
        ref = sets.pop("brute")
        for name, got in sets.items():
            if got != ref:
                _verdict(1, "oracle equivalence", False, f"{name} diverges on graph #{checked}")
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(1, "oracle equivalence", elapsed < 60.0,
             f"{checked} graphs in {elapsed:.1f}s")


def test_criterion_2_known_counts():
    # counts derived via the brute oracle ahead of the build, frozen here
    expected = [
        (path_graph(4), "P4", 4),
        (path_graph(5), "P5", 6),
        (cycle_graph(3), "C3", 4),
        (cycle_graph(6), "C6", 10),
        (cycle_graph(7), "C7", 15),
        (star_graph(6), "K_{1,5}", 6),
        (two_paths_graph(4), "2xP4", 16),
    ]
    bad = []
    for g, name, want in expected:
        for engine, sols in engine_sets(g).items():
            if len(sols) != want:
                bad.append(f"{name}/{engine}={len(sols)} want {want}")
    _verdict(2, "known counts", not bad, "; ".join(bad) or "7 fixtures, 3 engines")


def test_criterion_3_no_duplicates_all_valid():
    t0 = time.monotonic()
    lines = 0
    for g in family_suite() + random_suite(200, seed=77):
        for engine, sols in engine_sets(g).items():
            if len({frozenset(s) for s in sols}) != len(sols):
                _verdict(3, "no duplication, all valid", False, f"duplicate from {engine}")
            for sol in sols:
                if not is_induced_matching(g, sol):
                    _verdict(3, "no duplication, all valid", False, f"invalid line from {engine}")
                lines += 1
    _verdict(3, "no duplication, all valid", True,
             f"{lines} solution lines in {time.monotonic() - t0:.1f}s")


def test_criterion_4_structural_lemma_suite():
    t0 = time.monotonic()
    iterations = 0
    for i in range(50):
        n = 20 + round(i * 180 / 49)
        g = generate(GenSpec(family="randomgirth5", n=n, m=int(1.2 * n), seed=1000 + i))
        # full enumerations are astronomically large at this scale, so
        # each graph is capped; every visited iteration is still checked
        _, st = enumerate_with_stats(
            g,
            EnumConfig(algorithm="c4free", assertion_mode=True,
                       solution_cutoff=20_000, backend="python"),
        )
        if st.lemma_violations:
            _verdict(4, "structural lemmas", False, f"n={n}: {st.lemma_violations}")
        iterations += st.iterations
    elapsed = time.monotonic() - t0
    _verdict(4, "structural lemmas", elapsed < 120.0,
             f"50 graphs, {iterations} iterations checked in {elapsed:.1f}s")


def test_criterion_5_tree_size_bound():
    worst = 0.0
    for g in family_suite() + random_suite(200, seed=505):
        algos = ["general"] + (["c4free"] if is_c4_free(g) else [])
        for algo in algos:
            count, st = enumerate_with_stats(g, EnumConfig(algorithm=algo))
            if st.iterations > 2 * count - 1:
                _verdict(5, "tree-size bound", False,
                         f"{algo}: {st.iterations} iterations for {count} solutions")
            worst = max(worst, st.iterations / count)
    _verdict(5, "tree-size bound", True, f"max iterations/solutions = {worst:.3f}")


def test_criterion_6_amortization_flatness():
    t0 = time.monotonic()
    specs = [GenSpec(family="randomgirth5", n=n, m=int(1.2 * n), seed=11)
             for n in (32, 48, 64)]
    rows = bench(specs, ["c4free"], cutoff=10**6, repeats=3)
    per_sol = [r.ns_per_solution for r in rows]
    ratio = max(per_sol) / min(per_sol)
    overhead = max(r.iterations / r.solutions for r in rows)
    elapsed = time.monotonic() - t0
    ok = ratio <= 3.0 and overhead <= 2.0 and elapsed < 300.0
    _verdict(6, "amortization flatness", ok,
             f"ns/sol={['%.0f' % x for x in per_sol]}, ratio={ratio:.2f}, "
             f"iterations/solutions<={overhead:.2f}, {elapsed:.1f}s")


def test_criterion_7_restoration_and_fuzz():
    # every enumeration, aborted or not, must leave the graph at entry state
    for g in [cycle_graph(10), generate(GenSpec(family="randomgirth5", n=30, m=36, seed=2))]:
        before = graph_state(g)
        for config in (EnumConfig(algorithm="c4free"),
                       EnumConfig(algorithm="general"),
                       EnumConfig(algorithm="c4free", solution_cutoff=3),
                       EnumConfig(algorithm="general", solution_cutoff=3),
                       EnumConfig(algorithm="c4free", backend="python")):
            sink = CountingSink(config.solution_cutoff)
            (enumerate_c4free if config.algorithm == "c4free" else enumerate_general)(
                g, sink, config)
            if graph_state(g) != before:
                _verdict(7, "restoration + fuzz", False, f"state drift under {config}")
    # 10^4-operation remove/rollback fuzz with the degree index attached
    rng = random.Random(999)
    n = 40
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    g = DynamicGraph(n, rng.sample(pool, 180))
    idx = DegreeIndex(g)
    before = graph_state(g)
    marks = [g.mark()]
    ops = 0
    while ops < 10_000:
        live = g.live_edges()
        if rng.random() < 0.6 and live:
            g.remove_edge(rng.choice(live))
            marks.append(g.mark())
        elif len(marks) > 1:
            k = rng.randrange(len(marks))
            g.rollback(marks[k])
            del marks[k + 1:]
        else:
            continue
        ops += 1
        if ops % 500 == 0:
            idx.check_consistency()
    g.rollback(0)
    idx.check_consistency()
    _verdict(7, "restoration + fuzz", graph_state(g) == before, f"{ops} fuzz ops")


def test_criterion_8_c4_detection():
    rng = random.Random(808)
    for i in range(300):
        g = random_graph(rng, n_max=10, m_max=20)
        if is_c4_free(g) != (not has_four_cycle(g)):
            _verdict(8, "C4 detection", False, f"disagreement on graph #{i}")
    _verdict(8, "C4 detection", True, "300 graphs vs exhaustive search")
