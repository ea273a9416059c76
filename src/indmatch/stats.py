"""Instrumented enumeration counters and the benchmark harness.

The counters make the amortization argument measurable: the recursion
tree size relative to the solution count, the total edge deletions, and
the per-iteration neighborhood sums whose bounds the structural checks
assert on C4-free inputs.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Sequence

from ._record import Record
from .analysis import GenSpec, generate
from .enumerate import CountingSink, EnumConfig, Sink, enumerate_solutions
from .graph import DynamicGraph

CSV_HEADER = "family,n,m,algorithm,solutions,iterations,wall_time_ns,ns_per_solution,deletions,cutoff_applied"


class EnumStats(Record):
    __slots__ = (
        "iterations",
        "internal_iterations",
        "solutions",
        "max_depth",
        "edge_deletions",
        "edge_restorations",
        "sect_sum_total",
        "d2_total",
        "lemma_violations",
    )

    def __init__(
        self,
        iterations: int = 0,
        internal_iterations: int = 0,
        solutions: int = 0,
        max_depth: int = 0,
        edge_deletions: int = 0,
        edge_restorations: int = 0,
        sect_sum_total: int = 0,
        d2_total: int = 0,
        lemma_violations: dict | None = None,
    ):
        self.iterations = iterations
        self.internal_iterations = internal_iterations
        self.solutions = solutions
        self.max_depth = max_depth
        self.edge_deletions = edge_deletions
        self.edge_restorations = edge_restorations
        self.sect_sum_total = sect_sum_total
        self.d2_total = d2_total
        self.lemma_violations = {} if lemma_violations is None else lemma_violations


class BenchRow(Record):
    __slots__ = (
        "family",
        "n",
        "m",
        "algorithm",
        "solutions",
        "iterations",
        "wall_time_ns",
        "ns_per_solution",
        "deletions",
        "cutoff_applied",
    )

    def __init__(
        self,
        family: str,
        n: int,
        m: int,
        algorithm: str,
        solutions: int,
        iterations: int,
        wall_time_ns: int,
        ns_per_solution: float,
        deletions: int,
        cutoff_applied: bool,
    ):
        self.family = family
        self.n = n
        self.m = m
        self.algorithm = algorithm
        self.solutions = solutions
        self.iterations = iterations
        self.wall_time_ns = wall_time_ns
        self.ns_per_solution = ns_per_solution
        self.deletions = deletions
        self.cutoff_applied = cutoff_applied

    def csv_line(self) -> str:
        return (
            f"{self.family},{self.n},{self.m},{self.algorithm},{self.solutions},"
            f"{self.iterations},{self.wall_time_ns},{self.ns_per_solution:.1f},"
            f"{self.deletions},{str(self.cutoff_applied).lower()}"
        )


def enumerate_with_stats(
    g: DynamicGraph,
    config: EnumConfig | None = None,
    sink: Sink | None = None,
) -> tuple[int, EnumStats]:
    """Run the configured enumerator while collecting counters.

    The solution stream is identical to the uninstrumented run.  Sector
    and d2 sums stay zero for the brute oracle, which has no recursion
    tree (its iteration count is taken as its solution count).
    """
    stats = EnumStats()
    if sink is None:
        sink = CountingSink()
    count = enumerate_solutions(g, sink, config, stats=stats)
    if stats.iterations == 0:
        # brute oracle: no partition tree
        stats.iterations = count
        stats.solutions = count
    return count, stats


def bench(
    specs: Sequence[GenSpec],
    algorithms: Sequence[str],
    cutoff: int | None = None,
    repeats: int = 3,
    backend: str = "auto",
) -> list[BenchRow]:
    """Generate each spec, time each algorithm, report the median run.

    Each (spec, algorithm) pair is warmed up once and then timed
    `repeats` times with a counting sink honoring `cutoff`; rows come
    out in input order.
    """
    rows: list[BenchRow] = []
    for spec in specs:
        g = generate(spec)
        for algo in algorithms:
            config = EnumConfig(algorithm=algo, solution_cutoff=cutoff, backend=backend)
            enumerate_with_stats(g, config)  # warm-up
            times = []
            for _ in range(max(1, repeats)):
                sink = CountingSink()
                t0 = time.perf_counter_ns()
                count, stats = enumerate_with_stats(g, config, sink)
                times.append(time.perf_counter_ns() - t0)
            wall = int(statistics.median(times))
            rows.append(
                BenchRow(
                    family=spec.family,
                    n=spec.n,
                    m=g.m,
                    algorithm=algo,
                    solutions=count,
                    iterations=stats.iterations,
                    wall_time_ns=wall,
                    ns_per_solution=wall / count if count else float("nan"),
                    deletions=stats.edge_deletions,
                    cutoff_applied=sink.cutoff_applied,
                )
            )
    return rows


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    return "\n".join([CSV_HEADER, *(r.csv_line() for r in rows)]) + "\n"
