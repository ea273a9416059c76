"""Child process of the benchmark that runs the package in-process.

    python worker.py info RESULT
    python worker.py op JOB RESULT
    python worker.py trace JOB RESULT

It is started with the built package first on PYTHONPATH.  `op` runs one
library operation and reports its wall time and this process's peak RSS;
`trace` runs the traced and untraced replays and the per-layer
measurements on one workload instance.  JOB and RESULT are JSON files.
"""

from __future__ import annotations

import json
import pickle
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext

import indmatch
from indmatch import (
    Classifier,
    CountingSink,
    DegreeIndex,
    EnumConfig,
    ListSink,
    build_graph,
    count_induced_matchings,
    enumerate_solutions,
    enumerate_with_stats,
    parse_edge_list,
    solution_line,
)
from indmatch.enumerate import enumerate_c4free, enumerate_general, resolve_algorithm

import speed

clock = time.perf_counter_ns
ENGINES = {"c4free": enumerate_c4free, "general": enumerate_general}
# Cutoff of the per-solution layer timings: enough solutions that the
# steady state dominates, few enough that the large input stays cheap.
LAYER_SOLUTIONS = 20000
# Repetitions of each direct layer timing; the median is kept.
LAYER_REPS = 5


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def info() -> dict:
    native = indmatch.native_available() if hasattr(indmatch, "native_available") else None
    # With INDMATCH_BACKEND unset and assertion mode off, `auto` picks the
    # compiled core whenever it is importable.
    return {"native_available": native, "auto_backend": "native" if native else "python",
            "package_version": getattr(indmatch, "__version__", None)}


# ---------------------------------------------------------------------
# one library operation


def peak_rss_kb() -> int:
    """Peak RSS of this process's own address space (getrusage's maxrss
    would include the parent's RSS at fork)."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        return int(fh.read().split("VmHWM:")[1].split()[0])


def run_op(job: dict) -> dict:
    kind, path, probes = job["kind"], job["path"], job["probes"]

    def call(g, cutoff):
        config = EnumConfig(solution_cutoff=cutoff)
        if kind == "count":
            return count_induced_matchings(g, config), None
        sink = ListSink()
        return enumerate_solutions(g, sink, config), sink.solutions

    # Time to the first solution: CountingSink gives no per-solution
    # signal, so both kinds take it from the same entry point with
    # solution_cutoff=1, from the read of the file on.
    before = speed.calibrate()
    firsts = []
    for _ in range(probes):
        t0 = time.perf_counter()
        call(parse_edge_list(read(path)), 1)
        firsts.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    count, solutions = call(parse_edge_list(read(path)), None)
    wall = time.perf_counter() - t0
    peak_kb = peak_rss_kb()
    after = speed.calibrate()
    if solutions is not None:
        with open(job["out"], "wb") as fh:
            pickle.dump(solutions, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return {"wall_s": wall, "first_s": statistics.median(firsts), "peak_rss_kb": peak_kb,
            "count": count, "calibration_ns": [before, after]}


# ---------------------------------------------------------------------
# tracing


class Span:
    __slots__ = ("name", "parent", "start", "end", "count", "total_ns")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.count = 0
        self.total_ns = 0


class Tracer:
    """Spans kept in memory: name, start, end, parent.  A counted span
    aggregates many short intervals (one per solution) under one record;
    its owner adds to `count` and `total_ns`, and it ends with its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[int] = []

    @contextmanager
    def span(self, name):
        s = self.counted(name)
        self.open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            self.open.pop()
            s.end = clock()
            s.count, s.total_ns = 1, s.end - s.start
            for c in self.spans:
                if c.parent >= 0 and self.spans[c.parent] is s and c.count != 1:
                    c.end = s.end

    def counted(self, name, parent: Span | None = None) -> Span:
        """A span under `parent`, or under the innermost open span."""
        if parent is not None:
            up = self.spans.index(parent)
        else:
            up = self.open[-1] if self.open else -1
        s = Span(name, up, clock())
        self.spans.append(s)
        return s

    def self_ns(self) -> dict[str, int]:
        """Self time per span name: its duration minus its children's."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.total_ns
        out: dict[str, int] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0) + s.total_ns - child[i]
        return out

    def totals(self) -> dict[str, tuple[int, int]]:
        """(count, total ns) per span name."""
        out: dict[str, tuple[int, int]] = {}
        for s in self.spans:
            n, t = out.get(s.name, (0, 0))
            out[s.name] = (n + s.count, t + s.total_ns)
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start_ns": s.start, "end_ns": s.end,
                 "count": s.count, "total_ns": s.total_ns} for s in self.spans]


def timed(sink, span: Span):
    """`sink` with each call added to a counted span."""

    def traced_sink(solution):
        t0 = clock()
        keep_going = sink(solution)
        span.total_ns += clock() - t0
        span.count += 1
        return keep_going

    return traced_sink


def replay(kind: str, path: str, cutoff, out_path: str, tracer: Tracer | None):
    """One operation of a workload, step by step through the package's
    public functions.  For `cli` this mirrors `cli.cmd_enumerate`; the
    algorithm is resolved here and the engine called directly, which is
    what `enumerate_solutions` does for the partition engines.

    Returns the delivered output: the lines file, a count, or a list."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("replay"):
        with span("read"):
            text = read(path)
        with span("edgelist.parse_edge_list"):
            g = parse_edge_list(text)
        config = EnumConfig(solution_cutoff=cutoff)
        with span("enumerate.resolve_algorithm"):
            algo = resolve_algorithm(g, config)
        engine = ENGINES[algo]
        if kind == "count":
            sink = CountingSink(cutoff)
            with span("enumerate.engine"):
                engine(g, sink, config)
            result = sink.count
        elif kind == "sink":
            collected = ListSink()
            with span("enumerate.engine"):
                engine(g, timed(collected, tracer.counted("sink")) if tracer else collected, config)
            result = collected.solutions
        else:
            with open(out_path, "w", encoding="utf-8") as out, span("enumerate.engine"):
                write = out.write
                if tracer:
                    call = tracer.counted("sink")
                    render = tracer.counted("edgelist.solution_line", call)
                    written = tracer.counted("write", call)

                    def sink(solution):
                        t0 = clock()
                        line = solution_line(g, solution)
                        t1 = clock()
                        write(line + "\n")
                        t2 = clock()
                        call.total_ns += t2 - t0
                        render.total_ns += t1 - t0
                        written.total_ns += t2 - t1
                        call.count += 1
                        render.count += 1
                        written.count += 1
                        return True
                else:

                    def sink(solution):
                        write(solution_line(g, solution) + "\n")
                        return True

                engine(g, sink, config)
            result = out_path
    return algo, result


def median_ns(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


class _StopAfter:
    """A Python callable sink with CountingSink's logic."""

    __slots__ = ("count", "limit")

    def __init__(self, limit):
        self.count = 0
        self.limit = limit

    def __call__(self, solution):
        self.count += 1
        return self.count < self.limit


def per_solution_ns(engine, g, make_sink, config_for) -> tuple[float, float]:
    """(setup-to-first seconds, steady ns per solution): engine time with
    cutoff 1, and (t(K) - t(1)) / (K - 1) for K = LAYER_SOLUTIONS (or the
    whole enumeration when it is smaller)."""
    t1 = median_ns(lambda: engine(g, make_sink(1), config_for(1)), LAYER_REPS)
    got = []

    def run_k():
        got.append(engine(g, make_sink(LAYER_SOLUTIONS), config_for(LAYER_SOLUTIONS)))

    tk = median_ns(run_k, LAYER_REPS)
    k = got[-1]
    return t1 / 1e9, (tk - t1) / max(k - 1, 1)


def run_trace(job: dict) -> dict:
    kind, path, cutoff, seconds = job["kind"], job["path"], job["cutoff"], job["seconds"]
    out_path = job["out"]
    outputs = []

    # Traced and untraced replays alternate; the overhead is the
    # difference of their medians.
    before = speed.calibrate()
    traced, plain, tracers = [], [], []
    deadline = time.perf_counter() + seconds / 2
    while not traced or time.perf_counter() < deadline:
        t0 = clock()
        _, res = replay(kind, path, cutoff, out_path, None)
        plain.append(clock() - t0)
        outputs.append(res if kind != "cli" else read(res))
        tracer = Tracer()
        t0 = clock()
        algo, res = replay(kind, path, cutoff, out_path, tracer)
        traced.append(clock() - t0)
        tracers.append(tracer)
        outputs.append(res if kind != "cli" else read(res))

    # The CLI layers on this instance: a traced CLI replay (the CLI
    # workloads already have one).
    if kind == "cli":
        cli_tracer = tracers[len(tracers) // 2]
        cli_cutoff = cutoff
        cli_plain_ns = statistics.median(plain)
    else:
        cli_tracer = Tracer()
        cli_cutoff = LAYER_SOLUTIONS
        replay("cli", path, cli_cutoff, out_path, cli_tracer)
        t0 = clock()
        replay("cli", path, cli_cutoff, out_path, None)
        cli_plain_ns = clock() - t0

    def span_median(name):
        return statistics.median(t.totals().get(name, (0, 0))[1] for t in tracers) / 1e9

    m = {
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain)) / 1e9,
        "edgelist.parse_s": span_median("edgelist.parse_edge_list"),
        "analysis.c4check_s": span_median("enumerate.resolve_algorithm"),
    }
    n_lines, render_ns = cli_tracer.totals()["edgelist.solution_line"]
    m["edgelist.render_ns_per_line"] = render_ns / max(n_lines, 1)
    # The layer spans of the CLI replay without tracing's own cost: the
    # untraced replay's wall minus the traced write time.
    cli_spans_s = (cli_plain_ns - cli_tracer.totals()["write"][1]) / 1e9

    # Layers called directly on the workload graph.
    text = read(path)
    g = parse_edge_list(text)
    pairs = [tuple(line.split()) for line in text.splitlines()]
    m["graph.build_s"] = median_ns(lambda: build_graph(pairs), LAYER_REPS) / 1e9

    k = min(g.m, LAYER_SOLUTIONS)

    def remove_rollback():
        mark = g.mark()
        for e in range(k):
            g.remove_edge(e)
        g.rollback(mark)

    m["graph.remove_rollback_ns"] = median_ns(remove_rollback, LAYER_REPS) / k

    def build_index():
        DegreeIndex(g)
        g.listener = None

    m["degree_index.build_s"] = median_ns(build_index, LAYER_REPS) / 1e9
    idx = DegreeIndex(g)
    calls = 100000

    def max_degree():
        for _ in range(calls):
            idx.max_degree_vertex()

    m["degree_index.max_degree_ns"] = median_ns(max_degree, LAYER_REPS) / calls
    g.listener = None
    pivots = [v for v in range(g.n) if g.degree[v]][:LAYER_SOLUTIONS]
    cls = Classifier(g)

    def classify_all():
        for v in pivots:
            cls.classify(v)

    m["neighborhood.classify_ns_per_pivot"] = median_ns(classify_all, LAYER_REPS) / len(pivots)

    engine = ENGINES[algo]
    setup_first, m["enumerate.count_ns_per_solution"] = per_solution_ns(
        engine, g, CountingSink, lambda c: EnumConfig(solution_cutoff=c))
    m["enumerate.setup_to_first_s"] = setup_first
    _, m["enumerate.callback_ns_per_solution"] = per_solution_ns(
        engine, g, _StopAfter, lambda c: EnumConfig())
    m["enumerate.boundary_ns_per_solution"] = (
        m["enumerate.callback_ns_per_solution"] - m["enumerate.count_ns_per_solution"])
    _, m["enumerate.python_ns_per_solution"] = per_solution_ns(
        engine, g, CountingSink, lambda c: EnumConfig(solution_cutoff=c, backend="python"))

    # Rescale the timings above as the end-to-end ones are (see speed.py).
    factor = speed.scale(before, speed.calibrate())
    m = {name: value * factor for name, value in m.items()}
    cli_spans_s *= factor

    # Exact recursion-tree counters of the workload's own enumeration.
    solutions, st = enumerate_with_stats(g, EnumConfig(solution_cutoff=cutoff))
    m["enumerate.iterations_per_solution"] = st.iterations / solutions
    m["enumerate.internal_per_solution"] = st.internal_iterations / solutions
    m["enumerate.deletions_per_solution"] = st.edge_deletions / solutions
    m["enumerate.restorations_per_solution"] = st.edge_restorations / solutions
    m["enumerate.sect_sum_per_d2"] = st.sect_sum_total / st.d2_total if st.d2_total else 0.0
    m["enumerate.max_depth"] = st.max_depth

    with open(job["outputs"], "wb") as fh:
        pickle.dump(outputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "algorithm": algo,
        "metrics": m,
        "cli_spans_s": cli_spans_s,
        "cli_cutoff": cli_cutoff,
        "spans": [t.dump() for t in tracers] + ([] if kind == "cli" else [cli_tracer.dump()]),
        "self_ns": tracers[len(tracers) // 2].self_ns(),
    }


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "info":
        result, out = info(), argv[2]
    else:
        with open(argv[2], "r", encoding="utf-8") as fh:
            job = json.load(fh)
        result, out = (run_op(job) if mode == "op" else run_trace(job)), argv[3]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
