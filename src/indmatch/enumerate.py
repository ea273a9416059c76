"""Two enumeration engines behind one solution-sink contract.

* `enumerate_brute` iterates every edge subset of a small graph and is
  the independent oracle the partition engine is tested against.
* The multi-way partition engine branches once per pivot-incident edge
  plus once for the pivot-free subproblem.  It is correct on every
  graph; on C4-free graphs its per-iteration work stays proportional to
  the pivot neighborhood, giving constant amortized time per solution.
  `enumerate_c4free`, `enumerate_general` and the `auto` algorithm all
  run it, with the same solution stream and counters; they differ only
  in assertion mode, which checks the C4-free lemmas at every iteration
  when the algorithm is `c4free` or `auto` on a C4-free graph.

A sink is any callable receiving one solution (a tuple of edge ids);
returning False stops the enumeration before the next solution.

When the native kernel (`indmatch._fastcore`, plain C compiled by
`setup.py`) is importable, the partition engine dispatches to it unless
assertion mode is on or the configuration pins the pure-Python backend.

A solution cutoff is the smaller of `EnumConfig.solution_cutoff` and a
`CountingSink`'s own `cutoff`; it must be at least 1.  Every engine
stops after delivering that many solutions.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

from ._record import Record
from .edgelist import LineSink
from .errors import BackendUnavailable, NotC4Free, TooLargeForOracle
from .graph import DynamicGraph

try:
    from . import _fastcore
except ImportError:  # pure-Python fallback only
    _fastcore = None

Sink = Callable[[tuple], object]
ALGORITHMS = ("auto", "brute", "general", "c4free")
BACKENDS = ("auto", "python", "native")


def native_available() -> bool:
    return _fastcore is not None


class EnumConfig(Record):
    __slots__ = ("algorithm", "assertion_mode", "solution_cutoff", "backend")

    def __init__(
        self,
        algorithm: str = "auto",  # one of ALGORITHMS
        assertion_mode: bool = False,
        solution_cutoff: int | None = None,
        backend: str = "auto",  # one of BACKENDS
    ):
        self.algorithm = algorithm
        self.assertion_mode = assertion_mode
        self.solution_cutoff = solution_cutoff
        self.backend = backend


class CountingSink:
    """Counts solutions; the enumeration stops after `cutoff` of them.

    The engines apply the cutoff and set `cutoff_applied` when it was
    reached; the native kernel counts a CountingSink's solutions itself,
    with no per-solution call, but calls a subclass's `__call__` for each.
    """

    __slots__ = ("count", "cutoff", "cutoff_applied")

    def __init__(self, cutoff: int | None = None):
        self.count = 0
        self.cutoff = cutoff
        self.cutoff_applied = False

    def __call__(self, solution) -> object:
        self.count += 1
        return True


class ListSink:
    """Collects every solution (small graphs / tests)."""

    __slots__ = ("solutions",)

    def __init__(self):
        self.solutions: list[tuple] = []

    def __call__(self, solution) -> object:
        self.solutions.append(solution)
        return True


def resolve_algorithm(g: DynamicGraph, config: EnumConfig | None) -> str:
    """The algorithm `auto` stands for: `c4free` on a C4-free graph and
    `general` otherwise.  Both run the same engine; assertion mode checks
    the C4-free lemmas only under `c4free`."""
    from .analysis import is_c4_free

    algo = config.algorithm if config else "auto"
    if algo == "auto":
        return "c4free" if is_c4_free(g) else "general"
    return algo


# ---------------------------------------------------------------------
# brute-force oracle


def enumerate_brute(g: DynamicGraph, sink: Sink) -> int:
    """Emit every induced matching of the live graph by subset iteration.

    Subsets are tested with a conflict-bitmask recurrence that depends
    only on pairwise edge compatibility, so this stays an independent
    oracle for the partition enumerators.  Guarded to |E| <= 25.
    """
    return _run(g, sink, None, "brute")


def _run_brute(g: DynamicGraph, sink: Sink, cutoff: int | None) -> int:
    live = g.live_edges()
    k = len(live)
    if k > 25:
        raise TooLargeForOracle(f"{k} live edges exceeds the 25-edge oracle guard")
    nb: list[set[int]] = [set() for _ in range(g.n)]
    for e in live:
        u, v = g.eu[e], g.ev[e]
        nb[u].add(v)
        nb[v].add(u)
    conflict = [0] * k
    for i in range(k):
        a, b = g.eu[live[i]], g.ev[live[i]]
        reach = {a, b} | nb[a] | nb[b]
        for j in range(i):
            c, d = g.eu[live[j]], g.ev[live[j]]
            if c in reach or d in reach:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    count = 1
    if sink(()) is False or count == cutoff:
        return count
    valid = bytearray(1 << k)
    valid[0] = 1
    for s in range(1, 1 << k):
        low = s & -s
        rest = s ^ low
        if valid[rest] and not (conflict[low.bit_length() - 1] & rest):
            valid[s] = 1
            count += 1
            sol = tuple(live[i] for i in range(k) if (s >> i) & 1)
            if sink(sol) is False or count == cutoff:
                break
    return count


# ---------------------------------------------------------------------
# partition enumerators (pure-Python backend)


class _PartitionRun:
    """State of one partition enumeration over a borrowed graph."""

    def __init__(self, g: DynamicGraph, sink: Sink, cutoff: int | None, assertion_mode: bool, stats):
        # The Python engine's modules load with its first run, so that
        # importing the package for the native engine does not compile them.
        from .degree_index import DegreeIndex
        from .neighborhood import Classifier, check_c4free_local, sect2

        self.g = g
        self.idx = DegreeIndex(g)
        self.cls = Classifier(g)
        self.sect2 = sect2
        self.check_c4free_local = check_c4free_local
        self.sink = sink
        self.cutoff = cutoff
        self.assertion_mode = assertion_mode
        self.stats = stats
        self.stopped = False
        self.solutions = 0
        self.depth = 0

    def emit(self, matching: list[int]) -> None:
        self.solutions += 1
        st = self.stats
        if st is not None:
            st.solutions += 1
        if self.sink(tuple(matching)) is False or self.solutions == self.cutoff:
            self.stopped = True

    def enter(self) -> bool:
        """Per-iteration bookkeeping; True when this is a leaf."""
        st = self.stats
        if st is not None:
            st.iterations += 1
            if self.depth > st.max_depth:
                st.max_depth = self.depth
        if self.g.live_edge_count == 0:
            return True
        if st is not None:
            st.internal_iterations += 1
        return False

    def removed(self, n: int) -> None:
        if self.stats is not None:
            self.stats.edge_deletions += n

    def rollback(self, m: int) -> None:
        if self.stats is not None:
            self.stats.edge_restorations += len(self.g.undo_log) - m
        self.g.rollback(m)

    def rec_c4free(self, matching: list[int], parent_alive: bytes | None) -> None:
        if self.enter():
            self.emit(matching)
            return
        g = self.g
        st = self.stats
        snapshot = None
        if self.assertion_mode:
            alive = bytes(g.alive_edge)
            if parent_alive is not None:
                assert all(p or not c for p, c in zip(parent_alive, alive)), \
                    "live edge set grew along a recursion edge"
            snapshot = alive
        v = self.idx.max_degree_vertex()
        c = self.cls.classify(v)
        c.d01.sort()
        if st is not None:
            sect_sum = sum(len(c.sect_map.get(c._star[e], ())) for e in c.d01)
            st.sect_sum_total += sect_sum
            st.d2_total += len(c.d2)
        if self.assertion_mode:
            violations = self.check_c4free_local(c)
            if violations:
                if st is not None:
                    for kind, _ in violations:
                        st.lemma_violations[kind] = st.lemma_violations.get(kind, 0) + 1
                raise NotC4Free(f"pivot {v}: {violations}")
        m0 = g.mark()
        for e in c.d01:
            g.remove_edge(e)
        self.removed(len(c.d01))
        self.depth += 1
        self.rec_c4free(matching, snapshot)
        self.depth -= 1
        if self.stopped:
            self.rollback(m0)
            return
        for e in c.d11:
            g.remove_edge(e)
        for e in c.d12:
            g.remove_edge(e)
        self.removed(len(c.d11) + len(c.d12))
        for e in c.d01:
            mi = g.mark()
            sect = self.sect2(c, e)
            for f in sect:
                g.remove_edge(f)
            self.removed(len(sect))
            matching.append(e)
            self.depth += 1
            self.rec_c4free(matching, snapshot)
            self.depth -= 1
            matching.pop()
            self.rollback(mi)
            if self.stopped:
                break
        self.rollback(m0)


def _run_python(g, sink, cutoff, assertion_mode, stats) -> int:
    prev_listener = g.listener
    run = _PartitionRun(g, sink, cutoff, assertion_mode, stats)
    prev_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(prev_limit, 3 * g.m + 1000))
    entry = g.mark()
    try:
        run.rec_c4free([], None)
    finally:
        # Unwind through the enumeration's own index, then hand the
        # listener slot and the recursion limit back; the graph is
        # net-unchanged at this point.
        g.rollback(entry)
        g.listener = prev_listener
        sys.setrecursionlimit(prev_limit)
    return run.solutions


def _run_native(g, sink, cutoff, stats) -> int:
    # The kernel counts solutions, appends them and renders lines itself
    # for these exact types, with no Python frame per solution; a subclass
    # may override __call__, so it is called like any other sink.
    counting = type(sink) is CountingSink
    labels = None
    if counting:
        emit = None
    elif type(sink) is ListSink:
        emit = sink.solutions.append
    elif type(sink) is LineSink:
        emit, labels = sink.write, tuple(map(str, sink.g.labels))
    else:
        emit = sink
    res = _fastcore.run(g.n, g.eu, g.ev, bytes(g.alive_edge), cutoff or 0, emit, labels)
    if counting:
        sink.count += res["solutions"]
    if stats is not None:
        stats.solutions += res["solutions"]
        stats.iterations += res["iterations"]
        stats.internal_iterations += res["internal_iterations"]
        stats.max_depth = max(stats.max_depth, res["max_depth"])
        stats.edge_deletions += res["deletions"]
        stats.edge_restorations += res["restorations"]
        stats.sect_sum_total += res["sect_sum_total"]
        stats.d2_total += res["d2_total"]
    return res["solutions"]


def _run(g: DynamicGraph, sink: Sink, config: EnumConfig | None, algo: str, stats=None) -> int:
    config = config or EnumConfig()
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if config.backend not in BACKENDS:
        raise ValueError(f"unknown backend {config.backend!r}")
    cutoff = config.solution_cutoff
    if isinstance(sink, CountingSink) and sink.cutoff is not None:
        cutoff = sink.cutoff if cutoff is None else min(cutoff, sink.cutoff)
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"solution cutoff must be at least 1, got {cutoff}")
    backend = config.backend
    if backend == "auto":
        backend = "native" if (_fastcore is not None and not config.assertion_mode) else "python"
    if algo == "brute":
        count = _run_brute(g, sink, cutoff)
    elif backend == "native":
        if _fastcore is None:
            raise BackendUnavailable("native backend requested but indmatch._fastcore is not built")
        if config.assertion_mode:
            raise BackendUnavailable("assertion mode requires the python backend")
        count = _run_native(g, sink, cutoff, stats)
    else:
        # the lemmas hold only on C4-free graphs, so only `c4free` vouches for them
        if algo == "auto" and config.assertion_mode:
            algo = resolve_algorithm(g, config)
        count = _run_python(g, sink, cutoff, config.assertion_mode and algo == "c4free", stats)
    if isinstance(sink, CountingSink):
        sink.cutoff_applied = cutoff is not None and count >= cutoff
    return count


def enumerate_general(g: DynamicGraph, sink: Sink, config: EnumConfig | None = None) -> int:
    """Enumerate the induced matchings of any graph: the partition engine,
    with no assertion checks."""
    return _run(g, sink, config, "general")


def enumerate_c4free(g: DynamicGraph, sink: Sink, config: EnumConfig | None = None) -> int:
    """The partition engine; the caller vouches g is C4-free, which bounds
    its cost per solution and which assertion mode checks."""
    return _run(g, sink, config, "c4free")


def enumerate_solutions(g: DynamicGraph, sink: Sink, config: EnumConfig | None = None, stats=None) -> int:
    """Run the configured algorithm against `sink`.

    `auto`, `general` and `c4free` run the same partition engine; only
    assertion mode looks for 4-cycles, to decide whether `auto` checks
    the C4-free lemmas.
    """
    config = config or EnumConfig()
    return _run(g, sink, config, config.algorithm, stats)


def count_induced_matchings(g: DynamicGraph, config: EnumConfig | None = None) -> int:
    """Count solutions by enumeration with a counting sink."""
    sink = CountingSink()
    enumerate_solutions(g, sink, config)
    return sink.count
