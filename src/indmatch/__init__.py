"""Enumeration of induced matchings, with a constant-amortized-time
multi-way partition algorithm for C4-free graphs.

The hot enumeration kernels, the C4-freeness check and the edge-list
parser have a native implementation in `indmatch._fastcore`, plain C
compiled by `setup.py`; when it is not built, a pure-Python twin is used.  `native_available()`
reports which one is active, and `EnumConfig.backend`
(auto|python|native) pins a choice for the enumeration.
"""

from .analysis import GenSpec, generate, girth, is_c4_free
from .degree_index import DegreeIndex
from .edgelist import LineSink, parse_edge_list, serialize_edge_list, solution_line
from .enumerate import (
    CountingSink,
    EnumConfig,
    ListSink,
    count_induced_matchings,
    enumerate_brute,
    enumerate_c4free,
    enumerate_general,
    enumerate_solutions,
    native_available,
)
from .graph import DynamicGraph, build_graph, is_induced_matching
from .neighborhood import Classifier, check_c4free_local, sect2
from .stats import BenchRow, EnumStats, bench, enumerate_with_stats, rows_to_csv

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "Classifier",
    "CountingSink",
    "DegreeIndex",
    "DynamicGraph",
    "EnumConfig",
    "EnumStats",
    "GenSpec",
    "LineSink",
    "ListSink",
    "bench",
    "build_graph",
    "check_c4free_local",
    "count_induced_matchings",
    "enumerate_brute",
    "enumerate_c4free",
    "enumerate_general",
    "enumerate_solutions",
    "enumerate_with_stats",
    "generate",
    "girth",
    "is_c4_free",
    "is_induced_matching",
    "native_available",
    "parse_edge_list",
    "rows_to_csv",
    "sect2",
    "serialize_edge_list",
    "solution_line",
]
