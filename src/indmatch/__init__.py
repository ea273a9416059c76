"""Enumeration of induced matchings, with a constant-amortized-time
multi-way partition algorithm for C4-free graphs.

The hot enumeration kernels, the C4-freeness check and the edge-list
parser have a native implementation in `indmatch._fastcore`, plain C
compiled by `setup.py`; when it is not built, a pure-Python twin is used.  `native_available()`
reports which one is active, and `EnumConfig.backend`
(auto|python|native) pins a choice for the enumeration.

The names below resolve on first access (PEP 562), each importing only
the submodule that defines it, so that `indmatch.cli` on the native path
loads neither the Python engine nor the benchmark harness.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "GenSpec": "analysis",
    "generate": "analysis",
    "girth": "analysis",
    "is_c4_free": "analysis",
    "DegreeIndex": "degree_index",
    "LineSink": "edgelist",
    "parse_edge_list": "edgelist",
    "serialize_edge_list": "edgelist",
    "solution_line": "edgelist",
    "CountingSink": "enumerate",
    "EnumConfig": "enumerate",
    "ListSink": "enumerate",
    "count_induced_matchings": "enumerate",
    "enumerate_brute": "enumerate",
    "enumerate_c4free": "enumerate",
    "enumerate_general": "enumerate",
    "enumerate_solutions": "enumerate",
    "native_available": "enumerate",
    "DynamicGraph": "graph",
    "build_graph": "graph",
    "is_induced_matching": "graph",
    "Classifier": "neighborhood",
    "check_c4free_local": "neighborhood",
    "sect2": "neighborhood",
    "BenchRow": "stats",
    "EnumStats": "stats",
    "bench": "stats",
    "enumerate_with_stats": "stats",
    "rows_to_csv": "stats",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
