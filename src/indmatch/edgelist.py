"""Edge-list text format and canonical solution-line rendering.

Edge lists are UTF-8 text, one edge per line as two whitespace-separated
labels; blank lines and lines starting with `#` are ignored.  A solution
line renders each matching edge as `u-v` with the labels of the pair in
lexicographic order, edges space-separated and sorted lexicographically;
the empty matching is the literal `{}`.  "Lexicographic" is code-point
order, Python's `str` order, which is also the byte order of the UTF-8
encodings: the native kernel orders the encoded texts byte by byte and
writes the same bytes as `solution_line`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .errors import ParseError
from .graph import DynamicGraph, build_graph

try:
    from . import _fastcore
except ImportError:  # pure-Python fallback only
    _fastcore = None


def parse_edge_list(text: str) -> DynamicGraph:
    """Parse an edge list into a graph, labels as str.

    Runs in the native kernel when it is built.  On input the kernel
    rejects (a line that is not two labels, a self-loop, a repeated
    pair) it returns no graph, and `parse_edge_list_python` parses the
    text again to raise the error, so both give the same graph or the
    same exception.
    """
    parsed = None if _fastcore is None else _fastcore.parse(text)
    if parsed is None:
        return parse_edge_list_python(text)
    labels, eu, ev = parsed
    return DynamicGraph.from_arrays(len(labels), eu, ev, labels)


def parse_edge_list_python(text: str) -> DynamicGraph:
    """The pure-Python parser, and the reference for the native one."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two labels, got {len(tokens)}")
        pairs.append((tokens[0], tokens[1]))
    return build_graph(pairs)


def serialize_edge_list(g: DynamicGraph) -> str:
    labels = g.labels
    lines = [f"{labels[u]} {labels[v]}" for u, v in zip(g.eu, g.ev)]
    return "\n".join(lines) + ("\n" if lines else "")


def solution_line(g: DynamicGraph, matching: Iterable[int]) -> str:
    parts = []
    for e in matching:
        a, b = str(g.labels[g.eu[e]]), str(g.labels[g.ev[e]])
        if b < a:
            a, b = b, a
        parts.append(f"{a}-{b}")
    if not parts:
        return "{}"
    parts.sort()
    return " ".join(parts)


class LineSink:
    """Writes each solution's line, UTF-8 encoded and newline-terminated,
    through `write(bytes)`.

    The native kernel recognises this sink and renders the lines itself,
    calling `write` once per 64 KiB chunk; every other engine calls the
    sink once per solution, which renders through `solution_line`.
    """

    __slots__ = ("g", "write")

    def __init__(self, g: DynamicGraph, write: Callable[[bytes], object]):
        self.g = g
        self.write = write

    def __call__(self, solution) -> object:
        self.write((solution_line(self.g, solution) + "\n").encode())
        return True
