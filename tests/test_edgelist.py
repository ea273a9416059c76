"""Edge-list parsing/serialization and canonical solution lines."""

import io

import pytest

from indmatch import (
    EnumConfig,
    LineSink,
    ListSink,
    build_graph,
    enumerate_solutions,
    native_available,
    parse_edge_list,
    serialize_edge_list,
    solution_line,
)
from indmatch.errors import DuplicateEdge, ParseError, SelfLoop


def test_parse_skips_blanks_and_comments():
    g = parse_edge_list("# a comment\n\na b\n  b c  \n")
    assert g.labels == ["a", "b", "c"]
    assert g.m == 2


def test_parse_rejects_wrong_token_count():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("a b c\n")
    assert "line 1" in str(exc.value)


def test_parse_rejects_duplicates():
    with pytest.raises(DuplicateEdge) as exc:
        parse_edge_list("a b\nb c\nb a\n")
    assert str(exc.value) == "edge ('b', 'a') repeats an earlier pair"


def test_parse_labels_are_strings():
    # "1" and "01" are two vertices, so "01 2" does not repeat "1 2"
    g = parse_edge_list("1 2\n01 2\n")
    assert g.labels == ["1", "2", "01"]
    assert (g.eu, g.ev) == ([0, 2], [1, 1])


def test_parse_rejects_self_loops():
    with pytest.raises(SelfLoop) as exc:
        parse_edge_list("a b\nb b\n")
    assert str(exc.value) == "edge ('b', 'b') is a self-loop"


def test_roundtrip():
    text = "1 2\n2 3\n3 4\n"
    assert serialize_edge_list(parse_edge_list(text)) == text


def test_serialize_empty():
    assert serialize_edge_list(parse_edge_list("")) == ""


def test_solution_line_formatting():
    g = parse_edge_list("2 1\n3 2\n3 4\n")
    assert solution_line(g, ()) == "{}"
    assert solution_line(g, (0,)) == "1-2"
    # within a pair labels sort lexicographically, edges sort by line
    assert solution_line(g, (2, 0)) == "1-2 3-4"


@pytest.mark.parametrize("backend", ["python"] + (["native"] if native_available() else []))
@pytest.mark.parametrize("cutoff", [None, 2])
def test_line_sink_writes_solution_lines(backend, cutoff):
    # labels of any type render through str(), as in solution_line
    g = build_graph([((1, 2), "b"), ("b", 10), (10, "1-0"), ("1-0", "\u00e9"), ("\u00e9", (1, 2))])
    config = EnumConfig(algorithm="general", backend=backend, solution_cutoff=cutoff)
    out = io.BytesIO()
    enumerate_solutions(g, LineSink(g, out.write), config)
    sink = ListSink()
    enumerate_solutions(g, sink, config)
    assert out.getvalue() == "".join(solution_line(g, s) + "\n" for s in sink.solutions).encode()
