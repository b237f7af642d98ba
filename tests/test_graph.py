from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nicplanar.graph as graph_module
from bruteforce import brute_triconnected, graph_strategy
from nicplanar.errors import (
    DuplicateEdge,
    GraphError,
    LoopEdge,
    ParseError,
    TooSmall,
    VertexOutOfRange,
)
from nicplanar.graph import (
    Graph,
    is_biconnected,
    is_connected,
    is_triconnected,
    new_graph,
    parse_graph,
    serialize_graph,
)


def complete(n):
    return new_graph(n, list(combinations(range(n), 2)))


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


# --- construction ---


def test_new_graph_normalizes_and_sorts():
    g = new_graph(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.adjacency == ((2,), (2, 3), (0, 1), (1,))
    assert g.m == 3
    assert g.has_edge(3, 1) and not g.has_edge(0, 3)


def test_new_graph_rejects_loops():
    with pytest.raises(LoopEdge):
        new_graph(4, [(0, 0)])


def test_new_graph_rejects_duplicates():
    with pytest.raises(DuplicateEdge):
        new_graph(4, [(0, 1), (1, 0)])


def test_new_graph_rejects_out_of_range():
    with pytest.raises(VertexOutOfRange):
        new_graph(4, [(0, 4)])
    with pytest.raises(VertexOutOfRange):
        new_graph(4, [(-1, 2)])


def test_vertex_count_limit(monkeypatch):
    g6 = serialize_graph(new_graph(9, [(0, 1)]), "graph6")
    monkeypatch.setattr(graph_module, "MAX_VERTICES", 8)
    assert new_graph(8, []).n == 8
    with pytest.raises(GraphError, match="vertex count 9 exceeds the limit 8"):
        new_graph(9, [])
    with pytest.raises(ParseError, match="vertex count 9 exceeds the limit 8"):
        parse_graph(b"9\n0 1\n", "edge-list")
    with pytest.raises(GraphError, match="vertex count 9 exceeds the limit 8"):
        parse_graph(g6, "graph6")


# --- edge-list format ---


def test_edge_list_round_trip():
    g = new_graph(5, [(0, 1), (1, 2), (3, 4)])
    data = serialize_graph(g, "edge-list")
    assert data == b"5\n0 1\n1 2\n3 4\n"
    assert parse_graph(data, "edge-list") == g


def test_edge_list_single_vertex():
    g = new_graph(1, [])
    assert serialize_graph(g, "edge-list") == b"1\n"
    assert parse_graph(b"1\n", "edge-list") == g


def test_edge_list_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_graph(b"3\n0 1\n2 x\n", "edge-list")
    assert exc.value.offset == 6
    with pytest.raises(ParseError):
        parse_graph(b"", "edge-list")
    with pytest.raises(ParseError):
        parse_graph(b"3\n0 1 2\n", "edge-list")
    with pytest.raises(ParseError):
        parse_graph(b"3\n0 0\n", "edge-list")  # loop surfaces as ParseError


# --- graph6 format ---


def test_graph6_k5_frozen():
    assert serialize_graph(complete(5), "graph6") == b"D~{"
    assert parse_graph(b"D~{", "graph6") == complete(5)


def test_graph6_accepts_header_and_newline():
    assert parse_graph(b">>graph6<<D~{\n", "graph6") == complete(5)


def test_graph6_long_form_round_trip():
    g = new_graph(63, [(i, i + 1) for i in range(62)])
    data = serialize_graph(g, "graph6")
    assert data.startswith(b"~")
    assert parse_graph(data, "graph6") == g


def test_graph6_parse_errors():
    cases = [
        (b"", "empty", 0),
        (b">>graph6<<\n", "empty", 10),
        (b"~?", "truncated", 2),
        (b"D~", "expected 2 bit-vector bytes for n=5, found 1", 1),
        (b"D~{{", "expected 2 bit-vector bytes for n=5, found 3", 1),
        (b"\x07", "byte 0x7 outside", 0),
        (b"D\x07{", "byte 0x7 outside", 1),
        (b">>graph6<<D~\x80", "byte 0x80 outside", 12),
        (b"D~|", "nonzero padding", 2),
        (b">>graph6<<D~|\r\n", "nonzero padding", 12),
    ]
    for data, message, offset in cases:
        with pytest.raises(ParseError, match=message) as exc:
            parse_graph(data, "graph6")
        assert exc.value.offset == offset, data


def test_non_ascii_text_is_a_parse_error():
    for fmt in ("edge-list", "graph6"):
        with pytest.raises(ParseError) as exc:
            parse_graph("3\n0 1\n\u00e9", fmt)
        assert exc.value.offset == 6


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_graph(b"D~{", "gml")
    with pytest.raises(ValueError):
        serialize_graph(complete(3), "gml")


# --- fuzzing: every input parses or raises ParseError ---

_small_int = st.integers(-3, 40)
_edge_list_text = st.lists(
    st.lists(_small_int.map(str) | st.sampled_from(["x", "1.5", "-", "0x3"]),
             max_size=3).map(" ".join),
    max_size=8,
).map("\n".join)
_graph6_bytes = st.tuples(
    st.sampled_from([b"", b">>graph6<<", b"~", b"~~", b">>graph6<<~"]),
    st.lists(st.integers(60, 128), max_size=24).map(bytes),
    st.sampled_from([b"", b"\n", b"\r\n"]),
).map(b"".join)


def _parses_or_rejects(data, fmt):
    try:
        g = parse_graph(data, fmt)
    except ParseError:
        return
    assert isinstance(g, Graph)
    assert all(0 <= u < v < g.n for u, v in g.edges)
    assert len(g.adjacency) == g.n


@given(st.binary(max_size=48) | _edge_list_text.map(str.encode) |
       _edge_list_text | st.text(max_size=12))
def test_edge_list_fuzz_parses_or_raises_parse_error(data):
    _parses_or_rejects(data, "edge-list")


@given(st.binary(max_size=48) | _graph6_bytes | st.text(max_size=12))
def test_graph6_fuzz_parses_or_raises_parse_error(data):
    _parses_or_rejects(data, "graph6")


@given(graph_strategy(min_n=1, max_n=12))
def test_round_trip_both_formats(g):
    assert parse_graph(serialize_graph(g, "edge-list"), "edge-list") == g
    assert parse_graph(serialize_graph(g, "graph6"), "graph6") == g


@given(graph_strategy(min_n=1, max_n=12))
def test_graph6_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    expected = nx.to_graph6_bytes(h, header=False).strip()
    assert serialize_graph(g, "graph6") == expected


@given(graph_strategy(min_n=63, max_n=70))
def test_graph6_long_form_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    expected = nx.to_graph6_bytes(h, header=False).strip()
    assert serialize_graph(g, "graph6") == expected


# n = 62 and 63 straddle the long header; the other sizes give every
# value that the bit count n(n-1)/2 takes modulo 24, the writer's group.
G6_SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14, 15, 17, 20, 23, 62, 63]


@pytest.mark.parametrize("n", G6_SIZES)
@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
def test_graph6_round_trips_through_networkx(n, density):
    rng = random.Random(n * 10 + int(density * 10))
    edges = [e for e in combinations(range(n), 2) if rng.random() < density]
    g = new_graph(n, edges)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    data = serialize_graph(g, "graph6")
    assert data == nx.to_graph6_bytes(h, header=False).strip()
    back = nx.from_graph6_bytes(data)
    assert sorted(map(sorted, back.edges)) == sorted(map(list, g.edges))
    assert parse_graph(nx.to_graph6_bytes(h), "graph6") == g


# --- connectivity ---


def test_connected_small_cases():
    assert is_connected(new_graph(1, []))
    assert not is_connected(new_graph(2, []))
    assert is_connected(cycle(4))


def test_biconnected_known_cases():
    assert is_biconnected(new_graph(1, []))
    assert is_biconnected(new_graph(2, [(0, 1)]))
    assert not is_biconnected(new_graph(2, []))
    assert not is_biconnected(new_graph(3, [(0, 1), (1, 2)]))  # path has a cut vertex
    assert is_biconnected(cycle(5))
    # two triangles glued at vertex 0
    bowtie = new_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    assert not is_biconnected(bowtie)
    with pytest.raises(TooSmall):
        is_biconnected(new_graph(0, []))


@given(graph_strategy(min_n=2, max_n=10))
def test_biconnected_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    assert is_biconnected(g) == nx.is_biconnected(h)


def test_triconnected_known_cases():
    assert is_triconnected(complete(4))
    assert is_triconnected(complete(5))
    assert not is_triconnected(cycle(5))
    k5_minus = new_graph(5, [e for e in complete(5).edges if e != (0, 1)])
    assert is_triconnected(k5_minus)
    # wheel on 5 spokes
    wheel = new_graph(6, [(0, i) for i in range(1, 6)] +
                          [(i, i % 5 + 1) for i in range(1, 6)])
    assert is_triconnected(wheel)
    # K4 with one subdivided edge has a separating pair
    sub = new_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert not is_triconnected(sub)
    with pytest.raises(TooSmall):
        is_triconnected(complete(3))


@given(graph_strategy(min_n=4, max_n=9))
def test_triconnected_matches_connectivity_oracle(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    expected = nx.is_connected(h) and nx.node_connectivity(h) >= 3
    assert brute_triconnected(g) == expected
    assert is_triconnected(g) == expected
