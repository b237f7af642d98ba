from __future__ import annotations

import json
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nicplanar.graph as graph_module
from bruteforce import brute_face_walk, graph_strategy
from nicplanar.embedding import (
    NicEmbedding,
    embed_with_crossings,
    embedding_from_json,
    embedding_to_doc,
    embedding_to_json,
    normalize_crossing,
    trace_faces,
    verify_nic,
)
from nicplanar.errors import GraphError, NonSphericalEmbedding, ParseError
from nicplanar.faces import face_walk
from nicplanar.graph import new_graph
# aliased: a module-level name starting with "test_" would be collected
from nicplanar.planarity import test_planarity as planarity_check


def complete(n):
    return new_graph(n, list(combinations(range(n), 2)))


def kite_k4():
    return embed_with_crossings(complete(4), [((0, 2), (1, 3))])


# --- faces ---


def test_kite_k4_frozen_face_structure():
    emb = kite_k4()
    assert emb.planarization.n == 5
    assert emb.planarization.m == 8
    faces = trace_faces(emb)
    assert sorted(len(f) for f in faces) == [3, 3, 3, 3, 4]
    triangles = [f for f in faces if len(f) == 3]
    assert all(4 in f for f in triangles)
    quad = next(f for f in faces if len(f) == 4)
    assert set(quad) == {0, 1, 2, 3}


def test_nonspherical_rotation_rejected():
    g = complete(4)
    rotations = tuple(g.adjacency)  # all-ascending order embeds K4 on the torus
    emb = NicEmbedding(g, [], rotations)
    # faces are memoized per embedding; a failed walk must fail again
    for _ in range(2):
        with pytest.raises(NonSphericalEmbedding):
            trace_faces(emb)
    for _ in range(2):
        assert "spherical" in {v.rule for v in verify_nic(emb).violations}


def test_rotation_permutation_mismatch_rejected():
    g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    emb = NicEmbedding(g, [], ((1, 2), (0, 0), (0, 1)))
    with pytest.raises(NonSphericalEmbedding):
        trace_faces(emb)


@st.composite
def plane_embeddings(draw):
    """Connected planar graphs (trees and cut vertices included) embedded
    by the planarity test."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=2, unique=True)))
        g = new_graph(n, sorted(edges | {(u, v)}))
        if planarity_check(g) is not None:
            edges.add((u, v))
    g = new_graph(n, sorted(edges))
    # a rotation is cyclic: start each one anywhere
    rotations = []
    for rot in planarity_check(g):
        i = draw(st.integers(0, len(rot) - 1))
        rotations.append(rot[i:] + rot[:i])
    return NicEmbedding(g, [], tuple(rotations))


def reference_faces(rotations):
    """Orbits of the directed edges, each rotated to start at its smallest
    directed edge, sorted by that edge, as corner tuples."""
    def succ(u, x):
        order = rotations[x]
        return x, order[(order.index(u) + 1) % len(order)]

    darts = sorted((v, w) for v in range(len(rotations)) for w in rotations[v])
    seen, orbits = set(), []
    for dart in darts:
        if dart in seen:
            continue
        orbit = [dart]
        while succ(*orbit[-1]) != dart:
            orbit.append(succ(*orbit[-1]))
        seen.update(orbit)
        i = orbit.index(min(orbit))
        orbits.append(orbit[i:] + orbit[:i])
    return [tuple(u for u, _ in orbit) for orbit in sorted(orbits)]


def smallest_rotation(seq):
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


@settings(max_examples=150, deadline=None)
@given(plane_embeddings())
def test_faces_match_reference_and_networkx(emb):
    faces = list(trace_faces(emb))
    assert faces == reference_faces(emb.rotations)
    # networkx walks the other way round a clockwise rotation
    nx_emb = nx.PlanarEmbedding()
    nx_emb.set_data({v: list(reversed(rot))
                     for v, rot in enumerate(emb.rotations)})
    seen, nx_faces = set(), []
    for v, w in sorted(nx_emb.edges()):
        if (v, w) not in seen:
            face = nx_emb.traverse_face(v, w, mark_half_edges=seen)
            nx_faces.append(smallest_rotation(face))
    assert sorted(map(smallest_rotation, faces)) == sorted(nx_faces)


# --- verify_nic ---


def test_valid_kite_passes():
    report = verify_nic(kite_k4())
    assert report.ok
    assert "crossing-pairs-share-le-one" in report.checked


def planarity_embedded(base, crossings):
    """``base`` with ``crossings``, its rotations taken unchecked from a
    planarity test of the planarization."""
    rotations = planarity_check(NicEmbedding(base, crossings, ()).planarization)
    assert rotations is not None
    return NicEmbedding(base, crossings, rotations)


def test_edge_crossed_twice_detected():
    # 0-2 registered in two crossings; planarization still planar
    base = new_graph(6, [(0, 1), (0, 2), (1, 3), (0, 4), (2, 5), (1, 2), (4, 5)])
    report = verify_nic(planarity_embedded(
        base, [((0, 2), (1, 3)), ((0, 2), (4, 5))]))
    rules = {v.rule for v in report.violations}
    assert "edge-crossed-once" in rules


def test_adjacent_edges_cannot_cross():
    base = new_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    report = verify_nic(planarity_embedded(base, [((0, 1), (0, 2))]))
    rules = {v.rule for v in report.violations}
    assert "crossing-pair-disjoint" in rules


def test_sharing_two_vertices_detected():
    # two K4s glued along the edge 2-3, both drawn as kites
    edges = list(combinations(range(4), 2)) + [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    base = new_graph(6, edges)
    report = verify_nic(planarity_embedded(
        base, [((0, 2), (1, 3)), ((2, 4), (3, 5))]))
    rules = {v.rule for v in report.violations}
    assert "crossing-pairs-share-le-one" in rules


def test_unregistered_edge_detected():
    base = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    report = verify_nic(planarity_embedded(base, [((0, 2), (1, 3))]))
    rules = {v.rule for v in report.violations}
    assert "registry-edges-in-base" in rules


def test_broken_alternation_detected():
    emb = kite_k4()
    rotations = list(emb.rotations)
    a, b, c, d = rotations[4]
    rotations[4] = (a, c, b, d)
    pairs = [e.pair for e in emb.registry]
    twisted = NicEmbedding(emb.base, pairs, tuple(rotations))
    for _ in range(2):
        report = verify_nic(twisted)
        rules = {v.rule for v in report.violations}
        assert {"dummy-alternation", "spherical"} <= rules
        with pytest.raises(NonSphericalEmbedding):
            trace_faces(twisted)


MISCOUNTED = pytest.mark.parametrize("rotations", [
    (),  # none at all: the dummy's rotation does not exist
    kite_k4().rotations[:4],  # the dummy's rotation is missing
    kite_k4().rotations + ((),),  # one more than the planarization has
], ids=["none", "missing", "extra"])


@MISCOUNTED
def test_rotation_count_mismatch_is_reported_not_raised(rotations):
    report = verify_nic(NicEmbedding(complete(4), [((0, 2), (1, 3))], rotations))
    assert [v.rule for v in report.violations] == ["spherical"]
    assert "size differs" in report.violations[0].message


@MISCOUNTED
def test_rotation_count_mismatch_is_no_document(rotations):
    emb = NicEmbedding(complete(4), [((0, 2), (1, 3))], rotations)
    for write in (embedding_to_doc, embedding_to_json):
        with pytest.raises(NonSphericalEmbedding, match="size differs"):
            write(emb)


def test_overlong_dummy_rotation_is_reported_not_raised():
    emb = kite_k4()
    rotations = emb.rotations[:4] + (emb.rotations[4] + (0,),)
    pairs = [e.pair for e in emb.registry]
    report = verify_nic(NicEmbedding(emb.base, pairs, rotations))
    assert [v.rule for v in report.violations] == ["spherical"]


@st.composite
def rotation_systems(draw):
    """Any rotation system of a random graph: lone vertices, cut vertices
    and disconnected pieces included, planar or not."""
    g = draw(graph_strategy(min_n=1, max_n=9))
    return [draw(st.permutations(row)) for row in g.adjacency]


@settings(max_examples=300, deadline=None)
@given(rotation_systems())
# two triangles sharing the cut vertex 0, met first along (0, 3)
@example([[3, 4, 1, 2], [2, 0], [0, 1], [4, 0], [0, 3]])
# a path through the cut vertex 1, a lone vertex 3, an isolated edge
@example([[1], [0, 2], [1], [], [5], [4]])
def test_face_walk_matches_the_edge_keyed_walk(rotations):
    assert face_walk(rotations) == brute_face_walk(rotations)


def test_embed_with_crossings_rejects_bad_input():
    base = new_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        embed_with_crossings(base, [((0, 1), (0, 2))])


# --- the planarization derived from the pairs ---


@st.composite
def graphs_with_crossing_lists(draw):
    """Random graphs with crossing lists drawn over all vertex pairs, so
    pairs may share endpoints, repeat edges or use non-edges."""
    n = draw(st.integers(2, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    ends = st.tuples(st.sampled_from(pairs), st.booleans()).map(
        lambda t: t[0][::-1] if t[1] else t[0])
    crossings = draw(st.lists(st.tuples(ends, ends), max_size=4))
    return new_graph(n, edges), crossings


@settings(max_examples=150, deadline=None)
@given(graphs_with_crossing_lists())
def test_planarization_is_derived_from_the_pairs(case):
    base, crossings = case
    # a one-shot iterator is read once
    emb = NicEmbedding(base, iter(crossings), ())
    assert [entry.dummy for entry in emb.registry] == [
        base.n + i for i in range(len(crossings))]
    assert emb.planarization.n == base.n + len(crossings)
    crossed = {tuple(sorted(e)) for pair in crossings for e in pair}
    expected = {e for e in base.edges if e not in crossed}
    for i, (e1, e2) in enumerate(crossings):
        expected.update((u, base.n + i) for u in set(e1 + e2))
    assert emb.planarization.edge_set == expected
    rotations = emb.planarization.adjacency
    assert verify_nic(NicEmbedding(base, crossings, rotations)).checked == (
        "registry-edges-in-base", "edge-crossed-once",
        "crossing-pair-disjoint", "crossing-pairs-share-le-one",
        "dummy-numbering", "planarization-edges", "dummy-alternation",
        "spherical")


def planarization_by_new_graph(base, crossings):
    """The planarization as ``new_graph`` builds and validates it."""
    crossed, star_edges = set(), set()
    for dummy, (e1, e2) in enumerate(crossings, start=base.n):
        a, b = normalize_crossing(e1, e2)
        crossed.update((a, b))
        star_edges.update((u, dummy) for u in set(a + b))
    kept = [e for e in base.edges if e not in crossed]
    return new_graph(base.n + len(crossings), kept + sorted(star_edges))


def _outcome(build):
    try:
        g = build()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return g.n, g.edges, g.adjacency, g.edge_set


@st.composite
def graphs_with_wild_crossing_lists(draw):
    """Random graphs with crossing lists whose edges are mostly base
    edges, and whose endpoints may also be dummy ids, negative or out of
    range, or ``bool``."""
    n = draw(st.integers(2, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    c = draw(st.integers(0, 4))
    vertex = st.one_of(
        st.integers(0, n - 1),
        st.integers(n, n + c),  # a dummy id, or just past the last one
        st.integers(-2, -1),
        st.booleans(),
    )
    edge = st.one_of(st.sampled_from(edges or pairs),
                     st.tuples(vertex, vertex))
    crossings = draw(st.lists(st.tuples(edge, edge), min_size=c, max_size=c))
    return new_graph(n, edges), crossings


@settings(max_examples=400, deadline=None)
@given(st.one_of(graphs_with_crossing_lists(),
                 graphs_with_wild_crossing_lists()))
@example((complete(4), [((0, 2), (1, 3))]))
@example((complete(4), [((0, 2), (1, 3)), ((0, 2), (1, 3))]))
@example((complete(4), [((0, 4), (1, 3))]))  # names its own dummy
@example((complete(4), [((0, 5), (1, 3)), ((0, 4), (1, 2))]))
@example((complete(4), [((0, 6), (1, 3))]))
@example((complete(4), [((-1, 2), (1, 3))]))
@example((complete(4), [((True, 2), (0, 3))]))
# a set of these four ids iterates as 0, 9, 8, 17: the dummy's row is sorted
@example((new_graph(18, [(0, 9), (8, 17)]), [((0, 9), (8, 17))]))
def test_planarization_matches_new_graph(case):
    base, crossings = case
    assert _outcome(lambda: NicEmbedding(base, crossings, ()).planarization) \
        == _outcome(lambda: planarization_by_new_graph(base, crossings))


def test_planarization_counts_dummies_against_the_vertex_limit(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_VERTICES", 5)
    crossings = [((0, 2), (1, 3)), ((0, 1), (2, 3))]
    with pytest.raises(GraphError,
                       match="vertex count 6 exceeds the limit 5") as exc:
        NicEmbedding(complete(4), crossings, ())
    assert _outcome(lambda: planarization_by_new_graph(
        complete(4), crossings)) == (type(exc.value), str(exc.value))


# --- JSON interchange ---


def test_json_round_trip_is_stable():
    emb = kite_k4()
    text = embedding_to_json(emb)
    back = embedding_from_json(text)
    assert back.base == emb.base
    assert back.registry == emb.registry
    assert embedding_to_json(back) == text
    assert verify_nic(back).ok


def test_json_parse_errors():
    with pytest.raises(ParseError):
        embedding_from_json("{")
    with pytest.raises(ParseError):
        embedding_from_json("[]")
    with pytest.raises(ParseError):
        embedding_from_json('{"n": 2, "edges": [[0, 1]], "crossings": []}')
    good = embedding_to_json(kite_k4())
    with pytest.raises(ParseError):
        embedding_from_json(good.replace('"x0"', '"x7"'))
    with pytest.raises(ParseError):
        embedding_from_json(good.replace('"rotations"', '"rot"'))
    with pytest.raises(ParseError, match="'crossings' must be an array"):
        embedding_from_json(good.replace('"crossings": [{"pair": [[0, 2], [1, 3]]}]',
                                         '"crossings": 5'))
    with pytest.raises(ParseError, match="invalid JSON"):
        embedding_from_json(b'{"n": "\xff"}')
    with pytest.raises(ParseError, match="invalid JSON"):
        embedding_from_json("[" * 100000)


def test_json_oversized_vertex_count_is_a_parse_error(monkeypatch):
    text = embedding_to_json(kite_k4())
    monkeypatch.setattr(graph_module, "MAX_VERTICES", 3)
    with pytest.raises(ParseError, match="vertex count 4 exceeds the limit 3"):
        embedding_from_json(text)


#: documents that parse when a JSON boolean passes for the integer 0 or 1
_BOOLEAN_IDS = [
    '{"n": true, "edges": [], "crossings": [], "rotations": {}}',
    '{"n": 3, "edges": [[0, true], [1, 2], [0, 2]], "crossings": [], '
    '"rotations": {"0": [1, 2], "1": [0, 2], "2": [0, 1]}}',
    embedding_to_json(kite_k4()).replace("[[0, 2], [1, 3]]",
                                         "[[0, 2], [true, 3]]"),
    embedding_to_json(kite_k4()).replace('"0": [1,', '"0": [true,'),
]


@pytest.mark.parametrize("text", _BOOLEAN_IDS,
                         ids=["n", "edge", "crossing", "rotation"])
def test_json_booleans_are_no_vertex_ids(text):
    assert "true" in text
    with pytest.raises(ParseError):
        embedding_from_json(text)


def test_json_missing_rotation_detected():
    doc = json.loads(embedding_to_json(kite_k4()))
    del doc["rotations"]["2"]
    with pytest.raises(ParseError):
        embedding_from_json(json.dumps(doc))


# --- fuzzing: every document parses or raises ParseError ---

_tokens = (st.none() | st.booleans() | st.integers(-2, 6) |
           st.floats(allow_nan=False, allow_infinity=False) |
           st.sampled_from(["0", "3", "x0", "x1", "x", "xy", "7", ""]))
_json_values = st.recursive(
    _tokens,
    lambda inner: (st.lists(inner, max_size=4) |
                   st.dictionaries(st.sampled_from(["0", "1", "x0", "pair", "a"]),
                                   inner, max_size=3)),
    max_leaves=12,
)
_KITE_DOC = json.loads(embedding_to_json(kite_k4()))


@st.composite
def _mutated_kite_doc(draw):
    doc = json.loads(json.dumps(_KITE_DOC))
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        doc[key] = draw(_json_values)
    else:
        inner = doc[key]
        if isinstance(inner, dict) and inner:
            inner[draw(st.sampled_from(sorted(inner)))] = draw(_json_values)
        elif isinstance(inner, list) and inner:
            inner[draw(st.integers(0, len(inner) - 1))] = draw(_json_values)
        else:
            doc[key] = draw(_json_values)
    return json.dumps(doc)


_structured_doc = st.fixed_dictionaries({
    "n": st.integers(-1, 6) | _tokens,
    "edges": st.lists(st.lists(st.integers(-1, 6) | _tokens, max_size=3),
                      max_size=6) | _json_values,
    "crossings": st.lists(st.fixed_dictionaries({"pair": _json_values}),
                          max_size=2) | _json_values,
    "rotations": st.dictionaries(st.sampled_from(["0", "1", "2", "x0", "9"]),
                                 st.lists(_tokens, max_size=4), max_size=4)
    | _json_values,
}).map(json.dumps)


@given(st.binary(max_size=32) | st.text(max_size=16) |
       _json_values.map(json.dumps) | _mutated_kite_doc() | _structured_doc)
@example(_BOOLEAN_IDS[0])
@example(_BOOLEAN_IDS[1])
def test_json_fuzz_parses_or_raises_parse_error(text):
    try:
        emb = embedding_from_json(text)
    except ParseError:
        return
    assert isinstance(emb, NicEmbedding)
    assert len(emb.rotations) == emb.planarization.n
    ids = [emb.base.n, *(v for e in emb.base.edges for v in e),
           *(v for entry in emb.registry for e in entry.pair for v in e),
           *(v for rot in emb.rotations for v in rot)]
    assert all(type(v) is int for v in ids)
