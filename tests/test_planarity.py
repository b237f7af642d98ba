from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_planar, graph_strategy
from nicplanar.faces import face_walk
from nicplanar.graph import is_connected, new_graph
# aliased: a module-level name starting with "test_" would be collected
from nicplanar.planarity import test_planarity as planarity_check


def complete(n):
    return new_graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a, b):
    return new_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_known_planar_graphs():
    for g in (complete(4), complete_bipartite(2, 3),
              new_graph(6, [(i, (i + 1) % 6) for i in range(6)])):
        result = planarity_check(g)
        assert result.planar
        assert result.rotations is not None
        assert sorted(result.rotations) == list(range(g.n))


def test_known_nonplanar_graphs():
    for g in (complete(5), complete_bipartite(3, 3), complete(6)):
        result = planarity_check(g)
        assert not result.planar
        assert result.rotations is None


def test_rotation_system_face_counts():
    g = complete(4)
    result = planarity_check(g)
    faces = face_walk([result.rotations[v] for v in range(g.n)])
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)


def test_brute_oracle_on_known_cases():
    assert brute_planar(complete(4))
    assert not brute_planar(complete(5))
    assert not brute_planar(complete_bipartite(3, 3))
    # K3,3 with every edge subdivided once is still non-planar
    edges = []
    nxt = 6
    for i in range(3):
        for j in range(3):
            edges.append((i, nxt))
            edges.append((3 + j, nxt))
            nxt += 1
    assert not brute_planar(new_graph(nxt, edges))
    assert brute_planar(new_graph(8, [(i, (i + 1) % 8) for i in range(8)]))


@settings(max_examples=80)
@given(graph_strategy(min_n=1, max_n=8))
def test_agrees_with_brute_force(g):
    assert planarity_check(g).planar == brute_planar(g)


@settings(max_examples=40)
@given(graph_strategy(min_n=2, max_n=8), st.data())
def test_planarity_monotone_under_edge_removal(g, data):
    result = planarity_check(g)
    if not result.planar or g.m == 0:
        return
    e = data.draw(st.sampled_from(list(g.edges)))
    smaller = new_graph(g.n, [f for f in g.edges if f != e])
    assert planarity_check(smaller).planar


@settings(max_examples=40)
@given(graph_strategy(min_n=2, max_n=9))
def test_euler_formula_on_connected_planar(g):
    if not is_connected(g):
        return
    result = planarity_check(g)
    if not result.planar:
        return
    faces = face_walk([result.rotations[v] for v in range(g.n)])
    assert g.n - g.m + len(faces) == 2
