"""Bipyramids with stacked vertices and kites, for the dual's structure
check.

``kited_bipyramids`` draws embeddings built in three steps: a bipyramid
(poles 0 and 1 around an equator of length 4 to 10), up to eight
vertices stacked into random faces, and a random independent set of
degree-4 vertices whose two link diagonals are both absent, each
replaced by a crossing of those diagonals.  Two equator vertices share
the diagonal 0-1, so the pole edge may be listed in two crossing pairs.
``verify_nic`` rejects such an embedding but ``build_dual`` accepts it,
and these are the duals with 2-cuts and parallel links.  ``DOUBLE_J3``
and ``DOUBLE_J2`` are two of them as JSON documents.
"""

from __future__ import annotations

from hypothesis import strategies as st

from nicplanar.embedding import NicEmbedding, rotations_from_faces
from nicplanar.graph import new_graph

_EDGES = [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 2], [1, 3], [1, 4],
          [1, 5], [2, 3], [2, 5], [3, 4], [4, 5]]

#: the pole edge 0-1 crossed by the equator edges 2-5 and 3-4, which lie
#: three steps apart on the equator (2, x0, 5, 4, x1, 3); the dual has a
#: 2-cut and no parallel links
DOUBLE_J3 = {"n": 6, "edges": _EDGES,
             "crossings": [{"pair": [[0, 1], [2, 5]]},
                           {"pair": [[0, 1], [3, 4]]}],
             "rotations": {"0": [2, "x0", 5, 4, "x1", 3],
                           "1": [2, 3, "x1", 4, 5, "x0"],
                           "2": [0, 3, 1, "x0"], "3": [0, "x1", 1, 2],
                           "4": [0, 5, 1, "x1"], "5": [0, "x0", 1, 4],
                           "x0": [0, 2, 1, 5], "x1": [0, 4, 1, 3]}}

#: the same graph with the crossing edges 2-5 and 2-3 two steps apart on
#: the equator (2, x0, 5, 4, 3, x1): the two kites are joined by
#: parallel links around vertex 2, and the merged dual is 3-connected
DOUBLE_J2 = {"n": 6, "edges": _EDGES,
             "crossings": [{"pair": [[0, 1], [2, 5]]},
                           {"pair": [[0, 1], [2, 3]]}],
             "rotations": {"0": [2, "x0", 5, 4, 3, "x1"],
                           "1": [2, "x1", 3, 4, 5, "x0"],
                           "2": [0, "x1", 1, "x0"], "3": [0, 4, 1, "x1"],
                           "4": [0, 5, 1, 3], "5": [0, "x0", 1, 4],
                           "x0": [0, 2, 1, 5], "x1": [0, 3, 1, 2]}}


@st.composite
def kited_bipyramids(draw) -> NicEmbedding:
    size = draw(st.integers(4, 10))
    equator = list(range(2, size + 2))
    faces = []
    for a, b in zip(equator, equator[1:] + equator[:1]):
        faces += [(0, a, b), (1, b, a)]
    n = size + 2
    for _ in range(draw(st.integers(0, 8))):
        a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
        faces += [(a, b, n), (b, c, n), (c, a, n)]
        n += 1
    rotations = rotations_from_faces(n, faces)
    edges = {(min(u, v), max(u, v))
             for face in faces for u, v in zip(face, face[1:] + face[:1])}
    kites: list[int] = []
    for w, rot in enumerate(rotations):
        if len(rot) != 4 or any(v in kites for v in rot):
            continue
        a, b, c, d = rot
        if (min(a, c), max(a, c)) in edges or (min(b, d), max(b, d)) in edges:
            continue
        if draw(st.booleans()):
            kites.append(w)
    # base vertices keep their order; the kites become dummies base.n + i
    order = [v for v in range(n) if v not in kites] + kites
    label = {v: i for i, v in enumerate(order)}
    n_base = n - len(kites)
    base_edges = {(min(label[u], label[v]), max(label[u], label[v]))
                  for u, v in edges if u not in kites and v not in kites}
    pairs = []
    for w in kites:
        a, b, c, d = (label[v] for v in rotations[w])
        pair = ((min(a, c), max(a, c)), (min(b, d), max(b, d)))
        base_edges.update(pair)
        pairs.append(pair)
    return NicEmbedding(
        new_graph(n_base, base_edges), pairs,
        tuple(tuple(label[v] for v in rotations[w]) for w in order))
