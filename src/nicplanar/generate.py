"""Generators for the extremal NIC-planar families.

Every generator assembles an explicit edge list plus crossing list,
embeds it, and self-checks the result with ``verify_nic`` before
returning it, so a construction bug surfaces at the call site instead of
in a downstream verifier.  Vertex labelings are deterministic
functions of the parameters.

The densest family ("optimal", 18(n-2)/5 edges) is a drum: two poles and
k columns of three kites each, closed into a cycle.  Its faces are known
in advance, so the drum lists them and derives its rotation system from
them; the other families get theirs from the planarity test.  The sparsest
maximal family (16(n-2)/5 edges) is a necklace of kites whose slack is
absorbed by tetrahedron centers; its two smallest members do not fit
the necklace pattern and are shipped as fixed instances.  Intermediate
vertex counts (n = 5k+2+i for i in 1..4) come either from local
augmentations of the drum (i = 1, 3) or from a layered annulus
construction (i = 2, 4).  The nested carrier family realizes many
distinct maximal embeddings on one graph, one per choice of matching in
each ring of augmented triangles.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph as _graph
from .embedding import (
    NicEmbedding,
    certified,
    embed_with_crossings,
    rotations_from_triangles,
)
from .errors import InvalidParameters, KTooSmall
from .graph import Edge, Graph, new_graph


@dataclass(frozen=True)
class GeneratedInstance:
    kind: str
    params: dict
    embedding: NicEmbedding

    @property
    def graph(self) -> Graph:
        return self.embedding.base

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))


class _Builder:
    """Accumulates edges and crossings; kites enter as quad + diagonals."""

    def __init__(self):
        self.edges: set[Edge] = set()
        self.crossings: list[tuple[Edge, Edge]] = []

    def edge(self, u: int, v: int) -> None:
        assert u != v
        self.edges.add((u, v) if u < v else (v, u))

    def kite(self, a: int, b: int, c: int, d: int) -> None:
        """Kite on the quad cycle (a, b, c, d): four sides, crossed diagonals."""
        self.edge(a, b)
        self.edge(b, c)
        self.edge(c, d)
        self.edge(d, a)
        self.edge(a, c)
        self.edge(b, d)
        self.crossings.append((
            (a, c) if a < c else (c, a),
            (b, d) if b < d else (d, b),
        ))

    def build(self, n: int, kind: str, params: dict,
              faces=None) -> GeneratedInstance:
        """Embed via the planarity test, or from ``faces`` when given.

        ``faces`` lists every face of the planarization as an oriented
        triangle; dummy ``j`` (the ``j``-th kite) is vertex ``n + j``.
        """
        g = new_graph(n, sorted(self.edges))
        if faces is None:
            emb = embed_with_crossings(g, self.crossings)
        else:
            rotations = rotations_from_triangles(n + len(self.crossings), faces)
            emb = certified(NicEmbedding(g, self.crossings, rotations))
        return GeneratedInstance(kind, params, emb)


def _check_vertex_count(n: int, crossings: int) -> None:
    """Refuse a family member larger than ``new_graph`` accepts, before
    its face and edge lists are built.  Its planarization, n vertices
    plus one dummy per crossing, counts against the same limit."""
    limit = _graph.MAX_VERTICES
    if n > limit:
        raise InvalidParameters(
            f"the requested member has {n} vertices, above the limit {limit}")
    if n + crossings > limit:
        raise InvalidParameters(
            f"the requested member's planarization has {n + crossings} "
            f"vertices, above the limit {limit}")


def _kite_triangles(quad, dummy: int, forward: bool):
    """The four faces around a kite's dummy, along the quad or against it."""
    ring = quad if forward else quad[::-1]
    return [(ring[j], ring[(j + 1) % 4], dummy) for j in range(4)]


# --- densest family ---


def gen_optimal(k: int) -> GeneratedInstance:
    """Drum with n = 5k+2 vertices and exactly 18k = 18(n-2)/5 edges.

    Two poles and k columns; column i carries vertices p, q, r, s and a
    hinge h, plus three kites: top (pole N, previous q, hinge, p),
    middle (p, q, s, r) and bottom (pole S, previous s, hinge, r).

    All 16k faces are triangles and known up front: four planar ones per
    column, (N, p_i, q_i), (S, s_i, r_i), (p_i, h_i, r_i) and
    (q_i, s_i, h_{i+1}), and four around each kite's crossing, walked
    along the top kite's quad and against the middle and bottom quads.
    The rotation system is read off these faces instead of being found
    by the planarity test; the result is still self-checked.
    """
    if k < 2:
        raise KTooSmall("the densest family starts at k = 2 (n = 12)")
    _check_vertex_count(5 * k + 2, 3 * k)
    N, S = 0, 1
    p = lambda i: 2 + 5 * (i % k)
    q = lambda i: 3 + 5 * (i % k)
    r = lambda i: 4 + 5 * (i % k)
    s = lambda i: 5 + 5 * (i % k)
    h = lambda i: 6 + 5 * (i % k)
    n = 5 * k + 2
    b = _Builder()
    faces = []
    for i in range(k):
        kites = (((N, q(i - 1), h(i), p(i)), True),
                 ((p(i), q(i), s(i), r(i)), False),
                 ((S, s(i - 1), h(i), r(i)), False))
        for quad, forward in kites:
            faces += _kite_triangles(quad, n + len(b.crossings), forward)
            b.kite(*quad)
        faces += [(N, p(i), q(i)), (S, s(i), r(i)),
                  (p(i), h(i), r(i)), (q(i), s(i), h(i + 1))]
    return b.build(n, "optimal", {"k": k, "n": n, "m": 18 * k}, faces=faces)


# --- sparsest maximal family ---


def _sparsest_unit() -> GeneratedInstance:
    # n = 7: one kite, one apex seeing all four corners, two tetra centers
    a, b_, c, d, e, f, g = range(7)
    b = _Builder()
    b.kite(a, b_, c, d)
    for v in (a, b_, c, d):
        b.edge(e, v)
    for v in (b_, c, e):
        b.edge(f, v)
    for v in (d, a, e):
        b.edge(g, v)
    return b.build(7, "sparsest", {"k": 1, "n": 7, "m": 16})


def _sparsest_pair() -> GeneratedInstance:
    # n = 12: two kites tied together by four spoke triangles, four tetra
    # centers absorbing the slack
    A, B, C, D, P, Q, R, S = range(8)
    w1, w2, x1, x2 = 8, 9, 10, 11
    b = _Builder()
    b.kite(A, B, C, D)
    b.kite(P, Q, R, S)
    for u, v in ((C, R), (D, R), (D, S), (A, S), (Q, B), (R, B), (P, A), (Q, A)):
        b.edge(u, v)
    for center, corners in ((w1, (A, B, Q)), (w2, (B, C, R)),
                            (x1, (R, S, D)), (x2, (S, P, A))):
        for v in corners:
            b.edge(center, v)
    return b.build(12, "sparsest", {"k": 2, "n": 12, "m": 32})


def gen_sparsest(k: int) -> GeneratedInstance:
    """Sparsest maximal family: n = 5k+2 vertices, 16k = 16(n-2)/5 edges.

    For k >= 3 this is a necklace: kite i hangs between consecutive cycle
    vertices c_{i-1}, c_i, with tetra centers above and below keeping all
    faces triangular.  k = 1 and k = 2 need ad-hoc instances because the
    necklace would close on itself too tightly.
    """
    if k < 1:
        raise KTooSmall("the sparsest family starts at k = 1 (n = 7)")
    _check_vertex_count(5 * k + 2, k)
    if k == 1:
        return _sparsest_unit()
    if k == 2:
        return _sparsest_pair()
    N, S = 0, 1
    t = lambda i: 2 + 5 * (i % k)
    u = lambda i: 3 + 5 * (i % k)
    c = lambda i: 4 + 5 * (i % k)
    e = lambda i: 5 + 5 * (i % k)
    f = lambda i: 6 + 5 * (i % k)
    b = _Builder()
    for i in range(k):
        b.kite(t(i), c(i - 1), u(i), c(i))
        b.edge(N, t(i))
        b.edge(N, c(i))
        b.edge(S, u(i))
        b.edge(S, c(i))
        for v in (N, c(i - 1), t(i)):
            b.edge(e(i), v)
        for v in (S, c(i - 1), u(i)):
            b.edge(f(i), v)
    return b.build(5 * k + 2, "sparsest", {"k": k, "n": 5 * k + 2, "m": 16 * k})


# --- intermediate densest graphs ---


def _insert_tetra(b: _Builder, center: int, corners: tuple[int, int, int]) -> None:
    for v in corners:
        b.edge(center, v)


def _insert_kite_into_face(b: _Builder, x: int, y: int, z: int, base: int) -> None:
    """Fill the triangular face (x, y, z) with a kite and three vertices.

    The kite sits on the quad (x, a, b, c); the remaining strip up to the
    face boundary is triangulated by fanning y into a, b, c and tying c
    to z.  Adds 3 vertices (ids base, base+1, base+2) and 10 edges.
    """
    a, bb, cc = base, base + 1, base + 2
    b.kite(x, a, bb, cc)
    b.edge(y, a)
    b.edge(y, bb)
    b.edge(y, cc)
    b.edge(z, cc)


def _red_annulus(b: _Builder, ring: list[int], base: int) -> tuple[list[int], int]:
    """Grow an annulus of eight kites outward from an existing 4-cycle.

    ``ring`` is the inner 4-cycle (its edges must already exist).  Adds a
    rim of eight vertices and an outer 4-cycle: 12 vertices, 44 edges,
    8 crossings.  Returns the outer cycle and the next free id.
    """
    z = ring
    m = [base + j for j in range(8)]
    c = [base + 8 + j for j in range(4)]
    for j in range(4):
        b.kite(z[j], m[2 * j], m[2 * j + 1], z[(j + 1) % 4])
        b.kite(c[j], m[(2 * j + 1) % 8], m[(2 * j + 2) % 8], c[(j + 1) % 4])
    return c, base + 12


def _blue_band(b: _Builder, ring: list[int], base: int) -> tuple[list[int], int]:
    """Grow a band of four kites outward from an existing 4-cycle.

    Adds a waist of four vertices and an outer 4-cycle: 8 vertices,
    28 edges, 4 crossings.  Returns the outer cycle and the next free id.
    """
    c = ring
    w = [base + j for j in range(4)]
    e = [base + 4 + j for j in range(4)]
    for j in range(4):
        b.edge(c[j], w[j])
        b.edge(w[j], c[(j + 1) % 4])
    for j in range(4):
        b.kite(w[j], e[j], w[(j + 1) % 4], c[(j + 1) % 4])
    for j in range(4):
        b.edge(e[j], e[(j + 1) % 4])
    return e, base + 8


def _black_core(b: _Builder) -> list[int]:
    ring = [0, 1, 2, 3]
    for j in range(4):
        b.edge(ring[j], ring[(j + 1) % 4])
    b.edge(0, 2)
    return ring


def gen_densest_intermediate(k: int, i: int) -> GeneratedInstance:
    """Densest graphs off the 5k+2 grid: n = 5k+2+i, m = floor(18(n-2)/5).

    i = 1 inserts a tetra center into a face of the drum, i = 3 a kite
    with its filler strip.  i = 2 and i = 4 are layered: a chorded square
    core, then alternating annuli of eight and four kites, closed by a
    chord (i = 4) or one final crossing over the outer cycle (i = 2).
    The layer counts force k = 2 mod 4 for i = 4 and k = 0 mod 4 for
    i = 2; the other residues are covered by i = 1 and i = 3 at every
    k >= 2.
    """
    if i not in (1, 2, 3, 4):
        raise InvalidParameters(f"i must be 1..4, got {i}")
    # crossings: the drum's 3k, plus one for i = 2 and 3, two for i = 4
    _check_vertex_count(5 * k + 2 + i, 3 * k + (0, 0, 1, 1, 2)[i])
    if i in (1, 3):
        if k < 2:
            raise KTooSmall("intermediate densest graphs need k >= 2")
        inst = gen_optimal(k)
        b = _Builder()
        b.edges = set(inst.graph.edges)
        b.crossings = list(inst.embedding.registry.pairs())
        N, p0, q0 = 0, 2, 3
        if i == 1:
            _insert_tetra(b, 5 * k + 2, (N, p0, q0))
            n, m = 5 * k + 3, 18 * k + 3
        else:
            _insert_kite_into_face(b, N, p0, q0, 5 * k + 2)
            n, m = 5 * k + 5, 18 * k + 10
        return b.build(n, "densest-intermediate",
                       {"k": k, "i": i, "n": n, "m": m})
    if i == 2:
        if k < 4 or k % 4 != 0:
            raise InvalidParameters(
                "the layered construction for i = 2 needs k = 0 mod 4, k >= 4")
        rounds = (k - 4) // 4 + 1
        b = _Builder()
        ring = _black_core(b)
        nxt = 4
        for _ in range(rounds):
            ring, nxt = _red_annulus(b, ring, nxt)
            ring, nxt = _blue_band(b, ring, nxt)
        b.kite(ring[0], ring[1], ring[2], ring[3])
        n, m = nxt, 18 * k + 7
        return b.build(n, "densest-intermediate",
                       {"k": k, "i": i, "n": n, "m": m})
    # i == 4
    if k < 2 or k % 4 != 2:
        raise InvalidParameters(
            "the layered construction for i = 4 needs k = 2 mod 4, k >= 2")
    rounds = (k - 2) // 4
    b = _Builder()
    ring = _black_core(b)
    nxt = 4
    ring, nxt = _red_annulus(b, ring, nxt)
    for _ in range(rounds):
        ring, nxt = _blue_band(b, ring, nxt)
        ring, nxt = _red_annulus(b, ring, nxt)
    b.edge(ring[0], ring[2])
    n, m = nxt, 18 * k + 14
    return b.build(n, "densest-intermediate",
                   {"k": k, "i": i, "n": n, "m": m})


# --- nested carrier family: one graph, many maximal embeddings ---


def _band_triangles(i: int) -> list[tuple[tuple[int, int, int], dict]]:
    """The six triangles of the band between layers i-1 and i.

    Each entry is (triangle, edges) where edges maps 'straight' and
    'diagonal' to the two candidate carrier edges of that triangle.
    """
    u0, v0, w0 = 3 * (i - 1), 3 * (i - 1) + 1, 3 * (i - 1) + 2
    u1, v1, w1 = 3 * i, 3 * i + 1, 3 * i + 2
    return [
        ((u1, u0, v1), {"straight": (u0, u1), "diagonal": (u0, v1)}),
        ((v1, u0, v0), {"straight": (v0, v1), "diagonal": (u0, v1)}),
        ((v1, v0, w1), {"straight": (v0, v1), "diagonal": (v0, w1)}),
        ((w1, v0, w0), {"straight": (w0, w1), "diagonal": (v0, w1)}),
        ((w1, w0, u1), {"straight": (w0, w1), "diagonal": (w0, u1)}),
        ((u1, w0, u0), {"straight": (u0, u1), "diagonal": (w0, u1)}),
    ]


# the two perfect matchings of the triangle/edge incidence cycle: which
# of its two carrier candidates each of the six band triangles uses
_MATCHING_A = ("straight", "diagonal", "straight", "diagonal", "straight", "diagonal")
_MATCHING_B = ("diagonal", "straight", "diagonal", "straight", "diagonal", "straight")


def nested_k5_variant_count(k: int) -> int:
    if k < 2:
        raise KTooSmall("the nested carrier family starts at k = 2")
    return 2 ** (k - 1)


def gen_nested_k5(k: int, variant: int = 0) -> GeneratedInstance:
    """Nested triangles with every band triangle carrying a crossing.

    The underlying graph is the k-level triangulated cylinder in which
    each of the 6(k-1) band triangles is augmented by two vertices tied
    to all three corners: n = 15k-12, m = 51k-48.  Within one triangle
    the pair can ride on either non-layer edge, but the six choices in a
    band must form a matching; that leaves exactly two configurations
    per band and 2^(k-1) embeddings in total, pairwise distinct in
    their crossing registries while sharing the one underlying graph.
    """
    if k < 2:
        raise KTooSmall("the nested carrier family starts at k = 2")
    _check_vertex_count(15 * k - 12, 6 * (k - 1))
    total = 2 ** (k - 1)
    if not 0 <= variant < total:
        raise InvalidParameters(f"variant must lie in [0, {total}), got {variant}")
    b = _Builder()
    for i in range(k):
        u, v, w = 3 * i, 3 * i + 1, 3 * i + 2
        b.edge(u, v)
        b.edge(v, w)
        b.edge(w, u)
    for i in range(1, k):
        for (x, y, z), edges in _band_triangles(i):
            b.edge(*edges["straight"])
            b.edge(*edges["diagonal"])
    nxt = 3 * k
    for i in range(1, k):
        matching = _MATCHING_B if (variant >> (i - 1)) & 1 else _MATCHING_A
        for (tri, edges), choice in zip(_band_triangles(i), matching):
            carrier = edges[choice]
            x, z = min(carrier), max(carrier)
            (y,) = set(tri) - set(carrier)
            a, bb = nxt, nxt + 1
            nxt += 2
            b.kite(x, z, a, bb)
            b.edge(y, a)
            b.edge(y, bb)
    n, m = 15 * k - 12, 51 * k - 48
    return b.build(n, "nested-k5",
                   {"k": k, "variant": variant, "n": n, "m": m})


# --- subdivision-armored witness for drawing-style lower bounds ---


def gen_rac_counterexample() -> GeneratedInstance:
    """The k = 2 drum with every uncrossed edge reinforced by seven fans.

    Each of the 24 planar edges (u, v) gains seven fresh degree-2
    vertices adjacent to both u and v: n = 180, m = 372.  The graph stays
    NIC-planar and biconnected even after all crossing pairs are removed,
    while the kites themselves cannot be rerouted.
    """
    _check_vertex_count(180, 6)
    inst = gen_optimal(2)
    g = inst.graph
    crossings = list(inst.embedding.registry.pairs())
    crossed = {e for pair in crossings for e in pair}
    b = _Builder()
    b.edges = set(g.edges)
    b.crossings = crossings
    nxt = g.n
    for e in g.edges:
        if e in crossed:
            continue
        u, v = e
        for _ in range(7):
            b.edge(u, nxt)
            b.edge(v, nxt)
            nxt += 1
    return b.build(nxt, "rac-counterexample", {"n": nxt, "m": 372})


# --- hardness gadget ---


def np_gadget_transform(g: Graph) -> tuple[Graph, dict[Edge, Edge]]:
    """Replace every edge by the crossing-funnel gadget.

    Edge (u, v) becomes a three-edge path u - a_uv - a_vu - v whose
    middle edge is the only one a crossing may use, locked in place by
    two armor triangles at each end.  Six new vertices and eleven edges
    per original edge.  Returns the transformed graph and the map from
    each original edge to its designated crossable middle edge.
    """
    edges: list[Edge] = []
    designated: dict[Edge, Edge] = {}
    nxt = g.n
    for u, v in g.edges:
        a_uv, a_vu, p_uv, q_uv, p_vu, q_vu = range(nxt, nxt + 6)
        nxt += 6
        edges.append((u, a_uv))
        edges.append((a_uv, a_vu))
        edges.append((a_vu, v))
        for arm in (p_uv, q_uv):
            edges.append((u, arm) if u < arm else (arm, u))
            edges.append((arm, a_uv) if arm < a_uv else (a_uv, arm))
        for arm in (p_vu, q_vu):
            edges.append((v, arm) if v < arm else (arm, v))
            edges.append((arm, a_vu) if arm < a_vu else (a_vu, arm))
        designated[(u, v)] = (a_uv, a_vu)
    out = new_graph(nxt, sorted((min(e), max(e)) for e in edges))
    return out, designated


def np_gadget_embedding(g: Graph, crossings) -> NicEmbedding:
    """Transfer a 1-planar crossing set of ``g`` onto its gadget transform.

    ``crossings`` lists edge pairs of ``g`` that cross in some drawing
    with at most one crossing per edge (pairs may share endpoints there).
    In the transform each crossing moves onto the two designated middle
    edges, whose endpoints are fresh, so the result is NIC however
    entangled the input drawing was.
    """
    transformed, designated = np_gadget_transform(g)
    moved = []
    for e1, e2 in crossings:
        k1 = (min(e1), max(e1))
        k2 = (min(e2), max(e2))
        moved.append((designated[k1], designated[k2]))
    return embed_with_crossings(transformed, moved)
