"""Generalized dual of a maximal embedding, its rules and accounting.

Faces of a maximal embedding group into dual nodes: the four faces
around each crossing form a kite node, the three faces around each
degree-3 vertex whose neighbourhood is a triangle form a tetrahedron
node, and every remaining face stands alone as a triangle node.  Two
nodes are linked once for every planarization edge their face sets
share; edges interior to a group (crossing star edges, tetrahedron
center edges) stay inside their node.

On valid maximal embeddings the dual is simple, planar and
3-connected.  Planarity holds by construction: the links are the dual
edges of a planarization whose faces ``trace_faces`` has already found
spherical, and each node's face group is connected in that plane dual,
so the dual is one of its contractions.  ``check_dual_structure``
therefore checks only simplicity and 3-connectivity, reading the
latter off the dual's faces in linear time.

The adjacency obeys five local rules (no two kite nodes touch;
tetrahedron nodes touch only kite nodes and marked triangle nodes;
every tetrahedron node is marked; adjacent unmarked triangle nodes
share a tetrahedral edge; no triangle node has two unmarked triangle
neighbours).  ``check_adjacency_rules`` reports violations instead of
raising, so verifiers can collect them.

A kite flip re-routes a tetrahedral edge through an adjacent triangle
pair.  ``find_flips`` lists the pairs where one applies and
``kite_flip`` performs it; both judge a pair by ``_flip_site``.

The weight accounting assigns each non-kite node its planar-edge value
(3/2 for a triangle node, 9/2 for a tetrahedron node) and splits it
evenly over the kite-face attachments within distance two; each kite
contributes 2 for its own sides.  Summed per sphere this lies in
[4, 14], hitting 4 exactly on the densest family and 14 on the
sparsest, and globally it recovers the planar edge count m - 2c.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .embedding import (
    NicEmbedding,
    VerificationReport,
    Violation,
    certified,
    replace_faces,
    trace_faces,
)
from .errors import (
    AccountingViolation,
    LevelExceedsTwo,
    NotMaximalEmbedding,
    PreconditionViolated,
)
from .graph import Edge

KITE = "kite"
TETRAHEDRON = "tetrahedron"
TRIANGLE = "triangle"

#: planar-edge value of a node: a triangle face half-owns its three
#: sides; a tetrahedron owns its three center edges plus half of its
#: three rim edges; a kite half-owns its four quadrilateral sides.
TRIANGLE_WEIGHT = Fraction(3, 2)
TETRA_WEIGHT = Fraction(9, 2)
KITE_OWN = Fraction(2)

QUARTER_LOWER = Fraction(1, 2)
QUARTER_UPPER = Fraction(3)
SPHERE_LOWER = Fraction(4)
SPHERE_UPPER = Fraction(14)


@dataclass(frozen=True)
class DualNode:
    kind: str
    faces: tuple[int, ...]
    #: dummy vertex for kite nodes, center vertex for tetrahedron nodes,
    #: -1 for triangle nodes
    anchor: int


@dataclass(frozen=True)
class DualLink:
    a: int
    b: int
    via: Edge            # the planarization edge the two faces share
    face_a: int
    face_b: int


@dataclass(frozen=True)
class GeneralizedDual:
    nodes: tuple[DualNode, ...]
    links: tuple[DualLink, ...]
    face_node: tuple[int, ...]
    #: the embedding's faces as ``trace_faces`` returns them
    faces: tuple[tuple[int, ...], ...]
    embedding: NicEmbedding

    def __len__(self) -> int:
        return len(self.nodes)

    def census(self) -> dict[str, int]:
        out = {KITE: 0, TETRAHEDRON: 0, TRIANGLE: 0}
        for node in self.nodes:
            out[node.kind] += 1
        return out

    def neighbour_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for link in self.links:
            adj[link.a].append(link.b)
            adj[link.b].append(link.a)
        return adj

    def node_identity(self, idx: int) -> tuple[int, ...]:
        """Sorted vertex set of the node's primal face group."""
        verts: set[int] = set()
        for f in self.nodes[idx].faces:
            verts.update(self.faces[f])
        return tuple(sorted(verts))

    def marked_flags(self) -> tuple[bool, ...]:
        """A node is marked when it is adjacent to a kite node."""
        marked = [False] * len(self.nodes)
        for link in self.links:
            if self.nodes[link.a].kind == KITE:
                marked[link.b] = True
            if self.nodes[link.b].kind == KITE:
                marked[link.a] = True
        return tuple(marked)


def build_dual(emb: NicEmbedding) -> GeneralizedDual:
    """Group the faces of ``emb`` into dual nodes and link them.

    Raises :class:`NotMaximalEmbedding` when the faces cannot be grouped
    the way a maximal embedding requires: a non-triangular face, a face
    claimed by two crossings or two centers, or a dual loop.
    """
    faces = trace_faces(emb)
    g = emb.planarization
    n_base = emb.base.n

    incident: list[list[int]] = [[] for _ in range(g.n)]
    for idx, face in enumerate(faces):
        if len(face) != 3:
            raise NotMaximalEmbedding(
                f"face {face} has {len(face)} corners, expected 3")
        for v in face:
            incident[v].append(idx)

    face_node = [-1] * len(faces)
    nodes: list[DualNode] = []

    for entry in emb.registry:
        z = entry.dummy
        around = incident[z]
        if len(around) != 4 or len(set(around)) != 4:
            raise NotMaximalEmbedding(
                f"crossing {emb.vertex_name(z)} is not surrounded by four "
                "distinct triangles")
        for f in around:
            if face_node[f] != -1:
                raise NotMaximalEmbedding(
                    f"face {faces[f]} lies on two crossings")
            face_node[f] = len(nodes)
        nodes.append(DualNode(KITE, tuple(around), z))

    for v in range(n_base):
        if g.degree(v) != 3:
            continue
        if any(w >= n_base for w in g.adjacency[v]):
            continue  # a crossing corner, not a tetrahedron center
        around = incident[v]
        if len(around) != 3 or len(set(around)) != 3:
            raise NotMaximalEmbedding(
                f"degree-3 vertex {v} is not surrounded by three distinct faces")
        for f in around:
            if face_node[f] != -1:
                owner = nodes[face_node[f]]
                raise NotMaximalEmbedding(
                    f"face {faces[f]} claimed by both vertex {v} "
                    f"and a {owner.kind} node")
        for f in around:
            face_node[f] = len(nodes)
        nodes.append(DualNode(TETRAHEDRON, tuple(around), v))

    for idx, face in enumerate(faces):
        if face_node[idx] != -1:
            continue
        if any(v >= n_base for v in face):
            raise NotMaximalEmbedding(
                f"face {face} touches a crossing but was not "
                "grouped into its kite")
        face_node[idx] = len(nodes)
        nodes.append(DualNode(TRIANGLE, (idx,), -1))

    edge_faces: dict[Edge, list[int]] = {}
    for idx, face in enumerate(faces):
        a, b, c = face
        for u, v in ((a, b), (b, c), (c, a)):
            e = (u, v) if u < v else (v, u)
            edge_faces.setdefault(e, []).append(idx)

    links: list[DualLink] = []
    for e in sorted(edge_faces):
        sides = edge_faces[e]
        if len(sides) != 2:
            raise NotMaximalEmbedding(
                f"edge {e} borders {len(sides)} face slots, expected 2")
        fa, fb = sides
        na, nb = face_node[fa], face_node[fb]
        if na == nb:
            anchor = nodes[na].anchor
            if anchor != -1 and anchor in e:
                continue  # interior edge of a kite or tetrahedron group
            raise NotMaximalEmbedding(
                f"edge {e} would form a dual loop at a {nodes[na].kind} node")
        if na > nb:
            na, nb, fa, fb = nb, na, fb, fa
        links.append(DualLink(na, nb, e, fa, fb))

    return GeneralizedDual(tuple(nodes), tuple(links), tuple(face_node),
                           faces, emb)


# --- adjacency rules ---

_RULE_NAMES = (
    "dual-degree",
    "dual-rule-kite-kite",
    "dual-rule-tetra-neighbours",
    "dual-rule-tetra-marked",
    "dual-rule-unmarked-pair",
    "dual-rule-triangle-pair",
)


def check_adjacency_rules(dual: GeneralizedDual) -> VerificationReport:
    """The five local adjacency rules plus the degree law.

    The unmarked-pair rule looks its tetrahedral edge up in the base
    graph of the dual's embedding.
    """
    host = dual.embedding.base
    nodes = dual.nodes
    marked = dual.marked_flags()
    violations: list[Violation] = []

    degree = [0] * len(nodes)
    for link in dual.links:
        degree[link.a] += 1
        degree[link.b] += 1
    expected = {KITE: 4, TETRAHEDRON: 3, TRIANGLE: 3}
    for idx, node in enumerate(nodes):
        if degree[idx] != expected[node.kind]:
            violations.append(Violation(
                "dual-degree",
                f"{node.kind} node {idx} has dual degree {degree[idx]}, "
                f"expected {expected[node.kind]}",
            ))

    unmarked_triangle_neighbours = [0] * len(nodes)
    for link in dual.links:
        ka, kb = nodes[link.a].kind, nodes[link.b].kind
        if ka == KITE and kb == KITE:
            violations.append(Violation(
                "dual-rule-kite-kite",
                f"kite nodes {link.a} and {link.b} are adjacent",
            ))
        for here, there in ((link.a, link.b), (link.b, link.a)):
            if nodes[here].kind == TETRAHEDRON:
                other = nodes[there]
                if other.kind == TETRAHEDRON or (
                        other.kind == TRIANGLE and not marked[there]):
                    label = ("an unmarked triangle" if other.kind == TRIANGLE
                             else "another tetrahedron")
                    violations.append(Violation(
                        "dual-rule-tetra-neighbours",
                        f"tetrahedron node {here} is adjacent to {label} "
                        f"node {there}",
                    ))
        if ka == TRIANGLE and kb == TRIANGLE:
            if not marked[link.a]:
                unmarked_triangle_neighbours[link.b] += 1
            if not marked[link.b]:
                unmarked_triangle_neighbours[link.a] += 1
            if not marked[link.a] and not marked[link.b]:
                apexes = _tetrahedral_apexes(dual, link)
                if apexes is None or not host.has_edge(*apexes):
                    violations.append(Violation(
                        "dual-rule-unmarked-pair",
                        f"adjacent unmarked triangle nodes {link.a}, {link.b} "
                        "are not a tetrahedral pair",
                    ))

    for idx, node in enumerate(nodes):
        if node.kind == TETRAHEDRON and not marked[idx]:
            violations.append(Violation(
                "dual-rule-tetra-marked",
                f"tetrahedron node {idx} is not adjacent to any kite node",
            ))
        if node.kind == TRIANGLE and unmarked_triangle_neighbours[idx] > 1:
            violations.append(Violation(
                "dual-rule-triangle-pair",
                f"triangle node {idx} has "
                f"{unmarked_triangle_neighbours[idx]} unmarked triangle "
                "neighbours, at most one is allowed",
            ))

    return VerificationReport(tuple(violations), _RULE_NAMES)


def _tetrahedral_apexes(dual: GeneralizedDual,
                        link: DualLink) -> tuple[int, int] | None:
    """Apex pair (w, x) of faces (u, v, w), (u, v, x) across u-v."""
    fa = frozenset(dual.faces[link.face_a])
    fb = frozenset(dual.faces[link.face_b])
    shared = set(link.via)
    apex_a = fa - shared
    apex_b = fb - shared
    if len(apex_a) != 1 or len(apex_b) != 1:
        return None
    (w,) = apex_a
    (x,) = apex_b
    if w == x:
        return None
    return (w, x) if w < x else (x, w)


def check_dual_structure(dual: GeneralizedDual) -> tuple[Violation, ...]:
    """Simplicity and 3-connectivity of the dual graph.

    Planarity is not tested: every dual ``build_dual`` returns is planar,
    being a contraction of the dual of a spherical planarization.  Its
    faces are the primal vertices that no node has as its anchor, and
    node X lies on face v exactly when v is one of X's corners; X's
    faces around v are consecutive in v's rotation, so no face repeats
    a node.  A plane graph with at least four vertices is 3-connected
    exactly when any two faces meet in nothing, one vertex or one edge
    (Mohar and Thomassen, *Graphs on Surfaces*, 2001).  A node has at
    most four corners, so the nodes on each pair of faces are counted
    in O(n).  Faces u, v on three common nodes fail.  On two, X and Y,
    they meet in an edge when u-v is a planarization edge, whose link
    joins X and Y.  They also pass when X and Y are linked otherwise:
    X and Y are then two kites whose parallel links (``dual-simple``)
    enclose a digon face, and 3-connectivity is judged with parallel
    links merged, which puts the link X-Y on both u and v.
    """
    violations: list[Violation] = []
    seen: dict[tuple[int, int], int] = {}
    for link in dual.links:
        key = (min(link.a, link.b), max(link.a, link.b))
        seen[key] = seen.get(key, 0) + 1
    doubled = {k: c for k, c in seen.items() if c > 1}
    if doubled:
        violations.append(Violation(
            "dual-simple",
            f"parallel dual edges between node pairs {sorted(doubled)}",
        ))
    if len(dual.nodes) < 4:
        violations.append(Violation(
            "dual-triconnected",
            f"dual has only {len(dual.nodes)} nodes, 3-connectivity undefined",
        ))
    elif not _faces_meet_properly(dual, seen):
        violations.append(Violation(
            "dual-triconnected", "dual graph is not 3-connected"))
    return tuple(violations)


def _faces_meet_properly(dual: GeneralizedDual,
                         linked: dict[tuple[int, int], int]) -> bool:
    holders: dict[tuple[int, int], list[int]] = {}
    for idx, node in enumerate(dual.nodes):
        corners = [v for v in dual.node_identity(idx) if v != node.anchor]
        for i, u in enumerate(corners):
            for v in corners[i + 1:]:
                holders.setdefault((u, v), []).append(idx)
    adjacent = dual.embedding.planarization.has_edge
    return all(len(on) == 1 or len(on) == 2 and (
        adjacent(*pair) or tuple(on) in linked) for pair, on in holders.items())


def is_kite_triangle_bipartite(dual: GeneralizedDual) -> bool:
    """True when every dual link joins a kite node and a triangle node."""
    kinds = [n.kind for n in dual.nodes]
    if TETRAHEDRON in kinds:
        return False
    return all(
        {kinds[link.a], kinds[link.b]} == {KITE, TRIANGLE}
        for link in dual.links
    )


# --- levels and weight accounting ---


def compute_levels(dual: GeneralizedDual) -> tuple[int, ...]:
    """Each node's distance to the nearest kite node, by a multi-source
    BFS from the kite nodes; levels are proven <= 2."""
    kites = [i for i, n in enumerate(dual.nodes) if n.kind == KITE]
    if not kites:
        raise LevelExceedsTwo(
            "the dual has no kite node, so no node has a level at all")
    level = [-1] * len(dual.nodes)
    queue = deque()
    for i in kites:
        level[i] = 0
        queue.append(i)
    adj = dual.neighbour_lists()
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if level[w] == -1:
                level[w] = level[v] + 1
                queue.append(w)
    bad = [i for i, lv in enumerate(level) if lv == -1 or lv > 2]
    if bad:
        raise LevelExceedsTwo(
            f"nodes {bad} lie beyond distance two from every kite node")
    return tuple(level)


@dataclass(frozen=True)
class QuarterSphere:
    """Content of one kite face's share of its sphere, exact rationals.

    ``triangle_fraction`` and ``tetrahedron_fraction`` count node
    fractions (a triangle node split over three spheres contributes
    1/3 here); ``planar_edges`` is the weighted total.
    """

    kite: int
    face: int
    triangle_fraction: Fraction
    tetrahedron_fraction: Fraction
    planar_edges: Fraction


@dataclass(frozen=True)
class SphereAccount:
    """Per-kite weight totals over the whole dual.

    ``quarters[i]`` holds the four :class:`QuarterSphere` records of
    kite node ``kite_nodes[i]`` in dummy rotation order; ``totals[i]``
    adds the kite's own contribution of 2.  ``grand_total`` equals the
    planar edge count m - 2c of the underlying graph.
    """

    kite_nodes: tuple[int, ...]
    quarters: tuple[tuple[QuarterSphere, ...], ...]
    totals: tuple[Fraction, ...]
    grand_total: Fraction


def quarter_sphere_accounting(dual: GeneralizedDual,
                              levels: tuple[int, ...] | None = None,
                              ) -> SphereAccount:
    """Distribute node weights over kite faces and check the proven bounds.

    Every non-kite node splits its weight evenly over its attachments:
    the kite faces it borders directly (level 1) or reaches through a
    level-1 neighbour (level 2).  Each quarter must carry at least 1/2
    planar edge, and at most 3 unless it is exactly one whole
    tetrahedron node, which carries 9/2; each sphere total lies in
    [4, 14]; the grand total must equal m - 2c.  Violations raise
    :class:`AccountingViolation`.  ``levels`` defaults to
    ``compute_levels(dual)``.
    """
    if levels is None:
        levels = compute_levels(dual)
    nodes = dual.nodes

    # attachment points: (kite node, face index) pairs per non-kite node
    attachments: list[set[tuple[int, int]]] = [set() for _ in nodes]
    for link in dual.links:
        for here, there, face_there in (
            (link.a, link.b, link.face_b),
            (link.b, link.a, link.face_a),
        ):
            if nodes[here].kind != KITE and nodes[there].kind == KITE:
                attachments[here].add((there, face_there))
    adj = dual.neighbour_lists()
    for idx, node in enumerate(nodes):
        if node.kind == KITE or levels[idx] != 2:
            continue
        for nb in adj[idx]:
            if levels[nb] == 1:
                attachments[idx] |= attachments[nb]

    kite_nodes = tuple(i for i, n in enumerate(nodes) if n.kind == KITE)
    by_quarter: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for idx, node in enumerate(nodes):
        if node.kind == KITE:
            continue
        points = sorted(attachments[idx])
        if not points:
            raise AccountingViolation(
                f"{node.kind} node {idx} has no kite-face attachment")
        fraction = Fraction(1, len(points))
        for point in points:
            by_quarter.setdefault(point, []).append((idx, fraction))

    quarters: list[tuple[QuarterSphere, ...]] = []
    totals: list[Fraction] = []
    for k in kite_nodes:
        row = []
        for f in nodes[k].faces:
            tri = Fraction(0)
            tetra = Fraction(0)
            parts = by_quarter.get((k, f), [])
            for idx, fraction in parts:
                if nodes[idx].kind == TETRAHEDRON:
                    tetra += fraction
                else:
                    tri += fraction
            value = tri * TRIANGLE_WEIGHT + tetra * TETRA_WEIGHT
            if value < QUARTER_LOWER:
                raise AccountingViolation(
                    f"quarter at face {f} of kite node {k} carries {value}, "
                    "below the 1/2 planar-edge floor")
            if value > QUARTER_UPPER:
                sole_tetra = (tri == 0 and tetra == 1 and len(parts) == 1)
                if not sole_tetra:
                    raise AccountingViolation(
                        f"quarter at face {f} of kite node {k} carries "
                        f"{value} > 3 and is not a single whole tetrahedron")
            row.append(QuarterSphere(k, f, tri, tetra, value))
        total = KITE_OWN + sum(q.planar_edges for q in row)
        if not SPHERE_LOWER <= total <= SPHERE_UPPER:
            raise AccountingViolation(
                f"sphere of kite node {k} totals {total} planar edges, "
                "outside [4, 14]")
        quarters.append(tuple(row))
        totals.append(total)

    grand = sum(totals, Fraction(0))
    base = dual.embedding.base
    planar_edges = Fraction(base.m - 2 * len(dual.embedding.registry))
    if grand != planar_edges:
        raise AccountingViolation(
            f"sphere totals sum to {grand}, planar edge count is {planar_edges}")
    return SphereAccount(kite_nodes, tuple(quarters), tuple(totals), grand)


# --- kite flip ---


@dataclass(frozen=True)
class FlipSite:
    """A flippable configuration: one kite and an adjacent triangle pair.

    ``kite`` is the crossing's primal corner set, ``pair`` the corner
    sets of two faces sharing ``shared_edge`` whose apexes span
    ``tetra_edge``, currently a crossing edge of that kite.
    """

    kite: tuple[int, ...]
    pair: tuple[tuple[int, ...], tuple[int, ...]]
    shared_edge: Edge
    tetra_edge: Edge
    entry_index: int


def find_flips(emb: NicEmbedding) -> tuple[FlipSite, ...]:
    """All face pairs satisfying the flip preconditions."""
    dual = build_dual(emb)
    adj = dual.neighbour_lists()
    sites = [site for link in dual.links
             if isinstance(site := _flip_site(emb, dual, adj, link), FlipSite)]
    return tuple(sorted(sites, key=lambda s: (s.shared_edge, s.tetra_edge)))


def _flip_site(emb: NicEmbedding, dual: GeneralizedDual,
               adj: list[list[int]], link: DualLink,
               entry_index: int | None = None) -> FlipSite | str:
    """The flip site at ``link``, or the reason there is none.

    With ``entry_index`` the tetrahedral edge must cross in that registry
    entry; without it, any entry that holds the edge is taken.
    """
    nodes = dual.nodes
    for side in (link.a, link.b):
        if nodes[side].kind != TRIANGLE:
            return (f"face {dual.node_identity(side)} belongs to a "
                    f"{nodes[side].kind} node, not a plain triangle")
    apexes = _tetrahedral_apexes(dual, link)
    if apexes is None or not emb.base.has_edge(*apexes):
        return ("the pair is not tetrahedral: its apexes are not adjacent "
                "in the base graph")
    if entry_index is None:
        entry_index = next((i for i, entry in enumerate(emb.registry)
                            if apexes in entry.pair), None)
        if entry_index is None:
            return f"tetrahedral edge {apexes} is not a crossing edge"
    entry = emb.registry[entry_index]
    corners = tuple(sorted(entry.endpoints))
    if apexes not in entry.pair:
        return (f"tetrahedral edge {apexes} is not a crossing edge of the "
                f"kite on {corners}")
    # the faces may be marked only by the kite being rewired
    for tri in (link.a, link.b):
        for other in adj[tri]:
            if nodes[other].kind == KITE and nodes[other].anchor != entry.dummy:
                return (f"face {dual.node_identity(tri)} is marked by a kite "
                        "other than the one being flipped")
    pair = (tuple(sorted(dual.faces[link.face_a])),
            tuple(sorted(dual.faces[link.face_b])))
    return FlipSite(corners, pair, link.via, apexes, entry_index)


def kite_flip(emb: NicEmbedding, kite: Iterable[int],
              pair: tuple[Iterable[int], Iterable[int]]) -> NicEmbedding:
    """Re-route a tetrahedral edge through the named triangle pair.

    ``kite`` selects a crossing by its primal corner set (the dummy may
    be included or left out); ``pair`` names two triangle faces by
    their corner sets.  The faces must be adjacent, their apexes w, x
    must span a crossing edge of the named kite, and no other kite may
    touch them; these are the preconditions ``find_flips`` lists sites
    by.  The crossing's partner edge becomes planar and w-x crosses the
    pair's shared edge instead; the surroundings re-triangulate, so the
    result is again maximal.  Applying the flip at the new kite's own
    tetrahedral pair undoes it.
    """
    dual = build_dual(emb)
    entry_index = _resolve_kite(emb, set(kite))
    want = frozenset(frozenset(p) for p in pair)
    link = next((cand for cand in dual.links
                 if want == {frozenset(dual.faces[cand.face_a]),
                             frozenset(dual.faces[cand.face_b])}), None)
    if link is None:
        named = tuple(sorted(tuple(sorted(p)) for p in want))
        raise PreconditionViolated(
            f"no two adjacent faces have corner sets {named}")
    site = _flip_site(emb, dual, dual.neighbour_lists(), link, entry_index)
    if isinstance(site, str):
        raise PreconditionViolated(site)
    pairs = [entry.pair for entry in emb.registry]
    wx, uv = site.tetra_edge, site.shared_edge
    pairs[entry_index] = (wx, uv) if wx < uv else (uv, wx)
    d = emb.registry[entry_index].dummy
    rotations = replace_faces(emb.rotations, *_flip_faces(emb, d, wx, uv))
    return certified(NicEmbedding(emb.base, pairs, rotations))


def _flip_faces(emb: NicEmbedding, d: int, wx: Edge, uv: Edge):
    """The faces that change when ``wx`` moves from crossing ``d`` onto
    ``uv``, as the lists (old, new).

    The four faces around ``d``, (r_j, d, r_{j+1}) for its rotation
    (p, r_1, q, r_3) with p-q the partner of ``wx``, become the
    triangles (p, r_3, q) and (q, r_1, p); the two triangles on ``uv``,
    (u, v, a) and (v, u, b), become the faces around ``d`` on the quad
    u -> b -> v -> a.  ``d`` keeps its id.
    """
    rot = emb.rotations[d]
    j = 0 if rot[0] not in wx else 1
    p, r1, q, r3 = rot[j:] + rot[:j]
    u, v = uv
    rot_u, rot_v = emb.rotations[u], emb.rotations[v]
    a = rot_v[(rot_v.index(u) + 1) % len(rot_v)]
    b = rot_u[(rot_u.index(v) + 1) % len(rot_u)]
    old = [(p, d, r1), (r1, d, q), (q, d, r3), (r3, d, p), (u, v, a), (v, u, b)]
    new = [(u, b, d), (b, v, d), (v, a, d), (a, u, d), (p, r3, q), (q, r1, p)]
    return old, new


def _resolve_kite(emb: NicEmbedding, vertices: set[int]) -> int:
    corners_only = {v for v in vertices if not emb.is_dummy(v)}
    for i, entry in enumerate(emb.registry):
        corners = set(entry.endpoints)
        if corners_only == corners and vertices - corners <= {entry.dummy}:
            return i
    raise PreconditionViolated(
        f"no crossing has corner set {tuple(sorted(vertices))}")
