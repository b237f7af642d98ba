"""Recognition of graphs sitting exactly on the NIC-planar density ceiling.

A graph with n >= 5 vertices is at the ceiling when 5m = 18(n - 2).
Such graphs admit essentially one embedding, and that rigidity makes
recognition cheap: every edge lies in exactly one K4 that is drawn as a
kite, and a K4 is drawn as a kite if and only if some edge of it lies in
no other K4.  The recognizer exploits this in four passes:

1. the edge-count gate, in exact integer arithmetic;
2. a K4 listing with an essential-step budget (the listing only
   completes within the budget when the graph is sparse enough to be a
   candidate at all);
3. bucketing the K4s by edge, selecting every K4 that is the sole
   occupant of some bucket, then requiring every edge to meet exactly
   one selected K4;
4. reading the unique embedding off the kites (``embed_from_kites``):
   in each kite the two edges with no common neighbour outside it are
   the crossing pair, every other side closes one planar triangle with
   its single outside apex, and one orientation spreads from kite to
   kite across those triangles.  ``verify_nic`` certifies the result.
   Only when the kites do not pin an embedding down, or the one read
   off fails the check, does the recognizer fall back to
   ``embed_from_star_graph``: it collapses each kite to a star around a
   fresh dummy vertex and planarity-tests that star graph; the corners
   opposite each other in a dummy's rotation are the kite's crossing
   pair, and ``embed_with_crossings`` embeds the graph with those pairs
   and certifies it with the same ``verify_nic``.

All failures are verdicts, not exceptions: callers get a reason code
and the counters the run produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .embedding import (
    NicEmbedding,
    embed_with_crossings,
    rotations_from_triangles,
    verify_nic,
)
from .graph import Edge, Graph, is_biconnected, new_graph
from .k4 import Quad, bucket_by_edge, list_k4
from .planarity import test_planarity

#: reason codes carried by rejected results
EDGE_COUNT_MISMATCH = "EdgeCountMismatch"
STRUCTURALLY_INVALID = "StructurallyInvalid"
ARBORICITY_TIMEOUT = "ArboricityTimeout"
KITE_COVER_VIOLATION = "KiteCoverViolation"
NONPLANAR_STAR_GRAPH = "NonplanarStarGraph"

#: essential-step allowance per vertex for the K4 listing
DEFAULT_STEP_CAP_MULTIPLIER = 256


@dataclass(frozen=True)
class KiteSet:
    """The K4 subgraphs selected to be embedded with a crossing.

    On accepted inputs every edge of the host graph lies in exactly one
    member, which also forces members to share at most one vertex.
    """

    quads: tuple[Quad, ...]

    def __len__(self) -> int:
        return len(self.quads)

    def __iter__(self):
        return iter(self.quads)


@dataclass(frozen=True)
class RecognitionResult:
    """Verdict of a recognition run plus the counters it produced.

    ``embedding`` is set exactly when the graph was accepted; ``reason``
    is one of the module's reason-code constants otherwise.  The
    diagnostics dict records the catalog size, the number of selected
    kites, and the essential steps the K4 listing spent; entries are
    None when the run rejected before reaching that stage.
    """

    embedding: NicEmbedding | None
    reason: str | None
    kites: KiteSet | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.embedding is not None


def _rejected(reason: str, message: str, **counts) -> RecognitionResult:
    diagnostics = {
        "catalog_size": None,
        "kite_count": None,
        "essential_steps": None,
        "message": message,
    }
    diagnostics.update(counts)
    return RecognitionResult(None, reason, None, diagnostics)


def recognize_optimal(g: Graph,
                      step_cap_multiplier: int = DEFAULT_STEP_CAP_MULTIPLIER,
                      ) -> RecognitionResult:
    """Decide whether ``g`` is NIC-planar with 5m = 18(n - 2), with witness.

    Accepted results carry an embedding that has passed ``verify_nic``
    and whose crossing count equals m - (3n - 6).  The embedding is read
    off the kites when they pin it down, and found through the star
    graph's planarity test otherwise.  Rejections carry a reason code;
    no input raises.
    """
    n, m = g.n, g.m
    if n < 5:
        return _rejected(STRUCTURALLY_INVALID,
                         f"n = {n} is below the n >= 5 domain")
    if 5 * m != 18 * (n - 2):
        return _rejected(EDGE_COUNT_MISMATCH,
                         f"5m = {5 * m} differs from 18(n-2) = {18 * (n - 2)}")
    # the edge gate bounds m linearly in n, so the structure checks and
    # everything after them stay within the linear budget
    if not is_biconnected(g):
        return _rejected(STRUCTURALLY_INVALID,
                         "graph is not biconnected")

    step_cap = step_cap_multiplier * n
    catalog = list_k4(g, step_cap=step_cap)
    if catalog.timed_out:
        return _rejected(
            ARBORICITY_TIMEOUT,
            f"K4 listing passed {catalog.steps} essential steps "
            f"(cap {step_cap}), the graph is too dense to qualify",
            essential_steps=catalog.steps,
        )

    buckets = bucket_by_edge(catalog)
    selected = [False] * len(catalog.quads)
    for e in g.edges:
        ids = buckets.get(e, ())
        if len(ids) == 1:
            selected[ids[0]] = True

    for e in g.edges:
        hits = sum(1 for idx in buckets.get(e, ()) if selected[idx])
        if hits != 1:
            return _rejected(
                KITE_COVER_VIOLATION,
                f"edge {e} lies in {hits} selected kites, expected exactly 1",
                catalog_size=len(catalog),
                kite_count=sum(selected),
                essential_steps=catalog.steps,
            )

    kites = KiteSet(tuple(q for q, keep in zip(catalog.quads, selected) if keep))
    diagnostics = {
        "catalog_size": len(catalog),
        "kite_count": len(kites),
        "essential_steps": catalog.steps,
    }

    emb = embed_from_kites(g, kites)
    if emb is None or not verify_nic(emb).ok:
        emb = embed_from_star_graph(g, kites)
        if emb is None:
            diagnostics["message"] = "star graph is not planar"
            return RecognitionResult(None, NONPLANAR_STAR_GRAPH, None,
                                     diagnostics)
    if len(emb.registry) != m - (3 * n - 6):
        raise AssertionError(
            f"recognizer produced {len(emb.registry)} crossings, "
            f"expected m - (3n - 6) = {m - (3 * n - 6)}")
    return RecognitionResult(emb, None, kites, diagnostics)


def build_star_graph(g: Graph, kites: KiteSet) -> Graph:
    """Collapse each kite of ``g`` to a star around a fresh dummy vertex.

    All six edges inside a kite's vertex set are removed and a dummy
    adjacent to its four corners is added.  Dummy ``i`` is vertex
    ``g.n + i`` for the ``i``-th kite in sorted order, the numbering
    ``embed_from_kites`` uses.  With an empty kite set this is the
    identity.
    """
    removed: set[Edge] = set()
    star_edges: list[Edge] = []
    for z, (a, b, c, d) in enumerate(sorted(kites), start=g.n):
        removed.update(((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
        star_edges.extend(((a, z), (b, z), (c, z), (d, z)))
    kept = [e for e in g.edges if e not in removed]
    return new_graph(g.n + len(kites), kept + star_edges)


def embed_from_star_graph(g: Graph, kites: KiteSet) -> NicEmbedding | None:
    """The embedding of ``g`` found through its star graph, or None.

    The star graph of ``g`` and ``kites`` is planarity-tested; None when
    it is not planar.  Otherwise the rotation at each kite's dummy
    dictates the crossing: opposite corners form the crossed pair, and
    ``embed_with_crossings`` embeds ``g`` with those pairs, so the
    result has passed ``verify_nic``.  An empty kite set embeds the
    planar input with an empty registry.
    """
    star = build_star_graph(g, kites)
    planarity = test_planarity(star)
    if not planarity.planar:
        return None
    pairs = []
    for z in range(g.n, star.n):
        a, b, c, d = planarity.rotations[z]
        pairs.append(((a, c), (b, d)))
    return embed_with_crossings(g, pairs)


def embed_from_kites(g: Graph, kites: KiteSet) -> NicEmbedding | None:
    """The embedding of ``g`` read straight off its kites, or None.

    For each kite edge (u, v) the apexes are the common neighbours of u
    and v outside the kite.  Two disjoint edges of each kite must have
    no apex; they are its crossing pair.  Each of the other four, the
    kite's sides, must have exactly one apex w, and the planar triangle
    (u, v, w) closes the face beyond that side.  One orientation spreads
    from kite to kite across these triangles: the face beyond side
    x -> y walks y -> x, and each of its other two sides belongs to a
    kite that must walk it the other way.  The smallest kite's cycle
    runs from its smallest corner to the smaller of that corner's two
    neighbours on the cycle, so the result depends only on the labels.
    The four wedge triangles of each kite and the planar triangles then
    give the rotation system.  Dummies are numbered from ``g.n`` in
    sorted kite order.

    Returns None when some edge has another apex count, a planar
    triangle has a side that is no kite's side, or a kite receives two
    orientations or none.  A returned embedding is not
    verified here; ``verify_nic`` is the certificate.  The cost is
    O(sum of min-degrees over the kite edges), O(m) on optimal graphs.
    """
    order = sorted(kites)
    if not order:
        return None
    n = g.n
    nbrs = [set(ns) for ns in g.adjacency]
    cycles: list[tuple[int, int, int, int]] = []
    apexes: list[tuple[int, int, int, int]] = []
    #: directed kite side -> (kite index, +1 if it runs along the cycle)
    side_of: dict[tuple[int, int], tuple[int, int]] = {}
    for idx, quad in enumerate(order):
        a, b, c, d = quad
        apex_sets = {}
        for u, v in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
            outside = nbrs[u] & nbrs[v]
            outside.difference_update(quad)
            apex_sets[u, v] = outside
        # the crossing pair is one of the three perfect matchings of the
        # quad; the cycle around it starts at a towards its smaller neighbour
        if not apex_sets[a, c] and not apex_sets[b, d]:
            cycle = (a, b, c, d)
        elif not apex_sets[a, b] and not apex_sets[c, d]:
            cycle = (a, c, b, d)
        elif not apex_sets[a, d] and not apex_sets[b, c]:
            cycle = (a, b, d, c)
        else:
            return None
        apex = []
        for j in range(4):
            x, y = cycle[j], cycle[(j + 1) % 4]
            outside = apex_sets[(x, y) if x < y else (y, x)]
            if len(outside) != 1:
                return None
            apex.append(next(iter(outside)))
            side_of[x, y] = (idx, 1)
            side_of[y, x] = (idx, -1)
        cycles.append(cycle)
        apexes.append(tuple(apex))

    sign = [0] * len(order)
    sign[0] = 1
    queue = [0]
    faces: list[tuple[int, int, int]] = []
    for idx in queue:
        z = n + idx
        cycle, apex = cycles[idx], apexes[idx]
        if sign[idx] < 0:
            cycle = cycle[::-1]
            apex = apex[2::-1] + apex[3:]
        for j in range(4):
            x, y, w = cycle[j], cycle[(j + 1) % 4], apex[j]
            faces.append((x, y, z))
            # the planar triangle (y, x, w) walks x -> w and w -> y, so
            # the kites owning those sides walk w -> x and y -> w
            for need in ((w, x), (y, w)):
                owner = side_of.get(need)
                if owner is None:
                    return None
                other, s = owner
                if sign[other] == 0:
                    sign[other] = s
                    queue.append(other)
                elif sign[other] != s:
                    return None
            if y < x and y < w:
                faces.append((y, x, w))
    if len(queue) != len(order):
        return None

    pairs = [((a, c), (b, d)) for a, b, c, d in cycles]
    rotations = rotations_from_triangles(n + len(pairs), faces)
    return NicEmbedding(g, pairs, rotations)
