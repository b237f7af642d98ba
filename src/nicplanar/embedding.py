"""Embeddings with at most one crossing per edge.

A :class:`NicEmbedding` is a graph, its crossing pairs and a rotation
system of its planarization.  The planarization and the crossing
registry (one :class:`CrossingEntry` per pair) are derived from the
graph and the pairs when the embedding is built, so they always agree:
each crossing is replaced by a degree-4 dummy vertex, dummy ``i`` gets
planarization id ``base.n + i`` and is named ``"x<i>"``
(``NicEmbedding.vertex_name``) in JSON, DOT and messages.  A face is
its cyclic corner tuple; a cut vertex recurs once per visit.

``verify_nic`` checks the defining conditions (each edge crossed at most
once, two crossing pairs share at most one endpoint), the interleaving
of each crossing at its dummy and the rotation system's sphericity.
``verify_maximal_embedding`` layers the face conditions of maximal
embeddings on top and delegates the dual adjacency rules to
:mod:`nicplanar.dual`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field

from . import graph as _graph
from .errors import NonSphericalEmbedding, NotMaximalEmbedding, ParseError
from .faces import face_walk
from .graph import Edge, Graph, is_connected, new_graph
from .planarity import test_planarity

Crossing = tuple[Edge, Edge]


def normalize_crossing(e1, e2) -> Crossing:
    a = tuple(sorted(e1))
    b = tuple(sorted(e2))
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CrossingEntry:
    """One crossing: its dummy vertex and the ordered pair of base edges."""

    dummy: int
    first: Edge
    second: Edge

    @property
    def pair(self) -> Crossing:
        return (self.first, self.second)

    @property
    def endpoints(self) -> frozenset[int]:
        return frozenset(self.first + self.second)


@dataclass(frozen=True)
class NicEmbedding:
    """A graph, its crossing pairs and a rotation system of its planarization.

    ``crossings`` is read once, so any iterable of edge pairs will do.
    Each pair is normalized into the registry, and dummy ``i`` is
    planarization vertex ``base.n + i``, in input order, adjacent to the
    pair's distinct endpoints in place of the crossed edges.  The pairs
    themselves (existence, disjointness, single use) are not judged
    here: a malformed list still planarizes, and ``verify_nic`` reports
    it.
    """

    base: Graph
    crossings: InitVar[Iterable]
    rotations: tuple[tuple[int, ...], ...]
    planarization: Graph = field(init=False)
    registry: tuple[CrossingEntry, ...] = field(init=False)
    #: faces memoized by ``trace_faces``; not part of the value
    _faces: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self, crossings) -> None:
        base = self.base
        entries = []
        crossed: set[Edge] = set()
        # sets, so malformed lists (shared endpoints, repeated edges)
        # still planarize and get judged by verify_nic instead of here
        ends: list[set[int]] = []
        for dummy, (e1, e2) in enumerate(crossings, start=base.n):
            a, b = normalize_crossing(e1, e2)
            entries.append(CrossingEntry(dummy, a, b))
            crossed.add(a)
            crossed.add(b)
            ends.append(set(a + b))
        object.__setattr__(self, "planarization",
                           _planarize(base, crossed, ends))
        object.__setattr__(self, "registry", tuple(entries))

    def is_dummy(self, v: int) -> bool:
        return v >= self.base.n

    def vertex_name(self, v: int) -> str:
        """``str(v)`` for a base vertex, ``"x<i>"`` for dummy ``i``."""
        n = self.base.n
        return f"x{v - n}" if v >= n else str(v)


def _planarize(base: Graph, crossed: set, ends: list[set]) -> Graph:
    """``base`` without the ``crossed`` edges, plus dummy ``base.n + i``
    joined to each vertex in ``ends[i]``.

    Base rows are sorted and every dummy id exceeds every base id, so a
    base vertex's row is its base row without its crossed partners, then
    its dummies in ascending order, and the edges read off the rows in
    order come out sorted.  Only when ``ends`` names something other
    than a base vertex (a dummy id, a negative or out-of-range id, a
    ``bool``), or the dummies pass the vertex limit, is the graph left to
    ``new_graph``, which raises what it always has.
    """
    n = base.n
    total = n + len(ends)
    if total > _graph.MAX_VERTICES or any(
            type(u) is not int or not 0 <= u < n for us in ends for u in us):
        kept = [e for e in base.edges if e not in crossed]
        star_edges = {(u, z) for z, us in enumerate(ends, start=n) for u in us}
        return new_graph(total, kept + sorted(star_edges))
    rows = list(base.adjacency)
    partners: dict[int, set[int]] = {}
    for e in crossed:
        if e in base.edge_set:
            u, v = e
            partners.setdefault(u, set()).add(v)
            partners.setdefault(v, set()).add(u)
    for u, gone in partners.items():
        rows[u] = tuple(w for w in rows[u] if w not in gone)
    dummies: dict[int, list[int]] = {}
    for z, us in enumerate(ends, start=n):
        for u in us:
            dummies.setdefault(u, []).append(z)
    for u, zs in dummies.items():
        rows[u] += tuple(zs)
    edges = tuple((u, w) for u, row in enumerate(rows) for w in row if u < w)
    rows.extend(tuple(sorted(us)) for us in ends)
    return Graph(total, edges, tuple(rows), frozenset(edges))


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[Violation, ...]
    checked: tuple[str, ...]
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.skipped:
            return f"skipped: {self.skipped}"
        if self.ok:
            return f"ok ({len(self.checked)} rules)"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(f"  [{v.rule}] {v.message}" for v in self.violations)
        return "\n".join(lines)


# --- construction ---


def rotations_from_faces(n: int, faces) -> tuple[tuple[int, ...], ...]:
    """Rotation system whose faces are the given oriented corner cycles.

    Following the successors the faces fix around a vertex (see
    ``_fix_successors``) yields its rotation.  A vertex whose successors
    do not form one cycle over its neighbours gets a rotation that is
    not a permutation of them, which the ``verify_nic`` self-check then
    rejects.
    """
    succ: list[dict[int, int]] = [{} for _ in range(n)]
    _fix_successors(succ, faces)
    return tuple(map(_rotation_from_successors, succ))


def replace_faces(rotations, old, new) -> tuple[tuple[int, ...], ...]:
    """``rotations`` with the faces ``old`` swapped for ``new``.

    Only the corners of these faces get new rotations: each keeps the
    successors of its rotation that no old face fixed, and takes those
    the new faces fix.  As with ``rotations_from_faces``, a result that
    is not a rotation system is left to ``verify_nic`` to reject.
    """
    rotations = list(rotations)
    corners = {z for face in (*old, *new) for z in face}
    dropped: dict[int, dict[int, int]] = {z: {} for z in corners}
    _fix_successors(dropped, old)
    succ = {}
    for z in corners:
        rot = rotations[z]
        succ[z] = {x: y for x, y in zip(rot, rot[1:] + rot[:1])
                   if x not in dropped[z]}
    _fix_successors(succ, new)
    for z in corners:
        rotations[z] = _rotation_from_successors(succ[z])
    return tuple(rotations)


def _fix_successors(succ, faces) -> None:
    """Record in ``succ[v]`` the successor each face fixes at corner v.

    A face (f_0, ..., f_{l-1}) is walked f_0 -> f_1 -> ... -> f_0, so
    leaving f_j after arriving from f_{j-1} goes to f_{j+1}:
    ``succ[f_j][f_{j-1}] = f_{j+1}``.
    """
    for face in faces:
        prev, at = face[-2], face[-1]
        for nxt in face:
            succ[at][prev] = nxt
            prev, at = at, nxt


def _rotation_from_successors(nxt: dict[int, int]) -> tuple[int, ...]:
    """One vertex's rotation, read off its successor map; cut short if
    the map is not one cycle."""
    rot: list[int] = []
    w = next(iter(nxt), None)
    for _ in nxt:  # at most one step per neighbour
        if w is None:
            break
        rot.append(w)
        w = nxt.get(w)
    return tuple(rot)


def _alternates(rot, entry) -> bool:
    opposite_a = {rot[0], rot[2]}
    opposite_b = {rot[1], rot[3]}
    return (set(entry.first) in (opposite_a, opposite_b) and
            set(entry.second) in (opposite_a, opposite_b))


def _pin_crossings(planarization: Graph, registry: tuple[CrossingEntry, ...]):
    """Planar rotations that interleave the crossed pairs at every dummy.

    The planarity test returns an arbitrary embedding, and at a dummy of
    degree four it may lay the two crossed edges side by side, which draws
    a touch instead of a crossing.  Pinning threads a subdivided cycle
    through the four neighbours in interleaved order: the dummy plus that
    cycle is a subdivided wheel, so every planar embedding of the
    augmented graph carries the rim order around the hub.  Dropping the
    subdivision vertices from the rotations afterwards keeps planarity
    and keeps the forced order at each dummy.  Any 1-planar drawing
    admits the cycle edges routed alongside the crossing segments, so the
    augmentation is planar exactly when some embedding realizes every
    crossing.
    """
    extra: list[Edge] = []
    next_id = planarization.n
    for entry in registry:
        (a, b), (c, d) = entry.first, entry.second
        if len({a, b, c, d}) != 4:
            continue  # degenerate pair; left for verify_nic to report
        for u, v in ((a, c), (c, b), (b, d), (d, a)):
            extra.append((u, next_id))
            extra.append((v, next_id))
            next_id += 1
    augmented = new_graph(next_id, list(planarization.edges) + extra)
    rotations = test_planarity(augmented)
    if rotations is None:
        return None
    keep = planarization.n
    return tuple(tuple(w for w in rot if w < keep) for rot in rotations[:keep])


def embed_with_crossings(base: Graph, crossings) -> NicEmbedding:
    """Planarize, embed, and check a :class:`NicEmbedding`.

    Raises ``ValueError`` when the planarization is not planar, when no
    planar embedding of it realizes every crossing, or when the result
    fails ``verify_nic``; generators rely on that as a self-check.
    """
    # built without rotations, which are filled in before the embedding
    # is returned, so the planarity test reads the one planarization
    emb = NicEmbedding(base, crossings, ())
    planarization, registry = emb.planarization, emb.registry
    rotations = test_planarity(planarization)
    if rotations is None:
        raise ValueError("planarization of the crossing set is not planar")
    if any(len(rotations[entry.dummy]) == 4 and
           not _alternates(rotations[entry.dummy], entry)
           for entry in registry):
        pinned = _pin_crossings(planarization, registry)
        if pinned is None:
            raise ValueError(
                "no planar embedding of the planarization realizes every "
                "registered crossing")
        rotations = pinned
    object.__setattr__(emb, "rotations", rotations)
    return certified(emb)


def certified(emb: NicEmbedding) -> NicEmbedding:
    """``emb`` itself once it passes ``verify_nic``; ``ValueError`` if not."""
    report = verify_nic(emb)
    if not report.ok:
        raise ValueError("constructed embedding is invalid:\n" + report.summary())
    return emb


# --- face traversal ---


def _check_rotation_count(emb: NicEmbedding) -> None:
    """Raise :class:`NonSphericalEmbedding` unless ``emb`` has one
    rotation per planarization vertex, so that indexing them is safe."""
    if len(emb.rotations) != emb.planarization.n:
        raise NonSphericalEmbedding("rotation system size differs from vertex count")


def trace_faces(emb: NicEmbedding) -> tuple[tuple[int, ...], ...]:
    """Faces of the planarization's rotation system, as corner tuples.

    The one place a rotation system is checked (neighbour permutations,
    connectivity, Euler's formula); ``face_walk`` trusts it.  Raises
    :class:`NonSphericalEmbedding`.  The embedding is immutable, so the
    faces are kept on it and shared by later calls; a failed walk is not
    kept, so every call on such an embedding raises.
    """
    if emb._faces is not None:
        return emb._faces
    g = emb.planarization
    _check_rotation_count(emb)
    for v, rot in enumerate(emb.rotations):
        if sorted(rot) != list(g.adjacency[v]):
            raise NonSphericalEmbedding(
                f"rotation of vertex {v} is not a permutation of its neighbours"
            )
    if g.n > 1 and not is_connected(g):
        raise NonSphericalEmbedding("planarization is disconnected")
    cycles = face_walk(emb.rotations)
    if g.n - g.m + len(cycles) != 2:
        raise NonSphericalEmbedding(
            f"face count {len(cycles)} violates Euler's formula "
            f"(n={g.n}, m={g.m})"
        )
    faces = tuple(cycles)
    object.__setattr__(emb, "_faces", faces)
    return faces


# --- verification ---


def verify_nic(emb: NicEmbedding) -> VerificationReport:
    """Check the crossing conditions, the crossings' interleaving and the
    rotation system.

    The dummy numbering and the planarization's edge set are derived
    from the pairs when the embedding is built, so they hold by
    construction; their rule names stay in ``checked``.
    """
    base = emb.base
    checked = (
        "registry-edges-in-base",
        "edge-crossed-once",
        "crossing-pair-disjoint",
        "crossing-pairs-share-le-one",
        "dummy-numbering",
        "planarization-edges",
        "dummy-alternation",
        "spherical",
    )
    violations: list[Violation] = []

    for entry in emb.registry:
        for e in entry.pair:
            if e not in base.edge_set:
                violations.append(Violation(
                    "registry-edges-in-base",
                    f"crossing at {emb.vertex_name(entry.dummy)} uses {e}, "
                    "which is not an edge of the graph",
                ))

    seen_edges: set[Edge] = set()
    for entry in emb.registry:
        for e in entry.pair:
            if e in seen_edges:
                violations.append(Violation(
                    "edge-crossed-once", f"edge {e} appears in two crossings"
                ))
            seen_edges.add(e)

    for entry in emb.registry:
        if set(entry.first) & set(entry.second):
            violations.append(Violation(
                "crossing-pair-disjoint",
                f"edges {entry.first} and {entry.second} share an endpoint "
                "but are registered as crossing",
            ))

    # two registries share >= 2 vertices iff they share an unordered pair,
    # so one dictionary pass replaces the quadratic comparison
    pair_owner: dict[tuple[int, int], int] = {}
    flagged: set[tuple[int, int]] = set()
    for idx, entry in enumerate(emb.registry):
        pts = sorted(entry.endpoints)
        for a in range(len(pts)):
            for bb in range(a + 1, len(pts)):
                key = (pts[a], pts[bb])
                other = pair_owner.setdefault(key, idx)
                if other != idx and (other, idx) not in flagged:
                    flagged.add((other, idx))
                    violations.append(Violation(
                        "crossing-pairs-share-le-one",
                        f"crossing pairs {emb.registry[other].pair} and "
                        f"{entry.pair} share vertices {list(key)}",
                    ))

    # with too few or too many rotations the dummies' rotations are not
    # known, and the count is reported under "spherical"
    try:
        _check_rotation_count(emb)
        for entry in emb.registry:
            rot = emb.rotations[entry.dummy]
            if len(rot) == 4 and not _alternates(rot, entry):
                violations.append(Violation(
                    "dummy-alternation",
                    f"rotation {rot} at {emb.vertex_name(entry.dummy)} does "
                    f"not alternate the crossed edges {entry.pair}",
                ))
        trace_faces(emb)
    except NonSphericalEmbedding as exc:
        violations.append(Violation("spherical", str(exc)))

    return VerificationReport(tuple(violations), checked)


def verify_maximal_embedding(emb: NicEmbedding) -> VerificationReport:
    """Check the face structure required of maximal embeddings.

    Every crossing must sit inside a kite (its four incident faces are
    triangles), every face must be a triangle, and the generalized dual
    must satisfy the adjacency rules.  Graphs on fewer than five vertices
    are reported as skipped since the maximality structure is not
    defined for them.
    """
    nic = verify_nic(emb)
    if not nic.ok:
        return nic
    checked = nic.checked + ("kite-faces", "all-triangles", "dual-rules")
    if emb.base.n < 5:
        return VerificationReport((), checked,
                                  skipped="maximality structure needs n >= 5")
    violations: list[Violation] = []
    faces = trace_faces(emb)

    by_dummy: dict[int, int] = {}
    for face in faces:
        if len(face) != 3:
            violations.append(Violation(
                "all-triangles",
                f"face {face} has length {len(face)}",
            ))
        for v in face:
            if emb.is_dummy(v):
                if len(face) != 3:
                    violations.append(Violation(
                        "kite-faces",
                        f"crossing {emb.vertex_name(v)} lies on the "
                        f"non-triangular face {face}",
                    ))
                by_dummy[v] = by_dummy.get(v, 0) + 1
    for entry in emb.registry:
        if by_dummy.get(entry.dummy, 0) != 4:
            violations.append(Violation(
                "kite-faces",
                f"crossing {emb.vertex_name(entry.dummy)} is not surrounded "
                "by four faces",
            ))

    # imported here: dual imports this module at load time
    from . import dual as _dual

    try:
        d = _dual.build_dual(emb)
    except NotMaximalEmbedding as exc:
        violations.append(Violation("dual-rules", f"dual construction failed: {exc}"))
    else:
        violations.extend(_dual.check_adjacency_rules(d).violations)

    return VerificationReport(tuple(violations), checked)


# --- JSON interchange ---


def embedding_to_doc(emb: NicEmbedding) -> dict:
    """The JSON interchange form as a dict, for callers that embed it.

    Raises :class:`NonSphericalEmbedding` unless there is one rotation
    per planarization vertex.
    """
    _check_rotation_count(emb)
    n = emb.base.n
    rotations = {}
    for v, rot in enumerate(emb.rotations):
        if rot:
            k = rot.index(min(rot))
            rot = rot[k:] + rot[:k]
        rotations[emb.vertex_name(v)] = [
            w if w < n else emb.vertex_name(w) for w in rot]
    return {
        "n": n,
        "edges": [list(e) for e in emb.base.edges],
        "crossings": [
            {"pair": [list(entry.first), list(entry.second)]}
            for entry in emb.registry
        ],
        "rotations": rotations,
    }


def embedding_to_json(emb: NicEmbedding) -> str:
    return json.dumps(embedding_to_doc(emb), sort_keys=True, indent=None)


def _parse_vertex_name(token, n: int, c: int):
    if type(token) is int:
        v = token
    elif isinstance(token, str) and token.startswith("x"):
        try:
            i = int(token[1:])
        except ValueError:
            raise ParseError(f"malformed dummy name {token!r}") from None
        if not 0 <= i < c:
            raise ParseError(f"dummy {token!r} out of range (c={c})")
        return n + i
    elif isinstance(token, str):
        try:
            v = int(token)
        except ValueError:
            raise ParseError(f"malformed vertex name {token!r}") from None
    else:
        raise ParseError(f"malformed vertex name {token!r}")
    if not 0 <= v < n:
        raise ParseError(f"vertex {v} out of range (n={n})")
    return v


def embedding_from_json(text: str | bytes) -> NicEmbedding:
    """Parse the JSON interchange form.  Structural errors raise ParseError;
    deeper validity is the business of ``verify_nic``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("n", "edges", "crossings", "rotations"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    n = doc["n"]
    # JSON booleans load as bool, a subclass of int; they are no vertex ids
    if type(n) is not int or n < 0:
        raise ParseError("'n' must be a non-negative integer")
    try:
        edges = [tuple(e) for e in doc["edges"]]
        if any(type(v) is bool for e in edges for v in e):
            raise ValueError("vertex ids must be integers")
        base = new_graph(n, edges)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad edge list: {exc}") from exc

    if not isinstance(doc["crossings"], list):
        raise ParseError("'crossings' must be an array")
    pairs = []
    for item in doc["crossings"]:
        if not isinstance(item, dict) or "pair" not in item:
            raise ParseError("each crossing must be an object with a 'pair'")
        pair = item["pair"]
        if (not isinstance(pair, list) or len(pair) != 2 or
                any(not isinstance(e, list) or len(e) != 2 or
                    any(type(v) is bool for v in e) for e in pair)):
            raise ParseError(f"malformed crossing pair {pair!r}")
        pairs.append((tuple(pair[0]), tuple(pair[1])))
    c = len(pairs)

    # rotations are filled in once parsed, so that crossing errors are
    # reported before rotation errors
    try:
        emb = NicEmbedding(base, pairs, ())
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad crossing list: {exc}") from exc

    rot_doc = doc["rotations"]
    if not isinstance(rot_doc, dict):
        raise ParseError("'rotations' must be an object")
    planarization = emb.planarization
    rotations: list[tuple[int, ...] | None] = [None] * planarization.n
    for key, order in rot_doc.items():
        v = _parse_vertex_name(key, n, c)
        if not isinstance(order, list):
            raise ParseError(f"rotation of {key!r} must be an array")
        rotations[v] = tuple(_parse_vertex_name(t, n, c) for t in order)
    for v, rot in enumerate(rotations):
        if rot is None and planarization.degree(v):
            raise ParseError(f"missing rotation for vertex {emb.vertex_name(v)}")
    object.__setattr__(emb, "rotations", tuple(rot or () for rot in rotations))
    return emb
