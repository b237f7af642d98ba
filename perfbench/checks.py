"""Output checks computed apart from the program under test.

Nothing here imports ``nicplanar``: the face walk, the crossing rules,
the dual census and the certificates of rejection are recomputed from
the emitted documents and from what the benchmark knows about its own
inputs.  Every check raises :class:`CheckFailed` with a reason.
"""

from __future__ import annotations

import json
from fractions import Fraction

from inputs import Graph, edge, in_k4


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- embeddings ---


def _vertex(token, n: int, c: int) -> int:
    if isinstance(token, str) and token.startswith("x"):
        v = n + int(token[1:])
        require(n <= v < n + c, f"dummy {token} out of range")
        return v
    v = int(token)
    require(0 <= v < n, f"vertex {token} out of range")
    return v


def faces_of(rotations: list[list[int]]) -> list[list[int]]:
    """Faces of a rotation system: leave w after u -> w by u's successor."""
    position = [{w: i for i, w in enumerate(rot)} for rot in rotations]
    seen: set[tuple[int, int]] = set()
    faces = []
    for v, rot in enumerate(rotations):
        for w in rot:
            if (v, w) in seen:
                continue
            face = []
            a, b = v, w
            while (a, b) not in seen:
                seen.add((a, b))
                face.append(a)
                rb = rotations[b]
                require(a in position[b], f"rotation of {b} misses {a}")
                a, b = b, rb[(position[b][a] + 1) % len(rb)]
            require((a, b) == (v, w), "face walk did not close")
            faces.append(face)
    return faces


def check_embedding(doc: dict, n: int, edges, triangulated: bool = True) -> dict:
    """NIC conditions, Euler's formula and, if asked, all-triangle faces.

    ``edges`` is the graph the embedding must be of.  Returns the counts
    the dual checks need: crossings, planarization size, faces and
    tetrahedron centers.
    """
    require(doc["n"] == n, f"embedding has n = {doc['n']}, expected {n}")
    base = {edge(u, v) for u, v in doc["edges"]}
    require(len(base) == len(doc["edges"]), "embedding repeats an edge")
    require(base == set(edges), "embedding edges differ from the graph")
    pairs = [(edge(*p["pair"][0]), edge(*p["pair"][1])) for p in doc["crossings"]]
    c = len(pairs)
    crossed = [e for pair in pairs for e in pair]
    require(set(crossed) <= base, "a crossing uses a non-edge")
    require(len(set(crossed)) == 2 * c, "an edge is crossed twice")
    shared: set[tuple[int, int]] = set()
    for e1, e2 in pairs:
        corners = sorted(set(e1 + e2))
        require(len(corners) == 4, f"crossing pair {e1} {e2} is adjacent")
        for i in range(4):
            for j in range(i + 1, 4):
                require((corners[i], corners[j]) not in shared,
                        f"two crossing pairs share {corners[i]}, {corners[j]}")
                shared.add((corners[i], corners[j]))

    size = n + c
    nbrs: list[set[int]] = [set() for _ in range(size)]
    for u, v in base - set(crossed):
        nbrs[u].add(v)
        nbrs[v].add(u)
    for i, (e1, e2) in enumerate(pairs):
        for u in e1 + e2:
            nbrs[u].add(n + i)
            nbrs[n + i].add(u)
    rotations: list[list[int] | None] = [None] * size
    for key, order in doc["rotations"].items():
        v = _vertex(key, n, c)
        rotations[v] = [_vertex(t, n, c) for t in order]
    for v in range(size):
        rot = rotations[v] if rotations[v] is not None else []
        require(len(rot) == len(nbrs[v]) and set(rot) == nbrs[v],
                f"rotation of {v} is not a permutation of its neighbours")
        rotations[v] = rot
    for i, (e1, e2) in enumerate(pairs):
        rot = rotations[n + i]
        require({edge(rot[0], rot[2]), edge(rot[1], rot[3])} == {e1, e2},
                f"dummy x{i} does not alternate its pair")
    m_planar = sum(len(s) for s in nbrs) // 2
    faces = faces_of(rotations)
    require(size - m_planar + len(faces) == 2,
            f"Euler fails: {size} - {m_planar} + {len(faces)} != 2")
    if triangulated:
        require(all(len(f) == 3 for f in faces), "a face is not a triangle")
    tetra = sum(1 for v in range(n)
                if len(nbrs[v]) == 3 and max(nbrs[v]) < n)
    return {"c": c, "m": len(base), "m_planar": m_planar,
            "faces": faces, "tetra": tetra}


def check_recognized_drum(out: str, g: Graph) -> None:
    """The accepted drum's crossings must be exactly its kite diagonals."""
    doc = json.loads(out)
    check_embedding(doc, g.n, g.edges)
    got = {frozenset((edge(*p["pair"][0]), edge(*p["pair"][1])))
           for p in doc["crossings"]}
    want = {frozenset((edge(a, c), edge(b, d))) for a, b, c, d in g.kites}
    require(got == want, "crossing pairs differ from the drum's kite diagonals")


# --- rejections ---


def certify_rejection(g: Graph) -> None:
    """Prove from the input alone that no optimal NIC-planar graph is it."""
    edges = set(g.edges)
    require(len(edges) == len(g.edges), f"{g.name} repeats an edge")
    m = len(edges)
    if g.kind == "n7":
        # 5m = 18(n-2) forces k = 1, so 3 kites pairwise sharing at most
        # one vertex, which need 4 + 3 + 2 = 9 > 7 vertices
        require(g.n == 7 and 5 * m == 18 * 5, f"{g.name} is not n = 7, m = 18")
    elif g.kind == "maximal-planar":
        require(m == 3 * g.n - 6 and 5 * m != 18 * (g.n - 2),
                f"{g.name} fits the optimal edge count")
    elif g.kind == "moved-edge":
        # an optimal graph has c = m - 3n + 6 crossings, each inside a
        # kite, and 6c = m here: the kites cover every edge, so every
        # edge lies in a K4
        require(5 * m == 18 * (g.n - 2), f"{g.name} has the wrong edge count")
        adj: list[set[int]] = [set() for _ in range(g.n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        u, v = g.witness
        require(v in adj[u], f"{g.name} lacks its moved edge")
        require(not in_k4(adj, u, v), f"{g.name}: the moved edge lies in a K4")
    elif g.kind == "dense-core":
        core = g.witness
        require(len(core) == 7 and all(
            edge(core[i], core[j]) in edges
            for i in range(7) for j in range(i)), f"{g.name} has no K7")
    else:
        raise CheckFailed(f"no certificate for kind {g.kind}")


def check_batch(out: str, paths: list[str], kinds: list[str]) -> None:
    """One rejected row per input, in input order.

    The edge-count gate is exact arithmetic, so a maximal planar graph
    (n >= 8 here) can only be rejected for its edge count.
    """
    lines = out.splitlines()
    require(len(lines) == len(paths),
            f"{len(lines)} rows for {len(paths)} inputs")
    for line, path, kind in zip(lines, paths, kinds):
        row = json.loads(line)
        require(row["input"] == path, f"row for {row['input']}, expected {path}")
        require(row["accepted"] is False and row["embedding"] is None,
                f"{path} was accepted")
        require(isinstance(row["reason"], str), f"{path} has no reason")
        if kind == "maximal-planar":
            require(row["reason"] == "EdgeCountMismatch",
                    f"{path} rejected for {row['reason']}, not its edge count")


# --- maximal families ---


def family_size(family: str, params: dict) -> tuple[int, int]:
    """(n, m) of a family member, from the formulas of the constructions."""
    k = params.get("k")
    if family == "optimal":
        return 5 * k + 2, 18 * k
    if family == "sparsest":
        return 5 * k + 2, 16 * k
    if family == "intermediate":
        n = 5 * k + 2 + params["i"]
        return n, 18 * (n - 2) // 5
    if family == "nested-k5":
        return 15 * k - 12, 51 * k - 48
    if family == "rac-counterexample":
        return 180, 372
    raise CheckFailed(f"unknown family {family}")


def graph6_edges(data: bytes) -> tuple[int, set]:
    import networkx as nx

    h = nx.from_graph6_bytes(data)
    return h.number_of_nodes(), {edge(u, v) for u, v in h.edges()}


def check_generated(out: str, family: str, params: dict) -> dict:
    """Size formula, graph6 agreement and the embedding's own checks.

    Returns the embedding's counts for the dual check.  The RAC witness is not maximal: its fans leave 4-faces, which the
    face walk has to find.
    """
    doc = json.loads(out)
    n, m = family_size(family, params)
    emb = doc["embedding"]
    require((emb["n"], len(emb["edges"])) == (n, m),
            f"{family} {params}: (n, m) = ({emb['n']}, {len(emb['edges'])}), "
            f"expected ({n}, {m})")
    require((doc["n"], doc["m"]) == (n, m), "reported (n, m) is off")
    g6_n, g6_edges = graph6_edges(doc["graph6"].encode("ascii"))
    edges = {edge(u, v) for u, v in emb["edges"]}
    require(g6_n == n and g6_edges == edges,
            "graph6 encodes another graph than the embedding")
    maximal = family != "rac-counterexample"
    counts = check_embedding(emb, n, edges, triangulated=maximal)
    if not maximal:
        require(any(len(f) != 3 for f in counts["faces"]),
                "the RAC witness has only triangular faces")
    return counts


def check_verify(out: str, maximal: bool) -> None:
    doc = json.loads(out)
    if maximal:
        require(doc["ok"] is True and not doc["violations"],
                f"verify --maximal rejects a maximal embedding: "
                f"{doc['violations'][:2]}")
    else:
        require(doc["ok"] is False and any(
            v["rule"] == "all-triangles" for v in doc["violations"]),
            "verify --maximal accepts an embedding with a 4-face")


def check_dual(out: str, family: str, counts: dict) -> None:
    """Census, links, levels and accounting against the embedding's counts."""
    doc = json.loads(out)
    kites, tetra = counts["c"], counts["tetra"]
    triangles = len(counts["faces"]) - 4 * kites - 3 * tetra
    require(doc["census"] == {"kite": kites, "tetrahedron": tetra,
                              "triangle": triangles},
            f"census {doc['census']} differs from ({kites}, {tetra}, "
            f"{triangles})")
    kinds = [node["kind"] for node in doc["nodes"]]
    require(len(kinds) == kites + tetra + triangles
            and kinds.count("kite") == kites, "node list disagrees with census")
    require(len(doc["links"]) == counts["m_planar"] - 4 * kites - 3 * tetra,
            f"{len(doc['links'])} links, expected "
            f"{counts['m_planar'] - 4 * kites - 3 * tetra}")
    require(doc["rules"]["ok"] and not doc["rules"]["violations"],
            "dual rules report a violation")
    require(doc["structure"] == [], f"dual structure: {doc['structure']}")
    levels = doc["levels"]
    require(levels is not None and len(levels["per_node"]) == len(kinds)
            and all(0 <= lv <= 2 for lv in levels["per_node"]),
            "levels beyond 2")
    account = doc["accounting"]
    require(account is not None, "no accounting")
    planar = counts["m"] - 2 * kites
    totals = [Fraction(t) for t in account["totals"]]
    require(Fraction(account["grand_total"]) == planar,
            f"grand total {account['grand_total']} != m - 2c = {planar}")
    require(sum(totals) == planar,
            f"sphere totals sum to {sum(totals)}, not m - 2c = {planar}")
    require(len(totals) == kites and all(4 <= t <= 14 for t in totals),
            "a sphere total lies outside [4, 14]")
    if family == "optimal":
        require(all(t == 4 for t in totals), "optimal sphere total is not 4")
    if family == "sparsest":
        require(all(t == 14 for t in totals), "sparsest sphere total is not 14")
