"""Brute-force oracles used to cross-check the library implementations.

Everything here is deliberately naive and independent of the package
internals: planarity via Kuratowski subdivision search, 3-connectivity
by deleting every vertex pair, K4 listing via subset enumeration, faces
by a walk over one dictionary keyed by directed edge.  Sizes are capped
accordingly.
"""

from __future__ import annotations

from itertools import combinations, permutations, repeat

from hypothesis import strategies as st

from nicplanar.graph import Graph, new_graph


@st.composite
def _graphs(draw, min_n: int, max_n: int):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        chosen = []
    return new_graph(n, chosen)


def graph_strategy(min_n: int = 1, max_n: int = 8):
    """Hypothesis strategy for small simple graphs."""
    return _graphs(min_n=min_n, max_n=max_n)


# --- planarity ---


def brute_planar(g: Graph) -> bool:
    """Planarity by exhaustive Kuratowski subdivision search.

    The cap applies after degree-2 smoothing, so stretched-out graphs of
    any size are fine as long as their reduced core stays at 10 vertices.
    """
    comps = _components(g)
    if len(comps) > 1:
        return all(brute_planar(_induced(g, comp)) for comp in comps)
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    _reduce(adj)
    live = [v for v, ns in adj.items() if ns]
    if len(live) > 10:
        raise ValueError("brute_planar is capped at a reduced core of 10 vertices")
    if len(live) <= 4:
        return True
    m = sum(len(adj[v]) for v in live) // 2
    if m > 3 * len(live) - 6:
        return False
    if _has_subdivision_k5(adj, live):
        return False
    if _has_subdivision_k33(adj, live):
        return False
    return True


def _components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(comp)
    return out


def _induced(g: Graph, vertices: list[int]) -> Graph:
    index = {v: i for i, v in enumerate(sorted(vertices))}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    return new_graph(len(vertices), edges)


def _reduce(adj: dict[int, set[int]]) -> None:
    """Strip degree <= 1 vertices and smooth degree-2 vertices in place."""
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            ns = adj[v]
            if len(ns) == 0:
                continue
            if len(ns) == 1:
                (a,) = ns
                adj[a].discard(v)
                ns.clear()
                changed = True
            elif len(ns) == 2:
                a, b = ns
                adj[a].discard(v)
                adj[b].discard(v)
                ns.clear()
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                changed = True


def _paths_realizable(adj, pairs, interior_of) -> bool:
    for pair in pairs:
        x, y = pair
        interior = interior_of.get(pair, ())
        if not interior:
            if y not in adj[x]:
                return False
            continue
        ok = False
        for order in permutations(interior):
            chain = (x, *order, y)
            if all(chain[i + 1] in adj[chain[i]] for i in range(len(chain) - 1)):
                ok = True
                break
        if not ok:
            return False
    return True


def _assignments(spares, pairs):
    """Yield maps pair -> tuple(interior vertices) over all distributions."""
    if not spares:
        yield {}
        return
    head, *rest = spares
    for sub in _assignments(rest, pairs):
        yield sub
        for pair in pairs:
            enriched = dict(sub)
            enriched[pair] = enriched.get(pair, ()) + (head,)
            yield enriched


def _has_subdivision_k5(adj, live) -> bool:
    for branch in combinations(live, 5):
        spares = [v for v in live if v not in branch]
        pairs = list(combinations(branch, 2))
        for interior_of in _assignments(spares, pairs):
            if _paths_realizable(adj, pairs, interior_of):
                return True
    return False


def _has_subdivision_k33(adj, live) -> bool:
    for six in combinations(live, 6):
        rest = [v for v in live if v not in six]
        for left in combinations(six, 3):
            if six[0] not in left:
                continue  # fix first vertex on the left to kill the mirror
            right = tuple(v for v in six if v not in left)
            pairs = [(a, b) for a in left for b in right]
            for interior_of in _assignments(rest, pairs):
                if _paths_realizable(adj, pairs, interior_of):
                    return True
    return False


# --- connectivity ---


def brute_triconnected(g: Graph) -> bool:
    """3-connectivity by definition: ``g`` has at least four vertices and
    stays connected after deleting any set of at most two of them."""
    if g.n < 4:
        return False
    return all(
        _connected_without(g, set(removed))
        for size in range(3)
        for removed in combinations(range(g.n), size)
    )


def _connected_without(g: Graph, removed: set[int]) -> bool:
    start = next(v for v in range(g.n) if v not in removed)
    seen = set(removed) | {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


# --- cliques ---


def brute_k4_sets(g: Graph) -> list[tuple[int, int, int, int]]:
    """All vertex 4-sets inducing a K4, by subset enumeration."""
    out = []
    for quad in combinations(range(g.n), 4):
        if all(g.has_edge(u, v) for u, v in combinations(quad, 2)):
            out.append(quad)
    return out


def brute_k5_sets(g: Graph) -> list[tuple[int, ...]]:
    out = []
    for five in combinations(range(g.n), 5):
        if all(g.has_edge(u, v) for u, v in combinations(five, 2)):
            out.append(five)
    return out


# --- faces ---


def brute_face_walk(rotations) -> list[tuple[int, ...]]:
    """Faces of a rotation system, in ``faces.face_walk``'s form.

    One dictionary maps each directed edge (u, x) to the neighbour of x
    after u; a face is walked by popping edges until the first returns.
    Each face starts at its least corner, at the occurrence followed by
    the least corner when a cut vertex repeats; a lone vertex v is the
    face ``(v,)``; faces are sorted.
    """
    succ: dict[tuple[int, int], int] = {}
    for x, order in enumerate(rotations):
        succ.update(zip(zip(order, repeat(x)), order[1:] + order[:1]))
    faces: list[tuple[int, ...]] = []
    for v, order in enumerate(rotations):
        if not order:
            faces.append((v,))
        for w in order:
            if (v, w) not in succ:
                continue
            corners = [v]
            u, x = v, w
            while True:
                u, x = x, succ.pop((u, x))
                if u == v and x == w:
                    break
                corners.append(u)
            if corners.count(v) > 1:
                size = len(corners)
                i = min((i for i in range(size) if corners[i] == v),
                        key=lambda i: corners[(i + 1) % size])
                corners = corners[i:] + corners[:i]
            faces.append(tuple(corners))
    faces.sort()
    return faces
