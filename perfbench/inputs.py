"""Seeded inputs for the benchmark workloads.

Every graph here is built by the benchmark itself, from a
``random.Random`` seeded by the run's ``--seed``; the program under test
only ever sees the files written from them.  Each rejected input comes
with the certificate that makes its rejection correct, computed here and
re-checked by ``checks.py`` against the file contents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass
class Graph:
    """An input graph plus what the benchmark knows about it."""

    name: str
    n: int
    edges: list[Edge]
    #: kind of input: drum, n7, maximal-planar, moved-edge, dense-core
    kind: str
    #: for drums: the kites as quad cycles (a, b, c, d), diagonals a-c, b-d,
    #: already in the relabeled vertex ids
    kites: list[tuple[int, int, int, int]] = field(default_factory=list)
    #: rejection certificate: the moved edge, or the K7 vertex set
    witness: tuple[int, ...] = ()

    def edge_list_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def drum(k: int) -> tuple[int, list[Edge], list[tuple[int, int, int, int]]]:
    """The optimal drum on n = 5k+2 vertices: 3k kites, 18k edges.

    Poles N = 0 and S = 1; column i holds p, q, r, s and a hinge h.  Its
    kites are the quad cycles (N, q[i-1], h[i], p[i]), (p[i], q[i], s[i],
    r[i]) and (S, s[i-1], h[i], r[i]); every edge lies in exactly one.
    """
    N, S = 0, 1
    col = lambda i, j: 2 + 5 * (i % k) + j  # j: p=0 q=1 r=2 s=3 h=4
    kites = []
    for i in range(k):
        p, q, r, s, h = (col(i, j) for j in range(5))
        kites.append((N, col(i - 1, 1), h, p))
        kites.append((p, q, s, r))
        kites.append((S, col(i - 1, 3), h, r))
    edges = sorted({edge(a, b) for quad in kites for a, b in _kite_edges(quad)})
    if len(edges) != 18 * k:
        raise ValueError("drum kites must be edge-disjoint")
    return 5 * k + 2, edges, kites


def _kite_edges(quad) -> list[Edge]:
    a, b, c, d = quad
    return [(a, b), (b, c), (c, d), (d, a), (a, c), (b, d)]


def relabeled_drum(k: int, rng: random.Random) -> Graph:
    """A drum under a random vertex relabeling, edges in shuffled order."""
    n, edges, kites = drum(k)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [edge(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return Graph(f"drum-k{k}", n, out, "drum",
                 kites=[tuple(perm[v] for v in quad) for quad in kites])


# --- inputs that must be rejected ---


def n7_graph(idx: int, rng: random.Random) -> Graph:
    """K7 minus three random edges: n = 7 and 5m = 18(n-2) = 90."""
    all_edges = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    drop = set(rng.sample(all_edges, 3))
    return Graph(f"n7-{idx}", 7, [e for e in all_edges if e not in drop], "n7")


def maximal_planar(idx: int, n: int, rng: random.Random) -> Graph:
    """A random stacked triangulation: 3n - 6 edges, relabeled."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(f"planar-{idx}", n, [edge(perm[u], perm[v]) for u, v in edges],
                 "maximal-planar")


def in_k4(adj: list[set[int]], u: int, v: int) -> bool:
    """True when edge u-v lies in some K4 of the graph ``adj``."""
    common = sorted(adj[u] & adj[v])
    return any(common[j] in adj[common[i]]
               for i in range(len(common)) for j in range(i + 1, len(common)))


def moved_edge_drum(idx: int, k: int, rng: random.Random) -> Graph:
    """A relabeled drum with one edge moved to a non-edge lying in no K4.

    The edge count still fits 5m = 18(n-2), but an optimal graph has
    every edge inside a kite, so the moved edge certifies the rejection.
    """
    g = relabeled_drum(k, rng)
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    while True:
        removed = g.edges[rng.randrange(len(g.edges))]
        u, v = rng.sample(range(g.n), 2)
        if v in adj[u]:
            continue
        adj[removed[0]].discard(removed[1])
        adj[removed[1]].discard(removed[0])
        adj[u].add(v)
        adj[v].add(u)
        if not in_k4(adj, u, v):
            break
        adj[u].discard(v)
        adj[v].discard(u)
        adj[removed[0]].add(removed[1])
        adj[removed[1]].add(removed[0])
    edges = [e for e in g.edges if e != removed] + [edge(u, v)]
    return Graph(f"moved-k{k}-{idx}", g.n, edges, "moved-edge",
                 witness=edge(u, v))


def dense_core(idx: int, k: int, core: int, rng: random.Random) -> Graph:
    """n = 5k+2, m = 18k: a K_core (core >= 7) in a sparse random rest.

    Every vertex outside the core joins two earlier vertices, and random
    edges top the count up to 18k.  A K7 has 21 > 4*7 - 8 edges, so it is
    not even 1-planar, which certifies the rejection.
    """
    n, m = 5 * k + 2, 18 * k
    order = list(range(n))
    rng.shuffle(order)
    edges = {edge(order[i], order[j]) for i in range(core) for j in range(i)}
    for i in range(core, n):
        for j in rng.sample(range(i), 2):
            edges.add(edge(order[i], order[j]))
    if len(edges) > m:
        raise ValueError(f"core {core} does not fit k = {k}")
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add(edge(u, v))
    out = sorted(edges)
    rng.shuffle(out)
    return Graph(f"core-k{k}-{idx}", n, out, "dense-core",
                 witness=tuple(sorted(order[:7])))
