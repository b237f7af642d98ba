"""K4 subgraph listing with an essential-step budget.

The listing follows the classic arboricity-bounded clique enumeration
scheme: process vertices by descending degree, keep only neighbours that
come later in that order, intersect two later-neighbourhoods and test
the surviving pairs.  Every K4 is reported exactly once, anchored at its
two earliest vertices.

Steps are counted where the underlying machine model charges them: each
vertex marked and each edge or candidate pair scanned is one essential
step.  Bookkeeping that merely unmarks or emits output is free.  When a
step cap is given the listing aborts as soon as the counter passes it,
which is how the recognizer bounds its runtime on adversarial inputs:
sparse graphs of bounded arboricity finish well inside a linear budget,
dense cores blow past it and get reported instead of enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph

Quad = tuple[int, int, int, int]


@dataclass(frozen=True)
class K4Catalog:
    """Result of a K4 listing run.

    With ``timed_out`` set, ``quads`` holds whatever was found before the
    budget ran out and must not be treated as complete.
    """

    quads: tuple[Quad, ...]
    steps: int
    timed_out: bool
    step_cap: int | None

    def __len__(self) -> int:
        return len(self.quads)


def list_k4(g: Graph, step_cap: int | None = None) -> K4Catalog:
    """List all K4 subgraphs of ``g``, spending at most ``step_cap`` steps."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-len(g.adjacency[v]), v))
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    later: list[frozenset[int]] = [frozenset()] * n
    steps = 0
    for v in range(n):
        nbrs = g.adjacency[v]
        steps += len(nbrs)  # one scan over each edge from both ends
        later[v] = frozenset(w for w in nbrs if rank[w] > rank[v])

    quads: list[Quad] = []
    es = g.edge_set
    for v in order:
        nv = later[v]
        steps += len(nv)  # mark the later neighbourhood of v
        if step_cap is not None and steps > step_cap:
            return K4Catalog(tuple(quads), steps, True, step_cap)
        for u in sorted(nv):
            lu = later[u]
            steps += min(len(nv), len(lu))  # intersection scan
            common = sorted(nv & lu)
            for i in range(len(common)):
                wi = common[i]
                for j in range(i + 1, len(common)):
                    steps += 1  # candidate pair test
                    if (wi, common[j]) in es:
                        quad = tuple(sorted((v, u, wi, common[j])))
                        quads.append(quad)  # type: ignore[arg-type]
            if step_cap is not None and steps > step_cap:
                return K4Catalog(tuple(quads), steps, True, step_cap)
    quads.sort()
    return K4Catalog(tuple(quads), steps, False, step_cap)


def bucket_by_edge(catalog: K4Catalog) -> dict[Edge, tuple[int, ...]]:
    """Map each edge to the indices of the catalog quads covering it."""
    buckets: dict[Edge, list[int]] = {}
    for idx, quad in enumerate(catalog.quads):
        a, b, c, d = quad
        for e in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
            buckets.setdefault(e, []).append(idx)
    return {e: tuple(ids) for e, ids in buckets.items()}
