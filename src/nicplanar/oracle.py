"""Brute-force cross-check for the kite-based recognizer.

The oracle enumerates candidate kite sets directly instead of trusting
the recognizer's selection rule: it builds its own K4 catalogue by
scanning all 4-subsets of the vertices, searches over subsets whose
members pairwise share at most one vertex, and accepts a subset when the
collapsed star graph is planar.  For maximal NIC-planar inputs this
search is complete, because every crossing of such a graph sits inside a
kite on an induced K4.  The oracle does not decide NIC-planarity of
arbitrary graphs, only the kite-coverable (maximal or optimal) cases.

What it shares with the recognizer is deliberately small: the ``Quad``
tuple, ``build_star_graph`` (collapsing a given kite set) and the
planarity test.  The parts that can be wrong in a recognizer-specific
way stay its own: the K4 catalogue (no :mod:`nicplanar.k4` listing), the
choice of kite set (a search, not the sole-occupant selection rule) and
the embedding (none is read off the kites).

Costs grow quickly with the vertex count, so inputs are refused above a
small size limit instead of silently taking hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import LimitExceeded
from .graph import Graph
from .k4 import Quad
from .planarity import test_planarity
from .recognize import build_star_graph

DEFAULT_SIZE_LIMIT = 12


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exhaustive kite-set search.

    ``feasible`` is True when at least one valid kite set exists.
    ``kite_sets`` lists every one found, each a sorted tuple of quads,
    in sorted order.
    ``examined`` counts complete candidate subsets that reached the
    planarity test; ``pruned`` counts abandoned search branches.
    """

    feasible: bool
    kite_sets: tuple[tuple[Quad, ...], ...]
    examined: int
    pruned: int


def brute_k4_catalog(g: Graph) -> tuple[Quad, ...]:
    """All induced K4 vertex sets, found by scanning every 4-subset."""
    adjacency = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    quads = []
    for quad in combinations(range(g.n), 4):
        if all(b in adjacency[a] for a, b in combinations(quad, 2)):
            quads.append(quad)
    return tuple(quads)


def _compatible(a: Quad, b: Quad) -> bool:
    return len(set(a) & set(b)) <= 1


def oracle_maximal_nic(g: Graph, *, optimal: bool = False,
                       limit: int = DEFAULT_SIZE_LIMIT,
                       prune: bool = True) -> OracleResult:
    """Search all kite sets of ``g`` and report the valid ones.

    A subset of the K4 catalogue qualifies when its members pairwise
    share at most one vertex (which already keeps every edge inside at
    most one member) and the star graph obtained by collapsing each
    member is planar.  With ``optimal=True`` the subset must in addition
    cover every edge exactly once and have exactly m - (3n - 6) members.

    ``prune=False`` replays the search as a plain power-set sweep; it is
    only there so tests can confirm pruning never changes the result.
    """
    if g.n > limit:
        raise LimitExceeded(
            f"oracle refuses n = {g.n} above the size limit {limit}")

    catalog = brute_k4_catalog(g)
    target = g.m - (3 * g.n - 6)
    examined = 0
    pruned = 0
    found: list[tuple[Quad, ...]] = []

    def accept(chosen: tuple[Quad, ...]) -> None:
        nonlocal examined
        examined += 1
        if test_planarity(build_star_graph(g, chosen)) is not None:
            found.append(tuple(sorted(chosen)))

    if not prune:
        for size in range(len(catalog) + 1):
            for chosen in combinations(catalog, size):
                if not all(_compatible(a, b)
                           for a, b in combinations(chosen, 2)):
                    pruned += 1
                    continue
                if optimal and not _exact_cover(g, chosen, target):
                    pruned += 1
                    continue
                accept(chosen)
    elif optimal:
        buckets: dict[tuple[int, int], list[Quad]] = {e: [] for e in g.edges}
        for quad in catalog:
            for pair in combinations(quad, 2):
                buckets[pair].append(quad)

        def cover(chosen: list[Quad], uncovered: set) -> None:
            nonlocal pruned
            if not uncovered:
                if len(chosen) == target:
                    accept(tuple(chosen))
                else:
                    pruned += 1
                return
            # branch on the tightest edge so dead ends surface early
            edge = min(uncovered,
                       key=lambda e: sum(1 for q in buckets[e]
                                         if all(_compatible(q, c)
                                                for c in chosen)))
            options = [q for q in buckets[edge]
                       if all(_compatible(q, c) for c in chosen)]
            if not options:
                pruned += 1
                return
            for quad in options:
                quad_edges = {tuple(sorted(p)) for p in combinations(quad, 2)}
                if not quad_edges <= uncovered:
                    pruned += 1
                    continue
                chosen.append(quad)
                cover(chosen, uncovered - quad_edges)
                chosen.pop()

        cover([], set(g.edges))
    else:
        def extend(index: int, chosen: list[Quad]) -> None:
            nonlocal pruned
            if index == len(catalog):
                accept(tuple(chosen))
                return
            quad = catalog[index]
            if all(_compatible(quad, c) for c in chosen):
                chosen.append(quad)
                extend(index + 1, chosen)
                chosen.pop()
            else:
                pruned += 1
            extend(index + 1, chosen)

        extend(0, [])

    kite_sets = tuple(sorted(set(found)))
    return OracleResult(bool(kite_sets), kite_sets, examined, pruned)


def _exact_cover(g: Graph, chosen: tuple[Quad, ...], target: int) -> bool:
    if len(chosen) != target:
        return False
    covered = [tuple(sorted(p)) for quad in chosen
               for p in combinations(quad, 2)]
    return sorted(covered) == list(g.edges)
