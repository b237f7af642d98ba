"""Planarity testing with rotation system extraction.

Thin contract over the left-right planarity test from networkx, which
is imported on the first call: recognizing an optimal graph and every
rejection screen run without it.  The returned rotation system is not
re-checked here.  The recognizer and ``embed_with_crossings`` pass the
embedding they build from it through ``verify_nic``, whose face walk
(``trace_faces``) checks the neighbour permutations, connectivity and
Euler's formula once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    #: cyclic neighbour order per vertex; None when not planar
    rotations: dict[int, tuple[int, ...]] | None


def test_planarity(g: Graph) -> PlanarityResult:
    """Test ``g`` for planarity; on success return a rotation system."""
    # imported here so that runs which never test planarity never load it
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    planar, cert = nx.check_planarity(h, counterexample=False)
    # networkx leaves its graphs in reference cycles; emptied here, their
    # memory is not held until the cyclic collector next runs
    h.clear()
    if not planar:
        return PlanarityResult(False, None)
    data = cert.get_data()
    rotations = {v: tuple(data[v]) for v in range(g.n)}
    cert.clear()
    return PlanarityResult(True, rotations)
