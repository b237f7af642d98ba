"""Planarity testing with rotation system extraction.

Thin contract over the left-right planarity test from networkx, which
is imported on the first call.  ``test_planarity`` returns a rotation
system, the tuple of each vertex's neighbours in cyclic order, indexed
by vertex, or None when the graph is not planar.  Its callers are the
recognizer's star-graph fallback, ``embed_with_crossings`` (used by that
fallback and by ``np_gadget_embedding``) and the brute-force oracle;
recognizing an optimal graph, every rejection screen, the family
generators, the verifiers and the dual run without it.  The returned
rotation system is not re-checked here.  The recognizer and
``embed_with_crossings`` pass the embedding they build from it through
``verify_nic``, whose face walk (``trace_faces``) checks the neighbour
permutations, connectivity and Euler's formula once.
"""

from __future__ import annotations

from .graph import Graph


def test_planarity(g: Graph) -> tuple[tuple[int, ...], ...] | None:
    """The rotation system of a planar embedding of ``g``, indexed by
    vertex; None when ``g`` is not planar."""
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
        return None
    data = cert.get_data()
    rotations = tuple(tuple(data[v]) for v in range(g.n))
    cert.clear()
    return rotations
