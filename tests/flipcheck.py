"""Shared assertion that a kite flip rewires the dual node for node.

A flip removes three nodes (the flipped kite and the two triangle faces
it is pulled through) and creates three others (two triangles where the
kite stood, one kite where the triangles stood).  Every other node keeps
its corner set and all its adjacencies.  The cleanest way to state that
is through quotients: contracting the triangle pair before the flip and
the replacement triangle pair after it must give the same graph on
corner-set labels.
"""

from __future__ import annotations

from nicplanar.dual import build_dual, kite_flip
from nicplanar.embedding import verify_maximal_embedding, verify_nic


def _corner_labels(dual):
    """Node index -> sorted corner tuple with crossing dummies removed.

    Dummy ids are not stable across a flip (the registry is rebuilt), so
    node identities are compared on original vertices only.
    """
    dummies = {entry.dummy for entry in dual.embedding.registry}
    out = {}
    for idx in range(len(dual.nodes)):
        out[idx] = tuple(sorted(set(dual.node_identity(idx)) - dummies))
    return out


def _quotient(dual, merged):
    """Adjacency of the dual with some corner labels merged.

    ``merged`` maps a replacement label to the set of corner labels it
    swallows.  Returns frozenset pairs of labels, loops dropped.
    """
    labels = _corner_labels(dual)
    relabel = {}
    for idx, name in labels.items():
        for target, group in merged.items():
            if name in group:
                relabel[idx] = target
                break
        else:
            relabel[idx] = name
    return {
        frozenset((relabel[link.a], relabel[link.b]))
        for link in dual.links
        if relabel[link.a] != relabel[link.b]
    }


def flip_and_check(emb, site):
    """Apply ``site`` to ``emb``, assert the full flip contract, return result.

    Checks that the flipped embedding verifies as NIC and maximal, that
    the dual census is unchanged, that exactly the three expected nodes
    are replaced by the three new ones, and that the quotient adjacency
    is preserved.
    """
    before = build_dual(emb)
    flipped = kite_flip(emb, site.kite, site.pair)
    after = build_dual(flipped)

    assert verify_nic(flipped).ok
    assert verify_maximal_embedding(flipped).ok
    assert before.census() == after.census()

    kite = tuple(sorted(site.kite))
    r, s = (tuple(sorted(face)) for face in site.pair)
    new_kite = tuple(sorted(site.shared_edge + site.tetra_edge))
    entry = emb.registry[site.entry_index]
    partner = next(e for e in entry.pair if e != site.tetra_edge)
    w, x = site.tetra_edge
    split_a = tuple(sorted((w,) + partner))
    split_b = tuple(sorted((x,) + partner))

    names_before = set(_corner_labels(before).values())
    names_after = set(_corner_labels(after).values())
    assert {kite, r, s} <= names_before
    assert {new_kite, split_a, split_b} <= names_after
    assert not {kite, r, s} & names_after
    assert names_before - {kite, r, s} == names_after - {new_kite, split_a, split_b}

    quotient_before = _quotient(before, {new_kite: {r, s}, kite: {kite}})
    quotient_after = _quotient(after, {new_kite: {new_kite}, kite: {split_a, split_b}})
    assert quotient_before == quotient_after
    return flipped
