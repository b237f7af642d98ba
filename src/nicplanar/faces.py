"""Faces of combinatorial rotation systems, found by walking them.

A rotation system assigns every vertex a cyclic order of its neighbours.
Faces are the orbits of directed edges under the rule: having arrived at
``w`` along ``u -> w``, leave along the successor of ``u`` in the rotation
of ``w``.  On a spherical (planar, genus zero) embedding of a connected
graph the orbit count satisfies Euler's formula ``n - m + f = 2``.
"""

from __future__ import annotations

from typing import Sequence


def face_walk(rotations: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Return the faces of ``rotations[v]``, v = 0..n-1, as corner tuples.

    Each face starts at its smallest directed edge, and faces are sorted
    by it; a lone vertex ``v`` is the face ``(v,)``.  Nothing is checked:
    the caller, ``embedding.trace_faces``, already has.  Other input gives
    wrong faces or raises, never a loop: each step pops an edge.
    """
    # nxt[x][u]: the neighbour of x after u, along which the walk leaves x
    # having arrived along u -> x; popped once that edge is walked
    nxt = [dict(zip(order, order[1:] + order[:1])) for order in rotations]
    faces: list[tuple[int, ...]] = []
    # faces through smaller vertices are already walked: v is the least corner
    for v, order in enumerate(rotations):
        if not order:
            faces.append((v,))
        for w in order:
            if v not in nxt[w]:
                continue
            corners = [v]
            u, x = v, w
            while True:
                u, x = x, nxt[x].pop(u)
                if u == v and x == w:
                    break
                corners.append(u)
            if corners.count(v) > 1:  # v is a cut vertex: use its least edge
                size = len(corners)
                i = min((i for i in range(size) if corners[i] == v),
                        key=lambda i: corners[(i + 1) % size])
                corners = corners[i:] + corners[:i]
            faces.append(tuple(corners))
    faces.sort()
    return faces
