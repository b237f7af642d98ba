"""DOT and SVG renderings of embeddings and generalized duals.

These are debugging aids, not layout research: the SVG places the
planarization with a barycentric (Tutte-style) iteration pinned to the
largest face, which produces a plane drawing whenever the planarization
is 3-connected and a still-readable approximation otherwise.  Crossing
dummies are drawn as small squares, matching their role as artificial
degree-4 vertices.
"""

from __future__ import annotations

import math

from .dual import GeneralizedDual
from .embedding import NicEmbedding, trace_faces

_DUAL_SHAPES = {
    "kite": "diamond",
    "triangle": "triangle",
    "tetrahedron": "house",
}

_SWEEPS = 600

#: width and height of the SVG canvas, in pixels
_SVG_SIZE = 840


def embedding_to_dot(emb: NicEmbedding) -> str:
    """Planarization as an undirected DOT graph, dummies as squares."""
    lines = ["graph planarization {"]
    for v in range(emb.planarization.n):
        if emb.is_dummy(v):
            lines.append(
                f'  {emb.vertex_name(v)} [shape=square, width=0.12, '
                'fixedsize=true, label=""];')
        else:
            lines.append(f"  {v} [shape=circle];")
    crossing = {v for v in range(emb.planarization.n) if emb.is_dummy(v)}
    for u, v in emb.planarization.edges:
        attr = " [color=red]" if u in crossing or v in crossing else ""
        lines.append(f"  {emb.vertex_name(u)} -- {emb.vertex_name(v)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dual_to_dot(dual: GeneralizedDual) -> str:
    """Generalized dual as an undirected DOT graph.

    Node shapes encode kinds (Kite diamond, Triangle triangle,
    Tetrahedron house); labels carry the primal corner sets, link labels
    the shared planarization edge.
    """
    lines = ["graph dual {"]
    for idx, node in enumerate(dual.nodes):
        shape = _DUAL_SHAPES[node.kind]
        corners = "-".join(str(v) for v in dual.node_identity(idx))
        lines.append(f'  n{idx} [shape={shape}, label="{node.kind} {corners}"];')
    for link in dual.links:
        u, v = link.via
        lines.append(f'  n{link.a} -- n{link.b} [label="{u}-{v}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _layout(emb: NicEmbedding) -> list[tuple[float, float]]:
    g = emb.planarization
    if g.n == 0:
        return []
    rim = max(trace_faces(emb), key=len)
    pos = [(0.0, 0.0)] * g.n
    pinned = [False] * g.n
    for i, v in enumerate(rim):
        angle = 2 * math.pi * i / len(rim)
        pos[v] = (math.cos(angle), math.sin(angle))
        pinned[v] = True
    for _ in range(_SWEEPS):
        for v in range(g.n):
            if pinned[v] or not g.adjacency[v]:
                continue
            xs = sum(pos[w][0] for w in g.adjacency[v])
            ys = sum(pos[w][1] for w in g.adjacency[v])
            d = len(g.adjacency[v])
            pos[v] = (xs / d, ys / d)
    return pos


def embedding_to_svg(emb: NicEmbedding) -> str:
    """Planarization as a standalone SVG document."""
    size = _SVG_SIZE
    pos = _layout(emb)
    margin = 40.0
    scale = (size - 2 * margin) / 2.0

    def point(v: int) -> tuple[float, float]:
        x, y = pos[v]
        return (margin + scale * (x + 1), margin + scale * (y + 1))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'  <rect width="{size}" height="{size}" fill="white"/>',
    ]
    crossing = {v for v in range(emb.planarization.n) if emb.is_dummy(v)}
    for u, v in emb.planarization.edges:
        (x1, y1), (x2, y2) = point(u), point(v)
        color = "#c0392b" if u in crossing or v in crossing else "#444444"
        parts.append(
            f'  <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
            f'y2="{y2:.2f}" stroke="{color}" stroke-width="1.4"/>')
    for v in range(emb.planarization.n):
        x, y = point(v)
        if emb.is_dummy(v):
            parts.append(
                f'  <rect x="{x - 4:.2f}" y="{y - 4:.2f}" width="8" '
                'height="8" fill="#c0392b"/>')
        else:
            parts.append(
                f'  <circle cx="{x:.2f}" cy="{y:.2f}" r="9" fill="#e8f0fe" '
                'stroke="#1a3f8b" stroke-width="1.2"/>')
            parts.append(
                f'  <text x="{x:.2f}" y="{y + 3.2:.2f}" font-size="9" '
                f'font-family="sans-serif" text-anchor="middle">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
