"""Simple undirected graphs: construction, I/O, connectivity predicates.

Vertices are dense integers ``0 .. n-1`` and edges are stored as sorted
pairs.  Two interchange formats are supported: a line-oriented edge list
(vertex count on the first line, one ``u v`` pair per line) and the
standard graph6 encoding, including the extended length headers for
``n >= 63``.
"""

from __future__ import annotations

import re
from binascii import b2a_base64
from dataclasses import dataclass, field
from math import isqrt

from .errors import (
    DuplicateEdge,
    GraphError,
    LoopEdge,
    ParseError,
    TooSmall,
    VertexOutOfRange,
)

Edge = tuple[int, int]

FORMATS = ("edge-list", "graph6")

#: largest vertex count ``new_graph`` accepts; inputs state n, so it is
#: checked before n adjacency lists are allocated
MAX_VERTICES = 1 << 20


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph."""

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]
    edge_set: frozenset[Edge] = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self.edge_set


def new_graph(n: int, edges) -> Graph:
    """Build a graph, validating vertex range and simplicity."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")
    normalized: list[Edge] = []
    seen: set[Edge] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside vertex range [0, {n})")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"edge {e} listed twice")
        seen.add(e)
        normalized.append(e)
    normalized.sort()
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in normalized:
        neighbours[u].append(v)
        neighbours[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbours)
    return Graph(n, tuple(normalized), adjacency, frozenset(normalized))


# --- edge-list format ---


def _parse_edge_list(data: bytes) -> Graph:
    offset = 0
    n: int | None = None
    pairs: list[Edge] = []
    for raw in data.split(b"\n"):
        line = raw.strip()
        if line:
            tokens = line.split()
            try:
                values = [int(t) for t in tokens]
            except ValueError:
                raise ParseError("expected integers", offset) from None
            if n is None:
                if len(values) != 1:
                    raise ParseError("first line must hold the vertex count alone", offset)
                n = values[0]
            else:
                if len(values) != 2:
                    raise ParseError("edge line must hold exactly two endpoints", offset)
                pairs.append((values[0], values[1]))
        offset += len(raw) + 1
    if n is None:
        raise ParseError("empty input", 0)
    try:
        return new_graph(n, pairs)
    except GraphError as exc:
        raise ParseError(str(exc), None) from exc


def _serialize_edge_list(g: Graph) -> bytes:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return ("\n".join(lines) + "\n").encode("ascii")


# --- graph6 format ---

_G6_HEADER = b">>graph6<<"
_G6_ALPHABET = bytes(range(63, 127))
_G6_NONZERO = re.compile(rb"[@-~]")  # every graph6 byte but "?", the zero sextet
_B64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    _G6_ALPHABET,
)


def _parse_graph6(data: bytes) -> Graph:
    base = 0
    if data.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        data = data[base:]
    data = data.rstrip(b"\r\n")
    if not data:
        raise ParseError("empty graph6 input", base)

    def byte_at(i: int) -> int:
        if i >= len(data):
            raise ParseError("truncated graph6 input", base + len(data))
        b = data[i]
        if not 63 <= b <= 126:
            raise ParseError(f"byte {b:#x} outside graph6 alphabet", base + i)
        return b - 63

    pos = 0
    if data[0:1] == b"~":
        if data[1:2] == b"~":
            digits = [byte_at(i) for i in range(2, 8)]
            pos = 8
        else:
            digits = [byte_at(i) for i in range(1, 4)]
            pos = 4
        n = 0
        for d in digits:
            n = (n << 6) | d
    else:
        n = byte_at(0)
        pos = 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise ParseError(
            f"expected {nbytes} bit-vector bytes for n={n}, found {len(data) - pos}",
            base + pos,
        )
    if data.translate(None, _G6_ALPHABET):
        for i in range(pos, len(data)):
            byte_at(i)  # raises at the first byte outside the alphabet
    if nbytes and (data[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise ParseError("nonzero padding bits", base + len(data) - 1)

    # Only the sextets holding a set bit are visited; bit k of the vector
    # (most significant first) is the pair (u, v) with k = v(v-1)/2 + u.
    pairs: list[Edge] = []
    for hit in _G6_NONZERO.finditer(data, pos):
        i = hit.start()
        value = data[i] - 63
        first = 6 * (i - pos)
        for j in range(6):
            if value & (32 >> j):
                k = first + j
                v = (1 + isqrt(8 * k + 1)) // 2
                pairs.append((k - v * (v - 1) // 2, v))
    return new_graph(n, pairs)


def _serialize_graph6(g: Graph) -> bytes:
    n = g.n
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        for shift in (12, 6, 0):
            out.append(((n >> shift) & 63) + 63)
    elif n <= 68719476735:
        out.extend((126, 126))
        for shift in (30, 24, 18, 12, 6, 0):
            out.append(((n >> shift) & 63) + 63)
    else:
        raise GraphError(f"graph6 cannot encode n={n}")
    # Set each edge's bit in a buffer of whole 24-bit groups, then let
    # base64 cut it into sextets and map them onto graph6's alphabet.
    nbits = n * (n - 1) // 2
    bits = bytearray((nbits + 23) // 24 * 3)
    for u, v in g.edges:
        k = v * (v - 1) // 2 + u
        bits[k >> 3] |= 128 >> (k & 7)
    sextets = b2a_base64(bits, newline=False).translate(_B64_TO_G6)
    out += sextets[:(nbits + 5) // 6]
    return bytes(out)


def parse_graph(data: bytes, fmt: str = "edge-list") -> Graph:
    """Decode ``data`` in the named format (``edge-list`` or ``graph6``)."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ParseError("input text is not ASCII", exc.start) from None
    if fmt == "edge-list":
        return _parse_edge_list(data)
    if fmt == "graph6":
        return _parse_graph6(data)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def serialize_graph(g: Graph, fmt: str = "edge-list") -> bytes:
    """Encode ``g`` in the named format (``edge-list`` or ``graph6``)."""
    if fmt == "edge-list":
        return _serialize_edge_list(g)
    if fmt == "graph6":
        return _serialize_graph6(g)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


# --- connectivity predicates ---


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == g.n


def is_biconnected(g: Graph) -> bool:
    """True when ``g`` is connected and has no cut vertex.

    Single-vertex graphs count as biconnected; two vertices must be joined
    by their edge.  Iterative lowpoint computation, no recursion.
    """
    if g.n == 0:
        raise TooSmall("biconnectivity needs at least one vertex")
    if g.n == 1:
        return True
    if g.n == 2:
        return g.m == 1
    adj = g.adjacency
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    cursor = [0] * g.n
    disc[0] = low[0] = 0
    clock = 1
    root_children = 0
    stack = [0]
    while stack:
        v = stack[-1]
        if cursor[v] < len(adj[v]):
            w = adj[v][cursor[v]]
            cursor[v] += 1
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = clock
                clock += 1
                if v == 0:
                    root_children += 1
                stack.append(w)
            elif w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            p = parent[v]
            if p != -1:
                if low[v] < low[p]:
                    low[p] = low[v]
                if p != 0 and low[v] >= disc[p]:
                    return False
    return clock == g.n and root_children <= 1
