"""Bitmask-backed simple undirected graphs on at most 64 vertices.

Vertices are the integers ``0..n-1``.  A vertex set is an ordinary Python
int interpreted as a bitmask, so every set operation is a single machine
word operation at the sizes this package targets.  Graphs are immutable
values: all operations return new graphs and are safe to share freely.

The module also speaks the two on-disk formats used throughout: graph6
(the standard compact ASCII encoding of small graphs) and a plain edge
list ("n m" header line followed by "u v" pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ContractViolationError, FormatError

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with bitmask adjacency.

    ``adj[v]`` is the bitmask of neighbours of ``v``.  Construction
    validates simplicity (no self-loops) and symmetry.
    """

    n: int
    adj: tuple[int, ...]
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.n <= MAX_VERTICES:
            raise ContractViolationError(
                f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}"
            )
        if len(self.adj) != self.n:
            raise ContractViolationError(
                f"adjacency has {len(self.adj)} rows for {self.n} vertices"
            )
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ContractViolationError(
                    f"adjacency of vertex {v} mentions vertices >= {self.n}"
                )
            if row >> v & 1:
                raise ContractViolationError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ContractViolationError(
                        f"asymmetric adjacency between {u} and {v}"
                    )

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], label: str | None = None
    ) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ContractViolationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolationError(
                    f"edge ({u}, {v}) out of range for n={n}"
                )
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj), label)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(higher):
                out.append((v, u))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def relabel(self, perm: tuple[int, ...], label: str | None = None) -> "Graph":
        """Apply a permutation: position ``i`` of ``perm`` names the old
        vertex that becomes new vertex ``i``."""
        pos = [0] * self.n
        for i, v in enumerate(perm):
            pos[v] = i
        adj = [0] * self.n
        for i, v in enumerate(perm):
            row = 0
            for u in bits(self.adj[v]):
                row |= 1 << pos[u]
            adj[i] = row
        return Graph(self.n, tuple(adj), label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = f" {self.label!r}" if self.label else ""
        return f"Graph(n={self.n}, e={self.edge_count}{name})"


def _check_subset(g: Graph, s: int, what: str = "vertex set") -> None:
    if s & ~g.vertex_mask:
        raise ContractViolationError(f"{what} mentions vertices outside 0..{g.n - 1}")


def _reach_from(adj: tuple[int, ...], domain: int, start_bit: int) -> int:
    """Vertices of ``domain`` reachable from the vertex of ``start_bit``."""
    reach = start_bit
    frontier = start_bit
    while frontier:
        grow = 0
        rest = frontier
        while rest:
            low = rest & -rest
            grow |= adj[low.bit_length() - 1]
            rest ^= low
        frontier = grow & domain & ~reach
        reach |= frontier
    return reach


def induced_is_connected(g: Graph, s: int) -> bool:
    """Whether the subgraph induced by vertex set ``s`` is connected."""
    if s == 0:
        raise ContractViolationError("connectivity of the empty set is undefined")
    _check_subset(g, s)
    return _reach_from(g.adj, s, s & -s) == s


def components(g: Graph, s: int) -> list[int]:
    """Connected components of the subgraph induced by ``s``.

    Returned as bitmasks ordered by smallest member; ``s`` may be empty.
    """
    _check_subset(g, s)
    out = []
    rest = s
    while rest:
        comp = _reach_from(g.adj, rest, rest & -rest)
        out.append(comp)
        rest &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return induced_is_connected(g, g.vertex_mask)


def subgraph(g: Graph, s: int, label: str | None = None) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``s``, reindexed contiguously.

    Returns the new graph together with the index map: entry ``i`` is the
    original id of new vertex ``i``.
    """
    if s == 0:
        raise ContractViolationError("induced subgraph on the empty set")
    _check_subset(g, s)
    keep = list(bits(s))
    pos = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for u in bits(g.adj[v] & s):
            row |= 1 << pos[u]
        adj.append(row)
    return Graph(len(keep), tuple(adj), label), tuple(keep)


def delete_vertices(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
    """Delete the vertices of ``s``, reindexing the survivors.

    Returns the new graph and the index map (new id -> old id).  Deleting
    every vertex is an error.
    """
    _check_subset(g, s, "deletion set")
    if s == g.vertex_mask:
        raise ContractViolationError("cannot delete all vertices of a graph")
    return subgraph(g, g.vertex_mask & ~s)


def pendant_vertices(g: Graph) -> int:
    """Bitmask of all degree-1 vertices."""
    return mask_of(v for v in range(g.n) if g.adj[v].bit_count() == 1)


def cut_vertices(g: Graph) -> int:
    """Bitmask of all vertices whose removal disconnects ``g``.

    Requires a connected input.
    """
    if not is_connected(g):
        raise ContractViolationError("cut vertices are defined for connected graphs")
    if g.n == 1:
        return 0
    out = 0
    for v in range(g.n):
        rest = g.vertex_mask & ~(1 << v)
        if len(components(g, rest)) >= 2:
            out |= 1 << v
    return out


# ---------------------------------------------------------------------------
# graph6 and edge-list text formats


def to_graph6(g: Graph) -> str:
    """Encode in graph6: size header then upper-triangle bits, column
    major, six bits per byte offset by 63."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bitlist = []
    for j in range(1, n):
        for i in range(j):
            bitlist.append(g.adj[j] >> i & 1)
    chars = [head]
    for k in range(0, len(bitlist), 6):
        chunk = bitlist[k : k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        chars.append(chr(63 + val))
    return "".join(chars)


def from_graph6(text: str, label: str | None = None) -> Graph:
    """Decode a graph6 string (optionally prefixed ``>>graph6<<``)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 string")
    vals = []
    for ch in s:
        o = ord(ch)
        if ch != "~" and not 63 <= o <= 126:
            raise FormatError(f"invalid graph6 byte {o}")
        vals.append(o - 63)
    if s[0] == "~":
        if len(s) < 4:
            raise FormatError("truncated graph6 size header")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise FormatError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    padding = 6 * need - n * (n - 1) // 2
    if body and body[-1] & ((1 << padding) - 1):
        raise FormatError("graph6 padding bits must be zero")
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(adj), label)


def to_edge_list(g: Graph) -> str:
    """Plain text format: "n m" header, then one "u v" line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str, label: str | None = None) -> Graph:
    rows = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not rows:
        raise FormatError("empty edge list")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError('edge list must start with an "n m" header line')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad edge list header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise FormatError(f"header declares {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
    try:
        return Graph.from_edges(n, edges, label)
    except ContractViolationError as exc:
        raise FormatError(str(exc)) from exc
