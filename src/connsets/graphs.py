"""Bitmask-backed simple undirected graphs on at most 2000 vertices.

Vertices are the integers ``0..n-1``.  A vertex set is an ordinary Python
int interpreted as a bitmask, so every set operation is a single integer
operation.  Graphs are immutable values: all operations return new graphs
and are safe to share freely.

Connectivity: :func:`components` splits a vertex set, and :func:`blocks`
lists the blocks (Tarjan), which :func:`cut_vertices` reads.

The module also speaks the two on-disk formats used throughout: graph6
(the standard compact ASCII encoding of small graphs) and a plain edge
list ("n m" header line followed by "u v" pairs).
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ContractViolationError, FormatError

# The largest order any command accepts.  It stays at the value first set
# from the cost of graph6 until a measured time and memory budget for
# counting past the cap replaces it; graph6 at this order is 333 kB, written
# in 0.02 s and read in 0.03-0.07 s (2-core VM, Python 3.11.7).
MAX_VERTICES = 2000


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


def _check_order(n: int) -> None:
    if not 0 < n <= MAX_VERTICES:
        raise ContractViolationError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with bitmask adjacency.

    ``adj[v]`` is the bitmask of neighbours of ``v``.  Construction
    validates simplicity (no self-loops) and symmetry.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_order(self.n)
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
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_order(n)  # before any row is built
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
        return cls(n, tuple(adj))

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

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
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
        return Graph(self.n, tuple(adj))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, e={self.edge_count})"


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


def subgraph(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
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
    return Graph(len(keep), tuple(adj)), tuple(keep)


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


def blocks(g: Graph) -> list[tuple[int, int]]:
    """Blocks (2-connected pieces and bridges) as (vertex mask, head), by
    iterative Tarjan over a vertex stack; isolated vertices lie in none.

    Each component is searched from its smallest vertex.  A block's head
    is its vertex nearest that root, and every block hanging below one of
    its other vertices comes earlier in the list.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: list[tuple[int, int]] = []
    for r in range(g.n):
        if r in disc:
            continue
        disc[r] = low[r] = len(disc)
        path, stack = [r], [(r, -1, bits(g.adj[r]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for u in nbrs:
                if u not in disc:
                    disc[u] = low[u] = len(disc)
                    path.append(u)
                    stack.append((u, v, bits(g.adj[u])))
                    break
                # The edge back to the parent keeps low[v] >= disc[parent].
                low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        block = 1 << parent
                        while not block >> v & 1:
                            block |= 1 << path.pop()
                        out.append((block, parent))
    return out


def cut_vertices(g: Graph) -> int:
    """Bitmask of all vertices whose removal disconnects ``g``, which must
    be connected: every head in :func:`blocks`, except the search root
    (vertex 0) when it heads only one block."""
    if not is_connected(g):
        raise ContractViolationError("cut vertices are defined for connected graphs")
    heads = [head for _, head in blocks(g)]
    return mask_of(v for v in heads if v or heads.count(0) > 1)


# ---------------------------------------------------------------------------
# graph6 and edge-list text formats


_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_SEXTETS = {63 + v: format(v, "06b") for v in range(64)}
_NOT_GRAPH6 = re.compile("[^?-~]")


def to_graph6(g: Graph) -> str:
    """Encode in graph6: size header then upper-triangle bits, column
    major, six bits per byte offset by 63; one bit string, packed by
    base64 with its alphabet moved to 63..126."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    text = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    need = (len(text) + 5) // 6
    if not need:
        return head
    text += "0" * (-len(text) % 24)
    packed = base64.b64encode(int(text, 2).to_bytes(len(text) // 8, "big"))
    return head + packed.translate(_TO_GRAPH6)[:need].decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed ``>>graph6<<``): the
    body becomes one bit string, and each row one ``int(..., 2)``."""
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise FormatError("empty graph6 string")
    if bad := _NOT_GRAPH6.search(s):
        raise FormatError(f"invalid graph6 byte {ord(bad.group())}")
    if s[0] == "~":
        if len(s) < 4:
            raise FormatError("truncated graph6 size header")
        head, body = s[1:4], s[4:]
    else:
        head, body = s[0], s[1:]
    n = int(head.translate(_SEXTETS), 2)
    if not 1 <= n <= MAX_VERTICES:
        raise FormatError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    size = n * (n - 1) // 2
    need = (size + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body has {len(body)} bytes, expected {need} for n={n}")
    flat = body.translate(_SEXTETS)
    if "1" in flat[size:]:
        raise FormatError("graph6 padding bits must be zero")
    adj = [0] * n
    for j in range(1, n):
        start = j * (j - 1) // 2
        row = int(flat[start : start + j][::-1], 2)
        adj[j] |= row
        for i in bits(row):
            adj[i] |= 1 << j
    return Graph(n, tuple(adj))


def to_edge_list(g: Graph) -> str:
    """Plain text format: "n m" header, then one "u v" line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    """Parse the plain text format; an edge given twice is malformed."""
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
    edges: dict[tuple[int, int], tuple[int, int]] = {}  # each line by its sorted ends
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        ends = (min(u, v), max(u, v))
        if ends in edges:
            raise FormatError(f"repeated edge line {ln!r}")
        edges[ends] = (u, v)
    try:
        return Graph.from_edges(n, edges.values())
    except ContractViolationError as exc:
        raise FormatError(str(exc)) from exc
