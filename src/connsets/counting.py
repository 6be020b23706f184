"""Exact counts of connected induced vertex subsets.

The oracle is the ground truth of the whole package: it enumerates the
connected sets of a component one by one, growing each from its lowest
vertex by include/exclude branching over its extension, so its cost is
proportional to the number of sets it counts.  Everything else (the
closed forms, the identification algebra, the tree recursion and the
cut-vertex decomposition behind ``smart_count``) is validated against it.

Counts of disconnected graphs are defined as the sum over components, the
convention that makes the vertex-deletion identities total.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import ContractViolationError, ResourceCapError
from .families import FamilySpec, closed_form
from .graphs import Graph, bits, components, delete_vertices, is_connected, subgraph

DEFAULT_ORACLE_CAP = 24


@dataclass(frozen=True)
class CountResult:
    """A total count, the method that produced it, and its wall time."""

    total: int
    method: str  # "oracle" | "decomposition"
    elapsed: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class RootedCount:
    """Number of connected sets through a designated vertex."""

    at: int
    value: int


def _check_cap(g: Graph, cap: int | None) -> None:
    limit = DEFAULT_ORACLE_CAP if cap is None else cap
    if g.n > limit:
        raise ResourceCapError(
            f"exact enumeration over {g.n} vertices exceeds the cap of {limit}; "
            "raise the cap explicitly to proceed"
        )


def _connected_subsets(adj: tuple[int, ...], domain: int, required: int = 0) -> int:
    """Count nonempty connected subsets of ``domain`` containing ``required``.

    Include/exclude branching: each set grows from its lowest vertex (the
    lowest required vertex when ``required`` is set) by taking one vertex
    of its extension at a time and excluding that vertex from the later
    branches.  Every node of the search is one distinct connected set, so
    the cost is O(N * n) for N sets rather than a scan of all subsets.
    """
    if required:
        root = required & -required
        starts = [(root, ~domain | root)]
    else:
        starts = [(1 << v, ~domain | (2 << v) - 1) for v in bits(domain)]
    count = 0
    for root, seen in starts:
        ext = adj[root.bit_length() - 1] & ~seen
        stack = [(root, ext, seen | ext)]
        while stack:
            s, ext, seen = stack.pop()
            if s & required == required:
                count += 1
            while ext:
                low = ext & -ext
                ext ^= low
                grow = adj[low.bit_length() - 1] & ~seen
                stack.append((s | low, ext | grow, seen | grow))
                if low & required:
                    break
    return count


def oracle_count(g: Graph, cap: int | None = None) -> CountResult:
    """Brute-force count of connected sets (component sum if disconnected)."""
    _check_cap(g, cap)
    t0 = time.perf_counter()
    total = sum(
        _connected_subsets(g.adj, comp) for comp in components(g, g.vertex_mask)
    )
    return CountResult(total, "oracle", time.perf_counter() - t0)


def oracle_count_rooted(g: Graph, v: int, cap: int | None = None) -> RootedCount:
    """Count of connected sets containing ``v``, by direct enumeration.

    Agrees with the deletion identity N(G) - N(G - v); the identity is
    exercised by the test suite.
    """
    if not 0 <= v < g.n:
        raise ContractViolationError(f"vertex {v} out of range for n={g.n}")
    _check_cap(g, cap)
    for comp in components(g, g.vertex_mask):
        if comp >> v & 1:
            return RootedCount(v, _connected_subsets(g.adj, comp, 1 << v))
    raise AssertionError("unreachable: every vertex lies in a component")


def oracle_count_pair(g: Graph, u: int, v: int, cap: int | None = None) -> int:
    """Count of connected sets containing both ``u`` and ``v``."""
    if u == v:
        raise ContractViolationError("pair count requires two distinct vertices")
    for w in (u, v):
        if not 0 <= w < g.n:
            raise ContractViolationError(f"vertex {w} out of range for n={g.n}")
    _check_cap(g, cap)
    for comp in components(g, g.vertex_mask):
        if comp >> u & 1:
            if not comp >> v & 1:
                return 0
            return _connected_subsets(g.adj, comp, 1 << u | 1 << v)
    raise AssertionError("unreachable")


def combine_identified(n1: int, r1: int, n2: int, r2: int) -> tuple[int, int]:
    """Counts after gluing two graphs at one shared vertex.

    Given totals and rooted counts at the glue points, returns the merged
    total and the merged rooted count at the identified vertex.
    """
    for name, total, rooted in (("first", n1, r1), ("second", n2, r2)):
        if rooted < 1 or total < rooted:
            raise ContractViolationError(
                f"{name} part needs 1 <= rooted <= total, got ({total}, {rooted})"
            )
    return n1 + n2 - 1 + (r1 - 1) * (r2 - 1), r1 * r2


def extend_pendant(n_h: int, r_neighbor: int) -> int:
    """Total count after attaching one new pendant vertex.

    ``n_h`` counts the host graph, ``r_neighbor`` counts through the
    attachment vertex.
    """
    if r_neighbor < 1 or n_h < r_neighbor:
        raise ContractViolationError(
            f"need 1 <= rooted <= total, got ({n_h}, {r_neighbor})"
        )
    return n_h + 1 + r_neighbor


def _tree_down(t: Graph, root: int) -> list[int]:
    """Per vertex, the connected sets of a tree whose vertex closest to
    ``root`` is that vertex; iterative product-over-children recursion.

    The sum is the total count and the entry at ``root`` its rooted count.
    """
    order: list[tuple[int, int]] = []
    stack = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        for child in bits(t.adj[node]):
            if child != parent:
                stack.append((child, node))
    down = [1] * t.n
    for node, parent in reversed(order):
        if parent >= 0:
            down[parent] *= 1 + down[node]
    return down


def tree_rooted_count(t: Graph, v: int) -> RootedCount:
    """Rooted count in a tree by the product-over-children recursion."""
    if not 0 <= v < t.n:
        raise ContractViolationError(f"vertex {v} out of range for n={t.n}")
    if t.edge_count != t.n - 1 or not is_connected(t):
        raise ContractViolationError("tree recursion requires a tree input")
    return RootedCount(v, _tree_down(t, v)[v])


def _smart_total(g: Graph, cap: int | None) -> int:
    return sum(
        _smart_connected(subgraph(g, comp)[0], cap)
        for comp in components(g, g.vertex_mask)
    )


def _smart_connected(g: Graph, cap: int | None) -> int:
    if g.edge_count == g.n - 1:
        return sum(_tree_down(g, 0))
    split = _best_cut_split(g)
    if split is not None:
        u, parts = split
        total, rooted = 1, 1
        for part in parts:
            piece, index_map = subgraph(g, part | 1 << u)
            pu = index_map.index(u)
            part_total = _smart_connected(piece, cap)
            rest, _ = delete_vertices(piece, 1 << pu)
            part_rooted = part_total - _smart_total(rest, cap)
            total, rooted = combine_identified(total, rooted, part_total, part_rooted)
        return total
    if g.edge_count == g.n:
        return closed_form(FamilySpec("cycle", (g.n,)))
    return oracle_count(g, cap).total


def _best_cut_split(g: Graph) -> tuple[int, list[int]] | None:
    """Cut vertex whose removal leaves the largest smallest component,
    ties broken by lowest id; None when 2-connected."""
    best: tuple[int, int, list[int]] | None = None
    for v in range(g.n):
        rest = g.vertex_mask & ~(1 << v)
        parts = components(g, rest)
        if len(parts) < 2:
            continue
        smallest = min(p.bit_count() for p in parts)
        if best is None or smallest > best[0]:
            best = (smallest, v, parts)
    if best is None:
        return None
    return best[1], best[2]


def smart_count(g: Graph, cap: int | None = None) -> CountResult:
    """Exact count by cut-vertex decomposition.

    Connected input only.  Trees go to the tree recursion; otherwise the
    graph is split at cut vertices, and each 2-connected block is counted
    by the cycle closed form when it is a cycle and by the oracle
    otherwise.  Always equals ``oracle_count`` where both run.
    """
    if not is_connected(g):
        raise ContractViolationError(
            "smart_count requires a connected graph; sum over components instead"
        )
    t0 = time.perf_counter()
    total = _smart_connected(g, cap)
    return CountResult(total, "decomposition", time.perf_counter() - t0)
