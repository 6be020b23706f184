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

from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .errors import ContractViolationError, ResourceCapError
from .graphs import Graph, bits, blocks, components, is_connected, subgraph

DEFAULT_ORACLE_CAP = 24


@dataclass(frozen=True)
class CountResult:
    """The total number of connected sets of a graph."""

    total: int


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
    return CountResult(
        sum(_connected_subsets(g.adj, comp) for comp in components(g, g.vertex_mask))
    )


def oracle_count_rooted(g: Graph, v: int, cap: int | None = None) -> RootedCount:
    """Count of connected sets containing ``v``, by direct enumeration.

    Agrees with the deletion identity N(G) - N(G - v); the identity is
    exercised by the test suite.
    """
    if not 0 <= v < g.n:
        raise ContractViolationError(f"vertex {v} out of range for n={g.n}")
    _check_cap(g, cap)
    comp = next(c for c in components(g, g.vertex_mask) if c >> v & 1)
    return RootedCount(v, _connected_subsets(g.adj, comp, 1 << v))


def oracle_count_pair(g: Graph, u: int, v: int, cap: int | None = None) -> int:
    """Count of connected sets containing both ``u`` and ``v``."""
    if u == v:
        raise ContractViolationError("pair count requires two distinct vertices")
    for w in (u, v):
        if not 0 <= w < g.n:
            raise ContractViolationError(f"vertex {w} out of range for n={g.n}")
    _check_cap(g, cap)
    comp = next(c for c in components(g, g.vertex_mask) if c >> u & 1)
    return _connected_subsets(g.adj, comp, 1 << u | 1 << v) if comp >> v & 1 else 0


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


def _weighted_subsets(
    adj: tuple[int, ...], weight: list[int], head: int
) -> tuple[int, int]:
    """Sums of the weight products of the connected sets of a connected
    graph, split by whether the set avoids or contains ``head``.

    The oracle's include/exclude search, carrying the product along.
    """
    sums = [0, 0]
    for v in range(len(adj)):
        seen = (2 << v) - 1
        ext = adj[v] & ~seen
        stack = [(1 << v, ext, seen | ext, weight[v])]
        while stack:
            s, ext, seen, prod = stack.pop()
            sums[s >> head & 1] += prod
            while ext:
                low = ext & -ext
                ext ^= low
                u = low.bit_length() - 1
                grow = adj[u] & ~seen
                stack.append((s | low, ext | grow, seen | grow, prod * weight[u]))
    return sums[0], sums[1]


def _block_sums(
    g: Graph, block: int, head: int, w: list[int], cap: int | None
) -> tuple[int, int]:
    """Sums over the connected subsets of one block, of the product of
    ``w`` over their vertices other than ``head``: (avoiding, through) it.

    Bridges and cycles sum over their arcs in linear time; any other
    block is enumerated, under ``cap``.
    """
    size = block.bit_count()
    if size > 2 and sum((g.adj[v] & block).bit_count() for v in bits(block)) > 2 * size:
        piece, index = subgraph(g, block)
        _check_cap(piece, cap)
        weight = [1 if v == head else w[v] for v in index]
        return _weighted_subsets(piece.adj, weight, index.index(head))
    arc, prev, v = [], head, (g.adj[head] & block).bit_length() - 1
    while v != head:
        arc.append(w[v])
        step = g.adj[v] & block & ~(1 << prev)
        prev, v = v, step.bit_length() - 1 if step else head
    avoid = run = 0
    for x in arc:
        run = x * (1 + run)
        avoid += run
    # Through head: a run from each side leaving a gap between them, or all.
    right = list(accumulate(arc, mul, initial=1))
    left = list(accumulate(accumulate(reversed(arc), mul, initial=1)))
    k = len(arc)
    return avoid, right[k] + sum(right[b] * left[k - 1 - b] for b in range(k))


def _smart_total(g: Graph, cap: int | None) -> int:
    """Sum over the blocks, leaves first.  ``w[v]`` becomes the number of
    connected sets through ``v`` inside the blocks headed by ``v`` and
    those below them.  A set through a DFS root is counted by the root's
    weight; any other set meets one highest block without its head and is
    counted there."""
    w = [1] * g.n
    total = below = 0
    for block, head in blocks(g):
        avoid, through = _block_sums(g, block, head, w, cap)
        total += avoid
        w[head] *= through
        below |= block & ~(1 << head)
    return total + sum(w[r] for r in range(g.n) if not below >> r & 1)


def smart_count(g: Graph, cap: int | None = None) -> CountResult:
    """Exact count by cut-vertex decomposition, summed over components.

    One pass over the blocks (2-connected pieces and bridges) in the
    leaves-first order of :func:`graphs.blocks`: each cut vertex carries
    the count of the sets hanging below it through it, and each block is
    summed once with those weights.  Bridges and cycles take linear time;
    other blocks are enumerated like the oracle, under ``cap``.  Always
    equals ``oracle_count`` where both run.
    """
    return CountResult(_smart_total(g, cap))
