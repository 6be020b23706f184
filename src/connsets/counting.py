"""Exact counts of connected induced vertex subsets.

One include/exclude search serves both counters.  It grows each connected
set from its lowest vertex, so its cost is proportional to the number of
sets it counts, and sums a product of vertex weights over them.  The
oracle, the ground truth of the whole package, runs it with every weight
1.  The block pass (``weighted_total``, behind the ``smart_count*``
functions, the fast counter for graphs) runs it, weighted, on the blocks
of G that are neither a bridge nor a cycle, and leaves the count through
its start vertex in that vertex's weight; it is checked against the
oracle, as are closed forms and identification algebra.  The keyed count
of :mod:`connsets.enumeration` runs it with every weight 1 on a bicyclic
core, through each set of required vertices, and keeps those per-core
through-counts for every key on that core.

Counts of disconnected graphs are defined as the sum over components, the
convention that makes the vertex-deletion identities total.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .errors import DEFAULT_ORACLE_CAP, ContractViolationError, ResourceCapError
from .graphs import Graph, bits, blocks, check_vertices, components, is_connected


@dataclass(frozen=True)
class CountResult:
    """The total number of connected sets of a graph."""

    total: int


@dataclass(frozen=True)
class RootedCount:
    """Number of connected sets through the vertex the caller named."""

    value: int


def _check_cap(size: int, cap: int | None) -> None:
    """An enumeration over ``size`` vertices must fit under ``cap``."""
    limit = DEFAULT_ORACLE_CAP if cap is None else cap
    if size > limit:
        raise ResourceCapError(
            f"exact enumeration over {size} vertices exceeds the cap of {limit}; "
            "raise the cap explicitly to proceed"
        )


def _check_pair(g: Graph, u: int, v: int) -> None:
    """``u`` and ``v`` are two distinct vertices of ``g``."""
    if u == v:
        raise ContractViolationError("pair count requires two distinct vertices")
    check_vertices(g, (u, v))


def _connected_subsets(
    adj: tuple[int, ...], domain: int, weight: list[int], required: int = 0
) -> int:
    """Sum over the nonempty connected subsets of ``domain`` that contain
    ``required``, each adding the product of ``weight`` over its vertices.

    Include/exclude branching: each set grows from its lowest vertex (the
    lowest required vertex when ``required`` is set) by taking one vertex
    of its extension at a time and excluding that vertex from the later
    branches, carrying the product along.  A set never leaves the
    component of its first vertex.  Every node of the search is one
    distinct connected set, so the cost is O(N * n) for N sets rather
    than a scan of all subsets.
    """
    if required:
        root = required & -required
        starts = [(root, ~domain | root)]
    else:
        starts = [(1 << v, ~domain | (2 << v) - 1) for v in bits(domain)]
    total = 0
    for root, seen in starts:
        r = root.bit_length() - 1
        ext = adj[r] & ~seen
        stack = [(root, ext, seen | ext, weight[r])]
        while stack:
            s, ext, seen, prod = stack.pop()
            if s & required == required:
                total += prod
            while ext:
                low = ext & -ext
                ext ^= low
                u = low.bit_length() - 1
                grow = adj[u] & ~seen
                stack.append((s | low, ext | grow, seen | grow, prod * weight[u]))
                if low & required:
                    break
    return total


def oracle_count(g: Graph, cap: int | None = None) -> CountResult:
    """Brute-force count of connected sets (component sum if disconnected)."""
    _check_cap(g.n, cap)
    return CountResult(_connected_subsets(g.adj, g.vertex_mask, [1] * g.n))


def oracle_count_rooted(g: Graph, v: int, cap: int | None = None) -> RootedCount:
    """Count of connected sets containing ``v``, by direct enumeration."""
    check_vertices(g, (v,))
    _check_cap(g.n, cap)
    return RootedCount(_connected_subsets(g.adj, g.vertex_mask, [1] * g.n, 1 << v))


def oracle_count_pair(g: Graph, u: int, v: int, cap: int | None = None) -> int:
    """Count of connected sets containing both ``u`` and ``v``."""
    _check_pair(g, u, v)
    _check_cap(g.n, cap)
    comp = next(c for c in components(g, g.vertex_mask) if c >> u & 1)
    both = 1 << u | 1 << v
    return _connected_subsets(g.adj, comp, [1] * g.n, both) if comp >> v & 1 else 0


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


def _block_sums(
    g: Graph, block: int, head: int, w: list[int], cap: int | None
) -> tuple[int, int]:
    """Sums over the connected subsets of one block, of the product of
    ``w`` over their vertices: (avoiding, through) ``head``.

    Bridges and cycles sum over their arcs in linear time; any other
    block is enumerated by the oracle's search, under ``cap``.
    """
    size = block.bit_count()
    if size > 2 and sum((g.adj[v] & block).bit_count() for v in bits(block)) > 2 * size:
        _check_cap(size, cap)
        head_bit = 1 << head
        avoid = _connected_subsets(g.adj, block & ~head_bit, w)
        return avoid, _connected_subsets(g.adj, block, w, head_bit)
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
    through = right[k] + sum(right[b] * left[k - 1 - b] for b in range(k))
    return avoid, w[head] * through


def weighted_total(
    g: Graph, block_list: list[tuple[int, int]], w: list[int], cap: int | None
) -> int:
    """Sum over the connected sets of G of the product of ``w`` over their
    vertices, from ``block_list``, which is ``blocks(g, root)``; ``w`` is
    overwritten.

    A sum over the blocks, leaves first.  Each block's sum through its
    head, which carries ``w[head]``, becomes ``w[head]``: the weighted
    number of connected sets through the head inside the blocks it heads
    and those below them.  A set through a DFS root is counted by the
    root's weight; any other set meets one highest block without its head
    and is counted there.  So the pass leaves in ``w[root]`` the weighted
    count of the sets through ``root`` (its own weight if isolated)."""
    total = below = 0
    for block, head in block_list:
        avoid, through = _block_sums(g, block, head, w, cap)
        total += avoid
        w[head] = through
        below |= block & ~(1 << head)
    return total + sum(w[r] for r in range(g.n) if not below >> r & 1)


def smart_count(g: Graph, cap: int | None = None) -> CountResult:
    """Exact count by cut-vertex decomposition, summed over components.

    One pass over the blocks (2-connected pieces and bridges) in the
    leaves-first order of :func:`graphs.blocks`: each cut vertex carries
    the count of the sets hanging below it through it, and each block is
    summed once with those weights.  Bridges and cycles take linear time;
    other blocks are enumerated by the oracle's search on their vertex
    mask in G, under ``cap``.  Always equals ``oracle_count`` where both
    run.
    """
    return CountResult(weighted_total(g, blocks(g), [1] * g.n, cap))


def smart_count_rooted(g: Graph, v: int, cap: int | None = None) -> RootedCount:
    """Count of connected sets through ``v``, from one block pass started
    at ``v`` (see :func:`weighted_total`), under ``cap`` as ``smart_count``."""
    check_vertices(g, (v,))
    w = [1] * g.n
    weighted_total(g, blocks(g, v), w, cap)
    return RootedCount(w[v])


def smart_count_pair(g: Graph, u: int, v: int, cap: int | None = None) -> int:
    """Count of connected sets through both ``u`` and ``v``: the count
    through ``u`` less the count through ``u`` where ``v`` weighs 0, from
    two block passes started at ``u`` (see :func:`weighted_total`)."""
    _check_pair(g, u, v)
    w = [1] * g.n
    w[v] = 0
    weighted_total(g, blocks(g, u), w, cap)
    return smart_count_rooted(g, u, cap).value - w[u]


def tree_rooted_count(t: Graph, v: int) -> RootedCount:
    """Rooted count in a tree, checked to be one, by the block pass."""
    if t.edge_count != t.n - 1 or not is_connected(t):
        raise ContractViolationError("tree_rooted_count requires a tree input")
    return smart_count_rooted(t, v)
