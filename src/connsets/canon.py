"""Exact canonical labelling for small graphs.

The certificate of a graph is a plain ``str``, the graph6 encoding of a
canonical relabelling, chosen as the lexicographically smallest
upper-triangle bit string over all labellings compatible with an
equitable partition refinement.  The search individualises one vertex of the first
non-singleton cell at a time and re-refines.  A leaf whose code ties the
best yields an automorphism, and two rules prune by those met so far.
Orbit pruning: each node merges every automorphism that fixes its
individualised vertices, once, into a union-find over its target cell,
and skips a child that is not the least vertex of its orbit.
Backjumping: the automorphism from a tied leaf maps the best leaf's
branch onto the tied one below their deepest common ancestor, so the
search returns straight to that ancestor.  This is exact (never
heuristic): two graphs receive equal certificates if and only if they
are isomorphic.

The same search yields the automorphism group: since it prunes only by
automorphisms it has met, those it meets generate the whole group
(McKay, *Practical graph isomorphism*, 1981), and
``automorphism_group`` closes them under composition.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, to_graph6


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Cells are repeatedly split by neighbour counts into a given cell;
    split parts are ordered by count, so the result depends only on the
    isomorphism type and the incoming cell order.
    """
    work = cells
    changed = True
    while changed:
        changed = False
        for splitter in work:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            new_work = []
            for cell in work:
                if len(cell) == 1:
                    new_work.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) == 1:
                    new_work.append(cell)
                else:
                    changed = True
                    for key in sorted(groups):
                        new_work.append(groups[key])
            if changed:
                work = new_work
                break
    return work


def _encode(adj: tuple[int, ...], perm: list[int]) -> int:
    """Upper-triangle bits of the relabelled adjacency as one integer."""
    n = len(perm)
    code = 0
    for i in range(n):
        row = adj[perm[i]]
        for j in range(i + 1, n):
            code = code << 1 | (row >> perm[j] & 1)
    return code


def _canonical_perm(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """The canonical labelling of ``g`` and the automorphisms the search
    meets, one per leaf whose code ties the best, as tuples of images."""
    adj = g.adj
    n = g.n
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    initial = _refine(adj, [by_degree[d] for d in sorted(by_degree)])

    best_code: int | None = None
    best_perm: list[int] | None = None
    best_path: list[int] = []
    automorphisms: list[tuple[int, ...]] = []

    def descend(cells: list[list[int]], fixed: list[int]) -> int:
        # Returns the depth to resume at: below len(fixed) jumps back.
        nonlocal best_code, best_perm, best_path
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            perm = [c[0] for c in cells]
            code = _encode(adj, perm)
            if best_code is None or code < best_code:
                best_code, best_perm, best_path = code, perm, fixed
            elif code == best_code and best_perm is not None:
                sigma = [0] * n
                for i in range(n):
                    sigma[best_perm[i]] = perm[i]
                automorphisms.append(tuple(sigma))
                # Backjump to the deepest common ancestor with the best leaf.
                return next(i for i, u in enumerate(fixed) if u != best_path[i])
            return len(fixed)
        cell = cells[target]
        # Orbit pruning: merge each automorphism fixing ``fixed`` once.
        parent = {v: v for v in cell}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged = 0
        for v in cell:
            for a in automorphisms[merged:]:
                if all(a[x] == x for x in fixed):
                    for u in cell:
                        ra, rb = find(u), find(a[u])
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)
            merged = len(automorphisms)
            if find(v) != v:
                continue
            rest = [u for u in cell if u != v]
            branch = cells[:target] + [[v], rest] + cells[target + 1 :]
            if (depth := descend(_refine(adj, branch), fixed + [v])) < len(fixed):
                return depth
        return len(fixed)

    descend(initial, [])
    assert best_perm is not None
    return best_perm, automorphisms


@lru_cache(maxsize=100_000)
def canonical_form(g: Graph) -> Graph:
    """The canonical relabelling of ``g`` (label dropped)."""
    return g.relabel(tuple(_canonical_perm(g)[0]))


def automorphism_group(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of ``g`` as the tuple of vertex images, sorted,
    so the identity comes first: the automorphisms the canonical search
    meets, closed under composition.  Meant for small groups, such as the
    generator's cores (order at most 12): the closure lists the group
    element by element, and a star on n vertices has (n - 1)! of them.
    """
    generators = _canonical_perm(g)[1]
    group = frontier = {tuple(range(g.n))}
    while frontier:
        frontier = {tuple(a[v] for v in b) for b in frontier for a in generators} - group
        group |= frontier
    return tuple(sorted(group))


def canonical_certificate(g: Graph) -> str:
    """The graph6 string of the canonical form: equal iff isomorphic."""
    return to_graph6(canonical_form(g))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_certificate(g) == canonical_certificate(h)
