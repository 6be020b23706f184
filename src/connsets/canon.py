"""Exact canonical labelling for small graphs.

The certificate of a graph is a plain ``str``, the graph6 encoding of a
canonical relabelling, chosen as the lexicographically smallest
upper-triangle bit string over all labellings compatible with an
equitable partition refinement.  The search individualises one vertex of the first
non-singleton cell at a time, re-refines, and prunes branches that are
images of already-explored ones under automorphisms discovered along the
way.  This is exact (never heuristic): two graphs receive equal
certificates if and only if they are isomorphic.

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
    automorphisms: list[tuple[int, ...]] = []

    def orbit_reps(cell: list[int], fixed: list[int]) -> list[int]:
        usable = [
            a for a in automorphisms if all(a[x] == x for x in fixed)
        ]
        if not usable:
            return cell
        parent = {v: v for v in cell}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in usable:
            for v in cell:
                w = a[v]
                if w in parent:
                    ra, rb = find(v), find(w)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        return [v for v in cell if find(v) == v]

    def descend(cells: list[list[int]], fixed: list[int]) -> None:
        nonlocal best_code, best_perm
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            perm = [c[0] for c in cells]
            code = _encode(adj, perm)
            if best_code is None or code < best_code:
                best_code, best_perm = code, perm
            elif code == best_code and best_perm is not None:
                sigma = [0] * n
                for i in range(n):
                    sigma[best_perm[i]] = perm[i]
                automorphisms.append(tuple(sigma))
            return
        cell = cells[target]
        for v in cell:
            # Re-derive orbits each time: automorphisms found in earlier
            # siblings prune later ones.
            if v not in orbit_reps(cell, fixed):
                continue
            rest = [u for u in cell if u != v]
            branch = cells[:target] + [[v], rest] + cells[target + 1 :]
            descend(_refine(adj, branch), fixed + [v])

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
