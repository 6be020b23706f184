"""Isomorph-free generation of small trees and bicyclic graphs, plus the
decomposition of a bicyclic graph into its pendant-free core and attached
trees.

Bicyclic graphs are generated constructively: every pendant-free bicyclic
core shape (two disjoint cycles joined by a path, two cycles sharing a
vertex, or a theta graph) of at most n vertices is built, and rooted
forests distributing the remaining vertices over the core are attached,
one forest per orbit of the core's automorphism group, so each class is
generated exactly once.

Two routes read this generation.  ``generate_bicyclic`` streams the
classes in generation order and builds no certificate.
``enumerate_bicyclic`` canonicalises every class, sorts by certificate
and treats a repeated certificate as a contract violation, a check
independent of the guards below.  Both routes pass every core through
two guards that use no certificate.  The group guard: the core's listed
automorphisms are distinct, map the core onto itself, and number the
closed-form order of its shape's group.  The Burnside guard: the number
of forests kept equals the number of orbits Burnside's lemma gives from
rooted-tree counts (OEIS A000081, by Otter's recurrence).  An
independent labelled-graph generator (see :mod:`connsets.crosscheck`)
validates the pipeline for small n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .canon import Certificate, canonical_certificate
from .errors import ContractViolationError, ResourceCapError
from .graphs import (
    Graph,
    bits,
    components,
    cut_vertices,
    is_connected,
    subgraph,
    to_graph6,
)

DEFAULT_BICYCLIC_CAP = 11
DEFAULT_TREE_CAP = 10


# ---------------------------------------------------------------------------
# Rooted and free trees


def rooted_tree_level_sequences(size: int) -> Iterator[tuple[int, ...]]:
    """All canonical level sequences of rooted trees on ``size`` vertices.

    Successor computation on the lexicographically decreasing sequence of
    level sequences; each rooted tree shape appears exactly once.
    """
    if size < 1:
        raise ContractViolationError(f"rooted trees need size >= 1, got {size}")
    levels = list(range(1, size + 1))
    yield tuple(levels)
    if size <= 2:
        return
    while True:
        p = max((i for i in range(size) if levels[i] > 2), default=-1)
        if p < 0:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        for i in range(p, size):
            levels[i] = levels[i - (p - q)]
        yield tuple(levels)


def tree_edges_from_levels(levels: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges of the rooted tree a level sequence describes (root is 0)."""
    last_at_level: dict[int, int] = {levels[0]: 0}
    edges = []
    for v in range(1, len(levels)):
        lvl = levels[v]
        edges.append((last_at_level[lvl - 1], v))
        last_at_level[lvl] = v
    return edges


def enumerate_trees(n: int, cap: int | None = None) -> list[Graph]:
    """All isomorphism classes of free trees on ``n`` vertices.

    Rooted shapes are generated by level sequence and collapsed to free
    trees by certificate; results are sorted by certificate.  ``cap``
    (default ``DEFAULT_TREE_CAP``) is the largest order allowed.
    """
    if n < 1:
        raise ContractViolationError(f"trees need n >= 1, got {n}")
    cap = DEFAULT_TREE_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(f"tree enumeration capped at n <= {cap}, got {n}")
    seen: dict[Certificate, Graph] = {}
    for levels in rooted_tree_level_sequences(n):
        t = Graph.from_edges(n, tree_edges_from_levels(levels))
        seen.setdefault(canonical_certificate(t), t)
    return [seen[c] for c in sorted(seen)]


# ---------------------------------------------------------------------------
# Core extraction


@dataclass(frozen=True)
class CoreClassification:
    """A bicyclic graph decomposed into its pendant-free core plus the
    rooted trees hanging off the core vertices.

    ``core`` is reindexed; ``core_vertices`` maps new core ids to the ids
    in the parent graph.  ``attachments`` maps every parent-graph core
    vertex to the edge set (parent labels) of its hanging tree, empty for
    a trivial attachment.  ``kind`` is "I", "II" or "III" with the shape
    parameters (p, q, r), (p, q) or (a, b, c).
    """

    core: Graph
    core_vertices: tuple[int, ...]
    kind: str
    params: tuple[int, ...]
    attachments: dict[int, tuple[tuple[int, int], ...]]

    def reassembled_edges(self, g: Graph) -> list[tuple[int, int]]:
        """All edges of the parent graph, rebuilt from core + attachments."""
        core_old = set(self.core_vertices)
        edges = [
            tuple(sorted((self.core_vertices[u], self.core_vertices[v])))
            for u, v in self.core.edges()
        ]
        for root in sorted(core_old):
            edges.extend(tuple(sorted(e)) for e in self.attachments[root])
        return sorted(edges)


def _require_bicyclic(g: Graph) -> None:
    if not is_connected(g) or g.edge_count != g.n + 1:
        raise ContractViolationError(
            f"expected a bicyclic graph (connected, e = n + 1), "
            f"got n={g.n}, e={g.edge_count}"
        )


def _classify_core(core: Graph) -> tuple[str, tuple[int, ...]]:
    """Type and shape parameters of a pendant-free bicyclic graph, read
    off its cut vertices.

    Without a cut vertex the core is a theta.  Otherwise deleting the cut
    vertices leaves exactly two components, each a cycle minus the one
    vertex where it meets the rest, so their sizes plus one are the cycle
    lengths p <= q.  A single cut vertex is shared by both cycles (type
    II); r >= 2 cut vertices are the vertices of the path joining them
    (type I).
    """
    cuts = cut_vertices(core)
    if cuts == 0:
        # Theta: two hubs of degree three joined by three disjoint paths.
        degs = core.degrees()
        hubs = [v for v in range(core.n) if degs[v] == 3]
        assert len(hubs) == 2, "theta core must have exactly two branch vertices"
        h1, h2 = hubs
        rest = core.vertex_mask & ~(1 << h1) & ~(1 << h2)
        lengths = [comp.bit_count() + 2 for comp in components(core, rest)] if rest else []
        if core.has_edge(h1, h2):
            lengths.append(2)
        return "III", tuple(sorted(lengths))
    p, q = sorted(
        comp.bit_count() + 1 for comp in components(core, core.vertex_mask & ~cuts)
    )
    r = cuts.bit_count()
    return ("II", (p, q)) if r == 1 else ("I", (p, q, r))


def pendant_free_core(g: Graph) -> tuple[int, dict[int, tuple[tuple[int, int], ...]]]:
    """Iteratively strip degree-one vertices from any connected graph
    that contains a cycle.

    Returns the mask of the surviving (pendant-free) core and, for every
    core vertex, the edges of the stripped tree hanging from it.  Each
    tree is collected by walking outward from its core vertex through the
    stripped vertices; every edge is oriented ``(parent, child)``, the
    parent being the end nearer the core.
    """
    if not is_connected(g):
        raise ContractViolationError("core extraction requires a connected graph")
    if g.edge_count < g.n:
        raise ContractViolationError(
            "core extraction requires at least one cycle (trees strip to nothing)"
        )
    remaining = g.vertex_mask
    while True:
        pend = 0
        for v in bits(remaining):
            if (g.adj[v] & remaining).bit_count() == 1:
                pend |= 1 << v
        if pend == 0:
            break
        remaining &= ~pend

    seen = remaining
    attachments: dict[int, tuple[tuple[int, int], ...]] = {}
    for root in bits(remaining):
        edges = []
        stack = [root]
        while stack:
            parent = stack.pop()
            for child in bits(g.adj[parent] & ~seen):
                seen |= 1 << child
                edges.append((parent, child))
                stack.append(child)
        attachments[root] = tuple(sorted(edges))
    return remaining, attachments


def extract_core(g: Graph) -> CoreClassification:
    """Strip pendant vertices until none remain and classify the residue.

    The stripped vertices are recorded as rooted trees attached to the
    core vertices they hang from.
    """
    _require_bicyclic(g)
    remaining, attachments = pendant_free_core(g)
    core, core_vertices = subgraph(g, remaining)
    kind, params = _classify_core(core)
    return CoreClassification(core, core_vertices, kind, params, attachments)


# ---------------------------------------------------------------------------
# Bicyclic generation


def _core_graphs(n: int) -> Iterator[Graph]:
    """Every pendant-free bicyclic shape on at most ``n`` vertices."""
    from .families import FamilySpec, build

    # Two cycles sharing a vertex: p + q - 1 vertices.
    for p in range(3, n):
        for q in range(p, n + 2 - p):
            yield build(FamilySpec("typeII", (p, q)))
    # Two disjoint cycles joined by a path on r >= 2 vertices.
    for p in range(3, n):
        for q in range(p, n - p + 1):
            for r in range(2, n + 3 - p - q):
                yield build(FamilySpec("dumbbell", (p, q, r)))
    # Theta graphs: a + b + c - 4 vertices.
    for a in range(2, n):
        for b in range(max(a, 3), n):
            for c in range(b, n + 5 - a - b):
                yield build(FamilySpec("theta", (a, b, c)))


@lru_cache(maxsize=None)
def _rooted_trees(size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(
        tuple(tree_edges_from_levels(levels))
        for levels in rooted_tree_level_sequences(size)
    )


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _core_automorphisms(core: Graph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of a connected core as the tuple of vertex
    images, identity first.

    Vertices are mapped in breadth-first order, each to an unused vertex
    of equal degree whose adjacency to the vertices mapped so far
    matches; every vertex after the first has a mapped neighbour, so
    only the neighbours of that neighbour's image can pass.
    """
    order = [0]
    reached = 1
    for v in order:
        for u in bits(core.adj[v] & ~reached):
            reached |= 1 << u
            order.append(u)
    degs = core.degrees()
    image = [0] * core.n
    found = []

    def extend(depth: int, used: int) -> None:
        if depth == core.n:
            found.append(tuple(image))
            return
        v = order[depth]
        for w in range(core.n):
            if used >> w & 1 or degs[w] != degs[v]:
                continue
            if all(
                core.has_edge(u, v) == core.has_edge(image[u], w) for u in order[:depth]
            ):
                image[v] = w
                extend(depth + 1, used | 1 << w)

    extend(0, 0)
    return tuple(sorted(found))


def _with_attachments(
    core: Graph, extra: int, automorphisms: tuple[tuple[int, ...], ...]
) -> Iterator[Graph]:
    """Attach ``extra`` vertices as rooted trees, one distribution per
    orbit of ``automorphisms``, the core's automorphism group.

    A distribution is keyed by ``(sizes, shapes)``: the tree size at each
    core vertex and the index of its shape in ``_rooted_trees``, where
    level sequences name each rooted tree exactly once.  Two keys give
    isomorphic graphs exactly when an automorphism of the core carries
    one onto the other, since every isomorphism maps the pendant-free
    core onto itself.  ``_compositions`` and ``itertools.product`` both
    run in increasing lexicographic order, so keys are generated in
    increasing order and the least key of an orbit is the first one
    generated; only that one is kept.  A composition is skipped whole
    when an automorphism makes ``sizes`` smaller; otherwise the shapes
    are compared only under the automorphisms that fix ``sizes``.
    """
    m = core.n
    core_edges = core.edges()
    identity = tuple(range(m))
    others = [sigma for sigma in automorphisms if sigma != identity]
    for sizes in _compositions(extra, m):
        images = [tuple(sizes[i] for i in sigma) for sigma in others]
        if any(img < sizes for img in images):
            continue
        fixing = [sigma for sigma, img in zip(others, images) if img == sizes]
        offsets = []
        nxt = m
        for s in sizes:
            offsets.append(nxt)
            nxt += s
        choices = [_rooted_trees(s + 1) for s in sizes]
        for shapes in itertools.product(*(range(len(c)) for c in choices)):
            if any(tuple(shapes[i] for i in sigma) < shapes for sigma in fixing):
                continue
            edges = list(core_edges)
            for idx, shape in enumerate(shapes):
                ids = [idx] + list(range(offsets[idx], offsets[idx] + sizes[idx]))
                edges.extend((ids[u], ids[v]) for u, v in choices[idx][shape])
            yield Graph.from_edges(m + extra, edges)


def _rooted_tree_counts(size: int) -> list[int]:
    """``t[j]`` rooted trees on j vertices for j <= ``size`` (OEIS
    A000081, ``t[0] = 0``), by Otter's recurrence

        (j - 1) t_j = sum_{k=1}^{j-1} (sum_{d | k} d t_d) t_{j-k}.
    """
    t = [0, 1]
    weighted = [0]  # weighted[k]: sum of d * t_d over the divisors d of k
    for j in range(2, size + 1):
        k = j - 1
        weighted.append(sum(d * t[d] for d in range(1, k + 1) if k % d == 0))
        t.append(sum(weighted[i] * t[j - i] for i in range(1, j)) // k)
    return t[: size + 1]


def _shape_group_order(kind: str, params: tuple[int, ...]) -> int:
    """Order of the automorphism group of a pendant-free core, from its
    shape parameters alone.

    Types I and II have the two cycle reflections, times a swap of the
    cycles when p = q; a theta has the swap of its two hubs times every
    permutation of equal-length paths.
    """
    if kind == "III":
        order = 2
        for length in set(params):
            order *= math.factorial(params.count(length))
        return order
    p, q = params[:2]
    return 8 if p == q else 4


def _burnside_sum(automorphisms: tuple[tuple[int, ...], ...], extra: int) -> int:
    """Sum over the automorphisms of the attachment keys each one fixes.

    A key fixed by an automorphism puts equal trees on every vertex of
    each of its cycles, so a cycle of length L contributes R(x^L), where
    R(x) = sum_k t_{k+1} x^k counts rooted trees by non-root vertices;
    the fixed keys are the coefficient of x^extra in the product.  By
    Burnside's lemma the sum is |group| times the number of orbits.
    """
    t = _rooted_tree_counts(extra + 1)
    total = 0
    for sigma in automorphisms:
        poly = [1] + [0] * extra
        unseen = set(range(len(sigma)))
        while unseen:
            v = start = unseen.pop()
            length = 1
            while sigma[v] != start:
                v = sigma[v]
                unseen.remove(v)
                length += 1
            grown = [0] * (extra + 1)
            for i, coeff in enumerate(poly):
                if coeff:
                    for k in range((extra - i) // length + 1):
                        grown[i + k * length] += coeff * t[k + 1]
            poly = grown
        total += poly[extra]
    return total


def _check_group(n: int, core: Graph, automorphisms: tuple[tuple[int, ...], ...]) -> None:
    """The listed automorphisms must be the core's whole group: distinct
    automorphisms, as many as the closed form for its shape gives."""
    order = _shape_group_order(*_classify_core(core))
    if (
        len(automorphisms) != order
        or len(set(automorphisms)) != order
        or any(core.relabel(sigma) != core for sigma in automorphisms)
    ):
        raise ContractViolationError(
            f"n={n}: the automorphisms listed for core {core.label} are not "
            f"its whole group of order {order} ({len(automorphisms)} listed)"
        )


def _guarded_stream(n: int) -> Iterator[Graph]:
    """Each core's kept graphs, yielded once its two guards pass.

    Every orbit keeps at least its least key, so the kept count is at
    least the orbit count, with equality exactly when each class is kept
    once.
    """
    for core in _core_graphs(n):
        extra = n - core.n
        automorphisms = _core_automorphisms(core)
        _check_group(n, core, automorphisms)
        kept = list(_with_attachments(core, extra, automorphisms))
        fixed = _burnside_sum(automorphisms, extra)
        if len(kept) * len(automorphisms) != fixed:
            raise ContractViolationError(
                f"n={n}: core {core.label} kept {len(kept)} attachment choices, "
                f"Burnside counts {fixed}/{len(automorphisms)} orbits"
            )
        yield from kept


def _check_bicyclic_order(n: int, cap: int | None) -> None:
    if n < 4:
        raise ContractViolationError(
            f"bicyclic graphs have at least four vertices, got n={n}"
        )
    cap = DEFAULT_BICYCLIC_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(
            f"bicyclic enumeration capped at n <= {cap}, got {n}; "
            "raise the cap explicitly to proceed"
        )


def generate_bicyclic(n: int, cap: int | None = None) -> Iterator[Graph]:
    """One representative per isomorphism class of n-vertex bicyclic
    graphs, in generation order, with no certificate built.

    The order is checked at the call; each core's representatives are
    yielded only after its group and Burnside guards pass.  ``cap``
    (default ``DEFAULT_BICYCLIC_CAP``) is the largest order allowed.
    """
    _check_bicyclic_order(n, cap)
    return _guarded_stream(n)


def enumerate_bicyclic(n: int, cap: int | None = None) -> list[Graph]:
    """The classes of ``generate_bicyclic`` in certificate order; a
    repeated certificate is a contract violation."""
    _check_bicyclic_order(n, cap)
    classes: dict[Certificate, Graph] = {}
    for g in _guarded_stream(n):
        cert = canonical_certificate(g)
        if cert in classes:
            raise ContractViolationError(
                f"n={n}: the generator produced one class twice "
                f"({to_graph6(classes[cert])} and {to_graph6(g)})"
            )
        classes[cert] = g
    return [classes[c] for c in sorted(classes)]
