"""Isomorph-free generation of small trees and bicyclic graphs, plus the
decomposition of a bicyclic graph into its pendant-free core and attached
trees.

Bicyclic graphs are generated constructively: every pendant-free bicyclic
core shape (two disjoint cycles joined by a path, two cycles sharing a
vertex, or a theta graph) of at most n vertices is built, and rooted
forests distributing the remaining vertices over the core are attached,
one forest per orbit of the core's automorphism group, which the
canonical-labelling search lists (:func:`connsets.canon.automorphism_group`),
so each class is generated exactly once.

The generation yields attachment keys ``(core, sizes, shapes)``, each
shape the index of a row of ``_rooted_trees``, the one table of rooted
tree shapes: a parent array, which the tree's edges are built from, with
the tree's N(T) and count through the root, both from one backward sweep
of the parent array by the product over children, with no graph built
and no block pass run.  Three routes read the keys.
``generate_counted_keys`` streams them in generation order with each
class's count, read off the key: the trees' rooted counts times the
core's through-counts, the number of connected core sets through each
set of tree roots, which the one include/exclude search of
:mod:`connsets.counting` gives once per core and root set.
``generate_bicyclic`` builds each key's graph (:func:`graph_from_key`)
and streams those, in the same order, with no certificate built.
``enumerate_bicyclic`` canonicalises every graph, sorts by certificate
and treats a repeated certificate as a contract violation, a check
independent of the guards below.  All routes read one stream, whose
guards use no certificate.  The group guard runs before a core's first
key: the automorphisms the search lists for the core are distinct, map
it onto itself, and number the closed-form order of its shape's group.
The Burnside guard runs after its last key, before the next core's
first: the keys kept, counted as they pass, number the orbits Burnside's
lemma gives from rooted-tree counts (OEIS A000081, by Otter's
recurrence).  The stream ends with the corpus checks: the class count
of OEIS A001429 and, up to ``LABELLED_GUARD_N``, the orbit-mass guard
of :mod:`connsets.crosscheck`, which shares no code with the generator.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .canon import automorphism_group, canonical_certificate
from .counting import _connected_subsets
from .errors import LABELLED_GUARD_N, ContractViolationError, ResourceCapError
from .families import FamilySpec, build
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

# Unlabelled connected bicyclic graphs per order (OEIS A001429).
_BICYCLIC_CLASSES = {
    4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797, 10: 2678, 11: 8833, 12: 28908,
}


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


def enumerate_trees(n: int, cap: int | None = None) -> list[Graph]:
    """All isomorphism classes of free trees on ``n`` vertices, in
    certificate order: the shapes of ``_rooted_trees(n)`` collapsed by
    certificate, which must number Otter's free-tree count.  ``cap``
    (default ``DEFAULT_TREE_CAP``) is the largest order allowed."""
    if n < 1:
        raise ContractViolationError(f"trees need n >= 1, got {n}")
    cap = DEFAULT_TREE_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(f"tree enumeration capped at n <= {cap}, got {n}")
    seen: dict[str, Graph] = {}
    for parents, _, _ in _rooted_trees(n):
        tree = Graph.from_edges(n, enumerate(parents, 1))
        seen.setdefault(canonical_certificate(tree), tree)
    # Otter's free-tree count (OEIS A000055) from the rooted counts t:
    # f_n = t_n - (sum_{i=1}^{n-1} t_i t_{n-i} - [n even] t_{n/2}) / 2.
    t = _rooted_tree_counts(n)
    free = t[n] - (sum(t[i] * t[n - i] for i in range(1, n)) - (0 if n % 2 else t[n // 2])) // 2
    if len(seen) != free:
        raise ContractViolationError(
            f"enumeration produced {len(seen)} tree classes at n={n}, Otter's count is {free}"
        )
    return [seen[c] for c in sorted(seen)]


# ---------------------------------------------------------------------------
# Core extraction


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


def extract_core(g: Graph) -> tuple[str, tuple[int, ...]]:
    """Strip pendant vertices from a bicyclic graph until none remain and
    classify the residue: ``kind`` is "I", "II" or "III" with the shape
    parameters (p, q, r), (p, q) or (a, b, c).

    ``pendant_free_core`` gives the core mask and the stripped trees.
    """
    _require_bicyclic(g)
    return _classify_core(subgraph(g, pendant_free_core(g)[0])[0])


# ---------------------------------------------------------------------------
# Bicyclic generation

# An attachment key (core, sizes, shapes); see ``_with_attachments``.
Key = tuple[Graph, tuple[int, ...], tuple[int, ...]]


def _core_specs(n: int) -> Iterator[FamilySpec]:
    """Every pendant-free bicyclic shape on at most ``n`` vertices."""
    # Two cycles sharing a vertex: p + q - 1 vertices.
    for p in range(3, n):
        for q in range(p, n + 2 - p):
            yield FamilySpec("typeII", (p, q))
    # Two disjoint cycles joined by a path on r >= 2 vertices.
    for p in range(3, n):
        for q in range(p, n - p + 1):
            for r in range(2, n + 3 - p - q):
                yield FamilySpec("dumbbell", (p, q, r))
    # Theta graphs: a + b + c - 4 vertices.
    for a in range(2, n):
        for b in range(max(a, 3), n):
            for c in range(b, n + 5 - a - b):
                yield FamilySpec("theta", (a, b, c))


@lru_cache(maxsize=None)
def _rooted_trees(size: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """One row ``(parents, total, rooted)`` per rooted tree shape on
    ``size`` vertices, in the order of ``rooted_tree_level_sequences``.

    ``parents[v - 1]`` is the parent of vertex v: in a level sequence
    (Beyer and Hedetniemi, *Constant time generation of rooted trees*,
    1980) that is the last earlier vertex one level up, so the root is 0
    and every parent comes before its child.  ``total`` is N(T), and
    ``rooted`` the count through the root, by the product over children
    (Szekely and Wang, *On subtrees of trees*, 2005): ``down[v]``, the
    number of subtrees whose highest vertex is v, is the product of
    ``1 + down[c]`` over v's children c, so one backward sweep makes
    every ``down[v]`` final before its parent reads it; ``rooted`` is
    ``down[0]`` and ``total`` the sum of ``down``.
    """
    rows = []
    for levels in rooted_tree_level_sequences(size):
        last = [0] * (size + 1)  # last[l]: the latest vertex at level l
        parents = []
        for v, level in enumerate(levels[1:], 1):
            parents.append(last[level - 1])
            last[level] = v
        down = [1] * size
        for v in range(size - 1, 0, -1):
            down[parents[v - 1]] *= 1 + down[v]
        rows.append((tuple(parents), sum(down), down[0]))
    return tuple(rows)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _with_attachments(
    core: Graph, extra: int, automorphisms: tuple[tuple[int, ...], ...]
) -> Iterator[Key]:
    """The keys attaching ``extra`` vertices to ``core`` as rooted trees,
    one per orbit of ``automorphisms``, the core's whole automorphism
    group as ``automorphism_group`` lists it.

    A key is ``(core, sizes, shapes)``: the tree size at each core vertex
    and the index of its shape's row in ``_rooted_trees``, where level
    sequences name each rooted tree exactly once; :func:`graph_from_key`
    builds its graph.  Two keys give isomorphic graphs exactly when an
    automorphism of the core carries one onto the other, since every
    isomorphism maps the pendant-free core onto itself.  ``_compositions``
    and ``itertools.product`` both run in increasing lexicographic order,
    so keys are generated in increasing order and the least key of an
    orbit is the first one generated; only that one is kept.  A
    composition is skipped whole when an automorphism makes ``sizes``
    smaller; otherwise the shapes are compared only under the
    automorphisms that fix ``sizes``.
    """
    m = core.n
    identity = tuple(range(m))
    # sigma(t) is the tuple (t[sigma[0]], ..., t[sigma[m-1]]); a core has
    # at least four vertices, so itemgetter returns a tuple.
    others = [itemgetter(*sigma) for sigma in automorphisms if sigma != identity]
    for sizes in _compositions(extra, m):
        images = [sigma(sizes) for sigma in others]
        if any(img < sizes for img in images):
            continue
        fixing = [sigma for sigma, img in zip(others, images) if img == sizes]
        choices = [range(len(_rooted_trees(s + 1))) for s in sizes]
        for shapes in itertools.product(*choices):
            if any(sigma(shapes) < shapes for sigma in fixing):
                continue
            yield core, sizes, shapes


def graph_from_key(key: Key) -> Graph:
    """The graph of an attachment key: the core on vertices ``0..m-1``,
    then each core vertex's tree, in core-vertex order, on the next
    ``sizes[c]`` ids, its edges read off the ``parents`` of its
    ``_rooted_trees`` row."""
    core, sizes, shapes = key
    edges = core.edges()
    nxt = core.n
    for c, (size, shape) in enumerate(zip(sizes, shapes)):
        ids = [c, *range(nxt, nxt + size)]
        parents = _rooted_trees(size + 1)[shape][0]
        edges.extend((ids[p], ids[v]) for v, p in enumerate(parents, 1))
        nxt += size
    return Graph.from_edges(nxt, edges)


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


def _shape_group_order(spec: FamilySpec) -> int:
    """Order of the automorphism group of a pendant-free core, from its
    shape parameters alone.

    Dumbbells and typeII cores have the two cycle reflections, times a
    swap of the cycles when p = q; a theta has the swap of its two hubs
    times every permutation of equal-length paths.
    """
    if spec.kind == "theta":
        order = 2
        for length in set(spec.params):
            order *= math.factorial(spec.params.count(length))
        return order
    p, q = spec.params[:2]
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


def _check_group(
    n: int, spec: FamilySpec, core: Graph, automorphisms: tuple[tuple[int, ...], ...]
) -> None:
    """The listed automorphisms must be the whole group of ``core``, the
    graph of ``spec``: distinct automorphisms, as many as the closed form
    for its shape gives."""
    order = _shape_group_order(spec)
    if (
        len(automorphisms) != order
        or len(set(automorphisms)) != order
        or any(core.relabel(sigma) != core for sigma in automorphisms)
    ):
        raise ContractViolationError(
            f"n={n}: the automorphisms listed for core {spec} are not "
            f"its whole group of order {order} ({len(automorphisms)} listed)"
        )


def _guarded_stream(n: int) -> Iterator[Key]:
    """Each core's kept keys as they are made, then the corpus checks:
    read to its end, the stream gives a proven corpus or raises.

    The group guard checks the canonical search's group against the
    closed-form order before a core's first key, the Burnside guard the
    kept count after its last: every orbit keeps at least its least key,
    so that count is at least the orbit count, with equality exactly
    when each class is kept once.  After the last core the corpus must
    be nonempty and match ``_BICYCLIC_CLASSES``, and up to
    ``LABELLED_GUARD_N`` pass ``crosscheck.labeled_bicyclic_classes``.
    """
    labelled = n <= LABELLED_GUARD_N
    classes = 0
    keys: list[Key] = []  # kept only for the labelled guard
    for spec in _core_specs(n):
        core = build(spec)
        extra = n - core.n
        automorphisms = automorphism_group(core)
        _check_group(n, spec, core, automorphisms)
        kept = 0
        for kept, key in enumerate(_with_attachments(core, extra, automorphisms), 1):
            if labelled:
                keys.append(key)
            yield key
        fixed = _burnside_sum(automorphisms, extra)
        if kept * len(automorphisms) != fixed:
            raise ContractViolationError(
                f"n={n}: core {spec} kept {kept} attachment choices, "
                f"Burnside counts {fixed}/{len(automorphisms)} orbits"
            )
        classes += kept
    if not classes:
        raise ContractViolationError(f"enumeration produced no graphs at n={n}")
    if n in _BICYCLIC_CLASSES and classes != _BICYCLIC_CLASSES[n]:
        raise ContractViolationError(
            f"enumeration produced {classes} classes at n={n}, "
            f"OEIS A001429 has {_BICYCLIC_CLASSES[n]}"
        )
    if labelled:
        # Imported here so that larger orders and `import connsets.cli`
        # never load the guard.
        from .crosscheck import labeled_bicyclic_classes

        labeled_bicyclic_classes(n, [graph_from_key(key) for key in keys])


def _check_order(n: int, cap: int | None) -> None:
    """A bicyclic graph has at least four vertices, and ``n`` must fit
    under ``cap`` (default ``DEFAULT_BICYCLIC_CAP``)."""
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

    The order is checked at the call; each core's group guard runs before
    its first representative and its Burnside guard after its last, and
    the stream ends with the corpus checks (the A001429 class count, and
    up to ``LABELLED_GUARD_N`` the labelled guard).  ``cap`` (default
    ``DEFAULT_BICYCLIC_CAP``) is the largest order allowed.
    """
    _check_order(n, cap)
    return map(graph_from_key, _guarded_stream(n))


def _key_count(key: Key, through: dict[int, int]) -> int:
    """N(G) for the graph of ``key``, built from the core alone.

    A connected set of G either meets the core, in a connected core set S
    with a rooted subtree of T_c at each c in S, or lies in one T_c
    without c (Szekely and Wang, *On subtrees of trees*, 2005, count
    subtrees by the same product over children).  So

        N(G) = sum_S prod_{c in S} r_c + sum_c (N(T_c) - r_c).

    Writing each r_c as 1 + (r_c - 1) and multiplying out over S gives

        sum_S prod_{c in S} r_c = sum_{A <= roots} M(A) prod_{c in A} (r_c - 1),

    where the roots are the core vertices that carry a tree (r_c = 1
    elsewhere) and M(A) is the number of connected core sets through
    every vertex of A; M of the empty set is N(core).  N(T_c) and r_c are
    the ``total`` and ``rooted`` fields of T_c's ``_rooted_trees`` row.
    ``through`` maps each mask A to M(A) for one core: each M(A) is
    counted by the one include/exclude search the first time a key needs
    it, and read from the dict by every later key on that core.
    """
    core, sizes, shapes = key
    terms = [(0, 1)]  # (A, prod_{c in A} (r_c - 1)) over the subsets A
    hanging = 0
    for c, (size, shape) in enumerate(zip(sizes, shapes)):
        if size:
            _, total, rooted = _rooted_trees(size + 1)[shape]
            hanging += total - rooted
            terms += [(mask | 1 << c, prod * (rooted - 1)) for mask, prod in terms]
    count = hanging
    for mask, prod in terms:
        sets = through.get(mask)
        if sets is None:
            sets = through[mask] = _connected_subsets(
                core.adj, core.vertex_mask, [1] * core.n, mask
            )
        count += sets * prod
    return count


def generate_counted_keys(n: int, cap: int | None = None) -> Iterator[tuple[Key, int]]:
    """The classes of ``generate_bicyclic`` as ``(key, count)``, in the
    same order, with no class's graph built: :func:`graph_from_key` gives
    the graph, and ``count`` is its number of connected sets.

    The order is checked at the call, and the keys pass every check of
    ``generate_bicyclic``'s stream at the same points.  Each core's
    through-counts are searched once, by the first of its keys that
    needs them (see :func:`_key_count`).
    """
    _check_order(n, cap)
    return _counted(n)


def _counted(n: int) -> Iterator[tuple[Key, int]]:
    for _, keys in itertools.groupby(_guarded_stream(n), key=itemgetter(0)):
        through: dict[int, int] = {}
        for key in keys:
            yield key, _key_count(key, through)


def enumerate_bicyclic(n: int, cap: int | None = None) -> list[Graph]:
    """The classes of ``generate_bicyclic`` in certificate order, read
    through every check of its stream before the first is canonicalised;
    a repeated certificate is a contract violation too."""
    classes: dict[str, Graph] = {}
    for g in list(generate_bicyclic(n, cap)):
        cert = canonical_certificate(g)
        if cert in classes:
            raise ContractViolationError(
                f"n={n}: the generator produced one class twice "
                f"({to_graph6(classes[cert])} and {to_graph6(g)})"
            )
        classes[cert] = g
    return [classes[c] for c in sorted(classes)]
