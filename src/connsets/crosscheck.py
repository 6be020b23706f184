"""Independent labelled-graph checks of the bicyclic class list.

Nothing here shares code with the constructive generator in
:mod:`connsets.enumeration`.  Both roles below rest on the same facts.  Every
isomorphism class of connected graphs with ``n`` vertices and ``n + 1``
edges has a degree-sorted member, one with deg(0) >= deg(1) >= ... >=
deg(n - 1).  Two degree-sorted graphs with the same degree sequence d are
isomorphic exactly when an element of the Young subgroup S_d (the product
of the symmetric groups on the runs of equal degrees in d) maps one onto
the other, because an isomorphism keeps every degree.  So each class is
one S_d orbit, and as Aut(G) lies inside S_d, the stabiliser of G in S_d is
Aut(G) and ``n! / |stabiliser|`` is the size of its labelled orbit under
S_n.  A graph is the bitmask of its edge slots in the complete graph, and
its S_d images are read off one table per slot: the slot bit each
permutation of S_d sends it to.  L(n), the number of connected labelled
graphs with n vertices and n + 1 edges, comes from an inclusion-exclusion
recurrence over the component of vertex 0 (Wright, 1977, gives the same
numbers in closed form).

**The guard** (:func:`labeled_bicyclic_classes`), which the generator's
stream (:mod:`connsets.enumeration`) runs on its own classes at every
n <= ``LABELLED_GUARD_N``.  It relabels
each graph degree-sorted, forms its S_d orbit and checks that

* the graph has n vertices, n + 1 edges and is connected;
* the number of distinct images is ``|S_d| / |stabiliser|``, where the
  stabiliser is the set of permutations fixing the graph;
* no orbit meets an earlier one, so no two graphs are isomorphic;
* the labelled orbit sizes ``n! / |stabiliser|`` sum to L(n).

Distinct classes have disjoint labelled orbits, all among the L(n)
connected labelled graphs, so the sum reaches L(n) only when every class
is present: the list holds exactly one graph per class (the orbit-counting
mass identity; Harary & Palmer, *Graphical Enumeration*, 1973).  It builds
no certificate.  At n = 8 it takes 0.04-0.07 s for the 236 classes
(2-core VM, Python 3.11.7).

**The reference sweep** (:func:`_swept_classes`), which the tests compare
the generator's class list with.  For each non-increasing d with degrees
in 1..n-1 summing to 2(n + 1), a backtracker realises every labelled graph
with degree sequence d, vertex by vertex, each vertex picking its
remaining neighbours among the later ones; a bitmask search over each
graph's adjacency keeps the connected ones.  It partitions them into S_d
orbits and canonicalises one representative per orbit.  It checks, and
raises :class:`ContractViolationError` naming ``n`` (and the graph6 of the
representative where there is one) when one fails, that

* every realised graph has n + 1 edges and degree sequence d;
* the number of distinct images is ``|S_d| / |stabiliser|``;
* every image is in the connected sweep of d;
* no orbit overlaps an earlier one;
* the orbits of each d cover its connected sweep;
* the labelled orbit sizes sum to L(n).  A class the backtracker never
  realises lowers the sum.

At n = 8 there are 33 degree sequences, 15,020 connected degree-sorted
graphs and 236 orbits with 44,652 images.  The sweep takes about 0.3 s,
half of it in the backtracker, and raises peak resident memory by about
3.5 MB over the imports (2-core VM, Python 3.11.7).

Not exposed through the command line.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache

from .canon import canonical_certificate
from .errors import LABELLED_GUARD_N, ContractViolationError, ResourceCapError
from .graphs import Graph, is_connected, to_graph6


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _slot_bits(n: int) -> list[list[int]]:
    """``bit[u][v]``: the bit of the edge slot joining ``u`` and ``v``."""
    bit = [[0] * n for _ in range(n)]
    for e, (u, v) in enumerate(_edge_slots(n)):
        bit[u][v] = bit[v][u] = 1 << e
    return bit


def _degree_sequences(n: int) -> list[tuple[int, ...]]:
    """The non-increasing degree sequences with every degree in 1..n-1
    summing to 2(n + 1), in descending lexicographic order."""
    return [
        d
        for d in itertools.combinations_with_replacement(range(n - 1, 0, -1), n)
        if sum(d) == 2 * (n + 1)
    ]


def _connected_sweep(n: int) -> dict[tuple[int, ...], list[int]]:
    """Every connected labelled graph on ``n`` vertices with a degree
    sequence of :func:`_degree_sequences`, as an edge-slot mask, by
    degree sequence and in the order the backtracker realises them.

    Vertex i takes its remaining degree in neighbours among the later
    vertices with degree left, so each labelled graph is realised once.
    """
    bit = _slot_bits(n)
    full = (1 << n) - 1
    sweep: dict[tuple[int, ...], list[int]] = {}
    for d in _degree_sequences(n):
        graphs: list[int] = []
        left = list(d)
        adj = [0] * n

        def place(i: int, mask: int) -> None:
            while i < n and not left[i]:
                i += 1
            if i == n:
                seen = frontier = 1
                while frontier:
                    reach = 0
                    for v in range(n):
                        if frontier >> v & 1:
                            reach |= adj[v]
                    frontier = reach & ~seen
                    seen |= reach
                if seen == full:
                    graphs.append(mask)
                return
            need, left[i], earlier = left[i], 0, adj[i]
            later = [j for j in range(i + 1, n) if left[j]]
            for chosen in itertools.combinations(later, need):
                edges, adj[i] = 0, earlier
                for j in chosen:
                    left[j] -= 1
                    adj[j] |= 1 << i
                    adj[i] |= 1 << j
                    edges |= bit[i][j]
                place(i + 1, mask | edges)
                for j in chosen:
                    left[j] += 1
                    adj[j] ^= 1 << i
            left[i], adj[i] = need, earlier

        place(0, 0)
        sweep[d] = graphs
    return sweep


def _young_permutations(d: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The Young subgroup S_d: every vertex permutation that maps each run
    of equal degrees in ``d`` onto itself, identity first."""
    runs = [list(run) for _, run in itertools.groupby(range(len(d)), key=d.__getitem__)]
    return [
        tuple(itertools.chain.from_iterable(parts))
        for parts in itertools.product(*(itertools.permutations(run) for run in runs))
    ]


def _slot_images(n: int, perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Row e: the bit of the edge slot that each permutation sends slot e to."""
    bit = _slot_bits(n)
    return [[bit[p[u]][p[v]] for p in perms] for u, v in _edge_slots(n)]


def _orbit_images(images: list[list[int]], mask: int) -> list[int]:
    """The image of ``mask`` under each permutation of the ``images`` table.

    A permutation sends distinct slots to distinct slots, so the sum of
    the edges' image bits is their union."""
    rows = [images[e] for e in range(len(images)) if mask >> e & 1]
    return list(map(sum, zip(*rows)))


@lru_cache(maxsize=None)
def _connected_labelled_count(n: int, k: int) -> int:
    """Connected labelled graphs with ``n`` vertices and ``k`` edges.

    Every graph minus those whose vertex 0 lies in a component of j < n
    vertices with i edges: C(n - 1, j - 1) ways to pick its other vertices,
    times the connected graphs on them, times any graph on the rest.
    """
    count = math.comb(math.comb(n, 2), k)
    for j in range(1, n):
        rest = math.comb(n - j, 2)
        for i in range(min(k, math.comb(j, 2)) + 1):
            count -= (
                math.comb(n - 1, j - 1) * _connected_labelled_count(j, i) * math.comb(rest, k - i)
            )
    return count


def _graph_from_mask(n: int, mask: int) -> Graph:
    slots = _edge_slots(n)
    return Graph.from_edges(n, [slots[e] for e in range(len(slots)) if mask >> e & 1])


def _sweep_error(n: int, rep: int, what: str) -> ContractViolationError:
    graph6 = to_graph6(_graph_from_mask(n, rep))
    return ContractViolationError(f"labelled sweep at n={n}: {what} (representative {graph6})")


def _check_order(n: int) -> None:
    if not 4 <= n <= LABELLED_GUARD_N:
        raise ResourceCapError(
            f"labelled cross-check supports 4 <= n <= {LABELLED_GUARD_N}, got {n}"
        )


def _check_mass(n: int, total: int, check: str) -> None:
    """The labelled orbit sizes must sum to L(n)."""
    k = n + 1
    expected = _connected_labelled_count(n, k)
    if total != expected:
        raise ContractViolationError(
            f"labelled {check} at n={n}: labelled orbit sizes sum to {total}, "
            f"but {expected} connected labelled graphs have {n} vertices and {k} edges"
        )


def labeled_bicyclic_classes(n: int, graphs: list[Graph]) -> tuple[tuple[str, int], ...]:
    """The guard: ``graphs`` must hold exactly one graph per isomorphism
    class of connected graphs with ``n`` vertices and ``n + 1`` edges.

    Returns (graph6, labelled orbit size ``n! / |Aut G|``) per graph, in
    input order.  A graph of the wrong shape, two isomorphic graphs, an
    orbit that breaks the orbit-stabiliser count, or a mass short of L(n)
    is a :class:`ContractViolationError` naming ``n``.
    """
    _check_order(n)
    k = n + 1
    bit = _slot_bits(n)
    group = math.factorial(n)
    tables: dict[tuple[int, ...], tuple[int, list[list[int]]]] = {}
    swept: set[int] = set()
    classes: list[tuple[str, int]] = []
    for g in graphs:
        graph6 = to_graph6(g)
        if g.n != n or g.edge_count != k or not is_connected(g):
            raise ContractViolationError(
                f"labelled guard at n={n}: {graph6} is not a connected graph "
                f"with {n} vertices and {k} edges"
            )
        degrees = g.degrees()
        h = g.relabel(tuple(sorted(range(n), key=degrees.__getitem__, reverse=True)))
        d = h.degrees()
        mask = sum(bit[u][v] for u, v in h.edges())
        if d not in tables:
            perms = _young_permutations(d)
            tables[d] = len(perms), _slot_images(n, perms)
        young, images = tables[d]
        orbit = _orbit_images(images, mask)
        stabiliser = orbit.count(mask)
        distinct = set(orbit)
        if len(distinct) * stabiliser != young:
            raise ContractViolationError(
                f"labelled guard at n={n}: {len(distinct)} distinct images, but "
                f"|S_d|/|stabiliser| = {young}/{stabiliser} ({graph6})"
            )
        if not swept.isdisjoint(distinct):
            raise ContractViolationError(
                f"labelled guard at n={n}: the orbit of {graph6} overlaps an earlier class"
            )
        swept |= distinct
        classes.append((graph6, group // stabiliser))
    _check_mass(n, sum(size for _, size in classes), "guard")
    return tuple(classes)


@lru_cache(maxsize=None)
def _swept_classes(n: int) -> tuple[tuple[str, int], ...]:
    """The reference sweep: isomorphism classes of n-vertex bicyclic
    graphs from the labelled backtracker, as sorted (certificate, labelled
    orbit size) pairs.

    The orbit sizes sum to the number of connected labelled graphs, which
    pins down that the orbit partition was exhaustive.
    """
    _check_order(n)
    k = n + 1
    stars = [sum(row) for row in _slot_bits(n)]  # the slots at each vertex
    group = math.factorial(n)
    classes: list[tuple[str, int]] = []
    for d, graphs in _connected_sweep(n).items():
        degrees = list(d)
        for mask in graphs:
            if mask.bit_count() != k or [(mask & s).bit_count() for s in stars] != degrees:
                what = f"a realised graph does not have {k} edges and degrees {d}"
                raise _sweep_error(n, mask, what)
        perms = _young_permutations(d)
        images = _slot_images(n, perms)
        members, unswept = set(graphs), set(graphs)
        for rep in graphs:
            if rep not in unswept:
                continue
            orbit = _orbit_images(images, rep)
            stabiliser = orbit.count(rep)
            distinct = set(orbit)
            if len(distinct) * stabiliser != len(perms):
                what = f"{len(distinct)} distinct images, but |S_d|/|stabiliser| = "
                raise _sweep_error(n, rep, f"{what}{len(perms)}/{stabiliser}")
            if not distinct <= members:
                raise _sweep_error(n, rep, "an orbit member is missing from the connected sweep")
            if not distinct <= unswept:
                raise _sweep_error(n, rep, "the orbit overlaps a previously swept class")
            unswept -= distinct
            classes.append((canonical_certificate(_graph_from_mask(n, rep)), group // stabiliser))
        swept = len(members) - len(unswept)
        if swept != len(graphs):
            raise ContractViolationError(
                f"labelled sweep at n={n}: orbit sizes sum to {swept}, "
                f"the connected sweep holds {len(graphs)} graphs of degrees {d}"
            )
    _check_mass(n, sum(size for _, size in classes), "sweep")
    return tuple(sorted(classes))


def labeled_bicyclic_certificates(n: int) -> tuple[str, ...]:
    """The reference sweep's certificates, in sorted order."""
    return tuple(cert for cert, _ in _swept_classes(n))


def labeled_tree_certificates(n: int) -> tuple[str, ...]:
    """Certificates of all n-vertex trees, via the sequence-to-tree
    bijection on labelled trees.

    Independent of the level-sequence generator; used only in tests.
    """
    if n == 1:
        return (canonical_certificate(Graph.from_edges(1, [])),)
    if n == 2:
        return (canonical_certificate(Graph.from_edges(2, [(0, 1)])),)
    certs = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        work = list(seq)
        leaves = sorted(v for v in range(n) if degree[v] == 1)
        for v in work:
            leaf = leaves.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                bisect.insort(leaves, v)
        edges.append((leaves[0], leaves[1]))
        certs.add(canonical_certificate(Graph.from_edges(n, edges)))
    return tuple(sorted(certs))
