"""Independent labelled-graph generator used to cross-check enumeration.

This path deliberately shares nothing with the constructive generator in
:mod:`connsets.enumeration`: it walks every labelled graph on ``n``
vertices with ``n + 1`` edges (as bitmasks over the edge slots of the
complete graph), keeps the connected ones, and partitions them into
isomorphism classes by sweeping vertex-permutation orbits.

Every step is whole-array numpy code, and every edge mask is a
``uint32``: n <= ``MAX_CROSSCHECK_N`` = 8 gives at most 28 edge slots.  A
graph is found by the colex rank of its k-edge mask (k = n + 1;
combinatorial number system, Knuth, TAOCP 4A 7.2.1.3): with set slots
s_0 < ... < s_(k-1) it is sum C(s_i, i + 1), its index among the k-subsets
in ascending order, read off two tables of half the mask's width.  The
subsets are built in blocks by top slot: those with top slot t are t plus
one of the first C(t, k - 1) (k - 1)-subsets, which Pascal's rule over the
edge slots yields in ascending order, and the block starts at rank
C(t, k).  Connectivity is never tested graph by graph: the same recursion
carries the vertex partition into components of each subset as an id in a
table of the Bell(n) set partitions, where adding an edge is one lookup,
and a subset is connected when adding its top slot leaves one block.  An
orbit is the OR of per-permutation slot bits over the representative's
edges, sorted once and looked up by rank.  The sweep checks, and raises
:class:`ContractViolationError` naming ``n`` and the graph6 of the
representative when one fails, that

* the representative's rank is the index it was taken from;
* the number of distinct images is ``n! / |stabiliser|``, where the
  stabiliser is the set of permutations fixing the representative;
* every image is in the connected sweep;
* no orbit overlaps an earlier one;
* the orbit sizes sum to the size of the sweep.

At n = 8 (6.9 million edge subsets, 4.48 million connected) the sweep
takes about 0.55 s and peaks at about 68 MB resident (2-core VM, Python
3.11.7, numpy 2.4).

Not exposed through the command line; it exists as a test oracle and as
the exhaustiveness guard of the verification harness.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache

import numpy as np

from .canon import canonical_certificate
from .errors import ContractViolationError, ResourceCapError
from .graphs import Graph, to_graph6

MAX_CROSSCHECK_N = 8

_WINDOW = 1 << 16


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _partition_table(n: int) -> tuple[np.ndarray, int, int]:
    """The set partitions of ``range(n)`` and how each edge slot joins them.

    Returns ``(join, start, whole)``.  ``join[p, e]`` is the id of the
    partition that partition ``p`` becomes once the two ends of edge slot
    ``e`` share a block; ``start`` is the id of the partition into
    singletons and ``whole`` that of the single block.  A partition is
    written as the least vertex of each vertex's block, a canonical form,
    and the ids number the Bell(n) partitions (4140 at n = 8) in ascending
    order of that form read as a base-n numeral.  They are found by
    closure: round r joins the two ends of every slot in every partition
    of round r - 1 and keeps those with one block fewer, so every
    partition appears in the round of its block count.
    """
    slots = _edge_slots(n)
    us = np.array([u for u, _ in slots], dtype=np.intp)
    vs = np.array([v for _, v in slots], dtype=np.intp)
    weights = n ** np.arange(n)

    def joined(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # [p, e, v]: the block of v once the ends of slot e share one in
        # partition p; [p, e]: whether those ends were in two blocks.
        ends_u, ends_v = parts[:, us], parts[:, vs]
        low = np.minimum(ends_u, ends_v)[:, :, None]
        high = np.maximum(ends_u, ends_v)[:, :, None]
        blocks = parts[:, None, :]
        return np.where(blocks == high, low, blocks), ends_u != ends_v

    level = np.arange(n)[None, :]
    rounds = [level]
    for _ in range(n - 1):
        grown, fused = joined(level)
        grown = grown[fused]
        _, first = np.unique(grown @ weights, return_index=True)
        level = grown[first]
        rounds.append(level)
    parts = np.concatenate(rounds)
    parts = parts[np.argsort(parts @ weights)]
    keys = parts @ weights
    join = np.searchsorted(keys, joined(parts)[0] @ weights).astype(np.int16)
    start = int(np.searchsorted(keys, np.arange(n) @ weights))
    whole = int(np.searchsorted(keys, 0))
    return join, start, whole


def _subset_masks(
    join: np.ndarray, start: int, slots: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """All ``k``-subsets of ``range(slots)`` as bitmasks, in ascending
    order, and the id of the partition that each subset's edges join
    ``start`` into, in the table ``join`` of :func:`_partition_table`.

    Pascal's rule, one slot at a time: a j-subset of the first s + 1 slots
    either omits slot s or adds it to a (j - 1)-subset of the first s, and
    adding it maps the partition id through ``join[:, s]``.  Masks of the
    first kind are below ``2**s`` and those of the second are not, so
    concatenating them keeps ascending order.  Sizes that can no longer
    reach ``k`` with the slots left are dropped.
    """
    empty = np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.int16)
    levels = {0: (np.zeros(1, dtype=np.uint32), np.full(1, start, dtype=np.int16))}
    for s in range(slots):
        bit = np.uint32(1 << s)
        step = join[:, s]
        grown = {}
        for j in range(max(0, k - (slots - s - 1)), min(k, s + 1) + 1):
            without, without_ids = levels.get(j, empty)
            below, below_ids = levels.pop(j - 1, empty)
            cut = len(without)
            masks = np.empty(cut + len(below), dtype=np.uint32)
            ids = np.empty(len(masks), dtype=np.int16)
            masks[:cut] = without
            ids[:cut] = without_ids
            np.bitwise_or(below, bit, out=masks[cut:])
            np.take(step, below_ids, out=ids[cut:])
            grown[j] = masks, ids
        levels = grown
    return levels[k]


def _rank_tables(slots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-width tables for :func:`_colex_rank` over masks of ``slots`` bits.

    With ``H = ceil(slots / 2)``: ``low[x]`` is the rank contribution of
    the set bits of ``x < 2**H``, ``pop[x]`` their number, and
    ``high[y, c]`` the contribution of the bits ``H + t`` for the set bits
    ``t`` of ``y``, when ``c`` set bits lie below them.  Each table doubles
    over its bits: the entries with bit b set are those without it, plus
    the binomial of that bit at its position in the subset.
    """
    h = (slots + 1) // 2
    binom = np.array(
        [[math.comb(s, j) for j in range(slots + 2)] for s in range(slots)], dtype=np.uint32
    )
    low = np.zeros(1, dtype=np.uint32)
    pop = np.zeros(1, dtype=np.intp)
    for b in range(h):
        low = np.concatenate((low, low + binom[b, pop + 1]))
        pop = np.concatenate((pop, pop + 1))
    below = np.arange(h + 1)
    high = np.zeros((1, h + 1), dtype=np.uint32)
    high_pop = np.zeros(1, dtype=np.intp)
    for b in range(slots - h):
        high = np.concatenate((high, high + binom[h + b, below + high_pop[:, None] + 1]))
        high_pop = np.concatenate((high_pop, high_pop + 1))
    return low, pop, high


def _colex_rank(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray], masks: np.ndarray
) -> np.ndarray:
    """Index of each k-subset mask in ``_subset_masks(..., slots, k)``.

    A mask with set slots s_0 < ... < s_(k-1) has rank sum C(s_i, i + 1)
    in the combinatorial number system, which is its position in
    ascending (colex) order; ``tables`` is ``_rank_tables(slots)``.
    """
    low, pop, high = tables
    h = len(low).bit_length() - 1
    bottom = masks & np.uint32((1 << h) - 1)
    return low[bottom] + high[masks >> np.uint32(h), pop[bottom]]


def _connected_sweep(n: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Which labelled graphs on ``n`` vertices with ``k = n + 1`` edges are
    connected, indexed by the colex rank of their edge masks.

    Returns ``(base, starts, keep)``.  The k-subsets of the edge slots with
    top slot t are t plus a (k - 1)-subset of ``range(t)``: the first
    C(t, k - 1) entries of ``base``, the masks of
    ``_subset_masks(..., slots - 1, k - 1)``, at ranks from
    ``starts[t] = C(t, k)`` on.  ``keep[r]`` says whether the subset of
    rank r is connected: whether joining the ends of slot t in the
    partition of its (k - 1)-subset leaves one block.  No array of all
    C(slots, k) masks is built.
    """
    slots, k = len(_edge_slots(n)), n + 1
    join, start, whole = _partition_table(n)
    base, ids = _subset_masks(join, start, slots - 1, k - 1)
    starts = [math.comb(t, k) for t in range(slots)]
    keep = np.empty(math.comb(slots, k), dtype=bool)
    for t in range(k - 1, slots):
        size = math.comb(t, k - 1)
        keep[starts[t] : starts[t] + size] = join[:, t][ids[:size]] == whole
    return base, starts, keep


def _permutation_edge_maps(n: int) -> np.ndarray:
    """Row p, column e: the edge slot that permutation p sends slot e to."""
    slots = _edge_slots(n)
    us = np.array([u for u, _ in slots], dtype=np.intp)
    vs = np.array([v for _, v in slots], dtype=np.intp)
    slot_index = np.zeros((n, n), dtype=np.int8)
    slot_index[us, vs] = slot_index[vs, us] = np.arange(len(slots))
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.intp,
        count=n * math.factorial(n),
    ).reshape(-1, n)
    return slot_index[perms[:, us], perms[:, vs]]


def _graph_from_mask(n: int, mask: int) -> Graph:
    slots = _edge_slots(n)
    return Graph.from_edges(n, [slots[e] for e in range(len(slots)) if mask >> e & 1])


def _next_untaken(taken: np.ndarray, start: int) -> int:
    """Index of the first False in ``taken`` at or after ``start``, or its length."""
    while start < len(taken):
        hits = np.flatnonzero(~taken[start : start + _WINDOW])
        if len(hits):
            return start + int(hits[0])
        start += _WINDOW
    return len(taken)


def _sweep_error(n: int, rep: int, what: str) -> ContractViolationError:
    graph6 = to_graph6(_graph_from_mask(n, rep))
    return ContractViolationError(f"labelled sweep at n={n}: {what} (representative {graph6})")


@lru_cache(maxsize=None)
def labeled_bicyclic_classes(n: int) -> tuple[tuple[str, int], ...]:
    """Isomorphism classes of n-vertex bicyclic graphs from the labelled
    sweep: sorted (certificate, labelled orbit size) pairs.

    The orbit sizes sum to the number of connected labelled graphs, which
    pins down that the orbit partition was exhaustive.
    """
    if not 4 <= n <= MAX_CROSSCHECK_N:
        raise ResourceCapError(
            f"labelled cross-check supports 4 <= n <= {MAX_CROSSCHECK_N}, got {n}"
        )
    slots = len(_edge_slots(n))
    base, starts, keep = _connected_sweep(n)
    tables = _rank_tables(slots)
    # Row e: the bit that each permutation sends slot e to.
    slot_bits = np.uint32(1) << _permutation_edge_maps(n).T.astype(np.uint32, order="C")
    group = math.factorial(n)
    taken = ~keep
    classes: list[tuple[str, int]] = []
    total = 0
    cursor = _next_untaken(taken, 0)
    while cursor < len(taken):
        t = bisect.bisect_right(starts, cursor) - 1
        rep = int(base[cursor - starts[t]]) | 1 << t
        rank = int(_colex_rank(tables, np.array([rep], dtype=np.uint32))[0])
        if rank != cursor:
            raise _sweep_error(n, rep, f"the representative at index {cursor} has rank {rank}")
        edges = [e for e in range(slots) if rep >> e & 1]
        images = slot_bits[edges[0]].copy()
        for e in edges[1:]:
            images |= slot_bits[e]
        images.sort()
        stabiliser = int(np.count_nonzero(images == np.uint32(rep)))
        orbit = images[np.concatenate(([True], images[1:] != images[:-1]))]
        distinct = len(orbit)
        if distinct * stabiliser != group:
            raise _sweep_error(
                n,
                rep,
                f"{distinct} distinct images, but n!/|stabiliser| = {group}/{stabiliser}",
            )
        ranks = _colex_rank(tables, orbit)
        # taken starts as ~keep, so one gather finds a member that is
        # either missing from the sweep or already in an earlier orbit.
        if taken[ranks].any():
            if not keep[ranks].all():
                raise _sweep_error(n, rep, "an orbit member is missing from the connected sweep")
            raise _sweep_error(n, rep, "the orbit overlaps a previously swept class")
        taken[ranks] = True
        total += distinct
        classes.append((canonical_certificate(_graph_from_mask(n, rep)), distinct))
        cursor = _next_untaken(taken, cursor + 1)
    connected = int(np.count_nonzero(keep))
    if total != connected:
        raise ContractViolationError(
            f"labelled sweep at n={n}: orbit sizes sum to {total}, "
            f"the connected sweep holds {connected} graphs"
        )
    return tuple(sorted(classes))


def labeled_bicyclic_certificates(n: int) -> tuple[str, ...]:
    return tuple(cert for cert, _ in labeled_bicyclic_classes(n))


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
