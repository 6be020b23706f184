"""Independent labelled-graph generator used to cross-check enumeration.

This path deliberately shares nothing with the constructive generator in
:mod:`connsets.enumeration`: it walks every labelled graph on ``n``
vertices with ``n + 1`` edges (as bitmasks over the edge slots of the
complete graph), keeps the connected ones, and partitions them into
isomorphism classes by sweeping vertex-permutation orbits.

A graph is named by the colex rank of its k-edge mask (k = n + 1;
combinatorial number system, Knuth, TAOCP 4A 7.2.1.3): with set slots
s_0 < ... < s_(k-1) it is sum C(s_i, i + 1), its index among the k-subsets
in ascending order.  Ranks of whole orbits are read off two tables of
half the mask's width; a single rank is turned back into its mask in
Python ints.  Every edge mask is a ``uint32``: n <= ``MAX_CROSSCHECK_N``
= 8 gives at most 28 edge slots.

The sweep keeps one state byte per rank, in a ``bytearray``: 0 for a
disconnected graph, 1 for a connected one not yet swept, 2 for one in an
orbit already swept, so the next representative is the next byte 1.
Connectivity is never tested graph by graph.  Each subset carries the
vertex partition into components of its edges as an id in a table of the
Bell(n) set partitions, where adding an edge is one lookup.  The j-subsets
with top slot t are t plus one of the first C(t, j - 1) (j - 1)-subsets in
colex order, and sit at ranks C(t, j) on, so the ids of each size are one
gather per top slot from those of the size below; a k-subset is connected
when adding its top slot leaves one block.  An orbit is the OR of
per-permutation slot bits over the representative's edges.  The sweep
checks, and raises :class:`ContractViolationError` naming ``n`` and the
graph6 of the representative when one fails, that

* the representative's rank is the index it was taken from;
* the number of distinct images is ``n! / |stabiliser|``, where the
  stabiliser is the set of permutations fixing the representative;
* every image is in the connected sweep;
* no orbit overlaps an earlier one;
* the orbit sizes sum to the size of the sweep.

At n = 8 (6.9 million edge subsets, 4.48 million connected) the sweep
takes about 0.4-0.5 s and raises peak resident memory by about 17 MB over
the imports; ``verify min --n 8`` peaks at about 46 MB (2-core VM,
Python 3.11.7, numpy 2.4).

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
    partition appears in the round of its block count.  Blocks are
    ``int8`` and keys ``int32`` (n**n - 1 < 2**31 for n <= 8).
    """
    slots = _edge_slots(n)
    us = np.array([u for u, _ in slots], dtype=np.intp)
    vs = np.array([v for _, v in slots], dtype=np.intp)
    weights = (n ** np.arange(n)).astype(np.int32)

    def joined(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # [p, e, v]: the block of v once the ends of slot e share one in
        # partition p; [p, e]: whether those ends were in two blocks.
        ends_u, ends_v = parts[:, us], parts[:, vs]
        low = np.minimum(ends_u, ends_v)[:, :, None]
        high = np.maximum(ends_u, ends_v)[:, :, None]
        blocks = parts[:, None, :]
        return np.where(blocks == high, low, blocks), ends_u != ends_v

    level = np.arange(n, dtype=np.int8)[None, :]
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


def _subset_partitions(join: np.ndarray, start: int, slots: int, k: int) -> np.ndarray:
    """The id of the partition that each ``k``-subset of ``range(slots)``
    joins ``start`` into, in the table ``join`` of :func:`_partition_table`,
    indexed by colex rank (``int16``).

    The colex prefix recurrence, one array per subset size: the j-subsets
    with top slot t, at ranks C(t, j) to C(t + 1, j), are t plus the first
    C(t, j - 1) (j - 1)-subsets, so their ids are ``join[:, t]`` over the
    first C(t, j - 1) ids of size j - 1.
    """
    ids = np.full(1, start, dtype=np.int16)
    for j in range(1, k + 1):
        grown = np.empty(math.comb(slots, j), dtype=np.int16)
        for t in range(j - 1, slots):
            lo, size = math.comb(t, j), math.comb(t, j - 1)
            grown[lo : lo + size] = join[:, t][ids[:size]]
        ids = grown
    return ids


def _rank_tables(slots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-width tables for :func:`_colex_rank` over masks of ``slots`` bits.

    With ``H = ceil(slots / 2)``: ``low[x]`` is the rank contribution of
    the set bits of ``x < 2**H``, ``pop[x]`` their number, and
    ``high[y * (H + 1) + c]`` the contribution of the bits ``H + t`` for
    the set bits ``t`` of ``y``, when ``c`` set bits lie below them.  Each
    table doubles over its bits: the entries with bit b set are those
    without it, plus the binomial of that bit at its position in the subset.
    """
    h = (slots + 1) // 2
    binom = np.array(
        [[math.comb(s, j) for j in range(slots + 2)] for s in range(slots)], dtype=np.uint32
    )
    low = np.zeros(1, dtype=np.uint32)
    pop = np.zeros(1, dtype=np.uint32)
    for b in range(h):
        low = np.concatenate((low, low + binom[b, pop + 1]))
        pop = np.concatenate((pop, pop + 1))
    below = np.arange(h + 1)
    high = np.zeros((1, h + 1), dtype=np.uint32)
    high_pop = np.zeros(1, dtype=np.intp)
    for b in range(slots - h):
        high = np.concatenate((high, high + binom[h + b, below + high_pop[:, None] + 1]))
        high_pop = np.concatenate((high_pop, high_pop + 1))
    return low, pop, high.ravel()


def _colex_rank(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray], masks: np.ndarray
) -> np.ndarray:
    """Colex rank of each k-subset mask (``uint32``) over ``slots`` bits.

    A mask with set slots s_0 < ... < s_(k-1) has rank sum C(s_i, i + 1)
    in the combinatorial number system, which is its position in
    ascending (colex) order; ``tables`` is ``_rank_tables(slots)``.
    """
    low, pop, high = tables
    h = len(low).bit_length() - 1
    bottom = masks & np.uint32((1 << h) - 1)
    top = (masks >> np.uint32(h)) * np.uint32(h + 1) + np.take(pop, bottom)
    return np.take(low, bottom) + np.take(high, top)


def _colex_unrank(rank: int, slots: int, k: int) -> int:
    """The mask of the ``k``-subset of ``range(slots)`` with colex rank
    ``rank``: for i = k down to 1, the highest slot s with C(s, i) <= what
    is left of the rank, below the slot taken before."""
    mask, s = 0, slots
    for i in range(k, 0, -1):
        s -= 1
        while math.comb(s, i) > rank:
            s -= 1
        mask |= 1 << s
        rank -= math.comb(s, i)
    return mask


def _connected_sweep(n: int) -> bytearray:
    """One state byte per labelled graph on ``n`` vertices with ``k = n +
    1`` edges, indexed by the colex rank of its edge mask: 1 if it is
    connected, else 0.

    The k-subsets with top slot t are t plus one of the first C(t, k - 1)
    (k - 1)-subsets of :func:`_subset_partitions` over ``slots - 1``
    slots, at ranks from C(t, k) on; such a subset is connected when
    joining the ends of slot t in the partition of its (k - 1)-subset
    leaves one block.  No array of masks is built.
    """
    slots, k = len(_edge_slots(n)), n + 1
    join, start, whole = _partition_table(n)
    ids = _subset_partitions(join, start, slots - 1, k - 1)
    # Row t: 1 for the partitions that joining the ends of slot t makes whole.
    closes = (join == whole).T.astype(np.uint8, order="C")
    state = bytearray(math.comb(slots, k))
    flags = np.frombuffer(state, dtype=np.uint8)
    for t in range(k - 1, slots):
        lo, size = math.comb(t, k), math.comb(t, k - 1)
        flags[lo : lo + size] = closes[t][ids[:size]]
    return state


def _slot_bits(n: int) -> np.ndarray:
    """Row e, column p: the bit (``uint32``) of the edge slot that
    permutation p sends slot e to.  The permutations of ``range(n)`` are
    in lexicographic order, identity first: those of ``range(m)`` starting
    with i are i followed by those of ``range(m - 1)`` with every value
    from i up raised by one.
    """
    perms = np.zeros((1, 0), dtype=np.uint8)
    for m in range(1, n + 1):
        perms = np.concatenate([np.insert(perms + (perms >= i), 0, i, axis=1) for i in range(m)])
    slots = _edge_slots(n)
    bit = np.zeros((n, n), dtype=np.uint32)
    for e, (u, v) in enumerate(slots):
        bit[u, v] = bit[v, u] = 1 << e
    table = np.empty((len(slots), len(perms)), dtype=np.uint32)
    for e, (u, v) in enumerate(slots):
        table[e] = bit[perms[:, u], perms[:, v]]
    return table


def _graph_from_mask(n: int, mask: int) -> Graph:
    slots = _edge_slots(n)
    return Graph.from_edges(n, [slots[e] for e in range(len(slots)) if mask >> e & 1])


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
    slots, k = len(_edge_slots(n)), n + 1
    state = _connected_sweep(n)
    flags = np.frombuffer(state, dtype=np.uint8)
    connected = state.count(1)
    tables = _rank_tables(slots)
    slot_bits = _slot_bits(n)
    group = math.factorial(n)
    images = np.empty(slot_bits.shape[1], dtype=np.uint32)
    classes: list[tuple[str, int]] = []
    total = 0
    cursor = state.find(1)
    while cursor >= 0:
        rep = _colex_unrank(cursor, slots, k)
        rank = int(_colex_rank(tables, np.array([rep], dtype=np.uint32))[0])
        if rank != cursor:
            raise _sweep_error(n, rep, f"the representative at index {cursor} has rank {rank}")
        edges = [e for e in range(slots) if rep >> e & 1]
        np.copyto(images, slot_bits[edges[0]])
        for e in edges[1:]:
            np.bitwise_or(images, slot_bits[e], out=images)
        images.sort()
        stabiliser = int(np.count_nonzero(images == np.uint32(rep)))
        orbit = images[np.concatenate(([True], images[1:] != images[:-1]))]
        distinct = len(orbit)
        if distinct * stabiliser != group:
            what = f"{distinct} distinct images, but n!/|stabiliser| = {group}/{stabiliser}"
            raise _sweep_error(n, rep, what)
        ranks = _colex_rank(tables, orbit)
        seen = np.take(flags, ranks)
        if not seen.all():
            raise _sweep_error(n, rep, "an orbit member is missing from the connected sweep")
        if (seen == 2).any():
            raise _sweep_error(n, rep, "the orbit overlaps a previously swept class")
        flags[ranks] = 2
        total += distinct
        classes.append((canonical_certificate(_graph_from_mask(n, rep)), distinct))
        cursor = state.find(1, cursor + 1)
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
