"""Tree and bicyclic generation, core extraction, and the cross-check
against the independent labelled generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connsets import (
    ContractViolationError,
    Graph,
    ResourceCapError,
    canonical_certificate,
    cut_vertices,
    is_connected,
    oracle_count,
    oracle_count_rooted,
)
from connsets import canon, crosscheck
from connsets.canon import automorphism_group
from connsets.crosscheck import (
    labeled_bicyclic_classes,
    labeled_tree_certificates,
)
from connsets import enumeration
from connsets.enumeration import (
    _burnside_sum,
    _classify_core,
    _core_graphs,
    _rooted_tree_counts,
    _rooted_trees,
    _shape_group_order,
    _tree_counts,
    _with_attachments,
    enumerate_bicyclic,
    generate_bicyclic,
    enumerate_trees,
    extract_core,
    pendant_free_core,
    rooted_tree_level_sequences,
)
from connsets.families import FamilySpec, build, parse_family_spec
from connsets.graphs import subgraph, to_graph6

# Class counts established by the agreement of the two independent
# generators (n <= 8) and pinned for the larger sweeps.
BICYCLIC_CLASSES = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797, 10: 2678}
ROOTED_TREES = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
FREE_TREES = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_rooted_tree_level_sequences():
    got = [sum(1 for _ in rooted_tree_level_sequences(s)) for s in range(1, 11)]
    assert got == ROOTED_TREES


def test_enumerate_trees_counts():
    got = [len(enumerate_trees(n)) for n in range(1, 11)]
    assert got == FREE_TREES
    for n in (4, 6):
        for t in enumerate_trees(n):
            assert t.n == n and t.edge_count == n - 1 and is_connected(t)


def test_enumerate_trees_vs_labeled_bijection():
    for n in range(1, 8):
        own = tuple(sorted(canonical_certificate(t) for t in enumerate_trees(n)))
        assert own == labeled_tree_certificates(n)


def test_enumerate_trees_bounds():
    with pytest.raises(ContractViolationError):
        enumerate_trees(0)
    with pytest.raises(ResourceCapError):
        enumerate_trees(11)
    assert len(enumerate_trees(11, cap=11)) == 235


def test_bicyclic_counts_and_stream_invariants():
    for n, expected in BICYCLIC_CLASSES.items():
        if n > 8:
            continue
        graphs = enumerate_bicyclic(n)
        assert len(graphs) == expected
        certs = [canonical_certificate(g) for g in graphs]
        assert len(set(certs)) == len(certs)
        assert certs == sorted(certs)
        for g in graphs:
            assert g.n == n and g.edge_count == n + 1 and is_connected(g)


def test_bicyclic_unique_smallest():
    only = enumerate_bicyclic(4)
    assert len(only) == 1
    assert canonical_certificate(only[0]) == canonical_certificate(
        build(FamilySpec("theta", (2, 3, 3)))
    )


def test_bicyclic_figure_counts():
    counts = sorted(oracle_count(g).total for g in enumerate_bicyclic(5))
    assert counts == [22, 22, 23, 24, 26]


def test_bicyclic_bounds():
    with pytest.raises(ContractViolationError):
        enumerate_bicyclic(3)
    with pytest.raises(ResourceCapError):
        enumerate_bicyclic(12)


def test_core_automorphisms_match_brute_force():
    import itertools

    orders = {}
    for core in _core_graphs(7):
        brute = tuple(
            sorted(
                p for p in itertools.permutations(range(core.n)) if core.relabel(p) == core
            )
        )
        assert automorphism_group(core) == brute, core.label
        orders[core.label] = len(brute)
    assert orders["theta:3,3,3"] == 12
    assert orders["typeII:3,3"] == 8
    assert orders["dumbbell:3,3,2"] == 8
    assert orders["theta:3,3,4"] == 4


def test_attachments_generate_each_class_once():
    # One graph per orbit of the core's automorphism group: the raw
    # stream already has the A001429 length, before any dedupe.
    for n, expected in BICYCLIC_CLASSES.items():
        raw = sum(
            sum(1 for _ in _with_attachments(core, n - core.n, automorphism_group(core)))
            for core in _core_graphs(n)
        )
        assert raw == expected, n


def test_duplicate_class_is_a_contract_violation(monkeypatch):
    # Without the core symmetries every orbit of attachments is generated
    # whole, so the generator would repeat classes; the group guard sees
    # the missing automorphisms before any certificate is compared.
    monkeypatch.setattr(
        enumeration, "automorphism_group", lambda core: (tuple(range(core.n)),)
    )
    with pytest.raises(
        ContractViolationError, match="n=6: the automorphisms listed for core"
    ):
        enumerate_bicyclic(6)


def test_repeated_certificate_is_a_contract_violation(monkeypatch):
    # The certificate view is a second route past the guards: a stream
    # that passes them but yields one class twice is still caught.
    first = next(generate_bicyclic(6))
    twin = first.relabel(tuple(reversed(range(first.n))))
    assert to_graph6(twin) != to_graph6(first)
    monkeypatch.setattr(
        enumeration, "generate_bicyclic", lambda n, cap=None: iter([first, twin])
    )
    with pytest.raises(ContractViolationError, match="produced one class twice") as info:
        enumerate_bicyclic(6)
    assert to_graph6(first) in str(info.value) and to_graph6(twin) in str(info.value)


def test_otter_recurrence_counts_the_level_sequences():
    assert _rooted_tree_counts(12)[1:] == [len(_rooted_trees(j)) for j in range(1, 13)]


def test_tree_table_counts_every_rooted_shape():
    # The (N, r) weights of the keyed count, against the oracle.
    for size in range(1, 9):
        table = zip(_rooted_trees(size), _tree_counts(size), strict=True)
        for edges, pair in table:
            t = Graph.from_edges(size, edges)
            assert pair == (oracle_count(t).total, oracle_count_rooted(t, 0).value), edges


def test_closed_form_group_order_matches_the_search():
    for core in _core_graphs(14):
        order = _shape_group_order(*_classify_core(core))
        assert order == len(automorphism_group(core)), core.label


def test_burnside_counts_the_kept_attachments():
    for n in range(4, 11):
        for core in _core_graphs(n):
            group = automorphism_group(core)
            kept = sum(1 for _ in _with_attachments(core, n - core.n, group))
            assert _burnside_sum(group, n - core.n) == kept * len(group), (n, core.label)


def test_burnside_reproduces_a001429():
    a001429 = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797, 10: 2678, 11: 8833, 12: 28908}
    for n, expected in a001429.items():
        total = 0
        for core in _core_graphs(n):
            group = automorphism_group(core)
            orbits, rest = divmod(_burnside_sum(group, n - core.n), len(group))
            assert rest == 0, (n, core.label)
            total += orbits
        assert total == expected, n


def test_group_guard_catches_a_missing_automorphism(monkeypatch):
    real = enumeration.automorphism_group

    def one_short(core):
        group = real(core)
        return group[:-1] if core.label == "typeII:3,3" else group

    monkeypatch.setattr(enumeration, "automorphism_group", one_short)
    with pytest.raises(
        ContractViolationError, match="n=9: the automorphisms listed for core typeII:3,3"
    ):
        list(generate_bicyclic(9))


def test_group_guard_catches_a_search_that_meets_too_few_automorphisms(monkeypatch):
    # The cores' groups come from the canonical search; one that drops the
    # automorphisms it meets leaves each core only the identity.
    real = canon._canonical_perm
    monkeypatch.setattr(canon, "_canonical_perm", lambda g: (real(g)[0], []))
    with pytest.raises(ContractViolationError, match="n=9: the automorphisms listed for core"):
        list(generate_bicyclic(9))


def test_burnside_guard_catches_a_class_kept_twice(monkeypatch):
    # Past the labelled sweep, so only the counting guards stand between
    # the repeat and the verify sweeps.
    import connsets.verify as verify_mod

    real = enumeration._with_attachments

    def repeat_first(core, extra, automorphisms):
        graphs = list(real(core, extra, automorphisms))
        return graphs[:1] + graphs if core.label == "dumbbell:3,4,2" else graphs

    monkeypatch.setattr(enumeration, "_with_attachments", repeat_first)
    with pytest.raises(ContractViolationError, match="n=9: core dumbbell:3,4,2 kept"):
        list(generate_bicyclic(9))
    with pytest.raises(ContractViolationError, match="n=9: core dumbbell:3,4,2 kept"):
        verify_mod.verify_minimum(9)


def test_stream_and_certificate_view_hold_the_same_graphs():
    for n in (6, 9):
        streamed = list(generate_bicyclic(n))
        assert sorted(streamed, key=canonical_certificate) == enumerate_bicyclic(n)
    with pytest.raises(ContractViolationError):
        generate_bicyclic(3)
    with pytest.raises(ResourceCapError):
        generate_bicyclic(12)


def test_bicyclic_representatives_are_pinned():
    # The exact labelled graph kept for each class, in certificate order.
    import hashlib

    digests = {
        9: "2c6d6ba7ebd0ff28e1238d0075aac4fd7684926dfe27ae72c3f31b21bce4baf2",
        10: "f44ac4224ddea10eea0da845fb19a7264ecef609f695bfc0118b7bbb5d768d3f",
    }
    for n, digest in digests.items():
        text = "\n".join(to_graph6(g) for g in enumerate_bicyclic(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_cross_check_generator_agreement():
    for n in range(4, 8):
        own = tuple(
            canonical_certificate(g) for g in enumerate_bicyclic(n)
        )
        labeled = labeled_bicyclic_classes(n)
        assert own == tuple(text for text, _ in labeled)


def test_labeled_generator_orbit_sizes():
    # Orbit sizes are n! / |Aut|, hence divide n!.
    import math

    for n in (5, 6, 7):
        for _, orbit in labeled_bicyclic_classes(n):
            assert math.factorial(n) % orbit == 0


def test_labeled_orbit_sizes_sum_to_the_connected_sweep():
    # Connected labelled graphs with n vertices and n + 1 edges.
    totals = {4: 6, 5: 205, 6: 5700, 7: 156555, 8: 4483360}
    for n, total in totals.items():
        assert sum(size for _, size in labeled_bicyclic_classes(n)) == total


def test_labeled_classes_are_pinned():
    # Certificates and orbit sizes of every class the labelled sweep finds.
    import hashlib

    text = repr([labeled_bicyclic_classes(n) for n in range(4, 9)])
    digest = "cfd12013089794498dab3da2001f5a18a48aac58c750eb2b51b68b0dc6ecf2ae"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def ascending_masks(slots, k):
    """Every k-subset of ``range(slots)`` as a bitmask, in ascending order."""
    import itertools

    return sorted(sum(1 << e for e in combo) for combo in itertools.combinations(range(slots), k))


def graph_of_mask(n, mask):
    slots = crosscheck._edge_slots(n)
    return Graph.from_edges(n, [slots[e] for e in range(len(slots)) if mask >> e & 1])


def test_subset_partitions_match_combinations():
    # Over the 21 edge slots of K7: folding the slots of the r-th ascending
    # mask through the join table gives the id the recurrence holds at r.
    join, start, _ = crosscheck._partition_table(7)
    for slots, k in ((0, 0), (1, 1), (5, 0), (5, 2), (6, 6), (7, 3), (10, 4), (15, 6)):
        expected = []
        for mask in ascending_masks(slots, k):
            p = start
            for e in range(slots):
                if mask >> e & 1:
                    p = int(join[p, e])
            expected.append(p)
        ids = crosscheck._subset_partitions(join, start, slots, k)
        assert ids.dtype == np.int16 and ids.tolist() == expected, (slots, k)


def test_colex_rank_is_the_index_in_ascending_order():
    import math

    # (21, 8) is every edge set of a 7-vertex bicyclic graph.
    for slots, k in ((0, 0), (5, 0), (5, 2), (6, 6), (10, 4), (15, 6), (21, 8)):
        masks = np.array(ascending_masks(slots, k), dtype=np.uint32)
        ranks = crosscheck._colex_rank(crosscheck._rank_tables(slots), masks)
        assert np.array_equal(ranks, np.arange(math.comb(slots, k))), (slots, k)


def test_colex_unrank_round_trips():
    import math

    # Small pairs: rank r unranks to the r-th ascending mask.
    for slots, k in ((0, 0), (1, 1), (5, 0), (5, 2), (6, 6), (10, 4)):
        masks = ascending_masks(slots, k)
        unranked = [crosscheck._colex_unrank(r, slots, k) for r in range(len(masks))]
        assert unranked == masks, (slots, k)
    # Up to every 8-subset of 27 slots: a spread of ranks, both ends included.
    for slots, k in ((15, 6), (21, 8), (26, 3), (27, 8)):
        total = math.comb(slots, k)
        ranks = sorted({0, 1, total - 2, total - 1, *range(0, total, max(1, total // 1000))})
        masks = [crosscheck._colex_unrank(r, slots, k) for r in ranks]
        assert all(bin(mask).count("1") == k and mask >> slots == 0 for mask in masks), (slots, k)
        back = crosscheck._colex_rank(crosscheck._rank_tables(slots), np.array(masks, np.uint32))
        assert back.tolist() == ranks, (slots, k)


def test_edge_masks_fit_in_32_bits():
    # Every mask in the sweep is a uint32.
    assert len(crosscheck._edge_slots(crosscheck.MAX_CROSSCHECK_N)) <= 32


def test_partition_table_joins_the_blocks_of_each_slot():
    bell = {4: 15, 5: 52, 6: 203}
    for n, count in bell.items():
        slots = crosscheck._edge_slots(n)
        join, start, whole = crosscheck._partition_table(n)
        assert join.shape == (count, len(slots)), n

        def union(blocks, u, v):
            joined = {b for b in blocks if u in b or v in b}
            return blocks - joined | {frozenset().union(*joined)}

        # Name each id by the partition it is first reached as from the
        # singletons, then check every (partition, slot) pair against it.
        named = {start: frozenset(frozenset([x]) for x in range(n))}
        queue = [start]
        while queue:
            p = queue.pop()
            for e, (u, v) in enumerate(slots):
                q = int(join[p, e])
                if q not in named:
                    named[q] = union(named[p], u, v)
                    queue.append(q)
        assert len(set(named.values())) == len(named) == count, n
        for p, blocks in named.items():
            for e, (u, v) in enumerate(slots):
                assert named[int(join[p, e])] == union(blocks, u, v), (n, p, e)
        assert named[whole] == frozenset([frozenset(range(n))]), n


def test_partition_table_reaches_and_keeps_the_single_block():
    for n in range(4, crosscheck.MAX_CROSSCHECK_N + 1):
        join, start, whole = crosscheck._partition_table(n)
        slots = crosscheck._edge_slots(n)
        # The path 0-1-...-(n-1) joins all n vertices only with its last edge.
        p = start
        for v in range(n - 1):
            assert p != whole, (n, v)
            p = join[p, slots.index((v, v + 1))]
        assert p == whole, n
        assert (join[whole] == whole).all(), n


@pytest.mark.parametrize("large_n", [None, 7])
def test_connected_sweep_by_top_slot_matches_the_whole_subset_list(large_n):
    # None: n = 4..6, checked against an is_connected loop over the masks
    # in ascending order.  7: the C(21, 8) subsets are too many for the
    # loop, so the reference is the partition id that the recurrence over
    # all 21 slots carries for each rank, not block by top slot.
    for n in (4, 5, 6) if large_n is None else (large_n,):
        slots = crosscheck._edge_slots(n)
        if large_n is None:
            expected = [
                is_connected(graph_of_mask(n, mask)) for mask in ascending_masks(len(slots), n + 1)
            ]
        else:
            join, start, whole = crosscheck._partition_table(n)
            ids = crosscheck._subset_partitions(join, start, len(slots), n + 1)
            expected = (ids == whole).tolist()
        state = crosscheck._connected_sweep(n)
        assert isinstance(state, bytearray), n
        assert list(state) == [int(flag) for flag in expected], n


def test_connected_sweep_state_at_n8():
    # One byte per 9-edge subset of the 28 slots of K8, 1 where connected.
    state = crosscheck._connected_sweep(8)
    assert len(state) == 6_906_900
    assert len(state) - state.count(0) == state.count(1) == 4_483_360


def test_labeled_sweep_peak_memory_at_n8():
    import os
    import subprocess
    import sys
    from pathlib import Path

    pytest.importorskip("resource")
    # A fresh interpreter, so the peak is the sweep's and not an earlier
    # test's; ru_maxrss is in KiB on Linux.
    probe = (
        "import resource, numpy, connsets.cli, connsets.crosscheck as c\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "c.labeled_bicyclic_classes.__wrapped__(8)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 30 * 1024, proc.stdout


def test_connected_edge_masks_match_a_loop_reference():
    for n in (4, 5):
        slots = crosscheck._edge_slots(n)
        join, start, whole = crosscheck._partition_table(n)
        for m in range(len(slots) + 1):
            masks = ascending_masks(len(slots), m)
            expected = [mask for mask in masks if is_connected(graph_of_mask(n, mask))]
            ids = crosscheck._subset_partitions(join, start, len(slots), m)
            assert [mask for mask, p in zip(masks, ids) if p == whole] == expected, (n, m)


def test_slot_bits_match_a_permutations_reference():
    import itertools

    for n in range(4, crosscheck.MAX_CROSSCHECK_N + 1):
        slots = crosscheck._edge_slots(n)
        us = np.array([u for u, _ in slots], dtype=np.intp)
        vs = np.array([v for _, v in slots], dtype=np.intp)
        slot_index = np.zeros((n, n), dtype=np.intp)
        slot_index[us, vs] = slot_index[vs, us] = np.arange(len(slots))
        # Lexicographic order, identity first.
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        expected = np.uint32(1) << slot_index[perms[:, us], perms[:, vs]].T.astype(np.uint32)
        table = crosscheck._slot_bits(n)
        assert table.dtype == np.uint32, n
        assert np.array_equal(table, expected), n


def test_labeled_sweep_missing_graph_is_a_contract_violation(monkeypatch):
    real = crosscheck._connected_sweep
    cleared = []

    def one_short(n):
        state = real(n)
        hits = np.flatnonzero(np.frombuffer(state, dtype=np.uint8))
        cleared.append(int(hits[len(hits) // 2]))
        state[cleared[0]] = 0
        return state

    monkeypatch.setattr(crosscheck, "_connected_sweep", one_short)
    # Bypass the cache so the truncated sweep really runs.
    with pytest.raises(ContractViolationError, match="n=6: an orbit member is missing"):
        labeled_bicyclic_classes.__wrapped__(6)
    assert cleared


def test_labeled_sweep_overlapping_orbits_are_a_contract_violation(monkeypatch):
    real = crosscheck._colex_rank
    first = []

    def overlapping(tables, masks):
        ranks = real(tables, masks)
        # Orbits have more than one member; representatives are ranked alone.
        if len(masks) > 1:
            if first:
                ranks[-1] = first[0]
            else:
                first.append(int(ranks[0]))
        return ranks

    monkeypatch.setattr(crosscheck, "_colex_rank", overlapping)
    message = "n=5: the orbit overlaps a previously swept class"
    with pytest.raises(ContractViolationError, match=message):
        labeled_bicyclic_classes.__wrapped__(5)


def test_labeled_sweep_checks_the_rank_of_each_representative(monkeypatch):
    real = crosscheck._colex_rank
    monkeypatch.setattr(crosscheck, "_colex_rank", lambda tables, masks: real(tables, masks) + 1)
    message = "n=5: the representative at index 0 has rank 1"
    with pytest.raises(ContractViolationError, match=message):
        labeled_bicyclic_classes.__wrapped__(5)


def test_labeled_sweep_checks_orbit_size_against_the_stabiliser(monkeypatch):
    real = crosscheck._slot_bits

    def not_a_group(n):
        table = real(n).copy()
        table[:, -1] = table[:, 0]  # the last permutation becomes a second identity
        return table

    monkeypatch.setattr(crosscheck, "_slot_bits", not_a_group)
    with pytest.raises(ContractViolationError, match=r"n=5: \d+ distinct images"):
        labeled_bicyclic_classes.__wrapped__(5)


def test_extract_core_family_shapes():
    cases = [
        (FamilySpec("B", (10,)), "III", (2, 3, 3)),
        (FamilySpec("typeII", (3, 3)), "II", (3, 3)),
        (FamilySpec("R", (8,)), "II", (3, 3)),
        (FamilySpec("L", (9,)), "I", (3, 3, 5)),
        (FamilySpec("L", (6,)), "I", (3, 3, 2)),
        (FamilySpec("A", (7,)), "III", (2, 3, 3)),
        (FamilySpec("theta", (3, 4, 4)), "III", (3, 4, 4)),
        (FamilySpec("dumbbell", (4, 5, 3)), "I", (4, 5, 3)),
    ]
    for spec, kind, params in cases:
        assert extract_core(build(spec)) == (kind, params), spec


def test_classify_core_on_every_built_shape():
    # Each core shape carries its family spec as label; the classifier
    # must read the same kind and parameters back off the bare graph.
    kinds = {"dumbbell": "I", "typeII": "II", "theta": "III"}
    shapes = list(_core_graphs(14))
    assert len(shapes) == 214
    for core in shapes:
        spec = parse_family_spec(core.label)
        assert _classify_core(core) == (kinds[spec.kind], spec.params), core.label


@st.composite
def relabelled_bicyclic(draw):
    """A random tree plus two non-edges, and a random relabelling of it."""
    n = draw(st.integers(4, 12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    non_edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree
    ]
    extra = draw(st.lists(st.sampled_from(non_edges), min_size=2, max_size=2, unique=True))
    g = Graph.from_edges(n, tree + extra)
    return g, g.relabel(tuple(draw(st.permutations(range(n)))))


@settings(max_examples=200, deadline=None)
@given(relabelled_bicyclic())
def test_core_analysis_ignores_labelling(pair):
    assert extract_core(pair[0]) == extract_core(pair[1])
    first, second = (pendant_free_core(g)[1] for g in pair)
    assert sorted(len(e) for e in first.values()) == sorted(
        len(e) for e in second.values()
    )
    for g in pair:
        assert reassembled_edges(g) == sorted(g.edges())


def reassembled_edges(g):
    """All edges of ``g``, rebuilt from its core plus the stripped trees."""
    core_mask, attachments = pendant_free_core(g)
    core, core_vertices = subgraph(g, core_mask)
    edges = [
        tuple(sorted((core_vertices[u], core_vertices[v]))) for u, v in core.edges()
    ]
    for tree in attachments.values():
        edges.extend(tuple(sorted(e)) for e in tree)
    return sorted(edges)


def test_extract_core_attachments():
    attachments = pendant_free_core(build(FamilySpec("B", (10,))))[1]
    sizes = sorted(len(edges) for edges in attachments.values())
    assert sizes == [0, 0, 0, 6]
    attachments = pendant_free_core(build(FamilySpec("R", (8,))))[1]
    assert sorted(len(e) for e in attachments.values()) == [0, 0, 0, 0, 3]


def test_extract_core_rejects_non_bicyclic():
    with pytest.raises(ContractViolationError):
        extract_core(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(ContractViolationError):
        extract_core(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))


def test_reassembly_is_exact_for_all_small_bicyclic():
    for n in range(4, 9):
        for g in enumerate_bicyclic(n):
            core = subgraph(g, pendant_free_core(g)[0])[0]
            assert reassembled_edges(g) == sorted(g.edges())
            assert core.edge_count == core.n + 1
            assert not any(core.degree(v) == 1 for v in range(core.n))


def test_core_kind_partition_and_cut_vertices():
    # A pendant-free core of the theta kind has no cut vertex; the other
    # two kinds always have at least one.
    for n in range(4, 9):
        for g in enumerate_bicyclic(n):
            core = subgraph(g, pendant_free_core(g)[0])[0]
            if extract_core(g)[0] == "III":
                assert cut_vertices(core) == 0
            else:
                assert cut_vertices(core) != 0


def test_cut_vertex_consistency_over_corpora():
    # v is a cut vertex exactly when its removal leaves >= 2 components,
    # over every generated tree and bicyclic graph.
    from connsets import components

    corpus = [t for n in range(2, 9) for t in enumerate_trees(n)]
    corpus += [g for n in range(4, 8) for g in enumerate_bicyclic(n)]
    for g in corpus:
        cuts = cut_vertices(g)
        for v in range(g.n):
            rest = g.vertex_mask & ~(1 << v)
            assert bool(cuts >> v & 1) == (len(components(g, rest)) >= 2)


def test_deletion_identity_over_corpora():
    # N(G) = N(G - v) + N(G)_v for every vertex of every generated graph.
    from connsets import delete_vertices, oracle_count_rooted

    corpus = [t for n in range(2, 10) for t in enumerate_trees(n)]
    corpus += [g for n in range(4, 10) for g in enumerate_bicyclic(n)]
    for g in corpus:
        total = oracle_count(g).total
        for v in range(g.n):
            rest, _ = delete_vertices(g, 1 << v)
            assert total == oracle_count(rest).total + oracle_count_rooted(g, v).value


def test_pendant_free_core_on_unicyclic():
    tadpole = build(FamilySpec("tadpole", (6,)))
    mask, attachments = pendant_free_core(tadpole)
    assert mask.bit_count() == 3
    assert sum(len(e) for e in attachments.values()) == 3
    with pytest.raises(ContractViolationError):
        pendant_free_core(Graph.from_edges(3, [(0, 1), (1, 2)]))
