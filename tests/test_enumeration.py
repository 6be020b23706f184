"""Tree and bicyclic generation, core extraction, and the cross-check
against the independent labelled generator."""

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
    _swept_classes,
    labeled_bicyclic_classes,
    labeled_tree_certificates,
)
from connsets import enumeration
from connsets.enumeration import (
    _burnside_sum,
    _classify_core,
    _core_specs,
    _rooted_tree_counts,
    _rooted_trees,
    _shape_group_order,
    _tree_counts,
    _with_attachments,
    enumerate_bicyclic,
    generate_bicyclic,
    generate_counted_keys,
    enumerate_trees,
    extract_core,
    pendant_free_core,
    rooted_tree_level_sequences,
)
from connsets.errors import LABELLED_GUARD_N
from connsets.families import FamilySpec, build
from connsets.graphs import subgraph, to_graph6

from conftest import drop_last_core, repeat_one_key

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


def test_tree_enumeration_is_guarded_by_otters_count(monkeypatch):
    # A certificate that reads only the degrees merges the two 6-vertex
    # spiders with degrees (3, 2, 2, 1, 1, 1), so one class goes missing.
    monkeypatch.setattr(
        enumeration, "canonical_certificate", lambda t: str(sorted(t.degrees()))
    )
    with pytest.raises(ContractViolationError, match="5 tree classes at n=6, Otter's count is 6"):
        enumerate_trees(6)


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
    for spec in _core_specs(7):
        core = build(spec)
        brute = tuple(
            sorted(
                p for p in itertools.permutations(range(core.n)) if core.relabel(p) == core
            )
        )
        assert automorphism_group(core) == brute, spec
        orders[str(spec)] = len(brute)
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
            for core in map(build, _core_specs(n))
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
    for spec in _core_specs(14):
        assert _shape_group_order(spec) == len(automorphism_group(build(spec))), spec


def test_burnside_counts_the_kept_attachments():
    for n in range(4, 11):
        for spec in _core_specs(n):
            core = build(spec)
            group = automorphism_group(core)
            kept = sum(1 for _ in _with_attachments(core, n - core.n, group))
            assert _burnside_sum(group, n - core.n) == kept * len(group), (n, spec)


def test_burnside_reproduces_a001429():
    a001429 = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797, 10: 2678, 11: 8833, 12: 28908}
    for n, expected in a001429.items():
        total = 0
        for spec in _core_specs(n):
            core = build(spec)
            group = automorphism_group(core)
            orbits, rest = divmod(_burnside_sum(group, n - core.n), len(group))
            assert rest == 0, (n, spec)
            total += orbits
        assert total == expected, n


def test_group_guard_catches_a_missing_automorphism(monkeypatch):
    real = enumeration.automorphism_group
    bowtie = build(FamilySpec("typeII", (3, 3)))

    def one_short(core):
        group = real(core)
        return group[:-1] if core == bowtie else group

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


def test_burnside_guard_catches_a_class_kept_twice(monkeypatch, capsys):
    # Past the labelled sweep, so only the counting guards stand between
    # the repeat and the verify sweeps.  The guard runs after the core's
    # last key, and every route still fails before it prints.
    import connsets.verify as verify_mod
    from connsets.cli import main

    real = enumeration._with_attachments
    dumbbell = build(FamilySpec("dumbbell", (3, 4, 2)))

    def repeat_first(core, extra, automorphisms):
        graphs = list(real(core, extra, automorphisms))
        return graphs[:1] + graphs if core == dumbbell else graphs

    monkeypatch.setattr(enumeration, "_with_attachments", repeat_first)
    message = "n=9: core dumbbell:3,4,2 kept"
    routes = (
        lambda: list(generate_bicyclic(9)),
        lambda: list(generate_counted_keys(9)),
        lambda: enumerate_bicyclic(9),
        lambda: verify_mod.verify_minimum(9),
    )
    for route in routes:
        with pytest.raises(ContractViolationError, match=message):
            route()
    for argv in (["enumerate", "--n", "9"], ["verify", "vertex-bound", "--n", "9"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (3, ""), argv
        assert message in err, argv


def test_each_key_is_yielded_before_the_next_is_made(monkeypatch):
    # The Burnside guard counts a core's keys as they pass, so the stream
    # never lists a core's keys before yielding the first.
    real = enumeration._with_attachments
    events = []

    def recording(core, extra, automorphisms):
        for key in real(core, extra, automorphisms):
            events.append(("made", key))
            yield key

    monkeypatch.setattr(enumeration, "_with_attachments", recording)
    for key, _ in generate_counted_keys(9):
        events.append(("yielded", key))
    made = [key for event, key in events if event == "made"]
    # Each earlier core made one key, so the first two consecutive keys on
    # one core are the first two keys of the first core with two or more.
    first, second = next((a, b) for a, b in zip(made, made[1:]) if a[0] == b[0])
    assert events.index(("yielded", first)) < events.index(("made", second))


@pytest.mark.parametrize(
    "route", ["generate_bicyclic", "generate_counted_keys", "enumerate_bicyclic", "cli"]
)
def test_every_route_ends_with_the_corpus_guards(route, monkeypatch, capsys):
    # A core missing at n = 9 leaves every per-core guard passing, and one
    # key repeated in place of another at n = 6 keeps every count right;
    # each route fails on both, naming n.
    from connsets.cli import main

    def failure(n):
        if route == "cli":
            code = main(["enumerate", "--n", str(n)])
            out, err = capsys.readouterr()
            assert (code, out) == (3, "")
            return err
        with pytest.raises(ContractViolationError) as excinfo:
            list(getattr(enumeration, route)(n))
        return str(excinfo.value)

    drop_last_core(monkeypatch)
    assert "at n=9, OEIS A001429 has 797" in failure(9)
    monkeypatch.undo()
    repeat_one_key(monkeypatch)
    assert "n=6" in failure(6)


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
        labeled = _swept_classes(n)
        assert own == tuple(text for text, _ in labeled)


def test_labeled_generator_orbit_sizes():
    # Orbit sizes are n! / |Aut|, hence divide n!.
    import math

    for n in (5, 6, 7):
        for _, orbit in _swept_classes(n):
            assert math.factorial(n) % orbit == 0


def test_labeled_orbit_sizes_sum_to_the_connected_sweep():
    # Connected labelled graphs with n vertices and n + 1 edges.
    totals = {4: 6, 5: 205, 6: 5700, 7: 156555, 8: 4483360}
    for n, total in totals.items():
        assert sum(size for _, size in _swept_classes(n)) == total


def test_labeled_classes_are_pinned():
    # Certificates and orbit sizes of every class the labelled sweep finds.
    import hashlib

    text = repr([_swept_classes(n) for n in range(4, 9)])
    digest = "cfd12013089794498dab3da2001f5a18a48aac58c750eb2b51b68b0dc6ecf2ae"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def graph_of_mask(n, mask):
    slots = crosscheck._edge_slots(n)
    return Graph.from_edges(n, [slots[e] for e in range(len(slots)) if mask >> e & 1])


def test_connected_edge_masks_match_a_loop_reference():
    # Each realised mask is connected by an is_connected loop, appears once,
    # and is filed under its own degree sequence.
    for n in (4, 5, 6):
        sweep = crosscheck._connected_sweep(n)
        realised = [mask for graphs in sweep.values() for mask in graphs]
        assert len(realised) == len(set(realised)), n
        for d, graphs in sweep.items():
            for mask in graphs:
                g = graph_of_mask(n, mask)
                assert mask.bit_count() == n + 1 and is_connected(g), (n, mask)
                assert g.degrees() == d, (n, d, mask)


@pytest.mark.parametrize("large_n", [None])
def test_connected_sweep_by_top_slot_matches_the_whole_subset_list(large_n):
    # None: n = 4..6, where the sweep is checked against a brute-force
    # filter of every (n + 1)-subset of the edge slots down to the
    # connected degree-sorted graphs.  Larger n is too many subsets for the
    # filter; its sweep sizes are pinned in test_connected_sweep_sizes.
    import itertools

    assert large_n is None
    for n in (4, 5, 6):
        slots = len(crosscheck._edge_slots(n))
        expected = set()
        for combo in itertools.combinations(range(slots), n + 1):
            mask = sum(1 << e for e in combo)
            g = graph_of_mask(n, mask)
            if is_connected(g) and list(g.degrees()) == sorted(g.degrees(), reverse=True):
                expected.add(mask)
        sweep = crosscheck._connected_sweep(n)
        assert {mask for graphs in sweep.values() for mask in graphs} == expected, n


def test_connected_sweep_sizes():
    import itertools

    sizes = {4: 1, 5: 14, 6: 147, 7: 1431, 8: 15_020}
    for n, size in sizes.items():
        assert sum(len(graphs) for graphs in crosscheck._connected_sweep(n).values()) == size, n
    for n in (4, 5, 6):
        expected = {
            d
            for d in itertools.product(range(1, n), repeat=n)
            if list(d) == sorted(d, reverse=True) and sum(d) == 2 * (n + 1)
        }
        assert set(crosscheck._degree_sequences(n)) == expected, n
    assert len(crosscheck._degree_sequences(8)) == 33


def test_young_permutations_preserve_the_degree_sequence():
    import itertools
    import math

    for n in range(4, LABELLED_GUARD_N + 1):
        for d in crosscheck._degree_sequences(n):
            perms = crosscheck._young_permutations(d)
            order = math.prod(math.factorial(len(list(run))) for _, run in itertools.groupby(d))
            assert perms[0] == tuple(range(n)), d
            assert len(set(perms)) == len(perms) == order, d
            for p in perms:
                assert sorted(p) == list(range(n)) and [d[v] for v in p] == list(d), (d, p)


def test_slot_bits_match_a_permutations_reference():
    import itertools

    # Row e, column p of the table: the bit of the slot p moves slot e to.
    for n in (4, 5, 6):
        slots = crosscheck._edge_slots(n)
        perms = list(itertools.permutations(range(n)))
        expected = [
            [1 << slots.index(tuple(sorted((p[u], p[v])))) for p in perms] for u, v in slots
        ]
        assert crosscheck._slot_images(n, perms) == expected, n
    # Each orbit image is the mask of the edges moved by its permutation.
    for n in (4, 5, 6):
        for d, graphs in crosscheck._connected_sweep(n).items():
            perms = crosscheck._young_permutations(d)
            images = crosscheck._slot_images(n, perms)
            for mask in graphs[:5]:
                edges = graph_of_mask(n, mask).edges()
                for p, image in zip(perms, crosscheck._orbit_images(images, mask)):
                    moved = Graph.from_edges(n, [(p[u], p[v]) for u, v in edges])
                    assert graph_of_mask(n, image) == moved, (n, d, mask, p)


def test_connected_labelled_count_matches_brute_force():
    for n in range(1, 7):
        slots = len(crosscheck._edge_slots(n))
        counts = [0] * (slots + 1)
        for mask in range(1 << slots):
            if is_connected(graph_of_mask(n, mask)):
                counts[mask.bit_count()] += 1
        recurrence = [crosscheck._connected_labelled_count(n, k) for k in range(slots + 1)]
        assert recurrence == counts, n
    at_n_plus_one = [crosscheck._connected_labelled_count(n, n + 1) for n in range(4, 9)]
    assert at_n_plus_one == [6, 205, 5700, 156555, 4483360]


def test_labeled_sweep_peak_memory_at_n8():
    import os
    import subprocess
    import sys
    from pathlib import Path

    pytest.importorskip("resource")
    # A fresh interpreter, so the peak is the sweep's and not an earlier
    # test's; ru_maxrss is in KiB on Linux.
    probe = (
        "import resource, connsets.cli, connsets.crosscheck as c\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "c._swept_classes.__wrapped__(8)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 1024, proc.stdout


def test_labeled_sweep_missing_graph_is_a_contract_violation(monkeypatch):
    real = crosscheck._connected_sweep
    dropped = []

    def one_short(n):
        sweep = real(n)
        dropped.append(max(sweep.values(), key=len).pop())
        return sweep

    monkeypatch.setattr(crosscheck, "_connected_sweep", one_short)
    # Bypass the cache so the truncated sweep really runs.
    with pytest.raises(ContractViolationError, match="n=6: an orbit member is missing"):
        _swept_classes.__wrapped__(6)
    assert dropped


def test_labeled_sweep_overlapping_orbits_are_a_contract_violation(monkeypatch):
    real = crosscheck._orbit_images
    first = {}

    def overlapping(images, mask):
        orbit = real(images, mask)
        # The first orbit of each degree sequence is kept; a later one whose
        # images are all distinct takes that representative for its last.
        degrees = graph_of_mask(6, mask).degrees()
        if degrees not in first:
            first[degrees] = mask
        elif len(set(orbit)) == len(orbit) > 1:
            orbit[-1] = first[degrees]
        return orbit

    monkeypatch.setattr(crosscheck, "_orbit_images", overlapping)
    message = "n=6: the orbit overlaps a previously swept class"
    with pytest.raises(ContractViolationError, match=message):
        _swept_classes.__wrapped__(6)


def test_labeled_sweep_checks_each_realised_graph(monkeypatch):
    real = crosscheck._connected_sweep

    def misfiled(n):
        # File a graph of one degree sequence under the one before it.
        sweep = real(n)
        first, second = [graphs for graphs in sweep.values() if graphs][:2]
        first.append(second[0])
        return sweep

    monkeypatch.setattr(crosscheck, "_connected_sweep", misfiled)
    message = r"n=6: a realised graph does not have 7 edges and degrees \(5, 3, 2, 2, 1, 1\)"
    with pytest.raises(ContractViolationError, match=message):
        _swept_classes.__wrapped__(6)


def test_labeled_sweep_orbits_cover_each_degree_sequence(monkeypatch):
    real = crosscheck._connected_sweep

    def repeated(n):
        sweep = real(n)
        graphs = max(sweep.values(), key=len)
        graphs.append(graphs[0])
        return sweep

    monkeypatch.setattr(crosscheck, "_connected_sweep", repeated)
    message = r"n=6: orbit sizes sum to (\d+), the connected sweep holds (?!\1)\d+ graphs"
    with pytest.raises(ContractViolationError, match=message):
        _swept_classes.__wrapped__(6)


def test_labeled_sweep_checks_orbit_size_against_the_stabiliser(monkeypatch):
    real = crosscheck._young_permutations

    def not_a_group(d):
        perms = real(d)
        return perms[:-1] + perms[:1]  # the last permutation becomes a second identity

    monkeypatch.setattr(crosscheck, "_young_permutations", not_a_group)
    with pytest.raises(ContractViolationError, match=r"n=5: \d+ distinct images"):
        _swept_classes.__wrapped__(5)


def test_labeled_sweep_checks_the_mass_against_the_labelled_count(monkeypatch):
    from connsets.graphs import from_graph6

    # A dropped degree sequence loses its classes' labelled orbits.
    real = crosscheck._degree_sequences
    lost = real(6)[-1]
    kept = sum(
        size
        for cert, size in _swept_classes(6)
        if tuple(sorted(from_graph6(cert).degrees(), reverse=True)) != lost
    )
    assert 0 < kept < 5700
    monkeypatch.setattr(crosscheck, "_degree_sequences", lambda n: real(n)[:-1])
    message = f"n=6: labelled orbit sizes sum to {kept}, but 5700 connected labelled graphs"
    with pytest.raises(ContractViolationError, match=message):
        _swept_classes.__wrapped__(6)
    monkeypatch.undo()

    # An off-by-one L(n) fails the full sweep.
    count = crosscheck._connected_labelled_count
    monkeypatch.setattr(crosscheck, "_connected_labelled_count", lambda n, k: count(n, k) + 1)
    message = "n=6: labelled orbit sizes sum to 5700, but 5701 connected labelled graphs"
    with pytest.raises(ContractViolationError, match=message):
        _swept_classes.__wrapped__(6)


def test_labelled_guard_orbit_sizes_match_the_reference_sweep():
    # Per generated class, the guard's n!/|Aut| is the reference sweep's
    # orbit size for the class with the same certificate.
    for n in range(4, LABELLED_GUARD_N + 1):
        graphs = enumerate_bicyclic(n)
        guard = labeled_bicyclic_classes(n, graphs)
        assert [graph6 for graph6, _ in guard] == [to_graph6(g) for g in graphs], n
        sizes = {canonical_certificate(g): size for g, (_, size) in zip(graphs, guard)}
        assert sizes == dict(_swept_classes(n)), n


def test_labelled_guard_checks_the_mass():
    # A dropped class leaves every orbit disjoint but the mass short.
    graphs = enumerate_bicyclic(6)
    lost = dict(_swept_classes(6))[canonical_certificate(graphs[-1])]
    message = f"n=6: labelled orbit sizes sum to {5700 - lost}, but 5700 connected labelled graphs"
    with pytest.raises(ContractViolationError, match=message):
        labeled_bicyclic_classes(6, graphs[:-1])


def test_labelled_guard_rejects_a_repeated_class():
    # A relabelled copy of one class in place of another keeps the class
    # count (A001429), but its orbit meets the original's.
    import re

    graphs = enumerate_bicyclic(6)
    copy = graphs[1].relabel(tuple(reversed(range(6))))
    assert to_graph6(copy) != to_graph6(graphs[1])
    message = f"n=6: the orbit of {re.escape(to_graph6(copy))} overlaps an earlier class"
    with pytest.raises(ContractViolationError, match=message):
        labeled_bicyclic_classes(6, graphs[:-1] + [copy])


@pytest.mark.parametrize(
    "edges, n",
    [
        ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)], 6),  # K4 plus an edge
        ([(i, (i + 1) % 6) for i in range(6)], 6),  # C6: six edges
        ([(i, (i + 1) % 7) for i in range(7)], 7),  # C7: seven vertices
    ],
    ids=["disconnected", "edge-count", "vertex-count"],
)
def test_labelled_guard_checks_each_graph(edges, n):
    import re

    bad = Graph.from_edges(n, edges)
    message = f"n=6: {re.escape(to_graph6(bad))} is not a connected graph with 6 vertices and 7 edges"
    with pytest.raises(ContractViolationError, match=message):
        labeled_bicyclic_classes(6, enumerate_bicyclic(6)[:-1] + [bad])


def test_labelled_guard_checks_orbit_size_against_the_stabiliser(monkeypatch):
    real = crosscheck._young_permutations

    def not_a_group(d):
        perms = real(d)
        return perms[:-1] + perms[:1]  # the last permutation becomes a second identity

    monkeypatch.setattr(crosscheck, "_young_permutations", not_a_group)
    with pytest.raises(ContractViolationError, match=r"labelled guard at n=5: \d+ distinct images"):
        labeled_bicyclic_classes(5, enumerate_bicyclic(5))


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
    # The classifier must read each core shape's kind and parameters back
    # off the bare graph its spec builds.
    kinds = {"dumbbell": "I", "typeII": "II", "theta": "III"}
    shapes = list(_core_specs(14))
    assert len(shapes) == 214
    for spec in shapes:
        assert _classify_core(build(spec)) == (kinds[spec.kind], spec.params), spec


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
