"""Graph representation, connectivity primitives, and text formats."""

import random

import pytest

from connsets import (
    ContractViolationError,
    FormatError,
    Graph,
    components,
    cut_vertices,
    delete_vertices,
    from_edge_list,
    from_graph6,
    induced_is_connected,
    mask_of,
    pendant_vertices,
    to_edge_list,
    to_graph6,
)
from connsets.families import FamilySpec, build
from connsets.graphs import MAX_VERTICES

from conftest import cycle_graph, path_graph, random_graph, star_graph

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def test_construction_validates_simplicity():
    with pytest.raises(ContractViolationError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ContractViolationError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ContractViolationError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ContractViolationError):
        Graph(0, ())
    with pytest.raises(ContractViolationError):
        Graph(MAX_VERTICES + 1, (0,) * (MAX_VERTICES + 1))


def test_label_does_not_affect_equality():
    g = Graph.from_edges(3, [(0, 1)], label="one")
    h = Graph.from_edges(3, [(0, 1)], label="two")
    assert g == h and hash(g) == hash(h)


def test_induced_is_connected():
    c4 = cycle_graph(4)
    assert not induced_is_connected(c4, mask_of([0, 2]))
    assert induced_is_connected(c4, mask_of([0, 1, 2]))
    assert not induced_is_connected(path_graph(3), mask_of([0, 2]))
    with pytest.raises(ContractViolationError):
        induced_is_connected(c4, 0)
    with pytest.raises(ContractViolationError):
        induced_is_connected(c4, 1 << 4)


def test_components_ordering_and_partition():
    p3 = path_graph(3)
    assert components(p3, mask_of([0, 2])) == [1 << 0, 1 << 2]
    assert components(cycle_graph(5), (1 << 5) - 1) == [(1 << 5) - 1]
    assert components(p3, 0) == []


def test_components_of_bowtie_without_centre():
    rest = BOWTIE.vertex_mask & ~1
    blocks = components(BOWTIE, rest)
    assert [b.bit_count() for b in blocks] == [2, 2]


def test_components_properties_random():
    rng = random.Random(4)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9))
        s = rng.getrandbits(g.n)
        blocks = components(g, s)
        combined = 0
        for block in blocks:
            assert block & combined == 0
            assert induced_is_connected(g, block)
            combined |= block
        assert combined == s
        assert blocks == sorted(blocks, key=lambda b: b & -b)


def test_delete_vertices():
    c4 = cycle_graph(4)
    smaller, index_map = delete_vertices(c4, 1 << 0)
    assert smaller.n == 3 and smaller.edge_count == 2
    assert index_map == (1, 2, 3)
    a4 = build(FamilySpec("A", (4,)))
    deg2 = next(v for v in range(4) if a4.degree(v) == 2)
    c3, _ = delete_vertices(a4, 1 << deg2)
    assert c3.n == 3 and c3.edge_count == 3
    with pytest.raises(ContractViolationError):
        delete_vertices(c4, c4.vertex_mask)


def test_delete_middle_of_l6_disconnects():
    l6 = build(FamilySpec("L", (6,)))
    middles = [
        v
        for v in range(6)
        if l6.degree(v) == 3
    ]
    # Deleting one cycle-path junction splits the shape in two.
    rest, _ = delete_vertices(l6, 1 << middles[0])
    assert len(components(rest, rest.vertex_mask)) == 2


def test_delete_edge_count_identity():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9))
        v = rng.randrange(g.n)
        smaller, _ = delete_vertices(g, 1 << v)
        assert smaller.n == g.n - 1
        assert smaller.edge_count == g.edge_count - g.degree(v)


def test_pendant_vertices():
    assert pendant_vertices(path_graph(4)) == mask_of([0, 3])
    assert pendant_vertices(cycle_graph(5)) == 0
    b8 = build(FamilySpec("B", (8,)))
    assert pendant_vertices(b8).bit_count() == 4


def test_cut_vertices():
    assert cut_vertices(build(FamilySpec("theta", (2, 3, 3)))) == 0
    assert cut_vertices(BOWTIE) == 1 << 0
    assert cut_vertices(path_graph(5)) == mask_of([1, 2, 3])
    with pytest.raises(ContractViolationError):
        cut_vertices(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_cut_vertices_match_component_definition():
    rng = random.Random(6)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 8), connected=True)
        cuts = cut_vertices(g)
        for v in range(g.n):
            rest = g.vertex_mask & ~(1 << v)
            expected = len(components(g, rest)) >= 2
            assert bool(cuts >> v & 1) == expected


def test_graph6_reference_strings():
    assert to_graph6(path_graph(2)) == "A_"
    assert to_graph6(cycle_graph(3)) == "Bw"
    assert from_graph6("A_") == path_graph(2)
    assert from_graph6("Bw") == cycle_graph(3)
    assert from_graph6(">>graph6<<Bw") == cycle_graph(3)


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 12))
        assert from_graph6(to_graph6(g)) == g
    for n in (62, 63, 64, 65, 100, 300):
        g = path_graph(n)
        assert from_graph6(to_graph6(g)) == g


def test_graph6_rejects_garbage():
    for bad in ("", "#", "B", "~~", "~???", "Bx"):
        with pytest.raises(FormatError):
            from_graph6(bad)


def test_edge_list_round_trip():
    g = build(FamilySpec("R", (7,)))
    assert from_edge_list(to_edge_list(g)) == g
    text = to_edge_list(g)
    assert text.splitlines()[0] == "7 8"
    with pytest.raises(FormatError):
        from_edge_list("3 2\n0 1\n")
    with pytest.raises(FormatError):
        from_edge_list("oops\n")
    with pytest.raises(FormatError):
        from_edge_list("2 1\n0 0\n")
