"""Graph representation, connectivity primitives, and text formats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connsets import (
    ContractViolationError,
    FormatError,
    Graph,
    bits,
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
from connsets.counting import oracle_count, oracle_count_rooted, weighted_total
from connsets.families import FamilySpec, build
from connsets.graphs import MAX_VERTICES, blocks

from conftest import cycle_graph, path_graph, random_graph

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


def test_relabel_refuses_anything_but_a_permutation():
    p3 = path_graph(3)
    assert p3.relabel((2, 0, 1)).edges() == [(0, 2), (1, 2)]
    for perm in ((0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3)):
        with pytest.raises(ContractViolationError, match="permutation"):
            p3.relabel(perm)


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


@st.composite
def small_graphs(draw):
    """Graphs on at most 12 vertices, connected or not."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(chosen))


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.data())
def test_blocks_partition_the_edges_into_2_connected_pieces(g, data):
    # From any start vertex: the same blocks, each one holding it headed there.
    root = data.draw(st.integers(0, g.n - 1))
    found = blocks(g, root)
    assert sorted(b for b, _ in found) == sorted(b for b, _ in blocks(g))
    assert all(head == root for block, head in found if block >> root & 1)
    for u, v in g.edges():
        assert sum(b >> u & 1 and b >> v & 1 for b, _ in found) == 1
    for i, (block, head) in enumerate(found):
        assert block >> head & 1 and block.bit_count() >= 2
        if block.bit_count() >= 3:
            for v in bits(block):
                assert induced_is_connected(g, block & ~(1 << v))
        for j, (other, other_head) in enumerate(found):
            if j != i:
                assert (block & other).bit_count() <= 1
            # A block headed at one of this block's other vertices hangs below it.
            if other_head != head and block >> other_head & 1:
                assert j < i


def test_blocks_from_a_root_outside_vertex_0s_component():
    # A triangle on 0..2, a triangle 4-5-6 with the tail 3-4, and vertex 7.
    g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (4, 6)])
    assert blocks(g, 5) == [(mask_of([3, 4]), 4), (mask_of([4, 5, 6]), 5), (0b111, 0)]
    w = [1] * g.n
    assert weighted_total(g, blocks(g, 5), w, None) == oracle_count(g).total
    assert w[5] == oracle_count_rooted(g, 5).value
    # An isolated root heads no block and keeps its own weight.
    assert blocks(g, 7) == blocks(g)
    w = [1] * 7 + [3]
    assert weighted_total(g, blocks(g, 7), w, None) == oracle_count(g).total + 2
    assert w[7] == 3


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


def _graph6_bit_by_bit(g: Graph) -> str:
    """Reference encoder: one list entry per upper-triangle bit."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bitlist = []
    for j in range(1, n):
        for i in range(j):
            bitlist.append(g.adj[j] >> i & 1)
    chars = [head]
    for k in range(0, len(bitlist), 6):
        chunk = bitlist[k : k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        chars.append(chr(63 + val))
    return "".join(chars)


def test_graph6_matches_the_bit_by_bit_reference():
    rng = random.Random(11)
    graphs = [random_graph(rng, n) for n in range(1, 71) for _ in range(3)]
    n = MAX_VERTICES
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(20000)}
    graphs.append(Graph.from_edges(n, [(u, v) for u, v in edges if u != v]))
    for g in graphs:
        text = to_graph6(g)
        assert text == _graph6_bit_by_bit(g), g.n
        assert from_graph6(text) == g


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


def test_edge_list_rejects_a_repeated_edge():
    # Read as one edge, a repeat would leave the header's count behind.
    for text, line in (("2 2\n0 1\n1 0\n", "'1 0'"), ("3 3\n0 1\n1 2\n1 2\n", "'1 2'")):
        with pytest.raises(FormatError, match=f"repeated edge line {line}"):
            from_edge_list(text)


def test_edge_list_over_the_vertex_limit_is_refused_before_any_row():
    # 2000 edges reaching vertex 99999 would make 100000 adjacency rows,
    # 2000 of them 12.5 kB ints (28.9 MB traced), were the order checked
    # only after they were built.
    import tracemalloc

    n = 100_000
    text = "\n".join([f"{n} 2000", *(f"{i} {n - 1 - i}" for i in range(2000))]) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"vertex count must be in 1..{MAX_VERTICES}"):
            from_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
