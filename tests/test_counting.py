"""The counting oracle, the identification algebra, and the
divide-and-conquer counter."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connsets import (
    ContractViolationError,
    Graph,
    ResourceCapError,
    combine_identified,
    delete_vertices,
    extend_pendant,
    oracle_count,
    oracle_count_pair,
    oracle_count_rooted,
    smart_count,
    smart_count_pair,
    smart_count_rooted,
    tree_rooted_count,
)
from connsets.enumeration import enumerate_trees, generate_bicyclic, generate_counted_keys
from connsets.families import FamilySpec, build, closed_form
from connsets.graphs import MAX_VERTICES

from conftest import (
    cycle_graph,
    naive_adjacency,
    naive_connected,
    naive_count,
    naive_count_containing,
    path_graph,
    random_graph,
    star_graph,
)


def test_oracle_reference_values():
    assert oracle_count(path_graph(4)).total == 10
    assert oracle_count(cycle_graph(5)).total == 21
    assert oracle_count(Graph.from_edges(1, [])).total == 1
    assert oracle_count(build(FamilySpec("A", (4,)))).total == 14


def test_oracle_on_disconnected_sums_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert oracle_count(g).total == 3 + 6


def test_oracle_matches_naive_reference():
    rng = random.Random(13)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8))
        assert oracle_count(g).total == naive_count(g)


def test_oracle_cap_is_a_hard_error():
    with pytest.raises(ResourceCapError):
        oracle_count(path_graph(25))
    assert oracle_count(path_graph(25), cap=25).total == 25 * 26 // 2
    with pytest.raises(ResourceCapError):
        oracle_count(path_graph(10), cap=9)


def test_rooted_reference_values():
    assert oracle_count_rooted(cycle_graph(4), 1).value == 7
    assert oracle_count_rooted(path_graph(5), 0).value == 5
    assert oracle_count_rooted(star_graph(5), 0).value == 16


def test_rooted_equals_deletion_identity():
    # N(G) = N(G - v) + N(G)_v for every vertex, component-sum convention.
    rng = random.Random(14)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        for v in range(g.n):
            rest, _ = delete_vertices(g, 1 << v)
            assert (
                oracle_count(g).total
                == oracle_count(rest).total + oracle_count_rooted(g, v).value
            )


def test_rooted_matches_naive_reference():
    rng = random.Random(15)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        v = rng.randrange(g.n)
        assert oracle_count_rooted(g, v).value == naive_count_containing(g, (v,))


def test_pair_counts():
    assert oracle_count_pair(cycle_graph(3), 0, 1) == 2
    assert oracle_count_pair(path_graph(3), 0, 2) == 1
    a4 = build(FamilySpec("A", (4,)))
    hubs = [v for v in range(4) if a4.degree(v) == 3]
    assert oracle_count_pair(a4, hubs[0], hubs[1]) == 4
    with pytest.raises(ContractViolationError):
        oracle_count_pair(cycle_graph(3), 1, 1)


def test_pair_in_different_components_is_zero_without_search(monkeypatch):
    # A 23-vertex star and an isolated vertex: the 2^22 connected sets
    # through the star's centre are never enumerated.
    import connsets.counting as counting

    g = Graph.from_edges(24, [(0, v) for v in range(1, 23)])

    def refuse(*args):
        raise AssertionError("searched a pair split across components")

    monkeypatch.setattr(counting, "_connected_subsets", refuse)
    assert oracle_count_pair(g, 0, 23) == 0


def test_pair_inclusion_exclusion_and_naive():
    rng = random.Random(16)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        u = rng.randrange(g.n)
        v = rng.choice([x for x in range(g.n) if x != u])
        direct = oracle_count_pair(g, u, v)
        assert direct == naive_count_containing(g, (u, v))
        rest_u, _ = delete_vertices(g, 1 << u)
        rest_v, _ = delete_vertices(g, 1 << v)
        rest_uv, _ = (
            delete_vertices(g, (1 << u) | (1 << v)) if g.n > 2 else (None, None)
        )
        both = oracle_count(rest_uv).total if rest_uv is not None else 0
        inclusion_exclusion = (
            oracle_count(g).total
            - oracle_count(rest_u).total
            - oracle_count(rest_v).total
            + both
        )
        assert direct == inclusion_exclusion


def test_combine_identified_reference_values():
    assert combine_identified(7, 4, 7, 4) == (22, 16)
    assert combine_identified(5, 3, 1, 1) == (5, 3)
    assert combine_identified(3, 2, 3, 2) == (6, 4)
    with pytest.raises(ContractViolationError):
        combine_identified(3, 4, 3, 2)


def test_extend_pendant_reference_values():
    assert extend_pendant(7, 4) == 12
    assert extend_pendant(1, 1) == 3
    assert extend_pendant(12, 5) == 18
    with pytest.raises(ContractViolationError):
        extend_pendant(2, 3)


def test_tree_rooted_count():
    assert tree_rooted_count(star_graph(6), 0).value == 32
    assert tree_rooted_count(path_graph(4), 0).value == 4
    assert tree_rooted_count(Graph.from_edges(1, []), 0).value == 1
    with pytest.raises(ContractViolationError):
        tree_rooted_count(cycle_graph(4), 0)


def test_tree_rooted_count_matches_oracle():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            for v in range(n):
                assert (
                    tree_rooted_count(t, v).value
                    == oracle_count_rooted(t, v).value
                )


def test_tree_rooted_bound_with_star_equality():
    for n in range(1, 9):
        cap = 1 << (n - 1)
        for t in enumerate_trees(n):
            for v in range(n):
                value = tree_rooted_count(t, v).value
                assert value <= cap
                is_star_center = n <= 2 or t.degree(v) == n - 1
                assert (value == cap) == is_star_center


def test_smart_count_reference_values():
    assert smart_count(build(FamilySpec("L", (10,)))).total == 72
    assert smart_count(build(FamilySpec("B", (10,)))).total == 524
    assert smart_count(build(FamilySpec("theta", (4, 4, 4)))).total == 100


def test_smart_count_methods():
    # A disconnected graph counts as the sum of its components.
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert smart_count(two_edges).total == oracle_count(two_edges).total == 6


def test_smart_count_past_the_oracle_cap():
    # Every instance here has more vertices than the default oracle cap.
    assert smart_count(cycle_graph(30)).total == 871
    assert smart_count(build(FamilySpec("dumbbell", (30, 30, 2)))).total == 191838
    assert smart_count(path_graph(60)).total == 1830
    for spec in (FamilySpec("B", (40,)), FamilySpec("star", (40,))):
        assert smart_count(build(spec)).total == closed_form(spec)
    # At the vertex ceiling, for every family with a closed form.
    for kind in ("path", "cycle", "star", "tadpole", "L", "A", "B", "R"):
        spec = FamilySpec(kind, (MAX_VERTICES,))
        assert smart_count(build(spec)).total == closed_form(spec), kind


def test_smart_count_sums_each_block_once(monkeypatch):
    # A path of k spine vertices with a triangle hung at each: 2k - 1
    # blocks.  Splitting at cut vertices and counting each side with and
    # without the cut vertex visited 2^k pieces here.  Sets through a run
    # of the spine choose one of 4 triangle parts per spine vertex; sets
    # off the spine are the 3 inside one triangle.
    import connsets.counting as counting

    k = 20
    edges = [(3 * t, 3 * t + 3) for t in range(k - 1)]
    edges += [e for t in range(k) for e in ((3 * t, 3 * t + 1), (3 * t, 3 * t + 2))]
    edges += [(3 * t + 1, 3 * t + 2) for t in range(k)]
    g = Graph.from_edges(3 * k, edges)
    real, calls = counting._block_sums, []

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(counting, "_block_sums", counted)
    expected = 3 * k + sum((k - run + 1) * 4**run for run in range(1, k + 1))
    assert smart_count(g).total == expected
    assert len(calls) == len(set(calls)) == 2 * k - 1


def test_smart_count_equals_oracle_everywhere():
    rng = random.Random(17)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 12), connected=True)
        assert smart_count(g).total == oracle_count(g).total
    # Every class up to n = 11, by the block pass on the graph and on the
    # generation key: above n = 8, verify reads the oracle only on the
    # classes at the extreme counts and trusts the keyed count on the rest.
    # n = 11 forms cores and root sets that n <= 10 never does; the oracle
    # stays at n <= 10 for time.
    for n in range(4, 12):
        keyed = generate_counted_keys(n, n)
        for g, (_, count) in zip(generate_bicyclic(n, n), keyed, strict=True):
            assert smart_count(g).total == count
            assert n > 10 or count == oracle_count(g).total
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert smart_count(t).total == oracle_count(t).total
    # Disconnected graphs, and blocks of every kind glued at cut vertices,
    # so that weighted non-cycle blocks sit above other blocks.
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12))
        assert smart_count(g).total == oracle_count(g).total
    for _ in range(60):
        n, edges = 1, []
        for _ in range(rng.randint(1, 5)):
            new = [rng.randrange(n), *range(n, n + rng.randint(1, 3))]
            n += len(new) - 1
            edges += [(a, b) for i, b in enumerate(new) for a in new[:i]
                      if a == new[i - 1] or rng.random() < 0.6]
        g = Graph.from_edges(n, edges)
        assert smart_count(g).total == oracle_count(g).total


def test_keyed_count_searches_each_root_set_once_per_core(monkeypatch):
    # Every count the keyed stream makes is the include/exclude search of
    # one core through one set of tree roots, made once for that core.
    import connsets.counting as counting
    import connsets.enumeration as enumeration

    real = counting._connected_subsets
    searches = []

    def searched(adj, domain, weight, required=0):
        searches.append((adj, required))
        return real(adj, domain, weight, required)

    monkeypatch.setattr(counting, "_connected_subsets", searched)
    monkeypatch.setattr(enumeration, "_connected_subsets", searched)
    keyed = list(generate_counted_keys(9, 9))
    assert len(set(searches)) == len(searches) < len(keyed)


def test_weighted_search_equals_a_subset_scan():
    # The one search at any weights, the weighted block pass, and the block
    # sums of the block pass (searched or by the arc rule, at every head),
    # equal a scan of every subset with the dictionary connectivity check
    # of conftest.
    import connsets.counting as counting
    from connsets.graphs import bits, blocks

    def scan(adjacency, domain, w, required=()):
        return sum(
            math.prod(w[v] for v in subset)
            for r in range(1, len(domain) + 1)
            for subset in itertools.combinations(domain, r)
            if set(required) <= set(subset) and naive_connected(adjacency, subset)
        )

    def complete(n):
        return Graph.from_edges(n, itertools.combinations(range(n), 2))

    spokes = [(0, i) for i in range(1, 6)]
    wheel = Graph.from_edges(6, spokes + [(i, i % 5 + 1) for i in range(1, 6)])
    graphs = [
        complete(4),
        wheel,
        build(FamilySpec("theta", (2, 3, 4))),
        build(FamilySpec("E8")),
        complete(5),
        # A tailed triangle, a separate edge and an isolated vertex.
        Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]),
    ]
    shapes = random.Random(21)
    graphs += [random_graph(shapes, shapes.randint(1, 8)) for _ in range(8)]
    rng = random.Random(20)
    for g in graphs:
        adjacency = naive_adjacency(g)
        every = list(range(g.n))
        for _ in range(3):
            w = [rng.choice((0, 1, 2, 3, 5)) for _ in range(g.n)]
            assert counting._connected_subsets(g.adj, 0, w) == 0
            search = counting._connected_subsets(g.adj, g.vertex_mask, w)
            assert search == scan(adjacency, every, w)
            assert counting.weighted_total(g, blocks(g), list(w), None) == search
            for head in every:
                through = counting._connected_subsets(g.adj, g.vertex_mask, w, 1 << head)
                assert through == scan(adjacency, every, w, (head,)), (g.edges(), head)
                # A pass started at head leaves that sum in its weight.
                passed = list(w)
                counting.weighted_total(g, blocks(g, head), passed, None)
                assert passed[head] == through, (g.edges(), head, w)
            for block, _ in blocks(g):
                inside = list(bits(block))
                for head in inside:
                    avoid = scan(adjacency, [v for v in inside if v != head], w)
                    through = scan(adjacency, inside, w, (head,))
                    sums = counting._block_sums(g, block, head, w, None)
                    assert sums == (avoid, through), (g.edges(), inside, head, w)


def _assert_rooted_and_pairs_equal_the_oracle(g: Graph) -> None:
    for v in range(g.n):
        rooted = smart_count_rooted(g, v)
        assert rooted == oracle_count_rooted(g, v), (g.edges(), v)
        for u in range(v):
            assert smart_count_pair(g, u, v) == oracle_count_pair(g, u, v), (
                g.edges(), u, v
            )


@st.composite
def graphs_with_dense_blocks(draw):
    """Graphs on at most 9 vertices at any density, connected or not; some
    carry a K4 (w = 4) or a wheel on w vertices, hub 0, among their edges."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = set(draw(st.sets(st.sampled_from(pairs)))) if pairs else set()
    w = draw(st.sampled_from([0, *range(4, n + 1)]))
    if w:
        chosen |= {(0, i) for i in range(1, w)}
        chosen |= {(i, i + 1) for i in range(1, w - 1)} | {(1, w - 1)}
    return Graph.from_edges(n, sorted(chosen))


def test_rooted_count_is_one_pass_and_pair_count_two(monkeypatch):
    import connsets.counting as counting

    passes = []
    real = counting.weighted_total

    def counted(*args):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(counting, "weighted_total", counted)
    g = build(FamilySpec("theta", (2, 3, 4)))
    assert smart_count_rooted(g, 3) == oracle_count_rooted(g, 3)
    assert len(passes) == 1
    assert smart_count_pair(g, 3, 1) == oracle_count_pair(g, 3, 1)
    assert len(passes) == 1 + 2


def test_block_pass_rooted_and_pair_equal_the_oracle():
    for n in range(4, 9):
        for g in generate_bicyclic(n, n):
            _assert_rooted_and_pairs_equal_the_oracle(g)
    with pytest.raises(ContractViolationError, match="two distinct"):
        smart_count_pair(cycle_graph(3), 1, 1)
    with pytest.raises(ContractViolationError, match="out of range"):
        smart_count_rooted(cycle_graph(3), 3)


@settings(max_examples=200, deadline=None)
@given(graphs_with_dense_blocks())
def test_block_pass_rooted_and_pair_equal_the_oracle_on_any_graph(g):
    _assert_rooted_and_pairs_equal_the_oracle(g)


def test_monotone_under_edge_addition():
    rng = random.Random(18)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7))
        missing = [
            (i, j)
            for i in range(g.n)
            for j in range(i + 1, g.n)
            if not g.has_edge(i, j)
        ]
        if not missing:
            continue
        extra = rng.choice(missing)
        bigger = Graph.from_edges(g.n, g.edges() + [extra])
        assert oracle_count(bigger).total >= oracle_count(g).total


def test_count_lower_bound_for_connected():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), connected=True)
        assert oracle_count(g).total >= g.n
