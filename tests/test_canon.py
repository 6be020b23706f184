"""Exactness of the canonical certificates."""

import hashlib
import itertools
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from connsets import Graph, canonical_certificate, is_isomorphic
from connsets.canon import automorphism_group, canonical_form
from connsets.enumeration import enumerate_trees, generate_bicyclic
from connsets.families import FamilySpec, build
from connsets.graphs import from_graph6, to_graph6

from conftest import cycle_graph, path_graph, random_graph, star_graph

# Isomorphism class counts of all simple graphs on n vertices.
GRAPH_CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}


def test_certificates_are_relabeling_invariant():
    rng = random.Random(21)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_certificate(g) == canonical_certificate(g.relabel(tuple(perm)))


def test_certificates_separate_all_small_classes():
    # Over every labelled graph, the number of distinct certificates must
    # equal the known number of isomorphism classes: together with
    # relabelling invariance this makes the certificate exact.
    for n, expected in GRAPH_CLASSES.items():
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        certs = set()
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            certs.add(canonical_certificate(Graph.from_edges(n, edges)))
        assert len(certs) == expected


def test_certificate_is_the_canonical_graph6():
    g = cycle_graph(5)
    cert = canonical_certificate(g)
    assert cert == to_graph6(canonical_form(g))
    decoded = from_graph6(cert)
    assert decoded.n == 5 and decoded.edge_count == 5


def test_reference_isomorphisms():
    assert is_isomorphic(cycle_graph(4), cycle_graph(4).relabel((2, 0, 3, 1)))
    assert not is_isomorphic(path_graph(4), star_graph(4))
    assert not is_isomorphic(
        build(FamilySpec("L", (6,))), build(FamilySpec("A", (6,)))
    )
    k23 = Graph.from_edges(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])
    assert is_isomorphic(build(FamilySpec("theta", (3, 3, 3))), k23)
    bowtie = build(FamilySpec("typeII", (3, 3)))
    assert is_isomorphic(build(FamilySpec("dumbbell", (3, 3, 1))), bowtie)


def test_nonisomorphic_same_degree_sequence():
    # Same degree sequence, different graphs: C6 vs two triangles.
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(cycle_graph(6), two_triangles)


def test_highly_symmetric_graphs_stay_fast():
    # Stars, complete graphs, and complete bipartite graphs exercise the
    # automorphism pruning; a blowup here would hang the suite.
    big_star = star_graph(16)
    perm = tuple(reversed(range(16)))
    assert canonical_certificate(big_star) == canonical_certificate(big_star.relabel(perm))
    k7 = Graph.from_edges(7, list(itertools.combinations(range(7), 2)))
    assert from_graph6(canonical_certificate(k7)).edge_count == 21
    k44 = Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)])
    rng = random.Random(3)
    perm = list(range(8))
    rng.shuffle(perm)
    assert canonical_certificate(k44) == canonical_certificate(k44.relabel(tuple(perm)))
    # Each sibling merges the automorphisms met since the last one, and a
    # leaf that ties the best jumps back to their common ancestor: a star
    # on 24 vertices and B_40 each take well under a second.
    canonical_form.cache_clear()
    for g in (star_graph(24), build(FamilySpec("B", (40,)))):
        perm = list(range(g.n))
        rng.shuffle(perm)
        certs = set()
        for h in (g, g.relabel(tuple(perm))):
            start = time.perf_counter()
            certs.add(canonical_certificate(h))
            assert time.perf_counter() - start < 1.0, g.n
        assert len(certs) == 1


def test_certificates_are_pinned():
    # sha256 of the sorted certificates of every bicyclic class at n = 9
    # and every free tree on at most 10 vertices: a change to the search
    # that moves any certificate fails here.
    graphs = list(generate_bicyclic(9)) + [t for n in range(1, 11) for t in enumerate_trees(n)]
    text = "\n".join(sorted(canonical_certificate(g) for g in graphs))
    assert (len(graphs), hashlib.sha256(text.encode()).hexdigest()) == (
        998,
        "06ce4c4eca94a96c9db993a4c5530028fcc74ab12598b041c07b6321dba39199",
    )


@st.composite
def graphs_up_to_7(draw):
    """Graphs on at most 7 vertices, connected or not."""
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(chosen))


@settings(max_examples=150, deadline=None)
@given(graphs_up_to_7())
def test_automorphism_group_matches_brute_force(g):
    edges = set(g.edges())
    brute = tuple(
        p
        for p in itertools.permutations(range(g.n))
        if all(tuple(sorted((p[u], p[v]))) in edges for u, v in edges)
    )
    assert automorphism_group(g) == brute


def test_automorphism_group_of_symmetric_graphs():
    k7 = Graph.from_edges(7, list(itertools.combinations(range(7), 2)))
    petersen = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    cube = Graph.from_edges(
        8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1]
    )
    for g, order in ((k7, 5040), (petersen, 120), (cube, 48)):
        group = automorphism_group(g)
        assert len(group) == order and group[0] == tuple(range(g.n))
        assert all(g.relabel(sigma) == g for sigma in group)
