"""The count-monotone surgeries against the oracle."""

import itertools
import random

import pytest

from connsets import (
    ContractViolationError,
    Graph,
    is_isomorphic,
    mask_of,
    oracle_count,
)
from connsets.enumeration import enumerate_bicyclic, pendant_free_core
from connsets.families import E_NAMES, KINDS, FamilySpec, build
from connsets.transforms import (
    annotate_family,
    branch_shift,
    cycle_to_tadpole,
    glue_at,
    part_to_q,
    subtree_to_star,
)

from conftest import cycle_graph, path_graph, random_graph


def N(g: Graph) -> int:
    return oracle_count(g).total


# typeII(p, q) builds its first ring on {0, 1..p-1} and its second on
# {0, p..p+q-2}; dumbbell(p, q, r) for r >= 2 puts the hubs at 0 and 1.
def second_ring(p: int, q: int) -> int:
    return mask_of([0] + list(range(p, p + q - 1)))


def test_annotate_family_names_every_family_graph(monkeypatch):
    import connsets.transforms as transforms

    rng = random.Random(7)
    named = [
        (FamilySpec(kind, (n,)), f"{kind}{n}")
        for kind in ("L", "A", "B", "R")
        for n in range(KINDS[kind].lows[0], 13)
    ] + [(FamilySpec(name), name) for name in E_NAMES]
    for spec, name in named:
        g = build(spec)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert annotate_family(g) == annotate_family(g.relabel(tuple(perm))) == name
    # Outside the families: dumbbell(3, 4, 2) shares L7's degree sequence,
    # so only the certificates tell them apart.
    assert annotate_family(build(FamilySpec("dumbbell", (3, 4, 2)))) is None
    assert annotate_family(build(FamilySpec("theta", (3, 4, 5)))) is None
    # A candidate with another degree sequence is never canonicalised: at
    # n = 10 the four families' sequences differ, so naming B10 takes the
    # certificates of B10 and of the graph alone.
    calls = []
    real = transforms.canonical_certificate
    monkeypatch.setattr(transforms, "canonical_certificate", lambda g: calls.append(g) or real(g))
    assert annotate_family(build(FamilySpec("B", (10,)))) == "B10"
    assert len(calls) == 2
    # Nor is the graph itself when no candidate shares its sequence.
    calls.clear()
    assert annotate_family(build(FamilySpec("typeII", (4, 5)))) is None
    assert calls == []


def test_cycle_to_tadpole_figure_pair():
    g = build(FamilySpec("typeII", (3, 4)))
    out = cycle_to_tadpole(g, second_ring(3, 4), 0)
    assert N(g) == 37 and N(out.result) == 30
    assert is_isomorphic(out.result, build(FamilySpec("dumbbell", (3, 3, 2))))
    assert out.family_name == "L6"
    assert out.result.n == g.n and out.result.edge_count == g.edge_count
    assert out.predicted_delta is None


def test_cycle_to_tadpole_larger_cycle():
    g = build(FamilySpec("typeII", (4, 4)))
    out = cycle_to_tadpole(g, second_ring(4, 4), 0)
    assert N(g) == 61 and N(out.result) == 48
    assert is_isomorphic(out.result, build(FamilySpec("dumbbell", (4, 3, 2))))


def test_cycle_to_tadpole_reaches_the_minimiser():
    g = build(FamilySpec("dumbbell", (3, 4, 2)))
    # Hubs are 0 (triangle) and 1; the 4-cycle is {1, 4, 5, 6}.
    out = cycle_to_tadpole(g, mask_of([1, 4, 5, 6]), 1)
    assert is_isomorphic(out.result, build(FamilySpec("L", (7,))))
    assert N(out.result) == 39
    assert out.family_name == "L7"


def test_cycle_to_tadpole_rejects_bad_sites():
    bowtie = build(FamilySpec("typeII", (3, 3)))
    with pytest.raises(ContractViolationError):
        cycle_to_tadpole(bowtie, mask_of([0, 1, 2]), 0)
    g = build(FamilySpec("typeII", (3, 4)))
    with pytest.raises(ContractViolationError):
        cycle_to_tadpole(g, second_ring(3, 4), 3)  # anchor off the join
    with pytest.raises(ContractViolationError):
        cycle_to_tadpole(g, mask_of([0, 1, 2, 3]), 0)  # not a cycle


def _hanging_cycle_sites(g: Graph):
    """Chordless cycles of length >= 4 meeting the rest only at one vertex."""
    for r in range(4, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            m = mask_of(sub)
            if not all((g.adj[v] & m).bit_count() == 2 for v in sub):
                continue
            outside = [v for v in sub if g.adj[v] & ~m]
            if len(outside) == 1:
                yield m, outside[0]


def test_cycle_to_tadpole_strictly_decreases_everywhere():
    sites = 0
    for n in range(4, 9):
        for g in enumerate_bicyclic(n):
            for m, anchor in _hanging_cycle_sites(g):
                out = cycle_to_tadpole(g, m, anchor)
                assert out.result.edge_count == g.edge_count
                assert N(out.result) < N(g)
                sites += 1
    assert sites > 20


def test_subtree_to_star_on_tadpole():
    d5 = build(FamilySpec("tadpole", (5,)))
    out = subtree_to_star(d5, 0)
    assert N(d5) == 18 and N(out.result) == 21
    assert out.result.n == 5 and out.result.edge_count == 5


def test_subtree_to_star_fixed_point():
    b9 = build(FamilySpec("B", (9,)))
    out = subtree_to_star(b9, 0)
    assert is_isomorphic(out.result, b9)
    assert N(out.result) == N(b9)


def test_subtree_to_star_errors():
    with pytest.raises(ContractViolationError):
        subtree_to_star(build(FamilySpec("L", (7,))), 0)
    d5 = build(FamilySpec("tadpole", (5,)))
    with pytest.raises(ContractViolationError):
        subtree_to_star(d5, 4)  # a stripped vertex, not a core vertex


def test_subtree_to_star_never_decreases():
    for n in range(5, 9):
        for g in enumerate_bicyclic(n):
            for root, edges in pendant_free_core(g)[1].items():
                if not edges:
                    continue
                out = subtree_to_star(g, root)
                before, after = N(g), N(out.result)
                assert after >= before
                already_star = all(root in e for e in edges)
                assert (after == before) == already_star


def test_part_to_q_reaches_second_place():
    g = build(FamilySpec("typeII", (3, 5)))
    out = part_to_q(g, mask_of([0, 1, 2]), 0)
    assert N(g) == 57 and N(out.result) == 72
    assert is_isomorphic(out.result, build(FamilySpec("R", (7,))))
    assert out.family_name == "R7"


def test_part_to_q_on_disjoint_cycles():
    g = build(FamilySpec("dumbbell", (3, 3, 3)))
    out = part_to_q(g, mask_of([0, 2, 3]), 0)
    assert N(out.result) > N(g)
    assert out.result.n == g.n and out.result.edge_count == g.edge_count


def test_part_to_q_errors():
    with pytest.raises(ContractViolationError):
        part_to_q(build(FamilySpec("typeII", (3, 4))), mask_of([0, 1, 2]), 0)
    with pytest.raises(ContractViolationError):
        part_to_q(build(FamilySpec("B", (8,))), mask_of([0, 1, 2]), 0)
    with pytest.raises(ContractViolationError):
        part_to_q(build(FamilySpec("theta", (3, 3, 4))), mask_of([0, 1, 2]), 0)


def test_branch_shift_paths_example():
    p2, p3 = path_graph(2), path_graph(3)
    shift = branch_shift(p2, 0, p3, 0, 2, p2, 0)
    assert N(shift.glued_apart) == 15
    assert N(shift.glued_left) == 17
    assert shift.delta_left == 2
    assert shift.delta_left == N(shift.glued_left) - N(shift.glued_apart)
    assert shift.delta_right == N(shift.glued_right) - N(shift.glued_apart)


def test_branch_shift_symmetry():
    p2, p3 = path_graph(2), path_graph(3)
    shift = branch_shift(p2, 0, p3, 0, 2, p2, 1)
    assert shift.delta_left == shift.delta_right


def test_branch_shift_exact_deltas_random():
    rng = random.Random(23)
    for _ in range(60):
        left = random_graph(rng, rng.randint(2, 4), connected=True)
        middle = random_graph(rng, rng.randint(2, 4), connected=True)
        right = random_graph(rng, rng.randint(2, 4), connected=True)
        u = rng.randrange(middle.n)
        v = rng.choice([x for x in range(middle.n) if x != u])
        shift = branch_shift(
            left, rng.randrange(left.n), middle, u, v, right, rng.randrange(right.n)
        )
        base = N(shift.glued_apart)
        assert shift.delta_left == N(shift.glued_left) - base
        assert shift.delta_right == N(shift.glued_right) - base
        assert max(shift.delta_left, shift.delta_right) > 0


def test_branch_shift_rejects_trivial_parts():
    single = Graph.from_edges(1, [])
    p3 = path_graph(3)
    with pytest.raises(ContractViolationError):
        branch_shift(single, 0, p3, 0, 2, path_graph(2), 0)
    with pytest.raises(ContractViolationError):
        branch_shift(path_graph(2), 0, p3, 1, 1, path_graph(2), 0)


def test_glue_preserves_counts_by_identification():
    c3 = cycle_graph(3)
    merged = glue_at(c3, 0, c3, 0)
    assert N(merged) == 22
    assert merged.n == 5
