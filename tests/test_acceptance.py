"""Acceptance sweep: every headline claim, integer-exact, one line each.

Each test prints a single [PASS]/[FAIL] line so a plain ``pytest -s``
run doubles as the acceptance report.  All comparisons are exact; there
are no tolerances anywhere.
"""

import time

from connsets import (
    canonical_certificate,
    oracle_count,
    oracle_count_rooted,
)
from connsets.crosscheck import _swept_classes
from connsets.enumeration import enumerate_bicyclic
from connsets.families import FamilySpec, build, closed_form, e_graph_reference
from connsets.verify import (
    INFORMATIONAL,
    PASS,
    verify_lemma_algebra,
    verify_maximum,
    verify_minimum,
    verify_tree_bound,
    verify_vertex_bound,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_five_vertex_census():
    t0 = time.perf_counter()
    graphs = enumerate_bicyclic(5)
    counts = sorted(oracle_count(g).total for g in graphs)
    elapsed = time.perf_counter() - t0
    ok = len(graphs) == 5 and counts == [22, 22, 23, 24, 26] and elapsed < 1.0
    report(1, ok, f"5 classes with counts {counts} in {elapsed:.3f}s")


def test_criterion_2_minimum_theorem():
    details = []
    ok = True
    for n in range(5, 11):
        rep = verify_minimum(n)
        ok = ok and rep.status == PASS
        details.append(f"n={n}:{rep.observed['min']}")
    report(2, ok, "minima " + " ".join(details) + " with the expected minimisers")


def test_criterion_3_maximum_theorem():
    ok = True
    details = []
    for n in (8, 9, 10):
        rep = verify_maximum(n)
        ok = ok and rep.status == PASS
        details.append(
            f"n={n}:{rep.observed['max']}/{rep.observed['second_max']}"
        )
    for n in (5, 6, 7):
        rep = verify_maximum(n)
        ok = ok and rep.status == INFORMATIONAL
    report(3, ok, "max/second " + " ".join(details) + "; n=5..7 informational")


def test_criterion_4_vertex_bound():
    ok = True
    for n in range(4, 10):
        rep = verify_vertex_bound(n)
        ok = ok and rep.status == PASS
        if n == 4:
            ok = ok and rep.observed["min_rooted"] == 7
            ok = ok and rep.observed["equality_cases"] == 2
            ok = ok and all("degree 2" in note for note in rep.notes)
    report(4, ok, "rooted counts >= n+3 for n=4..9; n=4 equality at the "
                  "two degree-2 vertices (value 7)")


def test_criterion_5_closed_forms_match_oracle():
    mismatches = []
    for kind, lo in (
        ("path", 1),
        ("cycle", 3),
        ("star", 1),
        ("tadpole", 4),
        ("L", 5),
        ("A", 4),
        ("B", 5),
        ("R", 6),
    ):
        for n in range(lo, 17):
            spec = FamilySpec(kind, (n,))
            if closed_form(spec) != oracle_count(build(spec)).total:
                mismatches.append(str(spec))
    spots = (
        closed_form(FamilySpec("R", (6,))) == 39
        and closed_form(FamilySpec("R", (7,))) == 72
        and closed_form(FamilySpec("L", (5,))) == 22
        and closed_form(FamilySpec("A", (4,))) == 14
    )
    ok = not mismatches and spots
    report(5, ok, "eight families, n <= 16, formula == oracle; spot values hold")


def test_criterion_6_reference_tables():
    trio = [
        oracle_count(build(FamilySpec("typeII", (3, 4)))).total,
        oracle_count(build(FamilySpec("dumbbell", (3, 3, 2)))).total,
        oracle_count(build(FamilySpec("typeII", (4, 4)))).total,
    ]
    ok = trio == [37, 30, 61]
    observed = []
    for name, (total, bound) in e_graph_reference():
        g = build(FamilySpec(name))
        mine = oracle_count(g).total
        rooted = max(oracle_count_rooted(g, v).value for v in range(g.n))
        observed.append(mine)
        ok = ok and mine == total and rooted <= bound
    report(6, ok, f"pendant-free trio {trio}; theta totals {observed} "
                  "within rooted bounds")


def test_criterion_7_lemma_algebra():
    rep = verify_lemma_algebra(
        trials=500, seed=2024, pendant_trials=200, branch_trials=200
    )
    ok = rep.status == PASS and rep.observed["failures"] == 0
    report(7, ok, "identification x500, pendant x200, branch deltas x200, "
                  "all exact, every branch disjunction positive")


def test_criterion_8_tree_bound():
    rep = verify_tree_bound(9)
    ok = rep.status == PASS
    report(8, ok, f"{rep.observed['pairs_swept']} (tree, root) pairs, bound "
                  "2^(n-1) with equality exactly at star centres")


def test_criterion_9_generator_cross_check():
    ok = True
    sizes = []
    for n in range(4, 9):
        own = tuple(canonical_certificate(g) for g in enumerate_bicyclic(n))
        labeled = _swept_classes(n)
        ok = ok and own == tuple(text for text, _ in labeled)
        sizes.append(len(own))
    report(9, ok, f"constructive == labelled for n=4..8 ({sizes} classes)")
