"""The verification harness: statuses, determinism, serialisation."""

import json
import re

import pytest

from connsets import ContractViolationError, ResourceCapError
from connsets import verify as verify_mod
from connsets.canon import canonical_certificate
from connsets.counting import RootedCount
from connsets.enumeration import enumerate_trees
from connsets.families import FamilySpec, build
from connsets.graphs import to_graph6
from connsets.verify import (
    FAIL,
    INFORMATIONAL,
    PASS,
    reports_to_csv,
    verify_closed_forms,
    verify_lemma_algebra,
    verify_maximum,
    verify_minimum,
    verify_tree_bound,
    verify_vertex_bound,
)

from conftest import drop_last_core, repeat_one_key


def test_minimum_small_orders():
    report = verify_minimum(5)
    assert report.status == PASS
    assert report.observed["min"] == 22
    families = sorted(a["family"] for a in report.attainers)
    assert families == ["A5", "L5"]
    report = verify_minimum(6)
    assert report.status == PASS
    assert [a["family"] for a in report.attainers] == ["L6"]
    with pytest.raises(ContractViolationError):
        verify_minimum(4)


def test_maximum_statuses():
    assert verify_maximum(6).status == INFORMATIONAL
    report = verify_maximum(8)
    assert report.status == PASS
    assert report.observed["max"] == 138
    assert report.observed["second_max"] == 137
    assert [a["family"] for a in report.attainers] == ["B8"]


def test_maximum_informational_reports_observations():
    report = verify_maximum(7)
    assert report.status == INFORMATIONAL
    assert report.observed["max"] == 73
    assert report.observed["second_max"] == 72


def test_vertex_bound_equality_cases():
    report = verify_vertex_bound(4)
    assert report.status == PASS
    assert report.observed["min_rooted"] == 7
    assert report.observed["equality_cases"] == 2
    assert all("degree 2" in note for note in report.notes)
    assert verify_vertex_bound(5).status == PASS
    assert verify_vertex_bound(10).status == PASS
    with pytest.raises(ResourceCapError):
        verify_vertex_bound(12)


def test_vertex_bound_counts_each_class_as_it_streams(monkeypatch):
    # Each class is counted before the next one is generated, so the sweep
    # never holds the corpus.
    events = []
    generate, rooted = verify_mod.generate_bicyclic, verify_mod.oracle_count_rooted

    def streamed(n, cap=None):
        for g in generate(n, cap):
            events.append("class")
            yield g

    def counted(g, v):
        events.append("count")
        return rooted(g, v)

    monkeypatch.setattr(verify_mod, "generate_bicyclic", streamed)
    monkeypatch.setattr(verify_mod, "oracle_count_rooted", counted)
    report = verify_vertex_bound(5)
    assert (report.status, report.observed["classes"]) == (PASS, 5)
    assert events == (["class"] + ["count"] * 5) * 5


def test_closed_forms_sweep():
    report = verify_closed_forms(12)
    assert report.status == PASS
    assert report.observed["mismatches"] == 0


def test_lemma_algebra_seeded():
    report = verify_lemma_algebra(trials=60, seed=9, pendant_trials=30, branch_trials=30)
    assert report.status == PASS
    assert report.observed["failures"] == 0
    assert report.observed["seed"] == 9


def test_tree_bound_sweep():
    report = verify_tree_bound(8)
    assert report.status == PASS


_L7 = FamilySpec("L", (7,))


@pytest.mark.parametrize(
    "name, wrong, note",
    [
        (
            "closed_form",
            lambda real: lambda spec: real(spec) + (spec == _L7),
            "L:7: formula 40 != oracle 39",
        ),
        (
            "_SMALL_SHAPE_ROWS",
            lambda real: ((FamilySpec("typeII", (3, 4)), 38),) + real[1:],
            "typeII:3,4: oracle 37 != reference 38",
        ),
        (
            "e_graph_reference",
            lambda real: lambda: [("A4", (15, 8)), *real()[1:]],
            "A4: oracle 14 (reference 15), max rooted 8 (bound 8)",
        ),
        (
            "e_graph_reference",
            lambda real: lambda: [*real()[:-1], ("E8", (100, 63))],
            "E8: oracle 100 (reference 100), max rooted 64 (bound 63)",
        ),
    ],
)
def test_closed_forms_fail_and_name_the_mismatch(monkeypatch, name, wrong, note):
    monkeypatch.setattr(verify_mod, name, wrong(getattr(verify_mod, name)))
    report = verify_closed_forms(8)
    assert (report.status, report.notes) == (FAIL, (note,))
    assert report.observed["mismatches"] == 1


_G6 = r"[?-~]+"


@pytest.mark.parametrize(
    "name, wrong, note",
    [
        (
            "combine_identified",
            lambda real: lambda *a: (real(*a)[0] + 1, real(*a)[1]),
            rf"identify: {_G6} \+ {_G6} at \(\d+,\d+\)",
        ),
        ("extend_pendant", lambda real: lambda *a: real(*a) + 1, rf"pendant: {_G6} at \d+"),
        (
            "branch_shift",
            lambda real: lambda *a: real(*a)._replace(delta_left=real(*a).delta_left + 1),
            rf"branch: L={_G6} M={_G6} R={_G6} u=\d+ v=\d+",
        ),
    ],
)
def test_lemma_algebra_fails_and_names_each_counterexample(monkeypatch, name, wrong, note):
    monkeypatch.setattr(verify_mod, name, wrong(getattr(verify_mod, name)))
    report = verify_lemma_algebra(trials=3, seed=4, pendant_trials=3, branch_trials=3)
    assert report.status == FAIL and report.observed["failures"] == 3
    assert len(report.notes) == 3 and all(re.fullmatch(note, n) for n in report.notes)


@pytest.mark.parametrize(
    "shift, note",
    [(1, "{g6} at {v}: 5 > 4"), (-1, "{g6} at {v}: equality pattern wrong (value 3, bound 4)")],
)
def test_tree_bound_fails_and_names_the_vertex(monkeypatch, shift, note):
    # Move the rooted count at the centre of the path on three vertices.
    real = verify_mod.tree_rooted_count

    def moved(t, v):
        value = real(t, v).value
        return RootedCount(value + shift if t.n == 3 and t.degree(v) == 2 else value)

    monkeypatch.setattr(verify_mod, "tree_rooted_count", moved)
    report = verify_tree_bound(3)
    (path,) = enumerate_trees(3)
    centre = path.degrees().index(2)
    assert report.status == FAIL
    assert report.notes == (note.format(g6=to_graph6(path), v=centre),)


def test_reports_are_deterministic():
    a = verify_minimum(6).to_json()
    b = verify_minimum(6).to_json()
    assert a == b
    x = verify_lemma_algebra(trials=20, seed=5).to_json()
    y = verify_lemma_algebra(trials=20, seed=5).to_json()
    assert x == y


def test_json_and_csv_shapes():
    report = verify_minimum(5)
    payload = json.loads(report.to_json())
    assert payload["claim"] == "minimum"
    assert payload["status"] == "pass"
    assert "runtime_seconds" not in payload
    csv_text = reports_to_csv([report, verify_maximum(5)])
    lines = csv_text.strip().splitlines()
    assert lines[0] == "claim,n,expected,observed,status"
    assert len(lines) == 3
    assert lines[1].startswith("minimum,5,")


def test_exhaustiveness_guard_catches_broken_enumeration(monkeypatch):
    from connsets import enumeration

    monkeypatch.setattr(enumeration, "_core_specs", lambda n: iter(()))
    with pytest.raises(ContractViolationError, match="no graphs at n=6"):
        verify_minimum(6)


def test_exhaustiveness_guard_covers_orders_past_the_labelled_sweep(monkeypatch):
    drop_last_core(monkeypatch)
    with pytest.raises(ContractViolationError, match="A001429 has 797"):
        verify_minimum(9)


def test_tied_attainers_are_reported_in_certificate_order(monkeypatch):
    # Ties are forced so that several graphs attain the minimum and several
    # vertices meet the rooted bound; reversing the stream must not move them.
    from types import SimpleNamespace

    import connsets.verify as verify_mod

    real_counts = verify_mod._checked_counts
    real_rooted = verify_mod.oracle_count_rooted
    real_stream = verify_mod.generate_bicyclic
    real_keys = verify_mod.generate_counted_keys

    def tied_counts(n, cap):
        classes, groups = real_counts(n, cap)
        lo, following = sorted(groups)[:2]
        groups[lo] += groups.pop(following)
        return classes, groups

    def tied_rooted(g, v, cap=None):
        value = real_rooted(g, v, cap).value
        return SimpleNamespace(value=g.n + 3 if value == g.n + 4 else value)

    monkeypatch.setattr(verify_mod, "_checked_counts", tied_counts)
    monkeypatch.setattr(verify_mod, "oracle_count_rooted", tied_rooted)
    forward = (verify_mod.verify_minimum(9), verify_mod.verify_vertex_bound(9))
    monkeypatch.setattr(
        verify_mod, "generate_counted_keys", lambda n, cap=None: reversed(list(real_keys(n, cap)))
    )
    monkeypatch.setattr(
        verify_mod, "generate_bicyclic", lambda n, cap=None: reversed(list(real_stream(n, cap)))
    )
    backward = (verify_mod.verify_minimum(9), verify_mod.verify_vertex_bound(9))
    assert backward == forward
    for report in forward:
        certificates = [a["certificate"] for a in report.attainers]
        assert len(set(certificates)) > 1 and certificates == sorted(certificates)


def test_exhaustiveness_guard_compares_class_lists(monkeypatch):
    # One key yielded twice in place of another key of the same core keeps
    # the Burnside and A001429 counts right, so only the labelled guard
    # sees it: the copy's orbit meets the original's.  The vertex-bound
    # sweep reads the stream, with no certificate check before the guard.
    import re

    from connsets.enumeration import graph_from_key
    from connsets.graphs import to_graph6

    repeated = repeat_one_key(monkeypatch)
    with pytest.raises(ContractViolationError) as excinfo:
        verify_vertex_bound(6)
    graph6 = to_graph6(graph_from_key(repeated[0]))
    message = f"n=6: the orbit of {re.escape(graph6)} overlaps an earlier class"
    excinfo.match(message)


def test_maximum_fails_when_the_runner_up_is_off(monkeypatch):
    import connsets.verify as verify_mod

    real = verify_mod._checked_counts

    def lowered(n, cap):
        classes, groups = real(n, cap)
        second = sorted(groups)[-2]
        groups[second - 1] = groups.pop(second)
        return classes, groups

    monkeypatch.setattr(verify_mod, "_checked_counts", lowered)
    report = verify_mod.verify_maximum(9)
    assert report.observed["second_max"] == 265
    assert report.status == FAIL


def test_maximum_fails_when_the_runner_up_is_not_r(monkeypatch):
    # R_9 swaps counts with the minimiser: the runner-up value 266 keeps a
    # single attainer, but that attainer is no longer R_9.
    import connsets.verify as verify_mod

    real = verify_mod._checked_counts
    r9 = canonical_certificate(build(FamilySpec("R", (9,))))

    def swapped(n, cap):
        classes, groups = real(n, cap)
        lo, second = min(groups), sorted(groups)[-2]
        assert [canonical_certificate(g) for g in groups[second]] == [r9]
        groups[lo], groups[second] = groups[second], groups[lo]
        return classes, groups

    assert verify_mod.verify_maximum(9).status == PASS
    monkeypatch.setattr(verify_mod, "_checked_counts", swapped)
    report = verify_mod.verify_maximum(9)
    assert report.observed["second_max"] == 266
    assert report.observed["second_attainers"] == 1
    assert report.status == FAIL


def test_unnamed_attainers_fail_without_raising(monkeypatch):
    import connsets.verify as verify_mod

    monkeypatch.setattr(verify_mod, "annotate_family", lambda g: None)
    report = verify_mod.verify_minimum(5)
    assert [a["family"] for a in report.attainers] == [None, None]
    assert report.status == FAIL
    assert verify_mod.verify_maximum(9).status == FAIL


def test_oracle_recounts_only_what_a_verdict_reads(monkeypatch):
    # Every class at n <= 8; above that, the classes at the least count
    # and at the two largest.
    import connsets.verify as verify_mod
    from connsets.counting import smart_count
    from connsets.enumeration import generate_bicyclic

    real, calls = verify_mod.oracle_count, []

    def counted(g, cap=None):
        calls.append(g)
        return real(g, cap)

    monkeypatch.setattr(verify_mod, "oracle_count", counted)
    assert verify_minimum(6).status == PASS
    assert len(calls) == 19
    counts = [smart_count(g).total for g in generate_bicyclic(9, 9)]
    read = {min(counts), *sorted(set(counts))[-2:]}
    calls.clear()
    assert verify_maximum(9).status == PASS
    assert len(calls) == sum(c in read for c in counts) < len(counts)
    assert sorted(verify_mod.annotate_family(g) for g in calls) == ["B9", "L9", "R9"]


def test_keyed_sweep_holds_only_the_classes_it_reads():
    # Above n = 8 the sweep keeps the keys of three counts, not the 8833
    # (key, count) pairs of n = 11: 0.3 MiB traced on a warm second run,
    # where holding every pair took 2.2 MiB.
    import tracemalloc

    assert verify_maximum(11).status == PASS
    tracemalloc.start()
    try:
        assert verify_maximum(11).status == PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [9, 7])
def test_block_pass_disagreeing_with_the_oracle_is_a_contract_violation(monkeypatch, n):
    # Off by one on R9's keyed count, the runner-up; at n = 7, on the
    # block pass of a class of middle count, which only the recount of
    # every class at n <= 8 reads.
    import connsets.verify as verify_mod
    from connsets.counting import smart_count
    from connsets.enumeration import generate_bicyclic
    from connsets.graphs import to_graph6

    graphs = list(generate_bicyclic(n))
    if n == 9:
        r9 = canonical_certificate(build(FamilySpec("R", (9,))))
        target = next(g for g in graphs if canonical_certificate(g) == r9)
        real = verify_mod.generate_counted_keys

        def off_by_one_key(n, cap=None):
            for key, count in real(n, cap):
                yield key, count + (verify_mod.graph_from_key(key) == target)

        monkeypatch.setattr(verify_mod, "generate_counted_keys", off_by_one_key)
    else:
        counts = sorted({smart_count(g).total for g in graphs})
        middle = counts[len(counts) // 2]
        target = next(g for g in graphs if smart_count(g).total == middle)

        def off_by_one(g, cap=None):
            result = smart_count(g, cap)
            return type(result)(result.total + 1) if g == target else result

        monkeypatch.setattr(verify_mod, "smart_count", off_by_one)
    true = smart_count(target).total
    with pytest.raises(ContractViolationError) as excinfo:
        verify_mod.verify_maximum(n)
    message = str(excinfo.value)
    assert f"counts {true + 1} and oracle {true}" in message
    assert to_graph6(target) in message and f"n={n}" in message
