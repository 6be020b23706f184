"""Replay of the extremal claims over exhaustive small-order corpora.

Each sweep enumerates every relevant graph, evaluates exact counts, and
compares against the closed forms.  The bicyclic corpora come from the
generators of :mod:`connsets.enumeration`, which prove each one
exhaustive before it ends; nothing here guards them again.  The minimum
and maximum sweeps count with the block pass, and the oracle recounts
every class a verdict reads.  Up to ``LABELLED_GUARD_N`` every class is
a graph counted by ``smart_count`` and recounted.  Above it, each class
is counted from its attachment key (``generate_counted_keys``) as the
stream passes, and the sweep keeps only the classes at the counts a
verdict reads, the least and the two largest; a graph is built only for
a kept key.  All pass/fail decisions are integer-exact; nothing passes
on approximate equality.  Reports are plain data, deterministic for a
given (claim, n, seed), and serialise to JSON and a one-line CSV
summary.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass

from .canon import canonical_certificate
from .counting import (
    combine_identified,
    extend_pendant,
    oracle_count,
    oracle_count_rooted,
    smart_count,
    tree_rooted_count,
)
from .enumeration import (
    enumerate_bicyclic,
    enumerate_trees,
    generate_bicyclic,
    generate_counted_keys,
    graph_from_key,
)
from .errors import LABELLED_GUARD_N, ContractViolationError
from .families import KINDS, FamilySpec, build, closed_form, e_graph_reference
from .graphs import Graph, to_graph6
from .transforms import annotate_family, branch_shift, glue_at

PASS = "pass"
FAIL = "fail"
INFORMATIONAL = "informational"


@dataclass(frozen=True)
class VerificationReport:
    """Machine-readable record of one claim check.

    It holds no timings, so the same (claim, n, seed) gives an equal
    report and the same bytes."""

    claim: str
    n_lo: int
    n_hi: int
    expected: dict[str, object]
    observed: dict[str, object]
    attainers: tuple[dict[str, str | None], ...]
    status: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def csv_row(self) -> tuple[str, str, str, str, str]:
        span = str(self.n_lo) if self.n_lo == self.n_hi else f"{self.n_lo}..{self.n_hi}"

        def compact(d: dict[str, object]) -> str:
            return ";".join(f"{k}={d[k]}" for k in sorted(d))

        return (self.claim, span, compact(self.expected), compact(self.observed), self.status)


CSV_HEADER = ("claim", "n", "expected", "observed", "status")


def reports_to_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for rep in reports:
        writer.writerow(rep.csv_row())
    return buf.getvalue()


def _attainer(g: Graph) -> dict[str, str | None]:
    return {
        "certificate": canonical_certificate(g),
        "graph6": to_graph6(g),
        "family": annotate_family(g),
    }


def _attainers(graphs) -> tuple[dict[str, str | None], ...]:
    """Attainer records in certificate order, whatever the corpus order."""
    return tuple(sorted(map(_attainer, graphs), key=lambda a: a["certificate"]))


def count_stream(graphs: list[Graph], workers: int = 1) -> list[int]:
    """Oracle counts for a list of graphs, in input order.

    This is the cross-check's oracle pass in :func:`_checked_counts`,
    which runs it serially.  The process pool behind ``workers`` is kept
    only for ``perfbench/pool.py``, which times it against the serial run.
    """
    if workers <= 1:
        return [oracle_count(g).total for g in graphs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_total, graphs, chunksize=32))


def _total(g: Graph) -> int:
    return oracle_count(g).total


def _checked_counts(n: int, cap: int | None) -> tuple[int, dict[int, list[Graph]]]:
    """The number of classes in the guarded corpus, and the classes at
    each count a verdict reads, as ``Graph``s the oracle has recounted.

    The generator guards the corpus on every route.  Up to
    ``LABELLED_GUARD_N`` each graph is counted by the block pass
    (``smart_count``), the oracle recounts every class, and every count
    is kept.  Above that the corpus is ``generate_counted_keys``: each
    class is counted from its attachment key and its core's
    through-counts, and the sweep keeps the keys of the least count and
    of the two largest seen so far, the only ones a verdict of the
    minimum or maximum sweep reads; a graph is built only for a kept
    key.  A disagreement with the oracle is a contract violation naming
    the class.
    """
    if n <= LABELLED_GUARD_N:
        # enumerate_bicyclic, not the stream, only because
        # perfbench/selftest.py reads enumeration.classes from its trace.
        graphs = enumerate_bicyclic(n, cap)
        classes = len(graphs)
        counted = [(g, smart_count(g).total) for g in graphs]
    else:
        kept: dict[int, list] = {}
        classes = 0
        for key, count in generate_counted_keys(n, cap):
            classes += 1
            kept.setdefault(count, []).append(key)
            if len(kept) > 3:
                # A count between the least and the two largest is never read.
                del kept[sorted(kept)[1]]
        counted = [(graph_from_key(k), count) for count, keys in kept.items() for k in keys]
    groups: dict[int, list[Graph]] = {}
    for (g, count), truth in zip(counted, count_stream([g for g, _ in counted])):
        if count != truth:
            raise ContractViolationError(
                f"the sweep counts {count} and oracle {truth} on {to_graph6(g)} at n={n}"
            )
        groups.setdefault(count, []).append(g)
    return classes, groups


def verify_minimum(n: int, cap: int | None = None) -> VerificationReport:
    """Smallest count over all n-vertex bicyclic graphs and its attainers.

    Counts come from :func:`_checked_counts`: the block pass or the
    keyed count, with the oracle recounting every attainer.
    """
    if n < 5:
        raise ContractViolationError("the minimum sweep starts at n = 5")
    classes, groups = _checked_counts(n, cap)
    lo = min(groups)
    attainers = _attainers(groups[lo])
    expected_min = closed_form(FamilySpec("L", (n,)))
    # str() so that an unnamed attainer (family None) sorts and fails.
    families = sorted(str(a["family"]) for a in attainers)
    expected_families = ["A5", "L5"] if n == 5 else [f"L{n}"]
    status = PASS if lo == expected_min and families == expected_families else FAIL
    return VerificationReport(
        claim="minimum",
        n_lo=n,
        n_hi=n,
        expected={
            "min": expected_min,
            "min_formula": "(n+6)(n-1)/2",
            "minimisers": "{L5, A5}" if n == 5 else f"L{n} (unique)",
        },
        observed={"min": lo, "minimiser_count": len(attainers), "classes": classes},
        attainers=attainers,
        status=status,
    )


def verify_maximum(n: int, cap: int | None = None) -> VerificationReport:
    """Largest and second-largest counts over n-vertex bicyclic graphs.

    Asserted for n >= 8: B_n is the unique maximiser and R_n the unique
    runner-up, at the closed-form values.  For 5 <= n < 8 the sweep
    reports what it sees without judging it (the extremal statement is
    scoped to n >= 8).  Counts come from :func:`_checked_counts`: the
    block pass or the keyed count, with the oracle recounting every
    maximiser and runner-up.
    """
    if n < 5:
        raise ContractViolationError("the maximum sweep starts at n = 5")
    classes, groups = _checked_counts(n, cap)
    hi = max(groups)
    attainers = _attainers(groups[hi])
    second = max((c for c in groups if c != hi), default=0)
    runners_up = groups.get(second, [])
    if n < 8:
        expected: dict[str, object] = {"scope": "informational below n = 8"}
        status = INFORMATIONAL
        notes: tuple[str, ...] = ("the extremal statement applies from n = 8 on",)
    else:
        expected = {
            "max": closed_form(FamilySpec("B", (n,))),
            "max_formula": "n+2+2^(n-1)",
            "maximiser": f"B{n} (unique)",
            "runner_up_bound": closed_form(FamilySpec("R", (n,))),
            "runner_up_formula": "n+1+2^(n-1)",
        }
        holds = (
            hi == expected["max"]
            and [a["family"] for a in attainers] == [f"B{n}"]
            and second == expected["runner_up_bound"]
            and [annotate_family(g) for g in runners_up] == [f"R{n}"]
        )
        status = PASS if holds else FAIL
        notes = ()
    return VerificationReport(
        claim="maximum",
        n_lo=n,
        n_hi=n,
        expected=expected,
        observed={
            "max": hi,
            "maximiser_count": len(attainers),
            "second_max": second,
            "second_attainers": len(runners_up),
            "classes": classes,
        },
        attainers=attainers,
        status=status,
        notes=notes,
    )


def verify_vertex_bound(n: int, cap: int | None = None) -> VerificationReport:
    """Every vertex of every n-vertex bicyclic graph lies in at least
    n + 3 connected sets.  The classes are streamed from the generator
    and only the equality cases kept, recorded in certificate order."""
    bound = n + 3
    worst = math.inf
    classes = 0
    equality: list[tuple[Graph, int]] = []
    for g in generate_bicyclic(n, cap):
        classes += 1
        for v in range(g.n):
            value = oracle_count_rooted(g, v).value
            worst = min(worst, value)
            if value == bound:
                equality.append((g, v))
    status = PASS if worst >= bound else FAIL
    equality.sort(key=lambda case: (canonical_certificate(case[0]), case[1]))
    notes = tuple(
        f"equality at vertex {v} of {to_graph6(g)} (degree {g.degree(v)})"
        for g, v in equality
    )
    return VerificationReport(
        claim="vertex_bound",
        n_lo=n,
        n_hi=n,
        expected={"lower_bound": bound, "bound_formula": "n+3"},
        observed={
            "min_rooted": worst,
            "equality_cases": len(equality),
            "classes": classes,
        },
        attainers=tuple(_attainer(g) for g, _ in equality),
        status=status,
        notes=notes,
    )


# The three pendant-free shapes just above the smallest cases, with their
# reference counts; the named theta graphs are rows of ``families._NAMED``.
_SMALL_SHAPE_ROWS = (
    (FamilySpec("typeII", (3, 4)), 37),
    (FamilySpec("dumbbell", (3, 3, 2)), 30),
    (FamilySpec("typeII", (4, 4)), 61),
)


def verify_closed_forms(max_n: int = 16, cap: int | None = None) -> VerificationReport:
    """Closed forms equal the oracle for every family instance up to
    ``max_n``; the small reference tables match exactly.  ``cap`` is the
    oracle's vertex cap."""
    failures: list[str] = []
    checked = 0
    for kind, row in KINDS.items():
        if row.count is None:
            continue
        for m in range(row.lows[0], max_n + 1):
            spec = FamilySpec(kind, (m,))
            formula = closed_form(spec)
            actual = oracle_count(build(spec), cap).total
            checked += 1
            if formula != actual:
                failures.append(f"{spec}: formula {formula} != oracle {actual}")
    for spec, reference in _SMALL_SHAPE_ROWS:
        actual = oracle_count(build(spec), cap).total
        checked += 1
        if actual != reference:
            failures.append(f"{spec}: oracle {actual} != reference {reference}")
    for name, (reference_total, rooted_bound) in e_graph_reference():
        g = build(FamilySpec(name))
        actual = oracle_count(g, cap).total
        rooted_max = max(oracle_count_rooted(g, v, cap).value for v in range(g.n))
        checked += 1
        if actual != reference_total or rooted_max > rooted_bound:
            failures.append(
                f"{name}: oracle {actual} (reference {reference_total}), "
                f"max rooted {rooted_max} (bound {rooted_bound})"
            )
    return VerificationReport(
        claim="closed_forms",
        n_lo=1,
        n_hi=max_n,
        expected={"mismatches": 0},
        observed={"mismatches": len(failures), "instances": checked},
        attainers=(),
        status=PASS if not failures else FAIL,
        notes=tuple(failures),
    )


def _random_connected(rng: random.Random, n: int) -> Graph:
    """Random connected graph: a random spanning tree plus random extras."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges
    ]
    extra = rng.randint(0, len(pool))
    edges.update(rng.sample(pool, extra))
    return Graph.from_edges(n, sorted(edges))


def verify_lemma_algebra(
    trials: int,
    seed: int,
    pendant_trials: int | None = None,
    branch_trials: int | None = None,
) -> VerificationReport:
    """Seeded random validation of the three counting identities.

    Identification and pendant extension must match the oracle exactly in
    every trial; branch-shift deltas must equal the oracle differences and
    at least one direction must be strictly positive.  Any counterexample
    is reported as graph6.
    """
    if trials < 1:
        raise ContractViolationError("at least one trial is required")
    pendant_trials = trials if pendant_trials is None else pendant_trials
    branch_trials = trials if branch_trials is None else branch_trials
    rng = random.Random(seed)
    failures: list[str] = []

    for _ in range(trials):
        h1 = _random_connected(rng, rng.randint(1, 6))
        h2 = _random_connected(rng, rng.randint(1, 6))
        u1 = rng.randrange(h1.n)
        u2 = rng.randrange(h2.n)
        merged = glue_at(h1, u1, h2, u2)
        predicted_total, predicted_rooted = combine_identified(
            oracle_count(h1).total,
            oracle_count_rooted(h1, u1).value,
            oracle_count(h2).total,
            oracle_count_rooted(h2, u2).value,
        )
        if predicted_total != oracle_count(merged).total or (
            predicted_rooted != oracle_count_rooted(merged, u1).value
        ):
            failures.append(f"identify: {to_graph6(h1)} + {to_graph6(h2)} at ({u1},{u2})")

    for _ in range(pendant_trials):
        h = _random_connected(rng, rng.randint(1, 8))
        at = rng.randrange(h.n)
        grown = Graph.from_edges(h.n + 1, h.edges() + [(at, h.n)])
        predicted = extend_pendant(
            oracle_count(h).total, oracle_count_rooted(h, at).value
        )
        if predicted != oracle_count(grown).total:
            failures.append(f"pendant: {to_graph6(h)} at {at}")

    for _ in range(branch_trials):
        left = _random_connected(rng, rng.randint(2, 4))
        middle = _random_connected(rng, rng.randint(2, 4))
        right = _random_connected(rng, rng.randint(2, 4))
        u = rng.randrange(middle.n)
        v = rng.choice([x for x in range(middle.n) if x != u])
        shift = branch_shift(
            left, rng.randrange(left.n), middle, u, v, right, rng.randrange(right.n)
        )
        base = oracle_count(shift.glued_apart).total
        ok = (
            shift.delta_left == oracle_count(shift.glued_left).total - base
            and shift.delta_right == oracle_count(shift.glued_right).total - base
            and max(shift.delta_left, shift.delta_right) > 0
        )
        if not ok:
            failures.append(
                f"branch: L={to_graph6(left)} M={to_graph6(middle)} "
                f"R={to_graph6(right)} u={u} v={v}"
            )

    return VerificationReport(
        claim="lemma_algebra",
        n_lo=1,
        n_hi=12,
        expected={"failures": 0},
        observed={
            "failures": len(failures),
            "identify_trials": trials,
            "pendant_trials": pendant_trials,
            "branch_trials": branch_trials,
            "seed": seed,
        },
        attainers=(),
        status=PASS if not failures else FAIL,
        notes=tuple(failures),
    )


def verify_tree_bound(max_n: int = 9, cap: int | None = None) -> VerificationReport:
    """Rooted counts of trees never exceed 2^(n-1); equality exactly at
    star centres.  ``cap`` is the tree enumeration's size cap."""
    failures: list[str] = []
    swept = 0
    for n in range(1, max_n + 1):
        bound = 1 << (n - 1)
        for t in enumerate_trees(n, cap):
            degrees = t.degrees()
            for v in range(n):
                value = tree_rooted_count(t, v).value
                swept += 1
                is_star_center = n <= 2 or degrees[v] == n - 1
                if value > bound:
                    failures.append(f"{to_graph6(t)} at {v}: {value} > {bound}")
                elif (value == bound) != is_star_center:
                    failures.append(
                        f"{to_graph6(t)} at {v}: equality pattern wrong "
                        f"(value {value}, bound {bound})"
                    )
    return VerificationReport(
        claim="tree_bound",
        n_lo=1,
        n_hi=max_n,
        expected={"failures": 0, "bound_formula": "2^(n-1)"},
        observed={"failures": len(failures), "pairs_swept": swept},
        attainers=(),
        status=PASS if not failures else FAIL,
        notes=tuple(failures),
    )
