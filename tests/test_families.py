"""Family constructors, closed forms, and the spec text syntax."""

import hashlib
import itertools

import pytest

from connsets import (
    ContractViolationError,
    FormatError,
    Graph,
    is_isomorphic,
    oracle_count,
    oracle_count_rooted,
    pendant_vertices,
)
from connsets.families import (
    E_THETA,
    FamilySpec,
    build,
    closed_form,
    e_graph_reference,
    parse_family_spec,
)
from connsets.graphs import to_graph6


def test_vertex_and_edge_counts():
    assert build(FamilySpec("dumbbell", (3, 3, 2))).n == 6
    assert build(FamilySpec("dumbbell", (3, 3, 2))).edge_count == 7
    for p, q in ((3, 3), (3, 5), (4, 4)):
        g = build(FamilySpec("typeII", (p, q)))
        assert g.n == p + q - 1 and g.edge_count == g.n + 1
    for a, b, c in ((2, 3, 3), (2, 3, 4), (3, 4, 4), (4, 4, 4)):
        g = build(FamilySpec("theta", (a, b, c)))
        assert g.n == a + b + c - 4 and g.edge_count == g.n + 1
    for kind in ("A", "L", "B", "R", "Q"):
        n = 8
        g = build(FamilySpec(kind, (n,)))
        assert g.n == n
        if kind != "Q":
            assert g.edge_count == n + 1


def test_structural_identities():
    bowtie = build(FamilySpec("typeII", (3, 3)))
    assert is_isomorphic(build(FamilySpec("L", (5,))), bowtie)
    r6 = build(FamilySpec("R", (6,)))
    assert pendant_vertices(r6).bit_count() == 1
    bowtie_with_leaf = Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5)]
    )
    assert is_isomorphic(r6, bowtie_with_leaf)
    assert is_isomorphic(
        build(FamilySpec("theta", (2, 3, 3))),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    )
    # A Q graph is a star with one extra edge: one cycle, a triangle.
    q6 = build(FamilySpec("Q", (6,)))
    assert q6.edge_count == 6 and q6.degree(0) == 5


def test_parameter_bounds_are_enforced():
    bad = [
        ("cycle", (2,)),
        ("tadpole", (3,)),
        ("dumbbell", (2, 3, 1)),
        ("dumbbell", (3, 3, 0)),
        ("typeII", (2, 3)),
        ("theta", (3, 2, 4)),
        ("theta", (2, 2, 4)),
        ("A", (3,)),
        ("L", (4,)),
        ("B", (4,)),
        ("R", (5,)),
        ("Q", (2,)),
        ("path", (0,)),
    ]
    for kind, params in bad:
        with pytest.raises(ContractViolationError):
            FamilySpec(kind, params)
    with pytest.raises(ContractViolationError):
        FamilySpec("L", (5, 6))
    with pytest.raises(ContractViolationError):
        FamilySpec("nosuch", (1,))


def test_closed_forms_match_oracle():
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
            assert closed_form(spec) == oracle_count(build(spec)).total, spec


def test_closed_form_spot_values():
    assert closed_form(FamilySpec("L", (6,))) == 30
    assert closed_form(FamilySpec("A", (6,))) == 31
    assert closed_form(FamilySpec("R", (7,))) == 72
    assert closed_form(FamilySpec("B", (8,))) == 138
    assert closed_form(FamilySpec("R", (6,))) == 39
    assert closed_form(FamilySpec("L", (5,))) == 22
    assert closed_form(FamilySpec("A", (4,))) == 14
    assert closed_form(FamilySpec("L", (12,))) == (12 + 6) * (12 - 1) // 2 == 99


def test_no_formula_families():
    assert closed_form(FamilySpec("dumbbell", (3, 4, 2))) is None
    assert closed_form(FamilySpec("typeII", (3, 4))) is None
    assert closed_form(FamilySpec("theta", (3, 3, 4))) is None
    assert closed_form(FamilySpec("Q", (6,))) is None


def test_family_difference_identities():
    for n in range(6, 17):
        assert (
            closed_form(FamilySpec("B", (n,))) - closed_form(FamilySpec("R", (n,)))
            == 1
        )
    for n in range(5, 17):
        assert (
            closed_form(FamilySpec("A", (n,))) - closed_form(FamilySpec("L", (n,)))
            == n - 5
        )
    for n in range(6, 17):
        assert (
            closed_form(FamilySpec("cycle", (n,)))
            - closed_form(FamilySpec("L", (n,)))
            == (n * n - 7 * n + 8) // 2
        )
        assert closed_form(FamilySpec("cycle", (n,))) > closed_form(
            FamilySpec("L", (n,))
        )


def test_e_graph_reference_table():
    rows = e_graph_reference()
    assert rows[0] == ("A4", (14, 8))
    assert dict(rows)["E8"] == (100, 64)
    assert dict(rows)["E52"] == (26, 15)
    for name, (total, bound) in rows:
        g = build(FamilySpec(name))
        assert oracle_count(g).total == total
        assert max(oracle_count_rooted(g, v).value for v in range(g.n)) <= bound


def test_e_graphs_are_their_theta_shapes():
    for name, params in E_THETA.items():
        assert is_isomorphic(build(FamilySpec(name)), build(FamilySpec("theta", params)))
        assert build(FamilySpec(name)).n == sum(params) - 4


def test_parse_family_spec():
    assert parse_family_spec("L:9") == FamilySpec("L", (9,))
    assert parse_family_spec("dumbbell:3,4,2") == FamilySpec("dumbbell", (3, 4, 2))
    assert parse_family_spec("theta:2,3,4") == FamilySpec("theta", (2, 3, 4))
    assert parse_family_spec("E8") == FamilySpec("E8")
    assert parse_family_spec("e52") == FamilySpec("E52")
    assert parse_family_spec("p:7") == FamilySpec("path", (7,))
    assert parse_family_spec("TYPE2:3,3") == FamilySpec("typeII", (3, 3))
    assert str(parse_family_spec("dumbbell:3,4,2")) == "dumbbell:3,4,2"


def test_parse_errors_name_the_problem():
    with pytest.raises(FormatError, match="unknown family"):
        parse_family_spec("zigzag:3")
    with pytest.raises(FormatError, match="bad parameter"):
        parse_family_spec("L:verybig")
    with pytest.raises(FormatError, match="requires parameters"):
        parse_family_spec("L")
    with pytest.raises(FormatError):
        parse_family_spec("")
    with pytest.raises(ContractViolationError, match="needs n >= 5"):
        parse_family_spec("L:4")


def test_builds_are_reproducible_bytes():
    first = to_graph6(build(FamilySpec("L", (9,))))
    second = to_graph6(build(FamilySpec("L", (9,))))
    assert first == second == "HTPK?D@"


def _build_pin_lines():
    specs = [
        (kind, (n,))
        for kind in ("path", "cycle", "star", "tadpole", "A", "L", "B", "R", "Q")
        for n in range(30)
    ]
    specs += [
        (kind, params)
        for kind, arity in (("dumbbell", 3), ("typeII", 2), ("theta", 3))
        for params in itertools.product(range(9), repeat=arity)
    ]
    specs += [(name, ()) for name in ("A4", "E51", "E52", "E61", "E62", "E7", "E8")]
    for kind, params in specs:
        try:
            spec = FamilySpec(kind, params)
        except ContractViolationError:
            yield f"{kind}{params} rejected"
            continue
        yield f"{spec} {to_graph6(build(spec))} {closed_form(spec)}"


def test_family_builds_and_rejections_are_pinned():
    # Spec text, graph6 and closed form of every instance on a parameter
    # grid, plus the grid points the validation rejects.
    lines = list(_build_pin_lines())
    assert len(lines) == 1816
    assert sum(line.endswith(" rejected") for line in lines) == 1170
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a0b7274c034c191439f397090d24c89cd7c7bac5603d830ad00818797c7f028b"
