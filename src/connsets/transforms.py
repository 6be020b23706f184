"""Count-monotone graph surgeries.

Each surgery rewires a designated site of a bicyclic graph while keeping
both the vertex and the edge count, so membership in the bicyclic family
is preserved.  Surgery sites are supplied explicitly by the caller: the
verification harness has no surgery sweep, and the only site discovery
is in the test suite (``tests/test_transforms.py``).  Where an exact count
delta is available in closed form (the branch shift), it is computed from
rooted counts of the parts, taken by the block pass, and is exact; the
other surgeries carry a proven direction only, which the test suite
checks against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .canon import canonical_certificate
from .counting import smart_count_pair, smart_count_rooted
from .enumeration import extract_core, pendant_free_core
from .errors import ContractViolationError
from .families import E_NAMES, KINDS, FamilySpec, build
from .graphs import Graph, bits, check_vertices, is_connected, pendant_vertices


@dataclass(frozen=True)
class TransformOutcome:
    """Result graph, the predicted count delta when the surgery has one
    (``None`` otherwise), and a description of the rewired site."""

    result: Graph
    predicted_delta: int | None
    applied: str
    family_name: str | None = None


def annotate_family(g: Graph) -> str | None:
    """Name of the named-family graph ``g`` matches, if any.

    A candidate whose sorted degree sequence differs from ``g``'s cannot
    match and is never canonicalised, nor is ``g`` until one candidate's
    sequence equals its own; certificate equality decides the rest.
    """
    cert = None
    degrees = sorted(g.degrees())
    candidates = [
        FamilySpec(kind, (g.n,))
        for kind in ("L", "A", "B", "R")
        if g.n >= KINDS[kind].lows[0]
    ]
    candidates.extend(FamilySpec(name) for name in E_NAMES)
    for spec in candidates:
        built = build(spec)
        if sorted(built.degrees()) != degrees:
            continue
        cert = cert or canonical_certificate(g)
        if canonical_certificate(built) == cert:
            if spec.kind in E_NAMES:
                return spec.kind
            return f"{spec.kind}{spec.params[0]}"
    return None


def _check_hanging_cycle(g: Graph, cycle: int, anchor: int, min_size: int) -> int:
    """Validate that ``cycle`` induces a chordless cycle meeting the rest
    of the graph only at ``anchor``; returns its length."""
    check_vertices(g, (anchor, *bits(cycle & ~g.vertex_mask)))
    q = cycle.bit_count()
    if not cycle >> anchor & 1:
        raise ContractViolationError("anchor must lie on the designated cycle")
    if q < min_size:
        raise ContractViolationError(f"cycle must have at least {min_size} vertices, got {q}")
    for v in bits(cycle):
        if (g.adj[v] & cycle).bit_count() != 2:
            raise ContractViolationError(
                "designated vertices do not induce a chordless cycle"
            )
        if v != anchor and g.adj[v] & ~cycle:
            raise ContractViolationError(
                f"cycle vertex {v} has neighbours outside the cycle; "
                "the cycle may meet the rest of the graph only at the anchor"
            )
    return q


def cycle_to_tadpole(g: Graph, cycle_vertices: int, anchor: int) -> TransformOutcome:
    """Replace a hanging cycle by the same-order triangle-with-tail,
    identified at its pendant end.

    Requires the cycle (length >= 4) to touch the rest of the graph only
    at ``anchor``.  Strictly decreases the count; no closed-form delta.
    """
    q = _check_hanging_cycle(g, cycle_vertices, anchor, 4)
    others = [v for v in bits(cycle_vertices) if v != anchor]
    edges = [
        (u, v)
        for u, v in g.edges()
        if not (cycle_vertices >> u & 1 and cycle_vertices >> v & 1)
    ]
    chain = [anchor] + others[: q - 3]
    edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    tri = others[q - 4 :]
    edges.extend([(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])])
    result = Graph.from_edges(g.n, edges)
    return TransformOutcome(
        result,
        None,
        f"replaced the {q}-cycle at vertex {anchor} by a tailed triangle",
        annotate_family(result),
    )


def subtree_to_star(g: Graph, attachment_root: int) -> TransformOutcome:
    """Replace the tree hanging at a core vertex by a star of equal order
    centred there.

    Works on any connected graph with a cycle (the pendant-free core
    exists).  Never decreases the count; equality exactly when the tree
    already is such a star.
    """
    _, attachments = pendant_free_core(g)
    if attachment_root not in attachments:
        raise ContractViolationError(
            f"vertex {attachment_root} is not a core vertex of the input"
        )
    tree_edges = attachments[attachment_root]
    if not tree_edges:
        raise ContractViolationError(
            f"core vertex {attachment_root} has no attached tree to reshape"
        )
    hanging = sorted({v for e in tree_edges for v in e} - {attachment_root})
    drop = set(map(tuple, (sorted(e) for e in tree_edges)))
    edges = [e for e in g.edges() if e not in drop]
    edges.extend((attachment_root, v) for v in hanging)
    result = Graph.from_edges(g.n, edges)
    return TransformOutcome(
        result,
        None,
        f"restructured the {len(hanging)}-vertex tree at vertex "
        f"{attachment_root} into a star",
        annotate_family(result),
    )


def part_to_q(g: Graph, keep_cycle: int, anchor: int) -> TransformOutcome:
    """Replace everything outside the kept cycle by a star-plus-edge of
    the same order whose universal vertex sits at ``anchor``.

    The input must be pendant-free with a hanging cycle (the shapes with
    two cycles meeting in at most one vertex); the replaced part needs at
    least five vertices.
    """
    kind, _ = extract_core(g)
    if pendant_vertices(g):
        raise ContractViolationError("input must be pendant-free")
    if kind not in ("I", "II"):
        raise ContractViolationError(
            "the surgery applies to cores with two cycles meeting in at "
            "most one vertex"
        )
    _check_hanging_cycle(g, keep_cycle, anchor, 3)
    part = g.vertex_mask & ~keep_cycle | 1 << anchor
    m = part.bit_count()
    if m < 5:
        raise ContractViolationError(
            f"the replaced part must have at least 5 vertices, got {m}"
        )
    hanging = sorted(bits(part & ~(1 << anchor)))
    edges = [
        (u, v)
        for u, v in g.edges()
        if keep_cycle >> u & 1 and keep_cycle >> v & 1
    ]
    edges.extend((anchor, v) for v in hanging)
    edges.append((hanging[0], hanging[1]))
    result = Graph.from_edges(g.n, edges)
    return TransformOutcome(
        result,
        None,
        f"replaced the {m}-vertex part at vertex {anchor} by a star plus edge",
        annotate_family(result),
    )


class BranchShift(NamedTuple):
    """The three gluings of a branch shift and the exact count deltas."""

    glued_apart: Graph
    glued_left: Graph
    glued_right: Graph
    delta_left: int
    delta_right: int


def glue_at(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Disjoint union with ``v2`` of ``g2`` identified with ``v1`` of ``g1``.

    Vertex ids of ``g1`` are preserved; the remaining vertices of ``g2``
    follow in order.
    """
    edges = list(g1.edges())
    offset = g1.n

    def remap(v: int) -> int:
        if v == v2:
            return v1
        return offset + v - (1 if v > v2 else 0)

    edges.extend((remap(u), remap(v)) for u, v in g2.edges())
    return Graph.from_edges(g1.n + g2.n - 1, edges)


def branch_shift(
    left: Graph,
    l: int,
    middle: Graph,
    u: int,
    v: int,
    right: Graph,
    r: int,
) -> BranchShift:
    """Glue three graphs in the three canonical ways and compute the
    exact deltas of moving both side graphs onto one attachment vertex.

    ``glued_apart`` has the side graphs at u and v; ``glued_left`` stacks
    both at u, ``glued_right`` both at v.  The deltas come from the
    rooted-count product formula, with rooted and pair counts from the
    block pass, and satisfy, for non-trivial connected parts,
    ``max(delta_left, delta_right) > 0``.
    """
    for name, part in (("left", left), ("middle", middle), ("right", right)):
        if part.n < 2:
            raise ContractViolationError(f"{name} part must have at least 2 vertices")
        if not is_connected(part):
            raise ContractViolationError(f"{name} part must be connected")
    if u == v:
        raise ContractViolationError("attachment vertices in the middle must differ")
    for name, g, w in (("left", left, l), ("middle", middle, u), ("middle", middle, v), ("right", right, r)):
        if not 0 <= w < g.n:
            raise ContractViolationError(f"vertex {w} out of range in the {name} part")

    glued_apart = glue_at(glue_at(middle, u, left, l), v, right, r)
    glued_left = glue_at(glue_at(middle, u, left, l), u, right, r)
    glued_right = glue_at(glue_at(middle, v, left, l), v, right, r)

    n_l = smart_count_rooted(left, l).value
    n_r = smart_count_rooted(right, r).value
    # Sets of the middle through one attachment vertex and not the other.
    both = smart_count_pair(middle, u, v)
    m_minus_v_at_u = smart_count_rooted(middle, u).value - both
    m_minus_u_at_v = smart_count_rooted(middle, v).value - both

    delta_left = (n_r - 1) * (n_l * m_minus_v_at_u - m_minus_u_at_v)
    delta_right = (n_l - 1) * (n_r * m_minus_u_at_v - m_minus_v_at_u)
    return BranchShift(glued_apart, glued_left, glued_right, delta_left, delta_right)
