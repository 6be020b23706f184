"""Constructors and closed-form counts for the named graph families.

Families are described by a :class:`FamilySpec` (a kind plus integer
parameters) with a compact text syntax for the command line, e.g.
``"L:9"``, ``"dumbbell:3,4,2"``, ``"theta:2,3,4"``.  Each parametrised
kind is one row of :data:`KINDS`: its parameter names with their smallest
values, its builder and, where one exists, its closed-form count.  The
row is all that validation, :func:`build` and :func:`closed_form` read;
only theta's ordering ``a <= b <= c`` is checked outside it.  The named
small theta graphs (``A4``, ``E51``, ... ``E8``) take no parameters; each
is one row of ``_NAMED``, a frozen edge list with its reference counts.

Construction uses a fixed vertex numbering per family (hubs first, then
cycle and path interiors in order) so that builds are byte-for-byte
reproducible in graph6 output.

Conventions that pin down the ambiguous corners:

* ``dumbbell(p, q, r)`` joins cycles of p and q vertices through a path
  on r vertices whose endpoints are identified with one vertex of each
  cycle, giving ``p + q + r - 2`` vertices in total.  ``r = 1`` means both
  identifications hit the same vertex, i.e. the two cycles share it.
* ``theta(a, b, c)`` joins two hub vertices by three internally disjoint
  paths of a, b, c vertices counted including both hubs; ``a = 2`` is a
  direct hub-hub edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ContractViolationError, FormatError
from .graphs import MAX_VERTICES, Graph

Edges = list[tuple[int, int]]


# ---------------------------------------------------------------------------
# Constructors: parameters -> (vertex count, edge list)


def _chain(vertices: list[int]) -> Edges:
    """Edges of the path visiting ``vertices`` in order."""
    return list(zip(vertices, vertices[1:]))


def _cycle_through(hub: int, first: int, size: int) -> Edges:
    """Edges of a ``size``-cycle through ``hub`` and the vertices
    ``first, first + 1, ...``."""
    return _chain([hub, *range(first, first + size - 1), hub])


def _path(n: int) -> tuple[int, Edges]:
    return n, _chain(list(range(n)))


def _cycle(n: int) -> tuple[int, Edges]:
    return n, _cycle_through(0, 1, n)


def _star(n: int) -> tuple[int, Edges]:
    return n, [(0, i) for i in range(1, n)]


def _tadpole(m: int) -> tuple[int, Edges]:
    # Triangle 0-1-2, path hanging off vertex 0; pendant end is m-1.
    return m, [(0, 1), (0, 2), (1, 2)] + _chain([0, *range(3, m)])


def _dumbbell(p: int, q: int, r: int) -> tuple[int, Edges]:
    # Hubs 0 and 1 (a single hub 0 when r = 1), then the interiors of the
    # p-cycle, the q-cycle and the joining path, in that order.
    b = 0 if r == 1 else 1
    first_q = b + p
    first_path = first_q + q - 1
    edges = _cycle_through(0, b + 1, p) + _cycle_through(b, first_q, q)
    if r > 1:
        edges += _chain([0, *range(first_path, first_path + r - 2), 1])
    return p + q + r - 2, edges


def _theta(a: int, b: int, c: int) -> tuple[int, Edges]:
    # Hubs 0 and 1, then the interiors of the three paths in order.
    edges: Edges = []
    first = 2
    for length in (a, b, c):
        edges += _chain([0, *range(first, first + length - 2), 1])
        first += length - 2
    return a + b + c - 4, edges


# theta(2,3,3) on 0..3: hubs 0 and 1 adjacent, 2 and 3 of degree two.
_THETA_233 = [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]


def _l_family(n: int) -> tuple[int, Edges]:
    # Two triangles joined by a path on n-4 vertices.
    return _dumbbell(3, 3, n - 4)


def _a_family(n: int) -> tuple[int, Edges]:
    # theta(2,3,3) with a path appended at the degree-two vertex 2.
    return n, _THETA_233 + _chain([2, *range(4, n)])


def _b_family(n: int) -> tuple[int, Edges]:
    # theta(2,3,3) with n-4 pendant edges at the degree-three hub 0.
    return n, _THETA_233 + [(0, i) for i in range(4, n)]


def _r_family(n: int) -> tuple[int, Edges]:
    # Two triangles sharing vertex 0, plus n-5 pendant edges at 0.
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
    return n, edges + [(0, i) for i in range(5, n)]


def _q_family(n: int) -> tuple[int, Edges]:
    # Star with centre 0 plus one edge between the leaves 1 and 2.
    return n, [(0, i) for i in range(1, n)] + [(1, 2)]


class Kind(NamedTuple):
    """One parametrised family kind."""

    params: tuple[str, ...]  # parameter names, in spec order
    lows: tuple[int, ...]  # smallest value of each parameter
    build: Callable[..., tuple[int, Edges]]
    count: Callable[..., int] | None = None  # closed form (one-parameter kinds)


KINDS: dict[str, Kind] = {
    "path": Kind(("n",), (1,), _path, lambda n: n * (n + 1) // 2),
    "cycle": Kind(("n",), (3,), _cycle, lambda n: n * n - n + 1),
    "star": Kind(("n",), (1,), _star, lambda n: (1 << (n - 1)) + n - 1),
    "tadpole": Kind(("m",), (4,), _tadpole, lambda m: (m - 1) * (m + 4) // 2),
    "dumbbell": Kind(("p", "q", "r"), (3, 3, 1), _dumbbell),
    "typeII": Kind(("p", "q"), (3, 3), lambda p, q: _dumbbell(p, q, 1)),
    "theta": Kind(("a", "b", "c"), (2, 3, 3), _theta),
    "L": Kind(("n",), (5,), _l_family, lambda n: (n + 6) * (n - 1) // 2),
    "A": Kind(("n",), (4,), _a_family, lambda n: (n * n + 7 * n - 16) // 2),
    "B": Kind(("n",), (5,), _b_family, lambda n: n + 2 + (1 << (n - 1))),
    "R": Kind(("n",), (6,), _r_family, lambda n: n + 1 + (1 << (n - 1))),
    "Q": Kind(("n",), (3,), _q_family),
}


class Named(NamedTuple):
    """One named small theta graph, in the order of :func:`e_graph_reference`."""

    theta: tuple[int, int, int]  # the theta parameters it realises
    total: int  # reference count of connected sets
    rooted_bound: int  # reference bound on the rooted count at any vertex
    edges: Edges  # kept apart from ``_theta``, so matching the theta is a real check


_NAMED: dict[str, Named] = {
    "A4": Named((2, 3, 3), 14, 8, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    "E52": Named((3, 3, 3), 26, 15, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)]),
    "E51": Named((2, 3, 4), 24, 14, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]),
    "E62": Named((3, 3, 4), 42, 25, [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (3, 5)]),
    "E61": Named((2, 4, 4), 40, 25, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 5), (4, 5), (0, 3)]),
    "E7": Named(
        (3, 4, 4), 66, 41, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 5), (4, 5), (0, 6), (6, 3)]
    ),
    "E8": Named(
        (4, 4, 4), 100, 64, [(0, 1), (0, 4), (0, 6), (1, 2), (2, 3), (3, 5), (3, 7), (4, 5), (6, 7)]
    ),
}

E_NAMES = tuple(_NAMED)
E_THETA = {name: row.theta for name, row in _NAMED.items()}

# Spec names accepted case-insensitively, with their short forms.
_ALIASES = {kind.lower(): kind for kind in KINDS} | {
    "p": "path",
    "c": "cycle",
    "s": "star",
    "d": "tadpole",
    "type2": "typeII",
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ContractViolationError(message)


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic description of a named family instance."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind in E_NAMES:
            _require(not self.params, f"{self.kind} takes no parameters")
            return
        if self.kind not in KINDS:
            raise ContractViolationError(f"unknown family kind {self.kind!r}")
        row = KINDS[self.kind]
        _require(
            len(self.params) == len(row.params),
            f"{self.kind} takes {len(row.params)} parameter(s), got {len(self.params)}",
        )
        if self.kind == "theta":
            a, b, c = self.params
            _require(2 <= a <= b <= c, f"theta needs 2 <= a <= b <= c, got {self.params}")
        for name, low, value in zip(row.params, row.lows, self.params):
            _require(value >= low, f"{self.kind} needs {name} >= {low}, got {name}={value}")
            # No parameter exceeds its graph's order: refused before any edge.
            _require(
                value <= MAX_VERTICES,
                f"{self.kind} needs {name} in {low}..{MAX_VERTICES}, got {name}={value}",
            )

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the text syntax ``kind:param,param,...``.

    Errors name the offending token so the CLI can surface them as-is.
    """
    body = text.strip()
    if not body:
        raise FormatError("empty family spec")
    name, sep, rest = body.partition(":")
    name = name.strip()
    key = name.lower()
    if name in E_NAMES or name.upper() in E_NAMES:
        if sep:
            raise FormatError(f"family {name.upper()!r} takes no parameters")
        return FamilySpec(name.upper())
    if key not in _ALIASES:
        raise FormatError(f"unknown family name {name!r}")
    kind = _ALIASES[key]
    if not sep:
        raise FormatError(f"family {name!r} requires parameters, e.g. {name}:5")
    params = []
    for tok in rest.split(","):
        tok = tok.strip()
        try:
            params.append(int(tok))
        except ValueError:
            raise FormatError(f"bad parameter {tok!r} in family spec {text!r}") from None
    return FamilySpec(kind, tuple(params))


def build(spec: FamilySpec) -> Graph:
    """Construct the concrete graph of a family instance."""
    if spec.kind in E_NAMES:
        row = _NAMED[spec.kind]
        n, edges = sum(row.theta) - 4, row.edges
    else:
        n, edges = KINDS[spec.kind].build(*spec.params)
    return Graph.from_edges(n, edges)


def closed_form(spec: FamilySpec) -> int | None:
    """Closed-form count where one exists, else ``None``.

    Families without a general formula (dumbbell, typeII, theta, Q) are
    counted through the counting module instead.
    """
    if spec.kind in E_NAMES:
        return _NAMED[spec.kind].total
    count = KINDS[spec.kind].count
    return None if count is None else count(*spec.params)


def e_graph_reference() -> list[tuple[str, tuple[int, int]]]:
    """Reference totals and rooted-count bounds for the named theta graphs.

    Rows are ``(name, (total, max over v of the rooted count))``.
    """
    return [(name, (row.total, row.rooted_bound)) for name, row in _NAMED.items()]
