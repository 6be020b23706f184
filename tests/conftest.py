"""Shared builders, the independent counting oracle, and two patches that
break the bicyclic generator, for the tests.

``naive_count`` deliberately avoids the package's bitmask machinery: it
walks subsets with itertools and checks connectivity with a dictionary
BFS, so it is a genuinely independent reference for the counting paths.
"""

from __future__ import annotations

import itertools
import random

from connsets import Graph, is_connected


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def drop_last_core(monkeypatch) -> None:
    """Make the generator skip its last core shape at every order."""
    from connsets import enumeration

    real = enumeration._core_specs
    monkeypatch.setattr(enumeration, "_core_specs", lambda n: list(real(n))[:-1])


def repeat_one_key(monkeypatch) -> list:
    """Make the generator yield, in the first core with two keys, the first
    key twice in place of the second; the returned list then holds it."""
    from connsets import enumeration

    real = enumeration._with_attachments
    repeated: list = []

    def one_key_twice(core, extra, automorphisms):
        keys = list(real(core, extra, automorphisms))
        if len(keys) > 1 and not repeated:
            keys[1] = keys[0]
            repeated.append(keys[0])
        return keys

    monkeypatch.setattr(enumeration, "_with_attachments", one_key_twice)
    return repeated


def naive_adjacency(g: Graph) -> dict[int, list[int]]:
    return {v: [u for u in range(g.n) if g.has_edge(v, u)] for v in range(g.n)}


def naive_connected(adjacency: dict[int, list[int]], subset) -> bool:
    """Whether the nonempty ``subset`` induces a connected subgraph."""
    members = set(subset)
    start = next(iter(members))
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for u in adjacency[v]:
            if u in members and u not in seen:
                seen.add(u)
                todo.append(u)
    return seen == members


def naive_count(g: Graph) -> int:
    adjacency = naive_adjacency(g)
    return sum(
        1
        for r in range(1, g.n + 1)
        for subset in itertools.combinations(range(g.n), r)
        if naive_connected(adjacency, subset)
    )


def naive_count_containing(g: Graph, required: tuple[int, ...]) -> int:
    adjacency = naive_adjacency(g)
    need = set(required)
    rest = [v for v in range(g.n) if v not in need]
    total = 0
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            if naive_connected(adjacency, need | set(extra)):
                total += 1
    return total


def random_graph(rng: random.Random, n: int, connected: bool = False) -> Graph:
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        g = Graph.from_edges(n, edges)
        if not connected or is_connected(g):
            return g
