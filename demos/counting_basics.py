"""A tour of exact connected-set counting on small graphs.

A connected set is a nonempty subset of vertices whose induced subgraph
is connected.  This walk-through builds a few graphs by hand, counts
their connected sets with the brute-force oracle, and demonstrates the
identities that make larger computations cheap.

Run:  python demos/counting_basics.py
"""

from connsets import (
    Graph,
    combine_identified,
    delete_vertices,
    extend_pendant,
    oracle_count,
    oracle_count_pair,
    oracle_count_rooted,
    smart_count,
    to_graph6,
)

print("=" * 64)
print("Counting connected sets")
print("=" * 64)

# A path on four vertices: 0 - 1 - 2 - 3.
path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], label="P4")
print(f"\n{path4.label} ({to_graph6(path4)}):")
print("  N =", oracle_count(path4).total, " (paths on n vertices give n(n+1)/2)")

# A five-cycle.
cycle5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)], label="C5")
print(f"\n{cycle5.label} ({to_graph6(cycle5)}):")
print("  N =", oracle_count(cycle5).total, " (cycles give n^2 - n + 1)")

# Rooted counts: how many connected sets pass through a vertex?
print("\nRooted counts in C4: every vertex lies in",
      oracle_count_rooted(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 0).value,
      "connected sets")

star5 = Graph.from_edges(5, [(0, i) for i in range(1, 5)], label="S5")
print("At the centre of S5:", oracle_count_rooted(star5, 0).value,
      "= 2^(n-1), the largest possible in any tree")

# Pair counts: connected sets through two designated vertices.
print("Through both endpoints of P4:", oracle_count_pair(path4, 0, 3))

print("\n" + "=" * 64)
print("The deletion identity: N(G) = N(G - v) + N(G)_v")
print("=" * 64)
g = cycle5
for v in (0, 2):
    rest, _ = delete_vertices(g, 1 << v)
    lhs = oracle_count(g).total
    rhs = oracle_count(rest).total + oracle_count_rooted(g, v).value
    print(f"  v={v}: {lhs} = {oracle_count(rest).total} + "
          f"{oracle_count_rooted(g, v).value}  ->  {lhs == rhs}")

print("\n" + "=" * 64)
print("Gluing two graphs at a shared vertex")
print("=" * 64)
# If H is two graphs identified at one vertex, the merged counts follow
# from the parts:  N = N1 + N2 - 1 + (N1_u - 1)(N2_u - 1), rooted N1_u*N2_u.
triangle_total = oracle_count(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])).total
triangle_rooted = 4
total, rooted = combine_identified(triangle_total, triangle_rooted,
                                   triangle_total, triangle_rooted)
print(f"Two triangles sharing a vertex (the bowtie): N = {total}, "
      f"rooted at the shared vertex = {rooted}")

# Attaching one pendant vertex needs only the host counts.
print("Triangle plus one pendant edge:",
      extend_pendant(triangle_total, triangle_rooted), "connected sets")

print("\n" + "=" * 64)
print("smart_count: cut-vertex decomposition")
print("=" * 64)
# A 16-vertex graph splits at cut vertices into two triangles and tree
# edges.  smart_count makes one leaves-first pass over these blocks: each
# cut vertex carries the count of the sets hanging below it, and each
# bridge or triangle is summed once along its arc with those weights.
big = Graph.from_edges(
    16,
    [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
    + [(0, i) for i in range(5, 10)]
    + [(9, i) for i in range(10, 16)],
)
total = smart_count(big).total
print(f"16-vertex graph: N = {total}")
print("brute force agrees:", oracle_count(big).total == total)
