"""Count-monotone surgeries: pushing a bicyclic graph to the extremes.

Four rewiring operations preserve the vertex and edge counts while
moving the number of connected sets in a known direction:

  cycle_to_tadpole   hanging cycle -> tailed triangle     (count drops)
  subtree_to_star    hanging tree  -> star at its root    (count grows)
  part_to_q          all-but-one-cycle -> star plus edge  (count grows)
  branch_shift       move a side branch onto one vertex   (exact delta)

Chained in the right order they walk any bicyclic graph down to the
minimiser or up toward the maximiser, which is exactly how the extremal
structure results are proved.

Run:  python demos/surgery_walkthrough.py
"""

from connsets import (
    Graph,
    branch_shift,
    build,
    cycle_to_tadpole,
    mask_of,
    oracle_count,
    parse_family_spec,
    part_to_q,
    subtree_to_star,
    to_graph6,
)

def N(g):
    return oracle_count(g).total

print("=" * 72)
print("Downhill: two shared cycles -> two tailed triangles")
print("=" * 72)
# Start from two 4-cycles sharing vertex 0 (typeII:4,4, 7 vertices).
g = build(parse_family_spec("typeII:4,4"))
print(f"start   {to_graph6(g):<10} N={N(g)}")
# The second ring occupies vertices {0, 4, 5, 6}.
step1 = cycle_to_tadpole(g, mask_of([0, 4, 5, 6]), 0)
print(f"step 1  {to_graph6(step1.result):<10} N={N(step1.result)}  "
      f"({step1.applied})")
# Now the remaining 4-cycle {0,1,2,3} hangs at 0 as well.
step2 = cycle_to_tadpole(step1.result, mask_of([0, 1, 2, 3]), 0)
print(f"step 2  {to_graph6(step2.result):<10} N={N(step2.result)}  "
      f"annotated: {step2.family_name}")
print(f"floor   N(L7) = {N(build(parse_family_spec('L:7')))} "
      "(the provable minimum on 7 vertices)")

print()
print("=" * 72)
print("Uphill: grow a star, then swallow the far side")
print("=" * 72)
# A bowtie with a dangling path: the path becomes a star at its root.
g = Graph.from_edges(
    8,
    [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (4, 5), (5, 6), (6, 7)],
)
print(f"start   {to_graph6(g):<10} N={N(g)}")
step1 = subtree_to_star(g, 4)
print(f"step 1  {to_graph6(step1.result):<10} N={N(step1.result)}  "
      f"({step1.applied})")
# part_to_q needs a pendant-free input, so it starts from a dumbbell: a
# triangle {0, 2, 3} and a 4-cycle joined by the path 0 - 7 - 1.  All but
# the triangle becomes a star plus one edge at vertex 0.
g = build(parse_family_spec("dumbbell:3,4,3"))
print(f"start   {to_graph6(g):<10} N={N(g)}")
step2 = part_to_q(g, mask_of([0, 2, 3]), 0)
print(f"step 2  {to_graph6(step2.result):<10} N={N(step2.result)}  "
      f"annotated: {step2.family_name}")
print(f"ceiling N(B8) = {N(build(parse_family_spec('B:8')))} "
      "(the provable maximum on 8 vertices)")

print()
print("=" * 72)
print("branch_shift: the exact algebra behind branch consolidation")
print("=" * 72)
# Side parts L and R attach to two different vertices of a middle part M;
# moving both onto one vertex changes the count by a closed formula, and
# at least one of the two moves always gains.
left = Graph.from_edges(2, [(0, 1)])
middle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
right = Graph.from_edges(3, [(0, 1), (1, 2)])
shift = branch_shift(left, 0, middle, 0, 2, right, 0)
print(f"apart   {to_graph6(shift.glued_apart):<10} N={N(shift.glued_apart)}")
print(f"both@u  {to_graph6(shift.glued_left):<10} N={N(shift.glued_left)}  "
      f"predicted delta {shift.delta_left:+d}")
print(f"both@v  {to_graph6(shift.glued_right):<10} N={N(shift.glued_right)}  "
      f"predicted delta {shift.delta_right:+d}")
print(f"exact:  {shift.delta_left == N(shift.glued_left) - N(shift.glued_apart)}"
      f" and {shift.delta_right == N(shift.glued_right) - N(shift.glued_apart)}")
print(f"at least one direction gains: {max(shift.delta_left, shift.delta_right) > 0}")
