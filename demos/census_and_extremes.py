"""Exhaustive census of bicyclic graphs and their count extremes.

Enumerates one representative per isomorphism class of n-vertex bicyclic
graphs (connected, exactly one more edge than vertices), counts each
exactly, and locates the extremes.  The smallest count is always attained
by two triangles joined by a path (the L family; at n = 5 the A shape
ties it), the largest by a diamond with all spare vertices attached as
pendants at its degree-three corner (the B family).

Run:  python demos/census_and_extremes.py
"""

from collections import Counter

from connsets import (
    build,
    canonical_certificate,
    enumerate_bicyclic,
    extract_core,
    is_isomorphic,
    oracle_count,
    parse_family_spec,
    to_graph6,
)

print("=" * 72)
print("How many bicyclic graphs are there?")
print("=" * 72)
for n in range(4, 10):
    graphs = enumerate_bicyclic(n)
    kinds = Counter(extract_core(g)[0] for g in graphs)
    print(f"  n={n}: {len(graphs):>4} classes  "
          f"(cores: I={kinds.get('I', 0)}, II={kinds.get('II', 0)}, "
          f"III={kinds.get('III', 0)})")

print()
print("=" * 72)
print("The five classes on five vertices")
print("=" * 72)
for g in enumerate_bicyclic(5):
    print(f"  {to_graph6(g):<8} N={oracle_count(g).total}")

print()
print("=" * 72)
print("Count extremes, order by order")
print("=" * 72)
print(f"  {'n':>2} {'min':>5} {'attained by':<14} {'max':>5} {'attained by':<14}")
for n in range(5, 10):
    graphs = enumerate_bicyclic(n)
    counts = [oracle_count(g).total for g in graphs]
    lo, hi = min(counts), max(counts)
    lo_names = []
    hi_names = []
    for g, c in zip(graphs, counts):
        if c == lo:
            for kind in ("L", "A"):
                if is_isomorphic(g, build(parse_family_spec(f"{kind}:{n}"))):
                    lo_names.append(f"{kind}{n}")
        if c == hi and is_isomorphic(g, build(parse_family_spec(f"B:{n}"))):
            hi_names.append(f"B{n}")
    lo_formula = (n + 6) * (n - 1) // 2
    hi_formula = n + 2 + 2 ** (n - 1)
    print(f"  {n:>2} {lo:>5} {','.join(lo_names):<14} {hi:>5} "
          f"{','.join(hi_names):<14}"
          f"  formulas: {lo_formula}/{hi_formula}")

print()
print("=" * 72)
print("Distribution of counts at n = 8")
print("=" * 72)
counts = sorted(oracle_count(g).total for g in enumerate_bicyclic(8))
print(f"  {len(counts)} classes, counts from {counts[0]} to {counts[-1]}")
print(f"  bottom five: {counts[:5]}")
print(f"  top five:    {counts[-5:]}")
second = max(c for c in counts if c != counts[-1])
print(f"  the runner-up value {second} equals N(R8) "
      f"= {oracle_count(build(parse_family_spec('R:8'))).total}")

# The stream is isomorph-free: certificates are strictly increasing.
certs = [canonical_certificate(g) for g in enumerate_bicyclic(7)]
print(f"\n  stream order is canonical: {certs == sorted(set(certs))}")
