"""Run the full verification harness and emit machine-readable reports.

Each sweep replays one of the headline claims over an exhaustive corpus
and produces a deterministic report; all comparisons are integer-exact.

Run:  python demos/verification_report.py
"""

import sys

from connsets import reports_to_csv
from connsets.verify import (
    verify_closed_forms,
    verify_lemma_algebra,
    verify_maximum,
    verify_minimum,
    verify_tree_bound,
    verify_vertex_bound,
)

reports = []

print("minimum sweep (smallest count over all bicyclic graphs)")
for n in range(5, 9):
    rep = verify_minimum(n)
    reports.append(rep)
    who = ", ".join(a["family"] or a["graph6"] for a in rep.attainers)
    print(f"  n={n}: min={rep.observed['min']} by {who}  [{rep.status}]")

print("\nmaximum sweep (largest and runner-up)")
for n in range(6, 9):
    rep = verify_maximum(n)
    reports.append(rep)
    print(f"  n={n}: max={rep.observed['max']} "
          f"second={rep.observed['second_max']}  [{rep.status}]")

print("\nper-vertex lower bound (every vertex in >= n+3 connected sets)")
for n in (4, 5, 6):
    rep = verify_vertex_bound(n)
    reports.append(rep)
    print(f"  n={n}: min rooted={rep.observed['min_rooted']} "
          f"equality cases={rep.observed['equality_cases']}  [{rep.status}]")

print("\nclosed forms against the oracle")
rep = verify_closed_forms(14)
reports.append(rep)
print(f"  {rep.observed['instances']} instances, "
      f"{rep.observed['mismatches']} mismatches  [{rep.status}]")

print("\ncounting identities on seeded random instances")
rep = verify_lemma_algebra(trials=200, seed=7, pendant_trials=100, branch_trials=100)
reports.append(rep)
print(f"  failures={rep.observed['failures']}  [{rep.status}]")

print("\nrooted tree bound (2^(n-1), equality only at star centres)")
rep = verify_tree_bound(9)
reports.append(rep)
print(f"  {rep.observed['pairs_swept']} pairs swept  [{rep.status}]")

print("\n--- CSV summary " + "-" * 48)
sys.stdout.write(reports_to_csv(reports))

print("\n--- one full JSON report " + "-" * 39)
print(reports[0].to_json())

bad = [r for r in reports if r.status == "fail"]
print(f"\noverall: {'ALL CLAIMS HOLD' if not bad else f'{len(bad)} FAILURES'}")
sys.exit(1 if bad else 0)
