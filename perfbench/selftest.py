"""Self-test of the benchmark harness on a tiny input (``verify min --n 6``).

Usage: python3 perfbench/selftest.py

Checks that an untraced and a traced run emit every metric named in
BENCHMARK.json with its unit and no failure, that the traced counts match
the known n = 6 corpus, and that a wrong recorded digest is counted as a
failed launch rather than a pass.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run

TINY = "min-n6"


def check(problems: list[str], condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def check_metrics(problems: list[str], result: dict, declared: list[dict], mode: str) -> None:
    emitted = result["metrics"]
    check(problems, result["correct"] and result["failed"] == 0, f"{mode}: a launch failed")
    check(problems, result["attempted"] >= 1, f"{mode}: nothing attempted")
    check(
        problems,
        set(emitted) == {m["name"] for m in declared},
        f"{mode}: emitted {sorted(emitted)} != declared {sorted(m['name'] for m in declared)}",
    )
    for metric in declared:
        got = emitted.get(metric["name"], {})
        check(
            problems,
            got.get("unit") == metric["unit"] and isinstance(got.get("value"), (int, float)),
            f"{mode}: {metric['name']} emitted as {got}, declared unit {metric['unit']}",
        )


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    digest = run.load_digests()[TINY]
    problems: list[str] = []

    plain = run.measure(TINY, seed=1, seconds=1.0, trace=False, digest=digest)
    check_metrics(problems, plain, declared["end_to_end"], "trace 0")
    check(problems, plain["attempted"] >= run.MIN_SAMPLES, "trace 0: too few samples")

    traced = run.measure(TINY, seed=2, seconds=0.0, trace=True, digest=digest, pool_corpus_n=6)
    check_metrics(problems, traced, declared["per_layer"], "trace 1")
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    for name, expected in (
        ("enumeration.classes", run.A001429[6]),
        ("counting.oracle_calls", run.A001429[6]),
        ("transforms.annotate_calls", 1),
    ):
        check(problems, layers.get(name) == expected, f"trace 1: {name} {layers.get(name)} != {expected}")
    for name in ("cli.main_s", "crosscheck.labeled_s", "canon.self_s", "verify.pool_speedup_w2"):
        check(problems, layers.get(name, 0) > 0, f"trace 1: {name} is not positive")

    wrong = run.measure(TINY, seed=3, seconds=0.0, trace=False, digest="0" * 64)
    check(problems, not wrong["correct"], "a wrong recorded digest was reported correct")
    check(
        problems,
        wrong["failed"] == wrong["attempted"] >= 1,
        f"a wrong digest failed {wrong['failed']} of {wrong['attempted']} launches",
    )

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
