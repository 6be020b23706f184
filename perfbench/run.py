"""Benchmark of ``connsets verify``: time to a verdict on two claim sweeps.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample launches a fresh ``python -m connsets.cli verify ...``
process on the checkout's ``src`` tree, one at a time (a closed loop with
one client), so the package's in-process caches start cold on every
sample, as they do for a user.  Launches continue until the next one
would end after ``--seconds``, with at least ``MIN_SAMPLES`` of them.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's launches.

``--trace 1`` first makes one ``count_stream`` pool measurement
(``perfbench/pool.py``), then alternates an untraced launch with a launch
under ``perfbench/tracer.py`` for the rest of the run, and reports
per-layer metrics computed from the recorded spans.

Every launch is checked: exit code 0, every report ``pass``,
``observed.classes`` equal to OEIS A001429, and stdout byte-identical to
the digest recorded in ``perfbench/expected.json``; a traced launch must
also print exactly what the untraced one printed.

The corpora are exhaustive, so the seed selects no input; it sets
``PYTHONHASHSEED`` of every launch, which must leave stdout unchanged.

Stdout: one line per metric (name, value, unit), the fail rate, the
environment, then the JSON result as the last line.  Exit code 0 when
every launch passed its checks, 1 when any failed, 2 when the checkout
holds no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"

# name -> verify arguments.  Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "max-n10": ("max", "--n", "10"),
    "min-n8-guarded": ("min", "--n", "8"),
    # Tiny input for perfbench/selftest.py; not a benchmark workload.
    "min-n6": ("min", "--n", "6"),
}

# OEIS A001429: connected bicyclic graphs on n vertices, n = 4..12.
A001429 = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797, 10: 2678, 11: 8833, 12: 28908}

MIN_SAMPLES = 2  # the median of at least two launches per run
# Set-up launches made before each workload launch.  Spreading them over
# the run, instead of timing them in one burst, lets their median see the
# same machine load as the workload launches.
SETUP_PER_SAMPLE = 3
POOL_CORPUS_N = 10
LAUNCH_TIMEOUT_S = 150.0

SETUP_ARGV = ("-c", "import connsets.cli; connsets.cli.build_parser()")

END_TO_END_UNITS = {"verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "canon.calls": "count",
    "canon.self_s": "s",
    "canon.cache_hit_ratio": "ratio",
    "enumeration.total_s": "s",
    "enumeration.self_s": "s",
    "enumeration.raw_graphs": "count",
    "enumeration.classes": "count",
    "enumeration.unique_ratio": "ratio",
    "counting.oracle_calls": "count",
    "counting.oracle_s": "s",
    "counting.connected_sets": "count",
    "counting.us_per_set": "us",
    "crosscheck.labeled_s": "s",
    "crosscheck.labeled_graphs": "count",
    "verify.self_s": "s",
    "verify.count_stream_s": "s",
    "verify.pool_speedup_w2": "ratio",
    "transforms.annotate_calls": "count",
    "transforms.annotate_s": "s",
    "families.build_calls": "count",
    "families.build_s": "s",
    "cli.main_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes


def launch(args: tuple[str, ...], env: dict[str, str], tag: str) -> Launch:
    """Run ``python args...`` from the checkout root and wait for it,
    collecting wall time and the rusage of the process and its children."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen((sys.executable, *args), cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        code=proc.returncode,
        stdout=out_path.read_bytes(),
    )


def check_output(result: Launch, digest: str) -> list[str]:
    """Everything wrong with one ``verify`` launch (empty when correct)."""
    problems = []
    if result.code != 0:
        problems.append(f"exit code {result.code}")
    try:
        reports = [json.loads(line) for line in result.stdout.decode().splitlines() if line]
    except ValueError:
        problems.append("stdout is not one JSON report per line")
        reports = []
    if not reports:
        problems.append("no report on stdout")
    for rep in reports:
        if not isinstance(rep, dict) or rep.get("status") != "pass":
            problems.append(f"report status is not pass: {str(rep)[:200]}")
            continue
        classes = rep.get("observed", {}).get("classes")
        if classes is not None and classes != A001429.get(rep.get("n_lo")):
            problems.append(f"observed.classes {classes} at n={rep.get('n_lo')} is not A001429")
    if hashlib.sha256(result.stdout).hexdigest() != digest:
        problems.append("stdout differs from the recorded bytes")
    return problems


def closed_loop(step, seconds: float, minimum: int, start: float | None = None) -> list:
    """Call ``step`` until the next call would end more than ``seconds``
    after ``start`` (default: now), and at least ``minimum`` times."""
    results: list = []
    start = time.perf_counter() if start is None else start
    last = 0.0
    while len(results) < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - t0
    return results


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts and times from one traced run's spans."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    def ancestors(i: int):
        parent = spans[i][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    def pick(prefix: str) -> list[int]:
        return [i for i, span in enumerate(spans) if span[0] == prefix or span[0].startswith(prefix + ".")]

    def self_s(ids: list[int]) -> float:
        return sum(spans[i][2] - spans[i][1] - child_s[i] for i in ids)

    def total_s(ids: list[int]) -> float:
        # Outermost spans of the selection only, so nested calls count once.
        chosen = set(ids)
        return sum(
            spans[i][2] - spans[i][1]
            for i in ids
            if not any(a in chosen for a in ancestors(i))
        )

    def work(ids: list[int]) -> int:
        return sum(spans[i][4] for i in ids)

    canon = pick("canon.canonical_certificate")
    enum = pick("enumeration.enumerate_bicyclic")
    enum_ids = set(enum)
    raw = [i for i in canon if any(a in enum_ids for a in ancestors(i))]
    oracle = pick("counting.oracle_count")
    rooted = pick("counting.oracle_count_rooted")
    connected_sets = work(oracle) + work(rooted)
    hits, misses = trace["canon_cache"]["hits"], trace["canon_cache"]["misses"]
    verify_claims = [i for i in pick("verify") if spans[i][0].startswith("verify.verify_")]
    classes = work(enum)
    annotate = pick("transforms.annotate_family")
    return {
        "canon.calls": len(canon),
        "canon.self_s": self_s(pick("canon")),
        "canon.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "enumeration.total_s": total_s(pick("enumeration")),
        "enumeration.self_s": self_s(pick("enumeration")),
        "enumeration.raw_graphs": len(raw),
        "enumeration.classes": classes,
        "enumeration.unique_ratio": classes / len(raw) if raw else 0.0,
        "counting.oracle_calls": len(oracle),
        "counting.oracle_s": self_s(oracle),
        "counting.connected_sets": connected_sets,
        "counting.us_per_set": (
            1e6 * self_s(pick("counting")) / connected_sets if connected_sets else 0.0
        ),
        "crosscheck.labeled_s": total_s(pick("crosscheck")),
        "crosscheck.labeled_graphs": work(pick("crosscheck.labeled_bicyclic_classes")),
        "verify.self_s": self_s(verify_claims),
        "verify.count_stream_s": total_s(pick("verify.count_stream")),
        "transforms.annotate_calls": len(annotate),
        "transforms.annotate_s": total_s(annotate),
        "families.build_calls": len(pick("families.build")),
        "families.build_s": self_s(pick("families.build")),
        "cli.main_s": total_s(pick("cli.main")),
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int, workload: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ("git", "rev-parse", "HEAD"), cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "connsets").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Bench:
    """One benchmark run: launches, checks and the failure tally."""

    def __init__(self, workload: str, seed: int, digest: str) -> None:
        self.workload = workload
        self.argv = ("-m", "connsets.cli", "verify", *WORKLOADS[workload])
        self.digest = digest
        self.env = dict(
            os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % (1 << 32))
        )
        self.attempted = 0
        self.failed = 0
        self.setup_walls: list[float] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{self.workload}: {problem}", file=sys.stderr)

    def verdict(self) -> Launch:
        """Time the set-up launches, then launch and check the workload."""
        for _ in range(SETUP_PER_SAMPLE):
            setup = launch(SETUP_ARGV, self.env, f"{self.workload}.setup")
            if setup.code != 0:
                raise SystemExit(f"importing connsets.cli failed with exit code {setup.code}")
            self.setup_walls.append(setup.wall_s)
        result = launch(self.argv, self.env, self.workload)
        self.record(check_output(result, self.digest))
        return result

    def traced(self, untraced: Launch) -> dict[str, float]:
        spans_path = OUT / f"{self.workload}.spans.json"
        spans_path.unlink(missing_ok=True)
        args = (str(HERE / "tracer.py"), str(spans_path), *self.argv[2:])
        result = launch(args, self.env, f"{self.workload}.traced")
        problems = check_output(result, self.digest)
        if result.stdout != untraced.stdout:
            problems.append("traced stdout differs from the untraced stdout")
        try:
            trace = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            self.record(problems + ["the traced run wrote no spans"])
            return {}
        problems.extend(f"unwrapped binding {b}" for b in trace["unwrapped"])
        self.record(problems)
        return layer_metrics(trace)

    def pool_speedup(self, corpus_n: int) -> float:
        workers = min(2, nproc())
        args = (str(HERE / "pool.py"), str(corpus_n), str(workers))
        result = launch(args, self.env, f"{self.workload}.pool")
        try:
            probe = json.loads(result.stdout)
        except ValueError:
            probe = {}
        ok = result.code == 0 and probe.get("agree") is True
        self.record([] if ok else [f"pool probe failed (exit code {result.code})"])
        return probe["serial_s"] / probe["pooled_s"] if ok else 0.0


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    digest: str,
    pool_corpus_n: int = POOL_CORPUS_N,
) -> dict:
    """Run one workload and return the result object."""
    bench = Bench(workload, seed, digest)
    if not trace:
        samples = closed_loop(bench.verdict, seconds, MIN_SAMPLES)
        values = {
            "verdict_s": statistics.median(s.wall_s for s in samples),
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "setup_s": statistics.median(bench.setup_walls),
        }
        units = END_TO_END_UNITS
    else:
        start = time.perf_counter()
        values = {"verify.pool_speedup_w2": bench.pool_speedup(pool_corpus_n)}

        def pair():
            untraced = bench.verdict()
            return untraced, bench.traced(untraced)

        pairs = closed_loop(pair, seconds, 1, start)
        layers = [metrics for _, metrics in pairs if metrics]
        values.update(
            (name, statistics.median(m[name] for m in layers))
            for name in (layers[0] if layers else ())
        )
        verdict_s = statistics.median(u.wall_s for u, _ in pairs)
        main_s = values.get("cli.main_s", 0.0)
        setup_s = statistics.median(bench.setup_walls)
        values["trace.overhead_frac"] = main_s / (verdict_s - setup_s) - 1.0
        units = PER_LAYER_UNITS
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }


def load_digests() -> dict[str, str]:
    return json.loads((HERE / "expected.json").read_text())["stdout_sha256"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like Ctrl-C, so the running launch is killed and
    # waited for before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "connsets" / "cli.py").is_file():
        print(f"no connsets source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = environment(args.seed, args.workload)
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), load_digests()[args.workload]
    )
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_rate = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} launches)")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
