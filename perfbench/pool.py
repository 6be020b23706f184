"""Time ``count_stream`` on one bicyclic corpus serially and with a pool.

Usage: python3 perfbench/pool.py N WORKERS

Prints one JSON object: the serial and pooled wall seconds, and whether
the two count lists agree.  Enumeration runs before either timing.
"""

from __future__ import annotations

import json
import sys
import time

from connsets.enumeration import enumerate_bicyclic
from connsets.verify import count_stream


def main(n: int, workers: int) -> dict:
    graphs = enumerate_bicyclic(n)
    t0 = time.perf_counter()
    serial = count_stream(graphs, 1)
    t1 = time.perf_counter()
    pooled = count_stream(graphs, workers)
    t2 = time.perf_counter()
    return {
        "serial_s": t1 - t0,
        "pooled_s": t2 - t1,
        "workers": workers,
        "agree": serial == pooled,
    }


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]), int(sys.argv[2]))))
