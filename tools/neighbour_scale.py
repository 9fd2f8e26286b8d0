#!/usr/bin/env python3
"""Time crm's exact neighbour search against scipy's cKDTree.

    python3 tools/neighbour_scale.py

For each sample size T (2,500, 20,000 and 80,000), factor dimension m (1, 2, 3
and 5) and neighbour count k (50 and 256), the factor sample is T Student-t(4)
draws in m dimensions and the queries are the sample itself, as in the
conditional-mean fits of `crm factor`. Each cell is the best of 3 wall-clock
times, in seconds, of crm's search (build, then every query group) and of
cKDTree (build, then one query). crm is imported from the src/ beside this
script. The whole table takes about twelve minutes on a 2-core Xeon, most of
it in five dimensions at T = 80,000, where the partition prunes almost nothing.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from scipy.spatial import cKDTree

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
from crm.factor import _Neighbours  # noqa: E402

SIZES = (2_500, 20_000, 80_000)
CASES = [(m, k) for m in (1, 2, 3, 5) for k in (50, 256)]
REPEATS = 3


def _search(y: np.ndarray, k: int) -> None:
    for _ in _Neighbours(y).groups(y, k):
        pass


def _best(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    print("seconds, best of %d: crm search / cKDTree; queries = the sample" % REPEATS)
    print("| T | " + " | ".join(f"m = {m}, k = {k}" for m, k in CASES) + " |")
    print("|---" * (len(CASES) + 1) + "|")
    for t in SIZES:
        cells = []
        for m, k in CASES:
            y = np.random.default_rng(t + m).standard_t(4, size=(t, m))
            ours = _best(lambda: _search(y, k))
            tree = _best(lambda: cKDTree(y).query(y, k=k))
            cells.append(f"{ours:.2f} / {tree:.2f}")
        print(f"| {t:,} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
