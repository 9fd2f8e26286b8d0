#!/usr/bin/env python3
"""Summaries of crmbench result files, and a comparison of two sets of them.

Every run of ``crmbench/run.py`` writes one result file under
``.bench_build/crmbench/results/``. This script pools them per workload:

    python3 crmbench/report.py .bench_build/crmbench/results/*-t0.json
    python3 crmbench/report.py NEW/*-t0.json --against BASE/*-t0.json

For each metric it prints the median of the run values, their quartile
spread as a share of the median, and, over the pooled per-pass samples, the
median, the highest percentile with at least ten samples beyond it, and the
sample count. With ``--against`` it also prints each metric's change against
the base set and whether it stays within the bound fixed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def median(xs) -> float:
    return float(statistics.median(xs))


def spread(xs) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    m = median(xs)
    return (q3 - q1) / abs(m) if m else 0.0


TAIL_MIN_SAMPLES = 21


def tail(xs):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when that percentile would not lie above the median
    (fewer than 21 samples)."""
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return None
    return int(100 * (n - 10) / n), float(sorted(xs)[n - 11])


def fmt_tail(xs) -> str:
    t = tail(xs)
    return f"p{t[0]}={t[1]:.6g}" if t else f"n/a (n<{TAIL_MIN_SAMPLES})"


def print_table(header, rows, out=sys.stdout) -> None:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _load(paths):
    """{workload: {metric: {"unit", "runs": [...], "samples": [...]}}}"""
    sets = defaultdict(lambda: defaultdict(lambda: {"unit": "", "runs": [], "samples": []}))
    for path in paths:
        with open(path) as fh:
            res = json.load(fh)
        for name, m in res["metrics"].items():
            entry = sets[res["workload"]][name]
            entry["unit"] = m["unit"]
            entry["runs"].append(m["value"])
            entry["samples"].extend(res.get("samples", {}).get(name, [m["value"]]))
    return sets


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="+", help="result files of the set to report")
    ap.add_argument("--against", nargs="+", default=[], help="result files of a base set")
    args = ap.parse_args(argv)
    new, base, bounds = _load(args.results), _load(args.against), _bounds()
    for wl in sorted(new):
        print(f"\n== {wl}")
        header = ["metric", "unit", "runs", "median", "spread", "samples", "sample_median",
                  "tail"]
        if base:
            header += ["base_median", "change", "bound", "verdict"]
        rows = []
        for name, e in sorted(new[wl].items()):
            row = [name, e["unit"], len(e["runs"]), f"{median(e['runs']):.6g}",
                   f"{spread(e['runs']):.3f}", len(e["samples"]),
                   f"{median(e['samples']):.6g}", fmt_tail(e["samples"])]
            b = base.get(wl, {}).get(name)
            if base and b:
                bm, nm = median(b["runs"]), median(e["runs"])
                spec = bounds.get(name, {})
                sign = -1.0 if spec.get("better") == "higher" else 1.0
                change = sign * (nm - bm) / abs(bm) if bm else 0.0
                bound = spec.get("bound")
                if bound is None:
                    verdict = "no bound"
                elif change > bound:
                    verdict = "WORSE beyond bound"
                elif spread(b["runs"]) > bound:
                    verdict = "unresolved (base spread > bound)"
                else:
                    verdict = "within bound"
                row += [f"{bm:.6g}", f"{change:+.3f}", bound, verdict]
            elif base:
                row += ["-", "-", "-", "-"]
            rows.append(row)
        print_table(header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
