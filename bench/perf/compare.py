#!/usr/bin/env python3
"""Compare two result sets of the pmx paper-scale benchmark.

Each set is a directory of results JSON files written by bench/perf/run
(one file per run, --trace 0), with at least 5 runs per workload, all of
the same length. For every workload in both sets and every end-to-end
metric of BENCHMARK.json, the new set's median is judged against the base
set's:

  improved    at least 90% of (base, new) run pairs favour the new set and
              the medians differ by more than the base runs' quartile
              distance (choosing-metrics guide, section 8)
  regressed   the new median is worse by more than the metric's bound
  unresolved  the spread (quartile distance over median) of either set is
              wider than the bound, and not every new run beats every base
              run: the sets cannot tell a change from noise
  unchanged   otherwise

fail_frac (failed over attempted point runs) must not rise. Prints one row
per workload.

Usage: compare.py BASE_DIR NEW_DIR
Exit status: 0 when nothing regressed, 1 on a regression or a higher
fail_frac, 2 on usage errors (missing sets, too few runs, runs of
different lengths).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_RUNS = 5


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for f in sorted(directory.glob("*.json")):
        result = json.loads(f.read_text())
        if "workload" in result and result["trace"] == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def verdict(base: list[float], new: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0
    med_b, iqr_b = spread(base)
    med_n, iqr_n = spread(new)
    worse = sign * (med_n - med_b) / med_b
    # In cost terms (sign * value) lower is better for every metric.
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    if max(iqr_b / med_b, iqr_n / med_n) > bound:
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if worse < 0 and wins >= 0.9 * len(pairs) and abs(med_n - med_b) > iqr_b:
        return "improved", worse
    return "unchanged", worse


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, new = load(args.base), load(args.new)
    workloads = [w for w in base if w in new]
    if not workloads:
        print("compare: no workload appears in both sets", file=sys.stderr)
        return 2
    for w in workloads:
        if min(len(base[w]), len(new[w])) < MIN_RUNS:
            print(f"compare: {w} has {len(base[w])} base and {len(new[w])} "
                  f"new runs; need {MIN_RUNS} each", file=sys.stderr)
            return 2
    lengths = {r["seconds"] for w in workloads for r in base[w] + new[w]}
    if len(lengths) > 1:
        print(f"compare: the runs measured for different lengths "
              f"{sorted(lengths)} s; compare only runs of equal length",
              file=sys.stderr)
        return 2

    status = 0
    names = [m["name"] for m in metrics] + ["fail_frac"]
    print(f"{'workload':<12} " + " ".join(f"{n:>22}" for n in names))
    details = []
    for w in workloads:
        cells = []
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in base[w]]
            n = [r["metrics"][m["name"]]["value"] for r in new[w]]
            v, worse = verdict(b, n, m["bound"], m["better"] == "lower")
            status |= v == "regressed"
            cells.append(f"{v} {100 * worse:+.1f}%")
            (med_b, iqr_b), (med_n, iqr_n) = spread(b), spread(n)
            details.append(
                f"  {w:<12} {m['name']:<18} base {med_b:.6g} (spread "
                f"{100 * iqr_b / med_b:.1f}%) new {med_n:.6g} (spread "
                f"{100 * iqr_n / med_n:.1f}%) bound "
                f"{100 * m['bound']:.0f}%: {v}")
        frac = [sum(r["failed"] for r in runs) /
                sum(r["attempted"] for r in runs) for runs in (base[w], new[w])]
        higher = frac[1] > frac[0]
        status |= higher
        cells.append(f"{'regressed' if higher else 'unchanged'} "
                     f"{frac[0]:.2g}->{frac[1]:.2g}")
        print(f"{w:<12} " + " ".join(f"{c:>22}" for c in cells))
    print("\n".join(["", "worse-than-base shares are signed: + is worse."]
                    + details))
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
