#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` and ``B`` are ``run.py --out`` files; ``run.py --runs K`` puts K
runs of each workload in one file.  For every (end-to-end metric,
workload) pair measured on both sides this prints each side's median
and quartiles, and a verdict:

* ``ok`` — B's median is within the metric's bound of A's;
* ``regressed`` / ``improved`` — B's median is worse / better than A's
  by more than the bound;
* ``unresolved`` — one side's quartile spread (as a share of its
  median) exceeds the bound, so a change of that size cannot be told
  from noise — unless every B run is better (or worse) than every A
  run.

Bounds and directions come from ``BENCHMARK.json``.  Verdicts use the
times scaled to reference host speed; the ``raw`` column shows the same
change before scaling, so a scaling that hid a slowdown would show as
a raw change the verdict does not follow.  Exit status is 1 when any
pair regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    first, _, third = statistics.quantiles(values, n=4)
    return median, first, third


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    median, first, third = summary(values)
    return (third - first) / abs(median) if median else 0.0


def worsening(a: Sequence[float], b: Sequence[float], better: str) -> float:
    """B's median change against A's, as a share, in the *worse* direction."""
    median_a = summary(a)[0]
    median_b = summary(b)[0]
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    return change if better == "lower" else -change


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """Verdict and B's relative change in the *worse* direction."""
    worse = worsening(a, b, better)

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    if max(spread(a), spread(b)) > bound:
        if all(beats(y, x) for x in a for y in b):
            return "improved", worse
        if all(beats(x, y) for x in a for y in b):
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound:
        return "improved", worse
    return "ok", worse


def load_runs(path: str, section: str = "metrics") -> Dict[Tuple[str, str], List[float]]:
    """``(metric, workload) -> values`` from a ``run.py --out`` file.

    ``section`` is ``metrics`` (as reported) or ``raw`` (before
    host-speed scaling).
    """
    with open(path) as handle:
        document = json.load(handle)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        for name, value in run.get(section, {}).items():
            values.setdefault((name, run["workload"]), []).append(value)
    return values


def compare(path_a: str, path_b: str, spec: Optional[dict] = None) -> List[dict]:
    if spec is None:
        with open(SPEC) as handle:
            spec = json.load(handle)
    a, raw_a = load_runs(path_a), load_runs(path_a, "raw")
    b, raw_b = load_runs(path_b), load_runs(path_b, "raw")
    rows = []
    for metric in spec["end_to_end"]:
        for workload in [entry["name"] for entry in spec["workloads"]]:
            key = (metric["name"], workload)
            if key not in a or key not in b:
                continue
            outcome, worse = verdict(a[key], b[key], metric["better"], metric["bound"])
            raw = (
                100.0 * worsening(raw_a[key], raw_b[key], metric["better"])
                if key in raw_a and key in raw_b
                else None
            )
            rows.append(
                {
                    "metric": metric["name"],
                    "workload": workload,
                    "unit": metric["unit"],
                    "a": summary(a[key]),
                    "b": summary(b[key]),
                    "runs": (len(a[key]), len(b[key])),
                    "worse_pct": 100.0 * worse,
                    "raw_worse_pct": raw,
                    "spread_pct": 100.0 * max(spread(a[key]), spread(b[key])),
                    "bound_pct": 100.0 * metric["bound"],
                    "verdict": outcome,
                }
            )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline run.py --out file")
    parser.add_argument("b", help="candidate run.py --out file")
    args = parser.parse_args(argv)
    rows = compare(args.a, args.b)
    print(
        "%-12s %-16s %-30s %-30s %7s %7s %7s %6s  %s"
        % ("metric", "workload", "A median [q1, q3]", "B median [q1, q3]",
           "worse", "raw", "spread", "bound", "verdict")
    )
    for row in rows:
        raw = row["raw_worse_pct"]
        print(
            "%-12s %-16s %-30s %-30s %+6.1f%% %7s %6.1f%% %5.0f%%  %s"
            % (
                row["metric"], row["workload"],
                "%.4g [%.4g, %.4g]" % row["a"],
                "%.4g [%.4g, %.4g]" % row["b"],
                row["worse_pct"],
                "-" if raw is None else "%+.1f%%" % raw,
                row["spread_pct"], row["bound_pct"],
                row["verdict"],
            )
        )
    if not rows:
        print("no (metric, workload) pair is measured in both files")
        return 1
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
