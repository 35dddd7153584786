"""Per-benchmark breakdowns, summary statistics and CSV export.

The paper aggregates over all benchmarks ("since there always exist an
instance where one heuristic will perform better than another, it does
not make sense to compare individual instances") — but a per-benchmark
view is still useful for debugging a reproduction, and a CSV dump lets
external tooling re-analyze the raw measurements.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.buckets import Bucket
from repro.experiments.harness import CallResult, ExperimentResults
from repro.experiments.report import render_table


@dataclass(frozen=True)
class BenchmarkSummary:
    """Aggregates for one benchmark machine."""

    name: str
    calls: int
    f_orig_total: int
    min_total: int
    best_heuristic: str
    sparse_calls: int
    dense_calls: int

    @property
    def reduction(self) -> float:
        if not self.min_total:
            return 1.0
        return self.f_orig_total / self.min_total


def per_benchmark_summaries(
    results: ExperimentResults,
) -> List[BenchmarkSummary]:
    """One summary row per benchmark, in first-seen order."""
    order: List[str] = []
    grouped: Dict[str, List[CallResult]] = {}
    for result in results.results:
        if result.benchmark not in grouped:
            grouped[result.benchmark] = []
            order.append(result.benchmark)
        grouped[result.benchmark].append(result)
    summaries = []
    for name in order:
        calls = grouped[name]
        # Heuristics with failed cells on this benchmark are excluded
        # from "best" — their partial totals are not comparable.
        totals = {
            heuristic: sum(result.sizes[heuristic] for result in calls)
            for heuristic in results.heuristics
            if all(result.sizes.get(heuristic) is not None for result in calls)
        }
        if totals:
            best = min(
                totals, key=lambda heuristic: (totals[heuristic], heuristic)
            )
        else:
            best = "-"
        summaries.append(
            BenchmarkSummary(
                name=name,
                calls=len(calls),
                f_orig_total=sum(result.f_size for result in calls),
                min_total=sum(result.min_size for result in calls),
                best_heuristic=best,
                sparse_calls=sum(
                    1 for result in calls if result.bucket is Bucket.SPARSE
                ),
                dense_calls=sum(
                    1 for result in calls if result.bucket is Bucket.DENSE
                ),
            )
        )
    return summaries


def render_per_benchmark(results: ExperimentResults) -> str:
    """Text table of the per-benchmark breakdown."""
    rows = [
        [
            summary.name,
            str(summary.calls),
            str(summary.sparse_calls),
            str(summary.dense_calls),
            str(summary.f_orig_total),
            str(summary.min_total),
            "%.1f" % summary.reduction,
            summary.best_heuristic,
        ]
        for summary in per_benchmark_summaries(results)
    ]
    return render_table(
        [
            "Benchmark",
            "Calls",
            "<5%",
            ">95%",
            "|f| total",
            "min total",
            "Reduction",
            "Best",
        ],
        rows,
        title="Per-benchmark breakdown",
    )


def lower_bound_attainment(results: ExperimentResults) -> Optional[float]:
    """Fraction of calls where ``min`` equals the cube lower bound."""
    measured = [
        result
        for result in results.results
        if result.lower_bound is not None
    ]
    if not measured:
        return None
    hits = sum(
        1 for result in measured if result.min_size == result.lower_bound
    )
    return hits / len(measured)


def win_counts(results: ExperimentResults) -> Dict[str, int]:
    """How many calls each heuristic wins (ties all count)."""
    counts = {name: 0 for name in results.heuristics}
    for result in results.results:
        for name in results.heuristics:
            size = result.sizes.get(name)
            if size is not None and size == result.min_size:
                counts[name] += 1
    return counts


def aggregate_stats(
    results: ExperimentResults,
) -> Dict[str, Dict[str, int]]:
    """Fold every cell's statistics snapshot into per-heuristic totals.

    :func:`repro.obs.metrics.merge_counts` sums cumulative counters
    (ite calls, cache hits/misses, nodes created) across cells and keeps
    the maximum of point-in-time values (sizes, peaks).  A pooled cell
    carries its worker's snapshot, so serial and pooled sweeps fold the
    same way.  Heuristics without any recorded snapshot are absent.
    """
    from repro.obs.metrics import merge_counts

    totals: Dict[str, Dict[str, int]] = {}
    for result in results.results:
        for name, snapshot in result.stats.items():
            merge_counts(totals.setdefault(name, {}), snapshot)
    return totals


def render_stats(results: ExperimentResults) -> str:
    """Text table of the aggregated per-heuristic BDD-engine counters."""
    totals = aggregate_stats(results)
    if not totals:
        return "No statistics snapshots recorded."
    keys = ("ite_calls", "agree_steps", "ite_cache_hits",
            "ite_cache_misses", "nodes_created", "peak_nodes")
    rows = [
        [name] + [str(totals[name].get(key, 0)) for key in keys]
        for name in results.heuristics
        if name in totals
    ]
    return render_table(
        ["Heuristic", "ITE calls", "Agree steps", "Cache hits",
         "Cache misses", "Nodes created", "Peak nodes"],
        rows,
        title="BDD engine counters per heuristic",
    )


def export_csv(results: ExperimentResults, stream=None) -> str:
    """Dump one row per call (sizes and runtimes) as CSV text.

    If ``stream`` is given, also writes to it (e.g. an open file).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = ["benchmark", "iteration", "bucket", "onset_fraction", "f_size"]
    header += ["min", "lower_bound"]
    for name in results.heuristics:
        header.append("size_%s" % name)
    for name in results.heuristics:
        header.append("time_%s" % name)
    writer.writerow(header)
    for result in results.results:
        row = [
            result.benchmark,
            result.iteration,
            result.bucket.name.lower(),
            "%.6f" % result.onset_fraction,
            result.f_size,
            result.min_size,
            result.lower_bound if result.lower_bound is not None else "",
        ]
        row += [
            "" if result.sizes.get(name) is None else result.sizes[name]
            for name in results.heuristics
        ]
        row += [
            "%.6f" % result.runtimes.get(name, 0.0)
            for name in results.heuristics
        ]
        writer.writerow(row)
    text = buffer.getvalue()
    if stream is not None:
        stream.write(text)
    return text
