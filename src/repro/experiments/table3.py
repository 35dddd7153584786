"""Table 3: cumulative result sizes, % of min, runtimes, and ranks.

For each heuristic, over a set of calls (all calls or one onset-size
bucket): the total size of the results, that total as a percentage of
the ``min`` composite's total, the cumulative runtime in seconds, and
the rank by total size.  Two synthetic rows bracket the table exactly
as in the paper: ``low_bd`` (the cube lower bound) and ``min``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.buckets import Bucket
from repro.experiments.harness import CallResult, ExperimentResults
from repro.experiments.report import render_table


@dataclass(frozen=True)
class Table3Row:
    """One heuristic's aggregate line.

    ``failures`` counts calls this heuristic failed on (budget trips,
    contract violations); failed cells contribute
    nothing to ``total_size``, so totals with different failure counts
    aggregate different call sets — the Fail column keeps that honest.
    """

    name: str
    total_size: int
    pct_of_min: Optional[float]  # None for rows without a meaningful %
    runtime: float
    rank: Optional[int]
    failures: int = 0


def table3_rows(
    results: ExperimentResults, bucket: Optional[Bucket] = None
) -> List[Table3Row]:
    """Aggregate one column group of Table 3 (sorted by total size)."""
    calls = results.in_bucket(bucket)
    min_total = sum(result.min_size for result in calls)
    rows: List[Table3Row] = []
    if any(result.lower_bound is not None for result in calls):
        low_bd_total = sum(result.lower_bound or 0 for result in calls)
        rows.append(
            Table3Row(
                "low_bd",
                low_bd_total,
                (100.0 * low_bd_total / min_total) if min_total else None,
                0.0,
                None,
            )
        )
    rows.append(Table3Row("min", min_total, 100.0 if min_total else None, 0.0, None))
    ranked: List[Tuple[int, float, str, int]] = []
    for name in results.heuristics:
        # Failed cells (size None) are excluded from the totals; the
        # failure count rides along so the row stays interpretable.
        total = sum(
            result.sizes[name]
            for result in calls
            if result.sizes.get(name) is not None
        )
        runtime = sum(result.runtimes.get(name, 0.0) for result in calls)
        failed = sum(1 for result in calls if result.sizes.get(name) is None)
        ranked.append((total, runtime, name, failed))
    # A heuristic with failed cells totals over fewer calls, so a size
    # rank against the others would be meaningless (an all-failed row
    # would "win" with total 0).  Failure-free rows are ranked among
    # themselves; failing rows sort after them, unranked.
    ranked.sort(key=lambda item: (item[3] > 0, item[0], item[1], item[2]))
    rank = 0
    previous_total = None
    for position, (total, runtime, name, failed) in enumerate(ranked):
        if total != previous_total:
            rank = position + 1
            previous_total = total
        rows.append(
            Table3Row(
                name,
                total,
                (100.0 * total / min_total)
                if min_total and not failed
                else None,
                runtime,
                None if failed else rank,
                failures=failed,
            )
        )
    return rows


def render_table3(
    results: ExperimentResults, buckets: Sequence[Optional[Bucket]] = (None,)
) -> str:
    """Render Table 3 column groups for the requested buckets."""
    sections = []
    for bucket in buckets:
        calls = results.in_bucket(bucket)
        label = "All calls" if bucket is None else "c_onset %s calls" % bucket
        title = "%s (%d)" % (label, len(calls))
        rows = table3_rows(results, bucket)
        show_failures = any(row.failures for row in rows)
        table_rows = [
            [
                row.name,
                str(row.total_size),
                "%.0f" % row.pct_of_min if row.pct_of_min is not None else "-",
                "%.3f" % row.runtime,
                str(row.rank) if row.rank is not None else "-",
            ]
            + ([str(row.failures)] if show_failures else [])
            for row in rows
        ]
        sections.append(
            render_table(
                ["Heur.", "Total Size", "% of min", "Runtime (s)", "Rank"]
                + (["Fail"] if show_failures else []),
                table_rows,
                title=title,
            )
        )
    return "\n\n".join(sections)


def reduction_factor(
    results: ExperimentResults, bucket: Optional[Bucket] = None
) -> Optional[float]:
    """|f_orig| total divided by the min total (the paper's 'factor 8')."""
    calls = results.in_bucket(bucket)
    min_total = sum(result.min_size for result in calls)
    # f_orig can never genuinely fail (it returns f), but a recorded
    # None falls back to the known f_size.
    orig_total = 0
    for result in calls:
        size = result.sizes.get("f_orig")
        orig_total += size if size is not None else result.f_size
    if not min_total:
        return None
    return orig_total / min_total
