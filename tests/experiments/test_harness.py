"""Tests for the measurement harness and exhibit generators."""

import pytest

from repro.core.registry import PAPER_HEURISTICS
from repro.experiments.buckets import Bucket, bucket_of
from repro.experiments.calls import collect_suite_calls
from repro.experiments.harness import run_heuristics, run_experiment
from repro.experiments.table3 import (
    reduction_factor,
    render_table3,
    table3_rows,
)
from repro.experiments.table4 import (
    orthogonality,
    render_table4,
    table4_matrix,
)
from repro.experiments.figure3 import (
    figure3_curves,
    render_figure3,
    y_intercepts,
)
from repro.experiments.report import render_table
from tests.conftest import count_gc_marks


@pytest.fixture(scope="module")
def results():
    calls = collect_suite_calls(["tlc", "styr"])
    return run_heuristics(calls, cube_limit=100)


class TestBuckets:
    def test_boundaries(self):
        assert bucket_of(0.0) is Bucket.SPARSE
        assert bucket_of(0.049) is Bucket.SPARSE
        assert bucket_of(0.05) is Bucket.MIDDLE
        assert bucket_of(0.95) is Bucket.MIDDLE
        assert bucket_of(0.951) is Bucket.DENSE
        assert bucket_of(1.0) is Bucket.DENSE


class TestHarness:
    def test_all_heuristics_measured(self, results):
        assert results.results
        for result in results.results:
            assert set(result.sizes) == set(PAPER_HEURISTICS)
            assert set(result.runtimes) == set(PAPER_HEURISTICS)

    def test_min_is_minimum(self, results):
        for result in results.results:
            assert result.min_size == min(result.sizes.values())

    def test_lower_bound_below_min(self, results):
        for result in results.results:
            assert result.lower_bound is not None
            assert result.lower_bound <= result.min_size

    def test_bucket_partition(self, results):
        total = sum(
            len(results.in_bucket(bucket))
            for bucket in (Bucket.SPARSE, Bucket.MIDDLE, Bucket.DENSE)
        )
        assert total == len(results.results)
        assert results.in_bucket(None) == results.results

    def test_run_experiment_end_to_end(self):
        res = run_experiment(
            names=["tlc"],
            heuristics=("constrain", "restrict", "f_orig"),
            compute_lower_bound=False,
        )
        assert res.total_calls == len(res.results)
        assert res.results
        for result in res.results:
            assert result.lower_bound is None

    def test_broken_heuristic_detected(self):
        from repro.core.registry import HEURISTICS

        HEURISTICS["_broken"] = lambda manager, f, c: manager.and_(f, 1) ^ 1
        try:
            calls = collect_suite_calls(["tlc"])
            res = run_heuristics(
                calls,
                heuristics=("_broken",),
                compute_lower_bound=False,
            )
        finally:
            del HEURISTICS["_broken"]
        # A non-cover is recorded as a failed cell, never a crash and
        # never a silent bogus size.
        assert res.results
        for result in res.results:
            assert result.sizes["_broken"] is None
            assert "non-cover" in result.failures["_broken"]
            assert result.min_size == result.f_size


    def test_serial_sweep_marks_each_record_once(self):
        (record,) = collect_suite_calls(["tlc"])
        manager = record.manager
        roots = tuple(ref for call in record.calls for ref in (call.f, call.c))
        # Rooted at the record's instances: cover sizes walk too.
        marks = count_gc_marks(manager, roots)
        before = manager.statistics()["gc_runs"]
        run_heuristics([record], cube_limit=100)
        flushes = manager.statistics()["gc_runs"] - before
        # One flush per heuristic cell plus one before each lower bound,
        # all rooted at the same record: only the first one marks.
        assert flushes == len(record.calls) * (len(PAPER_HEURISTICS) + 1)
        assert len(marks) == 1


class TestTable3:
    def test_rows_sorted_and_ranked(self, results):
        rows = table3_rows(results)
        heuristic_rows = [row for row in rows if row.rank is not None]
        totals = [row.total_size for row in heuristic_rows]
        assert totals == sorted(totals)
        assert heuristic_rows[0].rank == 1

    def test_min_row_is_100_percent(self, results):
        rows = table3_rows(results)
        min_row = next(row for row in rows if row.name == "min")
        assert min_row.pct_of_min == pytest.approx(100.0)

    def test_ties_share_rank(self, results):
        rows = table3_rows(results)
        by_total = {}
        for row in rows:
            if row.rank is None:
                continue
            by_total.setdefault(row.total_size, set()).add(row.rank)
        for ranks in by_total.values():
            assert len(ranks) == 1

    def test_low_bd_at_most_min(self, results):
        rows = table3_rows(results)
        low = next(row for row in rows if row.name == "low_bd")
        minimum = next(row for row in rows if row.name == "min")
        assert low.total_size <= minimum.total_size

    def test_render_smoke(self, results):
        text = render_table3(
            results, buckets=[None, Bucket.SPARSE, Bucket.DENSE]
        )
        assert "All calls" in text
        assert "osm_bt" in text

    def test_reduction_factor_at_least_one(self, results):
        assert reduction_factor(results) >= 1.0


class TestTable4:
    def test_diagonal_zero(self, results):
        matrix = table4_matrix(results)
        for name in ("f_orig", "constrain", "restrict"):
            assert matrix[(name, name)] == 0.0

    def test_min_row_dominates(self, results):
        """min never loses: row 'min' >= every other row entry-wise."""
        matrix = table4_matrix(results)
        names = [name for (row, name) in matrix if row == "min"]
        for col in names:
            for row in ("constrain", "restrict", "osm_bt"):
                assert matrix[("min", col)] >= 0.0
                # min is never strictly larger than any heuristic:
                # nobody can beat min.
        calls = results.in_bucket(None)
        for result in calls:
            assert result.min_size <= min(result.sizes.values())

    def test_orthogonality_symmetric_sum(self, results):
        matrix = table4_matrix(results)
        value = orthogonality(matrix, "constrain", "restrict")
        assert 0.0 <= value <= 200.0

    def test_render_smoke(self, results):
        text = render_table4(results)
        assert "Head-to-head" in text


class TestFigure3:
    def test_curves_monotone(self, results):
        curves = figure3_curves(results)
        for series in curves.values():
            values = [value for _, value in series]
            assert values == sorted(values)
            assert values[-1] <= 100.0

    def test_y_intercept_matches_curve(self, results):
        curves = figure3_curves(results)
        intercepts = y_intercepts(results)
        for name, series in curves.items():
            assert intercepts[name] == pytest.approx(series[0][1])

    def test_render_smoke(self, results):
        text = render_figure3(results)
        assert "Figure 3" in text
        assert "within % of min" in text


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["x", "1"], ["yy", "22"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines[1:])) <= 2

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])
