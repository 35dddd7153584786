"""Acceptance tests: budgeted sweeps degrade, checkpoints resume.

The two ISSUE-level guarantees:

* a Table-2 sweep under a tiny node budget completes without raising,
  failed cells carry a reason, and every measured cover was verified
  (``run_cell`` always checks it);
* killing a sweep and re-running with ``resume=True`` yields results
  identical to an uninterrupted run (modulo runtimes, which are
  re-measured wall-clock and inherently non-deterministic).
"""

import pytest

from repro.experiments.calls import collect_suite_calls
from repro.experiments.harness import run_heuristics
from repro.experiments.table3 import render_table3, table3_rows
from repro.experiments.table4 import table4_matrix
from repro.experiments.figure3 import figure3_curves
from repro.experiments.summary import export_csv, per_benchmark_summaries
from repro.robust.checkpoint import Checkpoint
from repro.robust.governor import Budget

HEURISTICS = ("constrain", "osm_bt", "f_orig")


@pytest.fixture(scope="module")
def tlc_calls():
    return collect_suite_calls(["tlc"])


def _stable_view(results):
    """Everything except runtimes, which legitimately vary."""
    return [
        (
            result.benchmark,
            result.iteration,
            result.f_size,
            result.sizes,
            result.min_size,
            result.lower_bound,
            result.failures,
        )
        for result in results.results
    ]


class TestBudgetedSweep:
    def test_tiny_budget_completes_with_recorded_failures(self, tlc_calls):
        results = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            budget=Budget(max_nodes=2, max_steps=2),
        )
        assert results.results, "sweep produced no measurements"
        saw_failure = False
        for result in results.results:
            for name in HEURISTICS:
                if result.sizes[name] is None:
                    saw_failure = True
                    assert name in result.failures
                    assert result.failures[name]  # non-empty reason
                else:
                    assert name not in result.failures
            # f_orig allocates nothing: it always survives any budget,
            # so min_size always has at least one measured cell.
            assert result.sizes["f_orig"] == result.f_size
            assert result.min_size <= result.f_size
        assert saw_failure, "a 2-node budget should trip on tlc"
        assert results.failed_cells > 0

    def test_exhibits_tolerate_failed_cells(self, tlc_calls):
        results = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            budget=Budget(max_nodes=2, max_steps=2),
        )
        rows = table3_rows(results)
        failing = [row for row in rows if row.failures]
        assert failing, "table 3 should surface the failed cells"
        for row in failing:
            assert row.rank is None  # partial totals are not ranked
        assert "Fail" in render_table3(results)
        matrix = table4_matrix(results, names=list(HEURISTICS))
        for value in matrix.values():
            assert 0.0 <= value <= 100.0
        curves = figure3_curves(results, names=list(HEURISTICS))
        assert set(curves) == set(HEURISTICS)
        summaries = per_benchmark_summaries(results)
        assert summaries[0].best_heuristic in ("f_orig", "-") + HEURISTICS
        csv_text = export_csv(results)
        assert "size_constrain" in csv_text

    def test_unbudgeted_sweep_has_no_failures(self, tlc_calls):
        results = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
        )
        assert results.failed_cells == 0
        for result in results.results:
            assert result.min_size == min(result.sizes.values())


class TestCheckpointResume:
    def test_interrupted_resume_matches_uninterrupted(
        self, tlc_calls, tmp_path
    ):
        journal_path = tmp_path / "sweep.jsonl"
        baseline = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            checkpoint=journal_path,
        )
        assert len(baseline.results) >= 2, "need >= 2 calls to interrupt"

        # Simulate a kill after the first call: keep only line one.
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text(lines[0])

        resumed = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            checkpoint=journal_path,
            resume=True,
        )
        assert resumed.resumed_calls == 1
        assert _stable_view(resumed) == _stable_view(baseline)
        # The journal was healed back to completeness by the resume.
        replay = Checkpoint(journal_path).load()
        assert len(replay) == len(baseline.results)

    def test_resume_after_torn_write(self, tlc_calls, tmp_path):
        journal_path = tmp_path / "torn.jsonl"
        baseline = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            checkpoint=journal_path,
        )
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        resumed = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            checkpoint=journal_path,
            resume=True,
        )
        assert _stable_view(resumed) == _stable_view(baseline)

    def test_full_journal_resume_remeasures_nothing(
        self, tlc_calls, tmp_path
    ):
        journal_path = tmp_path / "full.jsonl"
        baseline = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            checkpoint=journal_path,
        )
        resumed = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            checkpoint=journal_path,
            resume=True,
        )
        assert resumed.resumed_calls == len(baseline.results)
        # Fully replayed: even runtimes are bitwise identical.
        assert resumed.results == baseline.results

    def test_resume_requires_checkpoint(self, tlc_calls):
        with pytest.raises(ValueError):
            run_heuristics(tlc_calls, resume=True)

    def test_fresh_run_truncates_stale_journal(self, tlc_calls, tmp_path):
        journal_path = tmp_path / "stale.jsonl"
        journal_path.write_text('{"stale": "junk"}\n')
        results = run_heuristics(
            tlc_calls,
            heuristics=HEURISTICS,
            compute_lower_bound=False,
            checkpoint=journal_path,
        )
        replay = Checkpoint(journal_path).load()
        assert len(replay) == len(results.results)
