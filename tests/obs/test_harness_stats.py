"""Per-cell statistics snapshots in the experiment harness."""

from repro.core.registry import PAPER_HEURISTICS
from repro.experiments.calls import collect_suite_calls
from repro.experiments.harness import CallResult, run_heuristics
from repro.experiments.summary import aggregate_stats
from repro.robust.checkpoint import (
    Checkpoint,
    record_to_result,
    result_to_record,
)
from repro.robust.governor import Budget


def _sweep(**kwargs):
    calls = collect_suite_calls(["tlc"])
    return run_heuristics(
        calls,
        heuristics=("constrain", "osm_bt"),
        compute_lower_bound=False,
        **kwargs,
    )


class TestSerialStats:
    def test_every_cell_has_a_snapshot(self):
        results = _sweep()
        assert results.results
        for result in results.results:
            assert set(result.stats) == {"constrain", "osm_bt"}
            for snapshot in result.stats.values():
                assert snapshot["ite_calls"] >= 0
                assert "peak_nodes" in snapshot

    def test_osm_bt_snapshot_counts_ite_work(self):
        results = _sweep()
        total = sum(
            result.stats["osm_bt"]["ite_calls"]
            for result in results.results
        )
        assert total > 0

    def test_failed_cells_still_carry_snapshots(self):
        # A one-step budget trips every non-trivial heuristic; the cell
        # fails but its snapshot must still say what it burned.
        results = _sweep(budget=Budget(max_steps=1))
        failed = [
            result
            for result in results.results
            if "osm_bt" in result.failures
        ]
        assert failed, "expected the 1-step budget to fail some cells"
        for result in failed:
            assert result.sizes["osm_bt"] is None
            assert "osm_bt" in result.stats

    def test_aggregate_stats_sums_cumulative_keys(self):
        results = _sweep()
        totals = aggregate_stats(results)
        per_cell = sum(
            result.stats["osm_bt"]["ite_calls"]
            for result in results.results
        )
        assert totals["osm_bt"]["ite_calls"] == per_cell


class TestPooledStats:
    def test_pooled_cells_ship_worker_snapshots(self):
        results = _sweep(parallel=2)
        measured = [
            result
            for result in results.results
            if result.sizes.get("osm_bt") is not None
        ]
        assert measured
        for result in measured:
            snapshot = result.stats.get("osm_bt")
            assert snapshot is not None
            # Worker managers are warm (persist across cells), so each
            # snapshot is a per-cell delta — still positive for real
            # engine work: ITE calls plus the match tests' agree steps.
            assert snapshot["ite_calls"] + snapshot["agree_steps"] > 0


class TestCheckpointStats:
    def test_roundtrip_preserves_stats(self, tmp_path):
        result = CallResult(
            benchmark="tlc",
            iteration=0,
            f_size=10,
            onset_fraction=0.5,
            sizes={"constrain": 7},
            runtimes={"constrain": 0.01},
            min_size=7,
            stats={"constrain": {"ite_calls": 42, "peak_nodes": 99}},
        )
        loaded = record_to_result(result_to_record(result))
        assert loaded.stats == result.stats

    def test_legacy_record_without_stats_loads(self):
        record = result_to_record(
            CallResult(
                benchmark="tlc",
                iteration=0,
                f_size=10,
                onset_fraction=0.5,
                sizes={"constrain": 7},
                runtimes={"constrain": 0.01},
                min_size=7,
            )
        )
        del record["stats"]
        loaded = record_to_result(record)
        assert loaded.stats == {}

    def test_resume_replays_stats_from_journal(self, tmp_path):
        journal = Checkpoint(tmp_path / "sweep.jsonl")
        first = _sweep(checkpoint=journal)
        resumed = _sweep(checkpoint=journal, resume=True)
        assert resumed.resumed_calls == len(first.results)
        for fresh, replayed in zip(first.results, resumed.results):
            assert replayed.stats == fresh.stats
