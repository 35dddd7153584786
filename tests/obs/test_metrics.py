"""Tests for the metrics registry and the Manager integration."""

import pytest

from repro.bdd.manager import Manager
from repro.obs import metrics
from repro.obs.metrics import (
    SERVE_COUNTER_KEYS,
    MetricsRegistry,
    diff_statistics,
    ensure_serve_counters,
    merge_counts,
)


class TestRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.counter("a") == 5
        assert registry.counter("missing") == 0

    def test_gauges(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 3.0)
        registry.set_gauge("g", 1.0)
        assert registry.gauge("g") == 1.0
        registry.max_gauge("w", 2.0)
        registry.max_gauge("w", 1.0)
        assert registry.gauge("w") == 2.0
        assert registry.gauge("missing") is None

    def test_histograms(self):
        registry = MetricsRegistry()
        for value in (3, 1, 2):
            registry.observe("h", value)
        summary = registry.histogram("h")
        assert summary == {"count": 3, "total": 6, "min": 1, "max": 3}
        assert registry.histogram("missing") is None

    def test_snapshot_roundtrip(self):
        import json

        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 7)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        other = MetricsRegistry()
        other.inc("c", 1)
        other.merge_snapshot(snapshot)
        assert other.counter("c") == 3
        assert other.gauge("g") == 1.5
        assert other.histogram("h")["count"] == 1

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.reset()
        assert registry.counter("c") == 0


class TestActivation:
    def test_disabled_by_default(self):
        assert metrics.active() is None
        assert not metrics.enabled()

    def test_collecting_scopes_and_restores(self):
        with metrics.collecting() as registry:
            assert metrics.active() is registry
            with metrics.collecting() as inner:
                assert metrics.active() is inner
            assert metrics.active() is registry
        assert metrics.active() is None

    def test_enable_disable(self):
        registry = metrics.enable()
        try:
            assert metrics.active() is registry
            assert metrics.enabled()
        finally:
            assert metrics.disable() is registry
        assert metrics.active() is None


class TestDiffStatistics:
    def test_cumulative_keys_differenced(self):
        before = {"ite_calls": 10, "ite_cache_hits": 4, "num_nodes": 7}
        after = {"ite_calls": 25, "ite_cache_hits": 9, "num_nodes": 11}
        delta = diff_statistics(before, after)
        assert delta["ite_calls"] == 15
        assert delta["ite_cache_hits"] == 5
        # Point-in-time values report the after state, not a delta.
        assert delta["num_nodes"] == 11

    def test_suffix_keys_differenced(self):
        before = {"cache_constrain_hits": 3, "cache_constrain_misses": 1}
        after = {"cache_constrain_hits": 8, "cache_constrain_misses": 2}
        delta = diff_statistics(before, after)
        assert delta["cache_constrain_hits"] == 5
        assert delta["cache_constrain_misses"] == 1

    def test_backwards_counter_clamps_to_after(self):
        # A cache flush between the snapshots resets per-cache counters;
        # the delta then is just "what happened since the reset".
        before = {"cache_constrain_hits": 50}
        after = {"cache_constrain_hits": 7}
        assert diff_statistics(before, after)["cache_constrain_hits"] == 7

    def test_new_keys_kept(self):
        delta = diff_statistics({}, {"ite_calls": 3, "num_vars": 2})
        assert delta == {"ite_calls": 3, "num_vars": 2}


class TestMergeCounts:
    def test_cumulative_sum_pointwise_max(self):
        total = {}
        merge_counts(total, {"ite_calls": 5, "peak_nodes": 10})
        merge_counts(total, {"ite_calls": 7, "peak_nodes": 4})
        assert total["ite_calls"] == 12
        assert total["peak_nodes"] == 10


class TestEnsureServeCounters:
    def test_zero_fills_complete_key_set(self):
        registry = MetricsRegistry()
        ensure_serve_counters(registry)
        counters = registry.snapshot()["counters"]
        assert set(SERVE_COUNTER_KEYS) <= set(counters)
        assert all(counters[key] == 0 for key in SERVE_COUNTER_KEYS)

    def test_does_not_clobber_recorded_counts(self):
        registry = MetricsRegistry()
        registry.inc("gateway.hedges", 5)
        ensure_serve_counters(registry)
        assert registry.counter("gateway.hedges") == 5


class TestManagerCounters:
    def test_statistics_has_cumulative_keys(self):
        manager = Manager()
        x = manager.new_var("x")
        y = manager.new_var("y")
        manager.and_(x, y)
        stats = manager.statistics()
        assert stats["ite_calls"] > 0
        assert stats["nodes_created"] > 0
        assert stats["peak_nodes"] >= stats["num_nodes"]
        assert stats["ite_cache_hits"] + stats["ite_cache_misses"] > 0

    def test_original_keys_still_present(self):
        manager = Manager()
        stats = manager.statistics()
        for key in ("num_nodes", "num_vars", "ite_cache", "unique_table"):
            assert key in stats

    def test_cumulative_keys_survive_cache_flush(self):
        manager = Manager()
        x = manager.new_var("x")
        y = manager.new_var("y")
        manager.and_(x, y)
        before = manager.statistics()
        manager.clear_caches()
        after = manager.statistics()
        assert after["ite_calls"] == before["ite_calls"]
        assert after["nodes_created"] == before["nodes_created"]

    def test_attach_detach_publishes_deltas(self):
        manager = Manager()
        x = manager.new_var("x")
        y = manager.new_var("y")
        registry = MetricsRegistry()
        manager.attach_metrics(registry)
        manager.or_(x, y)
        manager.detach_metrics()
        assert registry.counter("manager.ite_calls") > 0
        assert registry.gauge("manager.peak_nodes") >= 1

    def test_attach_twice_raises(self):
        manager = Manager()
        manager.attach_metrics(MetricsRegistry())
        with pytest.raises(ValueError):
            manager.attach_metrics(MetricsRegistry())
        manager.detach_metrics()

    def test_named_caches_count_while_attached(self):
        manager = Manager()
        x = manager.new_var("x")
        y = manager.new_var("y")
        f = manager.and_(x, y)
        manager.attach_metrics(MetricsRegistry())
        manager.cofactor(f, 0, True)
        manager.cofactor(f, 0, True)
        stats = manager.statistics()
        cache_keys = [
            key for key in stats
            if key.startswith("cache_") and key.endswith("_hits")
        ]
        assert cache_keys
        manager.detach_metrics()
        # Detached: the counting wrappers are gone again.
        stats = manager.statistics()
        assert not any(
            key.startswith("cache_") and key.endswith("_hits")
            for key in stats
        )

    def test_caches_created_before_attach_count_and_stay_live(self):
        # Regression: a cache handle obtained *before* attach_metrics
        # must be the same live object afterwards — an upgrade that
        # swaps the dict leaves stale handles whose writes are lost.
        manager = Manager()
        x = manager.new_var("x")
        y = manager.new_var("y")
        f = manager.and_(x, y)
        early = manager.cache("early")
        early[("probe",)] = 42
        manager.attach_metrics(MetricsRegistry())
        assert manager.cache("early") is early  # identity survived
        assert early[("probe",)] == 42  # contents survived
        # Writes through the pre-attach handle keep hitting the cache
        # the manager consults.
        early[("added-after",)] = 7
        assert manager.cache("early").get(("added-after",)) == 7
        # And lookups through it are counted.
        early.get(("probe",))
        early.get(("never",))
        stats = manager.statistics()
        assert stats["cache_early_hits"] >= 1
        assert stats["cache_early_misses"] >= 1
        manager.detach_metrics()
        assert manager.cache("early") is early

    def test_gc_counters_are_cumulative(self):
        from repro.obs.metrics import diff_statistics

        manager = Manager()
        x = manager.new_var("x")
        y = manager.new_var("y")
        manager.and_(x, y)
        before = manager.statistics()
        manager.xor(x, y)
        manager.gc((manager.and_(x, y),))
        delta = diff_statistics(before, manager.statistics())
        assert delta["gc_runs"] == 1
        assert delta["nodes_reclaimed"] >= 1
        assert "live_nodes" in manager.statistics()
