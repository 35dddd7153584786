"""Service-level tests: breakers over a real pool, retry, sweep parity."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.bdd.manager import Manager
from repro.core.ispec import ISpec
from repro.core.registry import register_heuristic, unregister_heuristic
from repro.obs import metrics as obs_metrics
from repro.serve.breaker import CLOSED, OPEN, RetryPolicy
from repro.serve.pool import MinimizationPool
from repro.serve.service import MinimizationService

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="service tests require the fork start method",
)

FAST = dict(deadline=0.4, kill_grace=0.15)


def _instance():
    manager = Manager(["a", "b", "c", "d"])
    a, b, c, d = (manager.var(level) for level in range(4))
    f = manager.or_(manager.and_(a, b), manager.and_(c, d))
    care = manager.or_(a, b)
    return manager, f, care


def _flaky_while_flag(flag_path):
    """A heuristic that hangs while ``flag_path`` exists, else succeeds.

    The flag lives on disk, so the parent can heal the heuristic
    between requests even though each request runs in a (possibly
    recycled) worker process.
    """

    def flaky(manager, f, c):
        while os.path.exists(flag_path):
            try:
                time.sleep(0.01)
            except Exception:
                # Swallow the worker's deadline alarm: the fault
                # drills exercise the watchdog SIGKILL path, so the
                # hang must survive the cooperative deadline.
                continue
        return f

    return flaky


class TestServiceBasics:
    def test_healthy_request(self):
        manager, f, c = _instance()
        pool = MinimizationPool(workers=1)
        with MinimizationService(pool, own_pool=True) as service:
            result = service.minimize(manager, f, c, method="osm_bt")
        assert result.ok and result.attempts == 1
        assert ISpec(manager, f, c).is_cover(result.cover)

    def test_deterministic_failure_is_not_retried(self):
        manager, f, c = _instance()
        pool = MinimizationPool(workers=1)
        with MinimizationService(
            pool, retry=RetryPolicy(max_attempts=3), own_pool=True
        ) as service:
            result = service.minimize(manager, f, c, method="no_such")
        assert result.degraded and result.attempts == 1
        assert "UnknownHeuristic" in result.reason

    def test_worker_stats_and_breaker_transition_metrics(self):
        manager, f, c = _instance()
        pool = MinimizationPool(workers=1)
        with obs_metrics.collecting() as registry, MinimizationService(
            pool, failure_threshold=1, own_pool=True
        ) as service:
            healthy = service.minimize(manager, f, c, method="osm_bt")
            service.minimize(manager, f, c, method="no_such")
            stats = service.statistics()
        assert healthy.stats["nodes_created"] > 0
        assert stats["worker_stats"]["nodes_created"] == (
            healthy.stats["nodes_created"]
        )
        counters = registry.snapshot()["counters"]
        assert counters["serve.breaker.closed_to_open"] == 1

    def test_retry_recovers_transient_failure(self, tmp_path):
        # First attempt hangs (flag present) and is killed; the
        # heuristic clears its own flag, so the retry succeeds.
        flag = str(tmp_path / "one_shot.flag")
        with open(flag, "w") as handle:
            handle.write("x")

        def clears_then_hangs(manager, f, c):
            if os.path.exists(flag):
                os.unlink(flag)
                while True:
                    pass
            return f

        register_heuristic("test_one_shot", clears_then_hangs, replace=True)
        try:
            manager, f, c = _instance()
            pool = MinimizationPool(workers=1, **FAST)
            with MinimizationService(
                pool, retry=RetryPolicy(max_attempts=2), own_pool=True
            ) as service:
                result = service.minimize(
                    manager, f, c, method="test_one_shot"
                )
            assert result.ok and result.attempts == 2
            assert service.breaker("test_one_shot").state == CLOSED
        finally:
            unregister_heuristic("test_one_shot")


class TestFaultDrill:
    def test_kill_trip_cooldown_probe_recovery(self, tmp_path):
        # The acceptance drill: workers killed mid-request until the
        # breaker opens, short-circuits during cooldown (no pool
        # traffic), then a half-open probe against the healed
        # heuristic closes the breaker again.
        flag = str(tmp_path / "hang.flag")
        with open(flag, "w") as handle:
            handle.write("x")
        register_heuristic(
            "test_flaky", _flaky_while_flag(flag), replace=True
        )
        try:
            manager, f, c = _instance()
            pool = MinimizationPool(workers=1, **FAST)
            with MinimizationService(
                pool,
                failure_threshold=2,
                cooldown=2,
                retry=RetryPolicy(max_attempts=1),
                own_pool=True,
            ) as service:
                breaker = service.breaker("test_flaky")
                # Two killed requests trip the breaker.
                for _ in range(2):
                    result = service.minimize(
                        manager, f, c, method="test_flaky"
                    )
                    assert result.killed and result.cover == f
                assert breaker.state == OPEN
                assert pool.kills == 2
                # Cooldown: two short-circuits, zero pool traffic.
                pool_requests = pool.requests
                for _ in range(2):
                    result = service.minimize(
                        manager, f, c, method="test_flaky"
                    )
                    assert result.short_circuited
                    assert result.attempts == 0
                    assert "CircuitOpen" in result.reason
                    assert result.cover == f
                assert pool.requests == pool_requests
                assert service.short_circuits == 2
                # Heal the heuristic, then the half-open probe closes
                # the breaker.
                os.unlink(flag)
                result = service.minimize(
                    manager, f, c, method="test_flaky"
                )
                assert result.ok
                assert breaker.state == CLOSED
                # And normal traffic flows again.
                assert service.minimize(
                    manager, f, c, method="test_flaky"
                ).ok
        finally:
            unregister_heuristic("test_flaky")

    def test_failed_probe_reopens(self, tmp_path):
        flag = str(tmp_path / "hang.flag")
        with open(flag, "w") as handle:
            handle.write("x")
        register_heuristic(
            "test_flaky2", _flaky_while_flag(flag), replace=True
        )
        try:
            manager, f, c = _instance()
            pool = MinimizationPool(workers=1, **FAST)
            with MinimizationService(
                pool,
                failure_threshold=1,
                cooldown=1,
                retry=RetryPolicy(max_attempts=1),
                own_pool=True,
            ) as service:
                breaker = service.breaker("test_flaky2")
                service.minimize(manager, f, c, method="test_flaky2")
                assert breaker.state == OPEN
                assert service.minimize(
                    manager, f, c, method="test_flaky2"
                ).short_circuited
                # Probe runs for real, still hangs, reopens.
                probe = service.minimize(
                    manager, f, c, method="test_flaky2"
                )
                assert probe.killed
                assert breaker.state == OPEN
        finally:
            unregister_heuristic("test_flaky2")


class TestSweepParity:
    def test_pooled_sweep_matches_serial(self):
        # The harness acceptance check: a parallel sweep agrees with
        # the serial one cell for cell (no failures expected on the
        # healthy quick benchmark).
        from repro.experiments.calls import collect_suite_calls
        from repro.experiments.harness import run_heuristics

        subset = ("osm_bt", "constrain", "restrict", "f_orig")
        serial = run_heuristics(
            collect_suite_calls(["tlc"]),
            heuristics=subset,
            compute_lower_bound=False,
        )
        pooled = run_heuristics(
            collect_suite_calls(["tlc"]),
            heuristics=subset,
            compute_lower_bound=False,
            parallel=2,
        )
        assert serial.total_calls == pooled.total_calls
        for left, right in zip(serial.results, pooled.results):
            for name in subset:
                # Identical modulo None cells (a pooled cell may
                # additionally degrade on wall-clock effects; none are
                # expected here, but the contract allows it).
                if left.sizes[name] is None or right.sizes[name] is None:
                    continue
                assert left.sizes[name] == right.sizes[name]
        assert pooled.failed_cells == 0
        # Each call's cells ride one batch envelope.
        assert pooled.serve_stats["batches"] == pooled.total_calls

    def test_breaker_gates_harness_cells(self, tmp_path):
        # A permanently hung heuristic stops being dispatched once its
        # breaker opens, while healthy heuristics keep their cells.
        flag = str(tmp_path / "always.flag")
        with open(flag, "w") as handle:
            handle.write("x")
        register_heuristic(
            "test_always_hang", _flaky_while_flag(flag), replace=True
        )
        try:
            from repro.experiments.calls import collect_suite_calls
            from repro.experiments.harness import run_heuristics

            results = run_heuristics(
                collect_suite_calls(["minmax5"]),
                heuristics=("f_orig", "test_always_hang"),
                compute_lower_bound=False,
                parallel=2,
                serve_deadline=0.4,
            )
            reasons = [
                result.failures.get("test_always_hang", "")
                for result in results.results
            ]
            assert all(reasons), "every hung cell must record a reason"
            assert any("DeadlineExceeded" in reason for reason in reasons)
            assert any("CircuitOpen" in reason for reason in reasons)
            for result in results.results:
                assert result.sizes["f_orig"] is not None
                assert result.sizes["test_always_hang"] is None
        finally:
            unregister_heuristic("test_always_hang")
