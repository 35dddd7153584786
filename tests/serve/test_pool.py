"""Tests for the process-isolated worker pool (watchdog, recycling)."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.bdd.manager import Manager, ZERO
from repro.core.ispec import ISpec
from repro.core.registry import (
    HEURISTICS,
    register_heuristic,
    unregister_heuristic,
)
from repro.serve.pool import (
    DETERMINISTIC,
    GLOBAL_PHASES,
    TRANSIENT,
    MinimizationPool,
    PhaseAccumulator,
    PhaseClock,
    ServeResult,
    pack_cells,
)

# The pool tests register throwaway heuristics from inside the test
# process and rely on fork inheritance to make them visible in workers.
pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests require the fork start method",
)

#: Short deadlines keep the kill drills fast while staying far above
#: scheduler jitter.
FAST = dict(deadline=0.4, kill_grace=0.15)


def _instance():
    manager = Manager(["a", "b", "c", "d"])
    a, b, c, d = (manager.var(level) for level in range(4))
    f = manager.or_(manager.and_(a, b), manager.and_(c, d))
    care = manager.or_(a, b)
    return manager, f, care


def _hang_forever(manager, f, c):
    # Swallows the worker's deadline alarm: models a hang the
    # cooperative in-worker deadline cannot interrupt (a blocked
    # syscall, a runaway C loop), forcing the parent watchdog's
    # SIGKILL path that these drills exercise.
    while True:
        try:
            while True:
                pass
        except Exception:
            continue


def _crash_hard(manager, f, c):
    os._exit(17)


def _non_cover(manager, f, c):
    return ZERO


def _sleep_long(manager, f, c):
    # Interruptible (unlike _hang_forever): the worker's SIGALRM
    # deadline must degrade this cleanly without any SIGKILL.
    time.sleep(30.0)
    return f


def _flaky_while_flag(flag_path):
    """A heuristic that hangs while ``flag_path`` exists, else succeeds.

    The flag lives on disk, so the parent can heal the heuristic
    between requests even though each request runs in a (possibly
    recycled) worker process.
    """

    def flaky(manager, f, c):
        # The whole loop sits inside the ``try``: the worker's deadline
        # alarm can land anywhere in it, including the flag check, and
        # must be swallowed there too.  The fault drills exercise the
        # watchdog SIGKILL path, so the hang must survive the
        # cooperative deadline.
        while True:
            try:
                while os.path.exists(flag_path):
                    time.sleep(0.01)
                return f
            except Exception:
                continue

    return flaky


@pytest.fixture
def registered():
    """Register the pathological heuristics, clean up afterwards."""
    names = {
        "test_hang": _hang_forever,
        "test_crash": _crash_hard,
        "test_non_cover": _non_cover,
        "test_sleep": _sleep_long,
    }
    for name, heuristic in names.items():
        register_heuristic(name, heuristic, replace=True)
    yield names
    for name in names:
        unregister_heuristic(name)


class TestHealthyPath:
    def test_matches_in_process_result(self):
        manager, f, c = _instance()
        with MinimizationPool(workers=2) as pool:
            result = pool.minimize(manager, f, c, method="osm_bt")
        assert result.ok and not result.degraded
        direct = HEURISTICS["osm_bt"](manager, f, c)
        assert manager.size(result.cover) == manager.size(direct)
        assert ISpec(manager, f, c).is_cover(result.cover)

    def test_batch_results_are_index_aligned(self, registered):
        manager, f, c = _instance()
        methods = ["osm_bt", "test_hang", "constrain", "f_orig"]
        with MinimizationPool(workers=2, **FAST) as pool:
            replies = pool.run_batch(
                manager, [(m, f, c) for m in methods]
            )
        assert [reply.method for reply in replies] == methods
        assert [reply.ok for reply in replies] == [True, False, True, True]
        # The hung cell degraded alone; its neighbors are untouched.
        assert replies[1].cover == f and replies[1].killed

    def test_statistics_shape(self):
        manager, f, c = _instance()
        with MinimizationPool(workers=1) as pool:
            pool.minimize(manager, f, c)
            stats = pool.statistics()
        assert stats["requests"] == 1
        assert stats["failures"] == 0
        assert stats["workers"] == 1
        assert stats["recycles"] == 0

    def test_worker_stats_show_compacting_gc(self):
        # The between-cell collection is the worker's work, not the
        # heuristic's: the cell's statistics show no collection, while
        # the warm-host counter and the worker.gc phase record it.
        manager, f, c = _instance()
        with MinimizationPool(workers=1, node_watermark=1) as pool:
            result = pool.minimize(manager, f, c, method="osm_bt")
            stats = pool.statistics()
            phases = pool.phase_summary()
        assert result.ok
        assert result.stats is not None
        assert result.stats["gc_runs"] == 0
        assert stats["warm_compactions"] == 1
        assert phases["worker.gc"]["count"] == 1


class TestCellParity:
    def test_pooled_cells_count_the_serial_agree_steps(self):
        # A cell's statistics are the heuristic's own on both paths: the
        # same agree walks, and neither the cover check's walk nor a
        # collection.
        from repro.core.registry import PAPER_HEURISTICS
        from repro.experiments.calls import collect_suite_calls
        from repro.experiments.harness import run_heuristics

        def sweep(**kwargs):
            return run_heuristics(
                collect_suite_calls(["s344"], max_iterations=2),
                compute_lower_bound=False,
                **kwargs,
            )

        serial = sweep()
        pooled = sweep(parallel=1)
        assert len(serial.results) == len(pooled.results) > 0
        for left, right in zip(serial.results, pooled.results):
            for name in PAPER_HEURISTICS:
                assert (
                    right.stats[name]["agree_steps"]
                    == left.stats[name]["agree_steps"]
                ), name
                assert left.stats[name]["gc_runs"] == 0, name
                assert right.stats[name]["gc_runs"] == 0, name

    def test_pooled_runtime_excludes_the_cover_check(self, monkeypatch):
        original = ISpec.is_cover

        def slow_check(spec, g):
            time.sleep(0.2)
            return original(spec, g)

        # Patched before the pool forks, so the worker's check sleeps.
        monkeypatch.setattr(ISpec, "is_cover", slow_check)
        manager, f, c = _instance()
        with MinimizationPool(workers=1) as pool:
            result = pool.minimize(manager, f, c, method="osm_bt")
        assert result.ok
        assert result.runtime < 0.1


class TestBatchedDispatch:
    METHODS = ["osm_bt", "constrain", "restrict", "osm_td", "f_orig"]

    def test_injected_fault_fails_only_its_own_cell(self, registered):
        # The acceptance drill: a deterministic mid-batch fault (a
        # non-cover contract violation) degrades its own cell and
        # nothing else — no kill, no restart, neighbors untouched.
        manager, f, c = _instance()
        methods = ["osm_bt", "test_non_cover", "constrain"]
        with MinimizationPool(workers=1, **FAST) as pool:
            replies = pool.run_batch(
                manager, [(m, f, c) for m in methods]
            )
            stats = pool.statistics()
        assert [reply.ok for reply in replies] == [True, False, True]
        assert replies[1].kind == DETERMINISTIC
        assert "non-cover" in replies[1].reason
        assert not any(reply.killed for reply in replies)
        assert stats["kills"] == 0
        assert stats["worker_restarts"] == 0

    def test_mid_batch_crash_keeps_streamed_results(self, registered):
        manager, f, c = _instance()
        methods = ["osm_bt", "test_crash", "constrain"]
        with MinimizationPool(workers=1, **FAST) as pool:
            replies = pool.run_batch(
                manager, [(m, f, c) for m in methods]
            )
            assert pool.crashes == 1
            # The replacement worker serves the next request.
            assert pool.minimize(manager, f, c, method="osm_bt").ok
        assert replies[0].ok
        assert replies[1].degraded and not replies[1].killed
        assert replies[1].kind == TRANSIENT
        assert "WorkerCrash" in replies[1].reason
        assert replies[2].kind == TRANSIENT
        assert "BatchAborted" in replies[2].reason

    def test_batched_matches_single_cell_bytes(self):
        # The differential acceptance check: multi-cell envelopes and
        # batches of one must produce byte-identical canonical covers.
        from repro.bdd.wire import serialize

        manager, f, c = _instance()
        cells = [(m, f, c) for m in self.METHODS]
        with MinimizationPool(workers=2) as pool:
            batched = pool.run_batch(manager, cells)
            single = [
                pool.minimize(manager, f, c, method=m) for m in self.METHODS
            ]
        for one, other in zip(batched, single):
            assert one.ok and other.ok
            assert serialize(manager, (one.cover,)) == serialize(
                manager, (other.cover,)
            )

    def test_warm_manager_returns_to_baseline(self):
        # Identical batches on one warm worker must report identical
        # live_nodes, read right after each heuristic — nothing leaks
        # from batch to batch or from cell to cell.  The first batch
        # warms the manager: its first reading also counts the fresh
        # manager's projection nodes that the instance does not use,
        # which the first collection sweeps.
        manager, f, c = _instance()
        cells = [(m, f, c) for m in self.METHODS]
        with MinimizationPool(workers=1) as pool:
            batches = [pool.run_batch(manager, cells) for _ in range(3)]
        for replies in batches:
            assert all(reply.ok for reply in replies)
        baseline = [reply.stats["live_nodes"] for reply in batches[1]]
        assert [
            reply.stats["live_nodes"] for reply in batches[2]
        ] == baseline
        assert [
            reply.stats["live_nodes"] for reply in batches[0][1:]
        ] == baseline[1:]

    def test_tiny_watermark_compacts_and_stays_correct(self):
        manager, f, c = _instance()
        cells = [(m, f, c) for m in self.METHODS]
        with MinimizationPool(workers=1, node_watermark=1) as pool:
            compacted = pool.run_batch(manager, cells)
            stats = pool.statistics()
        with MinimizationPool(workers=1) as pool:
            reference = pool.run_batch(manager, cells)
        # Every between-cell collection ran past the 1-node watermark.
        assert stats["warm_compactions"] >= len(cells)
        for one, other in zip(compacted, reference):
            assert one.ok and other.ok
            assert ISpec(manager, f, c).is_cover(one.cover)
            assert manager.size(one.cover) == manager.size(other.cover)

    def test_first_cell_stats_exclude_the_instance_decode(self):
        # A batch's first cell reports only its own work: the shared
        # instance's decode belongs to the worker.decode and
        # worker.manager phases, not to whichever cell used it first.
        from repro.bdd.parser import parse_expression
        from repro.bdd.wire import (
            build_parsed,
            parse_payload,
            serialize_instance,
        )
        from repro.obs.metrics import diff_statistics

        manager = Manager(["x%d" % level for level in range(8)])
        f = parse_expression(manager, "(x0 & x3) ^ (x5 | x1 & x7)")
        c = parse_expression(manager, "x0 | x2 & ~x6 | x4 & x5")
        parsed = parse_payload(serialize_instance(manager, f, c))
        local = Manager(list(parsed.names))
        _, (local_f, local_c) = build_parsed(parsed, local)
        before = local.statistics()
        HEURISTICS["constrain"](local, local_f, local_c)
        expected = diff_statistics(before, local.statistics())
        with MinimizationPool(workers=1) as pool:
            replies = pool.run_batch(manager, [("constrain", f, c)] * 3)
        assert all(reply.ok for reply in replies)
        assert replies[0].stats["nodes_created"] == expected["nodes_created"]

    def test_warm_reset_on_universe_change(self):
        manager, f, c = _instance()
        other = Manager(["x", "y"])
        x, y = other.var(0), other.var(1)
        g, d = other.or_(x, y), other.and_(x, y)
        with MinimizationPool(workers=1) as pool:
            first = pool.run_batch(
                manager, [(m, f, c) for m in ("osm_bt", "constrain")]
            )
            second = pool.run_batch(
                other, [(m, g, d) for m in ("osm_bt", "constrain")]
            )
            stats = pool.statistics()
        assert all(r.ok for r in first) and all(r.ok for r in second)
        assert stats["warm_resets"] >= 1


class TestPhaseLedger:
    def test_clock_accumulates_durations(self):
        clock = PhaseClock()
        with clock.phase("worker.decode"):
            pass
        with clock.phase("worker.decode"):
            pass
        assert clock.durations["worker.decode"] >= 0
        assert set(clock.durations) == {"worker.decode"}

    def test_nearest_rank_percentiles_are_exact(self):
        acc = PhaseAccumulator()
        for value in range(100, 0, -1):  # 1..100, unsorted on purpose
            acc.observe("phase", float(value))
        summary = acc.summary()["phase"]
        assert summary["count"] == 100
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0
        assert summary["max"] == 100.0

    def test_merge_and_reset(self):
        acc = PhaseAccumulator()
        acc.merge({"a": 1.0, "b": 2.0})
        assert set(acc.summary()) == {"a", "b"}
        acc.reset()
        assert acc.summary() == {}

    def test_batches_are_accounted_without_a_tracer(self):
        # The ledger is always on: 12 cells over 2 workers are two
        # batch dispatches, each observed once by the pool and by the
        # process-global accumulator, with no tracer active.
        from repro.obs import trace as obs_trace

        assert obs_trace.active() is None
        GLOBAL_PHASES.reset()
        manager, f, c = _instance()
        with MinimizationPool(workers=2) as pool:
            replies = pool.run_batch(manager, [("osm_bt", f, c)] * 12)
            summary = pool.phase_summary()
        assert all(reply.ok for reply in replies)
        for ledger in (summary, GLOBAL_PHASES.summary()):
            assert ledger["worker.compute"]["count"] == 2
            assert ledger["pool.dispatch"]["count"] == 2
            assert "pool.ipc" not in ledger
            # pool.dispatch is the round trip minus the worker's own
            # wall, so the three phases do not overlap.
            request_wall = ledger["worker.request"]["total"]
            non_overlapping = (
                ledger["pool.queue"]["total"]
                + ledger["pool.dispatch"]["total"]
                + request_wall
            )
            assert non_overlapping > request_wall


def test_pack_cells_carries_only_referenced_instances():
    from repro.bdd.wire import decode_batch

    envelope = decode_batch(
        pack_cells(
            [b"a", b"b", b"c"],
            [(2, "osm_bt"), (0, "f_orig"), (2, "restrict")],
        )
    )
    assert list(envelope.instances) == [b"c", b"a"]
    assert list(envelope.cells) == [
        (0, "osm_bt"),
        (1, "f_orig"),
        (0, "restrict"),
    ]


class TestAlarmDeadline:
    def test_interruptible_overrun_degrades_cleanly(self, registered):
        # The SIGALRM deadline interrupts a sleeping heuristic inside
        # the worker: clean transient degrade, no SIGKILL, the same
        # worker process keeps serving.
        manager, f, c = _instance()
        with MinimizationPool(workers=1, **FAST) as pool:
            pid_before = pool.worker_pids()[0]
            started = time.monotonic()
            result = pool.minimize(manager, f, c, method="test_sleep")
            assert time.monotonic() - started < 5.0
            assert result.degraded and not result.killed
            assert result.kind == TRANSIENT
            assert "DeadlineExceeded" in result.reason
            assert result.cover == f
            assert pool.kills == 0
            assert pool.worker_restarts == 0
            assert pool.worker_pids()[0] == pid_before
            assert pool.minimize(manager, f, c, method="osm_bt").ok

    def test_mid_batch_overrun_isolated_without_kill(self, registered):
        manager, f, c = _instance()
        methods = ["osm_bt", "test_sleep", "constrain"]
        with MinimizationPool(workers=1, **FAST) as pool:
            replies = pool.run_batch(
                manager, [(m, f, c) for m in methods]
            )
            stats = pool.statistics()
        assert [reply.ok for reply in replies] == [True, False, True]
        assert "DeadlineExceeded" in replies[1].reason
        assert not replies[1].killed
        assert stats["kills"] == 0


class TestRecycling:
    def test_workers_recycled_after_quota(self):
        manager, f, c = _instance()
        with MinimizationPool(workers=1, recycle_after=2) as pool:
            first_pid = pool.worker_pids()[0]
            for _ in range(2):
                assert pool.minimize(manager, f, c).ok
            recycled_pid = pool.worker_pids()[0]
            # The replacement still serves correctly.
            assert pool.minimize(manager, f, c).ok
            stats = pool.statistics()
        assert recycled_pid != first_pid
        assert stats["recycles"] == 1
        # Graceful recycling is not a kill or crash.
        assert stats["kills"] == 0
        assert stats["crashes"] == 0

    def test_no_recycling_by_default(self):
        manager, f, c = _instance()
        with MinimizationPool(workers=1) as pool:
            pid = pool.worker_pids()[0]
            for _ in range(3):
                pool.minimize(manager, f, c)
            assert pool.worker_pids()[0] == pid
            assert pool.statistics()["recycles"] == 0

    def test_recycle_after_validation(self):
        with pytest.raises(ValueError):
            MinimizationPool(workers=1, recycle_after=0)


class TestWatchdog:
    def test_hung_heuristic_is_killed_and_degraded(self, registered):
        # The acceptance drill: a `while True: pass` heuristic must be
        # killed within the deadline (+grace), degrade to the verified
        # identity cover with a recorded reason, recycle the worker,
        # and leave the pool healthy for the next request.
        manager, f, c = _instance()
        failures = []
        with MinimizationPool(
            workers=1, on_failure=lambda m, r: failures.append((m, r)),
            **FAST
        ) as pool:
            pids_before = pool.worker_pids()
            started = time.monotonic()
            result = pool.minimize(manager, f, c, method="test_hang")
            elapsed = time.monotonic() - started
            assert elapsed < FAST["deadline"] + FAST["kill_grace"] + 2.0
            assert result.degraded and result.killed
            assert result.kind == TRANSIENT
            assert "DeadlineExceeded" in result.reason
            assert result.cover == f
            assert ISpec(manager, f, c).is_cover(result.cover)
            assert pool.kills == 1 and pool.worker_restarts == 1
            assert pool.worker_pids() != pids_before
            assert failures == [("test_hang", result.reason)]
            # The recycled worker serves the next request normally.
            healthy = pool.minimize(manager, f, c, method="osm_bt")
            assert healthy.ok

    def test_per_request_deadline_override(self, registered):
        manager, f, c = _instance()
        with MinimizationPool(workers=1, deadline=30.0) as pool:
            started = time.monotonic()
            result = pool.minimize(
                manager, f, c, method="test_hang", deadline=0.3
            )
            assert time.monotonic() - started < 5.0
        assert result.killed


class TestCrashes:
    def test_worker_crash_degrades_and_respawns(self, registered):
        manager, f, c = _instance()
        with MinimizationPool(workers=1, **FAST) as pool:
            result = pool.minimize(manager, f, c, method="test_crash")
            assert result.degraded and not result.killed
            assert result.kind == TRANSIENT
            assert "WorkerCrash" in result.reason
            assert result.cover == f
            assert pool.crashes == 1
            healthy = pool.minimize(manager, f, c, method="osm_bt")
            assert healthy.ok

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"),
        reason="needs /proc to size the address-space cap",
    )
    def test_memory_hog_dies_inside_its_cap(self):
        resource = pytest.importorskip("resource")
        del resource
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[0])
        limit = pages * os.sysconf("SC_PAGE_SIZE") + (512 << 20)

        def hog(manager, f, c):
            block = bytearray(1 << 33)  # 8 GiB, far past the cap
            return f if block else f

        register_heuristic("test_hog", hog, replace=True)
        try:
            manager, f, c = _instance()
            with MinimizationPool(
                workers=1, memory_limit=limit, deadline=10.0
            ) as pool:
                result = pool.minimize(manager, f, c, method="test_hog")
            assert result.degraded
            assert result.kind == TRANSIENT
            # Either the allocation failed cleanly in-process or the
            # kernel killed the worker — both stay inside the fence.
            assert (
                "MemoryError" in result.reason
                or "WorkerCrash" in result.reason
            )
            assert result.cover == f
        finally:
            unregister_heuristic("test_hog")


class TestFailureClassification:
    def test_unknown_heuristic_is_deterministic(self):
        manager, f, c = _instance()
        with MinimizationPool(workers=1) as pool:
            result = pool.minimize(manager, f, c, method="no_such")
        assert result.degraded and result.kind == DETERMINISTIC
        assert "UnknownHeuristic" in result.reason

    def test_non_cover_is_deterministic(self, registered):
        manager, f, c = _instance()
        with MinimizationPool(workers=1) as pool:
            result = pool.minimize(manager, f, c, method="test_non_cover")
        assert result.kind == DETERMINISTIC
        assert "non-cover" in result.reason
        assert result.cover == f

    def test_budget_trip_is_transient(self):
        manager, f, c = _instance()
        with MinimizationPool(workers=1, step_budget=1) as pool:
            result = pool.minimize(manager, f, c, method="osm_bt")
        assert result.degraded and result.kind == TRANSIENT
        assert "StepBudgetExceeded" in result.reason


class TestLifecycle:
    def test_close_is_idempotent_and_final(self):
        manager, f, c = _instance()
        pool = MinimizationPool(workers=1)
        pool.minimize(manager, f, c)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.minimize(manager, f, c)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MinimizationPool(workers=0)
        with pytest.raises(ValueError):
            MinimizationPool(workers=1, deadline=0.0)
        with pytest.raises(ValueError):
            MinimizationPool(workers=1, kill_grace=-1.0)

    def test_serve_result_flags(self):
        result = ServeResult(method="osm_bt", cover=0)
        assert result.ok and not result.degraded
        assert result.kind == TRANSIENT
        failed = ServeResult(
            method="osm_bt", cover=0, reason="x", kind=DETERMINISTIC
        )
        assert failed.degraded and not failed.ok


def _stubborn_main(conn, memory_limit):
    """A worker that reads the shutdown sentinel and ignores it."""
    while True:
        try:
            conn.recv()
        except (EOFError, OSError):
            pass
        time.sleep(3600)


class TestStopHardening:
    def test_sentinel_ignoring_worker_is_killed_within_join_budget(self):
        import multiprocessing as mp

        from repro.serve.pool import _Worker

        context = mp.get_context("fork")
        worker = _Worker(context, None, target=_stubborn_main)
        assert worker.process.is_alive()
        started = time.monotonic()
        worker.stop()
        elapsed = time.monotonic() - started
        # The sentinel is ignored, so stop() must escalate: 1s join,
        # then SIGKILL. Allow generous scheduler slack above the 1s.
        assert elapsed < 3.0
        assert not worker.process.is_alive()
        # SIGKILL, not a clean sentinel exit.
        assert worker.process.exitcode not in (0, None)
        # The parent's pipe end is closed on the escalation path too.
        assert worker.conn.closed

    def test_kill_closes_pipe(self):
        import multiprocessing as mp

        from repro.serve.pool import _Worker

        context = mp.get_context("fork")
        worker = _Worker(context, None)
        worker.kill()
        assert not worker.process.is_alive()
        assert worker.conn.closed

    def test_close_survives_stubborn_worker_in_pool(self):
        import multiprocessing as mp

        from repro.serve.pool import _Worker

        pool = MinimizationPool(workers=2)
        # Replace one idle worker with a sentinel-ignoring one.
        context = mp.get_context("fork")
        stubborn = _Worker(context, None, target=_stubborn_main)
        with pool._cv:
            victim = pool._idle.popleft()
            pool._idle.appendleft(stubborn)
        victim.stop()
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 5.0
        assert not stubborn.process.is_alive()


class TestProbe:
    def test_probe_reports_healthy_workers(self):
        with MinimizationPool(workers=2) as pool:
            report = pool.probe(timeout=2.0)
        assert report == {"probed": 2, "healthy": 2, "replaced": 0}

    def test_probe_replaces_killed_idle_worker(self):
        with MinimizationPool(workers=2) as pool:
            victim = pool.worker_pids()[0]
            os.kill(victim, 9)
            report = pool.probe(timeout=2.0)
            pids = pool.worker_pids()
            stats = pool.statistics()
            # The replacement serves.
            manager, f, c = _instance()
            assert pool.minimize(manager, f, c, method="f_orig").ok
        assert report["probed"] == 2
        assert report["replaced"] == 1
        assert victim not in pids
        assert len(pids) == 2
        assert stats["probe_failures"] == 1
        assert stats["worker_restarts"] == 1

    def test_probe_skips_busy_workers(self, registered):
        import threading

        manager, f, c = _instance()
        with MinimizationPool(workers=1, deadline=5.0) as pool:
            payload_done = threading.Event()
            result_box = []

            def occupy():
                result_box.append(
                    pool.minimize(manager, f, c, method="test_hang",
                                  deadline=1.0)
                )
                payload_done.set()

            thread = threading.Thread(target=occupy)
            thread.start()
            time.sleep(0.2)  # let the request check out the worker
            report = pool.probe(timeout=0.5)
            assert report["probed"] == 0
            payload_done.wait(timeout=10.0)
            thread.join(timeout=10.0)


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
