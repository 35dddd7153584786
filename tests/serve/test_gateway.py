"""Tests for the asyncio gateway: admission, deadlines, hedging, drain."""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.bdd.manager import Manager
from repro.bdd.wire import deserialize, deserialize_instance, serialize_instance
from repro.core.ispec import ISpec
from repro.core.registry import register_heuristic, unregister_heuristic
from repro.serve.breaker import BreakerBoard
from repro.serve.gateway import (
    DeadlineExpired,
    GatewayClosed,
    GatewayError,
    GatewayReply,
    HedgePolicy,
    MinimizationGateway,
    OverloadedError,
)
from repro.serve.pool import DETERMINISTIC, MinimizationPool, TRANSIENT

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="gateway tests require the fork start method",
)

FAST = dict(deadline=0.5, kill_grace=0.15)


def _instance():
    manager = Manager(["a", "b", "c", "d"])
    a, b, c, d = (manager.var(level) for level in range(4))
    f = manager.or_(manager.and_(a, b), manager.and_(c, d))
    care = manager.or_(a, b)
    return manager, f, care


def _payload():
    manager, f, c = _instance()
    return serialize_instance(manager, f, c)


def _run(coro):
    return asyncio.run(coro)


def _check_reply(reply: GatewayReply, request_payload: bytes) -> None:
    """Every reply's payload must decode to a valid Definition 2 cover."""
    scratch, f, c = deserialize_instance(request_payload)
    assert reply.payload is not None
    _, roots = deserialize(reply.payload, manager=scratch)
    assert ISpec(scratch, f, c).is_cover(roots[0])


class _FakeClock:
    """A manually advanced monotonic clock for exact deadline tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _hang_forever(manager, f, c):
    # Alarm-proof hang (see tests/serve/test_pool.py): exercises the
    # watchdog SIGKILL path, not the cooperative deadline.
    while True:
        try:
            while True:
                pass
        except Exception:
            continue


def _crash_hard(manager, f, c):
    os._exit(23)


@pytest.fixture
def registered():
    names = {"test_hang": _hang_forever, "test_crash": _crash_hard}
    for name, heuristic in names.items():
        register_heuristic(name, heuristic, replace=True)
    yield names
    for name in names:
        unregister_heuristic(name)


class TestHealthyPath:
    def test_submit_returns_verified_cover(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool) as gateway:
                    reply = await gateway.submit(payload, "osm_bt")
            return reply

        reply = _run(drill())
        assert reply.ok and reply.attempts == 1
        _check_reply(reply, payload)

    def test_minimize_decodes_into_caller_manager(self):
        async def drill():
            manager, f, c = _instance()
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool) as gateway:
                    reply = await gateway.submit(
                        serialize_instance(manager, f, c), "osm_bt"
                    )
            assert reply.ok
            _, (cover,) = deserialize(reply.payload, manager=manager)
            assert ISpec(manager, f, c).is_cover(cover)

        _run(drill())

    def test_concurrent_submissions_all_complete(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=2) as pool:
                async with MinimizationGateway(pool, queue_limit=32) as gw:
                    replies = await asyncio.gather(
                        *(gw.submit(payload, "osm_bt") for _ in range(12))
                    )
                    stats = gw.statistics()
            return replies, stats

        replies, stats = _run(drill())
        assert len(replies) == 12
        for reply in replies:
            assert reply.ok
            _check_reply(reply, payload)
        assert stats["completed"] == 12
        assert stats["admitted"] == 12

    def test_statistics_shape(self):
        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(
                    pool, board=BreakerBoard()
                ) as gateway:
                    await gateway.submit(_payload(), "osm_bt")
                    return gateway.statistics()

        stats = _run(drill())
        for key in (
            "admitted",
            "completed",
            "degraded",
            "shed_overload",
            "shed_expired",
            "shed_closed",
            "hedges",
            "hedge_wins",
            "retries",
            "breaker_successes",
            "pool",
        ):
            assert key in stats


class TestOverload:
    def test_queue_full_sheds_immediately_and_typed(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                gateway = MinimizationGateway(pool, queue_limit=2)
                await gateway.start()
                gateway.pause_dispatch()
                # Fill the queue without letting dispatchers drain it.
                pending = [
                    asyncio.ensure_future(gateway.submit(payload, "f_orig"))
                    for _ in range(2)
                ]
                await asyncio.sleep(0)
                started = time.monotonic()
                with pytest.raises(OverloadedError) as excinfo:
                    await gateway.submit(payload, "f_orig")
                shed_latency = time.monotonic() - started
                gateway.resume_dispatch()
                replies = await asyncio.gather(*pending)
                await gateway.close()
                return excinfo.value, shed_latency, replies, gateway

        error, shed_latency, replies, gateway = _run(drill())
        # The shed is immediate: no queue wait, no worker time.
        assert shed_latency < 0.1
        assert error.queue_depth == 2
        assert gateway.shed_overload == 1
        for reply in replies:
            assert reply.ok

    def test_shed_is_gateway_error_subclass(self):
        assert issubclass(OverloadedError, GatewayError)
        assert issubclass(DeadlineExpired, GatewayError)
        assert issubclass(GatewayClosed, GatewayError)


class TestDeadlinePropagation:
    def test_expired_in_queue_is_shed_without_dispatch(self):
        payload = _payload()
        clock = _FakeClock()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                gateway = MinimizationGateway(pool, clock=clock)
                await gateway.start()
                gateway.pause_dispatch()
                future = asyncio.ensure_future(
                    gateway.submit(payload, "osm_bt", deadline=1.0)
                )
                await asyncio.sleep(0)
                # The whole budget dies while the request sits queued.
                clock.advance(1.5)
                gateway.resume_dispatch()
                with pytest.raises(DeadlineExpired) as excinfo:
                    await future
                requests_after = pool.statistics()["requests"]
                await gateway.close()
                return excinfo.value, requests_after, gateway

        error, pool_requests, gateway = _run(drill())
        # Shed in the dispatcher, before any worker was touched.
        assert pool_requests == 0
        assert gateway.shed_expired == 1
        assert error.waited == pytest.approx(1.5)

    def test_worker_deadline_is_remaining_not_original_budget(self):
        payload = _payload()
        clock = _FakeClock()

        async def drill():
            with MinimizationPool(workers=1) as pool:
                gateway = MinimizationGateway(
                    pool, clock=clock, record_dispatches=True
                )
                await gateway.start()
                gateway.pause_dispatch()
                future = asyncio.ensure_future(
                    gateway.submit(payload, "osm_bt", deadline=2.0)
                )
                await asyncio.sleep(0)
                # 0.75s of the 2.0s budget is consumed by queueing.
                clock.advance(0.75)
                gateway.resume_dispatch()
                reply = await future
                await gateway.close()
                return reply, gateway.dispatch_log

        reply, log = _run(drill())
        assert reply.ok
        assert len(log) == 1
        seq, method, worker_deadline = log[0]
        assert (seq, method) == (0, "osm_bt")
        # Exactly the remaining budget, not the original 2.0s.
        assert worker_deadline == pytest.approx(2.0 - 0.75)
        assert reply.worker_deadline == pytest.approx(1.25)
        assert reply.queue_wait == pytest.approx(0.75)

    def test_fresh_request_gets_full_budget(self):
        payload = _payload()
        clock = _FakeClock()

        async def drill():
            with MinimizationPool(workers=1) as pool:
                gateway = MinimizationGateway(
                    pool, clock=clock, record_dispatches=True
                )
                await gateway.start()
                reply = await gateway.submit(payload, "osm_bt", deadline=3.0)
                await gateway.close()
                return reply, gateway.dispatch_log

        reply, log = _run(drill())
        assert reply.ok
        assert log[0][2] == pytest.approx(3.0)


class TestDegradation:
    def test_hung_heuristic_degrades_to_identity(self, registered):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                async with MinimizationGateway(
                    pool, retry_transient=False
                ) as gateway:
                    return await gateway.submit(
                        payload, "test_hang", deadline=0.4
                    )

        reply = _run(drill())
        assert reply.degraded
        assert reply.kind == TRANSIENT
        assert "DeadlineExceeded" in reply.reason
        # Degraded replies still carry a valid (identity) cover.
        _check_reply(reply, payload)

    def test_transient_failure_retried_within_budget(self, registered):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                async with MinimizationGateway(pool) as gateway:
                    reply = await gateway.submit(
                        payload, "test_crash", deadline=4.0
                    )
                    return reply, gateway.retries

        reply, retries = _run(drill())
        # Both the primary and the budget-funded retry crash.
        assert reply.degraded and reply.attempts == 2
        assert retries == 1
        _check_reply(reply, payload)

    def test_unknown_heuristic_is_deterministic_no_retry(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool) as gateway:
                    reply = await gateway.submit(payload, "no_such")
                    return reply, gateway.retries

        reply, retries = _run(drill())
        assert reply.degraded and reply.kind == DETERMINISTIC
        assert retries == 0
        assert "UnknownHeuristic" in reply.reason
        _check_reply(reply, payload)

    def test_corrupt_request_payload_never_raises_untyped(self):
        payload = bytearray(_payload())
        payload[-1] ^= 0xFF  # break the CRC

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                async with MinimizationGateway(pool) as gateway:
                    return await gateway.submit(bytes(payload), "osm_bt")

        reply = _run(drill())
        assert reply.degraded
        assert "WireError" in reply.reason
        # The request payload itself is undecodable, so not even the
        # identity cover can be recovered from it.
        assert reply.payload is None

    def test_open_breaker_short_circuits_with_typed_reason(self):
        payload = _payload()
        board = BreakerBoard(failure_threshold=1, cooldown=4)
        board.breaker("osm_bt").record_failure()  # trip it open

        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool, board=board) as gateway:
                    reply = await gateway.submit(payload, "osm_bt")
                    return reply, pool.statistics()["requests"]

        reply, pool_requests = _run(drill())
        assert reply.degraded and reply.attempts == 0
        assert "CircuitOpen" in reply.reason
        # Short-circuited before the pool.
        assert pool_requests == 0
        _check_reply(reply, payload)


class TestHedging:
    def test_policy_eligibility_is_counter_based(self):
        policy = HedgePolicy(every=3)
        assert [policy.eligible(seq) for seq in range(6)] == [
            True, False, False, True, False, False,
        ]
        with pytest.raises(ValueError):
            HedgePolicy(every=0)
        with pytest.raises(ValueError):
            HedgePolicy(delay_fraction=1.5)

    def test_hedge_rescues_straggler(self, registered):
        # Worker 1 eats the hung primary; the hedge runs on worker 2
        # with delay_fraction=0 (hedge immediately) and wins.
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=2, deadline=2.0) as pool:
                # Prime both workers so the hedge finds an idle one.
                async with MinimizationGateway(
                    pool,
                    hedge=HedgePolicy(delay_fraction=0.0, every=1),
                    retry_transient=False,
                ) as gateway:
                    reply = await gateway.submit(
                        payload, "osm_bt", deadline=2.0
                    )
                    return reply, gateway.hedges

        reply, hedges = _run(drill())
        assert reply.ok
        assert hedges in (0, 1)  # primary may win the race outright
        if hedges:
            assert reply.hedged and reply.attempts == 2

    def test_hedge_stands_down_when_no_idle_worker(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                async with MinimizationGateway(
                    pool,
                    hedge=HedgePolicy(delay_fraction=0.0, every=1),
                    dispatchers=1,
                ) as gateway:
                    # One worker, so the hedge can never find an idle
                    # one: pool.execute(block=False) returns None and
                    # the primary result stands.
                    reply = await gateway.submit(payload, "osm_bt")
                    return reply, gateway.hedge_wins

        reply, hedge_wins = _run(drill())
        assert reply.ok
        assert hedge_wins == 0


class TestBatchSubmission:
    def test_submit_batch_returns_verified_covers(self):
        manager, f, c = _instance()
        g = manager.and_(f, c)
        instances = [
            serialize_instance(manager, f, c),
            serialize_instance(manager, g, c),
        ]
        cells = [(0, "osm_bt"), (1, "constrain"), (0, "restrict")]

        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool) as gateway:
                    replies = await gateway.submit_batch(instances, cells)
                    return replies, gateway.statistics()

        replies, stats = _run(drill())
        assert len(replies) == 3
        for (index, _), reply in zip(cells, replies):
            assert reply.ok
            _check_reply(reply, instances[index])
        # One admission slot for the batch; completion counts cells.
        assert stats["admitted"] == 1
        assert stats["completed"] == 3
        assert stats["degraded"] == 0

    def test_batch_cell_failure_isolated(self):
        instances = [_payload()]
        cells = [(0, "osm_bt"), (0, "no_such"), (0, "constrain")]

        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool) as gateway:
                    replies = await gateway.submit_batch(instances, cells)
                    return replies, gateway.statistics()

        replies, stats = _run(drill())
        assert [reply.ok for reply in replies] == [True, False, True]
        assert replies[1].kind == DETERMINISTIC
        assert "UnknownHeuristic" in replies[1].reason
        _check_reply(replies[1], instances[0])  # identity fallback
        assert stats["completed"] == 2
        assert stats["degraded"] == 1

    def test_batch_breaker_denied_cell_short_circuits(self):
        payload = _payload()
        board = BreakerBoard(failure_threshold=1, cooldown=4)
        board.breaker("osm_bt").record_failure()  # trip it open

        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool, board=board) as gw:
                    replies = await gw.submit_batch(
                        [payload], [(0, "osm_bt"), (0, "f_orig")]
                    )
                    return replies, pool.statistics()["requests"]

        replies, pool_requests = _run(drill())
        assert replies[0].degraded and replies[0].attempts == 0
        assert "CircuitOpen" in replies[0].reason
        _check_reply(replies[0], payload)
        assert replies[1].ok
        # Only the allowed cell reached the pool.
        assert pool_requests == 1

    def test_batch_expired_in_queue_sheds_whole_batch(self):
        payload = _payload()
        clock = _FakeClock()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                gateway = MinimizationGateway(pool, clock=clock)
                await gateway.start()
                gateway.pause_dispatch()
                future = asyncio.ensure_future(
                    gateway.submit_batch(
                        [payload],
                        [(0, "osm_bt"), (0, "f_orig")],
                        deadline=1.0,
                    )
                )
                await asyncio.sleep(0)
                clock.advance(1.5)
                gateway.resume_dispatch()
                with pytest.raises(DeadlineExpired):
                    await future
                requests_after = pool.statistics()["requests"]
                await gateway.close()
                return requests_after, gateway.shed_expired

        pool_requests, shed_expired = _run(drill())
        assert pool_requests == 0
        assert shed_expired == 1

    def test_batch_occupies_single_admission_slot(self):
        payload = _payload()
        cells = [(0, method) for method in ("osm_bt", "constrain",
                                            "restrict", "f_orig")]

        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool, queue_limit=1) as gw:
                    # Four cells fit the one-slot queue: one batch, one
                    # admission.
                    return await gw.submit_batch([payload], cells)

        replies = _run(drill())
        assert len(replies) == 4
        assert all(reply.ok for reply in replies)

    def test_full_queue_sheds_batch_typed(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                gateway = MinimizationGateway(pool, queue_limit=1)
                await gateway.start()
                gateway.pause_dispatch()
                pending = asyncio.ensure_future(
                    gateway.submit(payload, "f_orig")
                )
                await asyncio.sleep(0)
                with pytest.raises(OverloadedError):
                    await gateway.submit_batch(
                        [payload], [(0, "osm_bt")]
                    )
                gateway.resume_dispatch()
                reply = await pending
                await gateway.close()
                return reply

        assert _run(drill()).ok

    def test_batch_of_one_is_retried_like_submit(self, registered):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                async with MinimizationGateway(pool) as gateway:
                    replies = await gateway.submit_batch(
                        [payload], [(0, "test_crash")], deadline=4.0
                    )
                    return replies, gateway.retries

        (reply,), retries = _run(drill())
        assert reply.degraded and reply.attempts == 2
        assert retries == 1

    @pytest.mark.parametrize("open_breaker", [False, True])
    def test_multi_cell_batch_is_never_hedged_or_retried(
        self, registered, open_breaker
    ):
        # With osm_bt's breaker open only the crashing cell is
        # dispatched; it still belongs to a batch of two, so it must
        # not be hedged or retried either.
        payload = _payload()
        board = BreakerBoard(failure_threshold=1, cooldown=4)
        if open_breaker:
            board.breaker("osm_bt").record_failure()  # trip it open

        async def drill():
            with MinimizationPool(workers=2, **FAST) as pool:
                async with MinimizationGateway(
                    pool,
                    hedge=HedgePolicy(delay_fraction=0.0, every=1),
                    board=board,
                ) as gateway:
                    replies = await gateway.submit_batch(
                        [payload], [(0, "osm_bt"), (0, "test_crash")]
                    )
                    return replies, gateway.hedges, gateway.retries

        replies, hedges, retries = _run(drill())
        if open_breaker:
            assert replies[0].degraded and "CircuitOpen" in replies[0].reason
        else:
            assert replies[0].ok
        assert replies[1].degraded and "WorkerCrash" in replies[1].reason
        assert replies[1].attempts == 1
        assert (hedges, retries) == (0, 0)

    def test_batch_validation(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1) as pool:
                async with MinimizationGateway(pool) as gateway:
                    assert await gateway.submit_batch([payload], []) == []
                    with pytest.raises(ValueError):
                        await gateway.submit_batch(
                            [payload], [(1, "osm_bt")]
                        )
                    with pytest.raises(ValueError):
                        await gateway.submit_batch(
                            [payload], [(0, "osm_bt")], deadline=0.0
                        )

        _run(drill())


class TestLifecycle:
    def test_close_drains_queued_requests(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1) as pool:
                gateway = MinimizationGateway(pool, queue_limit=8)
                await gateway.start()
                pending = [
                    asyncio.ensure_future(gateway.submit(payload, "f_orig"))
                    for _ in range(4)
                ]
                await asyncio.sleep(0)
                await gateway.close(drain=True)
                with pytest.raises(GatewayClosed):
                    await gateway.submit(payload, "f_orig")
                return await asyncio.gather(*pending)

        replies = _run(drill())
        assert len(replies) == 4
        for reply in replies:
            assert reply.ok

    def test_forced_close_sheds_queued_typed(self):
        payload = _payload()

        async def drill():
            with MinimizationPool(workers=1, **FAST) as pool:
                gateway = MinimizationGateway(pool, queue_limit=8)
                await gateway.start()
                gateway.pause_dispatch()
                pending = [
                    asyncio.ensure_future(gateway.submit(payload, "f_orig"))
                    for _ in range(3)
                ]
                await asyncio.sleep(0)
                await gateway.close(drain=False)
                results = await asyncio.gather(
                    *pending, return_exceptions=True
                )
                return results, gateway.shed_closed

        results, shed_closed = _run(drill())
        assert shed_closed == 3
        for result in results:
            assert isinstance(result, GatewayClosed)

    def test_submit_before_start_raises_typed(self):
        async def drill():
            with MinimizationPool(workers=1) as pool:
                gateway = MinimizationGateway(pool)
                with pytest.raises(GatewayClosed):
                    await gateway.submit(_payload(), "f_orig")

        _run(drill())

    def test_own_pool_closed_with_gateway(self):
        async def drill():
            pool = MinimizationPool(workers=1)
            async with MinimizationGateway(pool, own_pool=True) as gateway:
                await gateway.submit(_payload(), "f_orig")
            with pytest.raises(RuntimeError):
                pool.execute(_payload(), "f_orig")

        _run(drill())

    def test_constructor_validation(self):
        pool = MinimizationPool(workers=1)
        try:
            with pytest.raises(ValueError):
                MinimizationGateway(pool, queue_limit=0)
            with pytest.raises(ValueError):
                MinimizationGateway(pool, dispatchers=0)
            with pytest.raises(ValueError):
                MinimizationGateway(pool, default_deadline=0.0)
            with pytest.raises(ValueError):
                MinimizationGateway(pool, probe_interval=0.0)
        finally:
            pool.close()


class TestSupervisor:
    def test_supervisor_replaces_killed_idle_worker(self):
        async def drill():
            with MinimizationPool(workers=2) as pool:
                async with MinimizationGateway(
                    pool, probe_interval=0.1, probe_timeout=1.0
                ) as gateway:
                    victim = pool.worker_pids()[0]
                    os.kill(victim, signal.SIGKILL)
                    # Wait for a probe round to notice and respawn.
                    for _ in range(100):
                        await asyncio.sleep(0.05)
                        if gateway.supervisor_restarts:
                            break
                    pids = pool.worker_pids()
                    restarts = gateway.supervisor_restarts
                    rounds = gateway.probe_rounds
                    # The pool still serves.
                    reply = await gateway.submit(_payload(), "osm_bt")
            return victim, pids, restarts, rounds, reply

        victim, pids, restarts, rounds, reply = _run(drill())
        assert restarts >= 1
        assert rounds >= 1
        assert victim not in pids
        assert len(pids) == 2
        assert reply.ok
