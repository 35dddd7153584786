"""Unit tests for the circuit breaker (pure, no pool)."""

from __future__ import annotations

import pytest

from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker("h")
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_at_threshold(self):
        breaker = CircuitBreaker("h", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("h", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_short_circuits_for_cooldown_requests(self):
        breaker = CircuitBreaker("h", failure_threshold=1, cooldown=3)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert [breaker.allow() for _ in range(3)] == [False] * 3
        assert breaker.short_circuits == 3
        # Cooldown exhausted: the next request is the half-open probe.
        assert breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker("h", failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()  # probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_with_full_cooldown(self):
        breaker = CircuitBreaker("h", failure_threshold=1, cooldown=2)
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()  # probe
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 2
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()

    def test_sequence_is_deterministic(self):
        # Same request sequence, same decisions — no wall clock anywhere.
        def drive():
            breaker = CircuitBreaker("h", failure_threshold=2, cooldown=2)
            trace = []
            for outcome in [False, False, None, None, True, False, False]:
                allowed = breaker.allow()
                trace.append((allowed, breaker.state))
                if not allowed or outcome is None:
                    continue
                if outcome:
                    breaker.record_success()
                else:
                    breaker.record_failure()
            return trace

        assert drive() == drive()

    def test_describe_mentions_state(self):
        breaker = CircuitBreaker("osm_bt", failure_threshold=1)
        assert "closed" in breaker.describe()
        breaker.record_failure()
        assert "open" in breaker.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("h", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("h", cooldown=0)


class TestBreakerBoard:
    def test_per_method_isolation(self):
        board = BreakerBoard(failure_threshold=1)
        board.breaker("bad").record_failure()
        assert board.breaker("bad").state == OPEN
        assert board.breaker("good").state == CLOSED
        assert board.breaker("good").allow()

    def test_breaker_identity_is_stable(self):
        board = BreakerBoard()
        assert board.breaker("h") is board.breaker("h")

    def test_get_does_not_create(self):
        board = BreakerBoard()
        assert board.get("h") is None
        board.breaker("h")
        assert board.get("h") is not None

    def test_states_snapshot(self):
        board = BreakerBoard(failure_threshold=1)
        board.breaker("a")
        board.breaker("b").record_failure()
        assert board.states() == {"a": CLOSED, "b": OPEN}

    def test_counters_sum_across_breakers(self):
        board = BreakerBoard(failure_threshold=1, cooldown=2)
        board.breaker("a").record_success()
        b = board.breaker("b")
        b.record_failure()  # trips open
        assert not b.allow()  # short-circuit 1
        totals = board.counters()
        assert totals == {
            "breaker_successes": 1,
            "breaker_failures": 1,
            "breaker_opens": 1,
            "breaker_short_circuits": 1,
        }


class TestHalfOpenInterleavings:
    """Half-open behavior under interleaved success/failure sequences."""

    def _tripped(self, cooldown=2):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=cooldown)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        # Burn the cooldown.
        for _ in range(cooldown):
            assert not breaker.allow()
        return breaker

    def test_probe_success_then_immediate_failures_retrip(self):
        breaker = self._tripped()
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        # Closing resets the consecutive count: it takes a full
        # threshold of NEW failures to trip again.
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_success_failure_alternation_never_trips(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=2)
        for _ in range(20):
            assert breaker.allow()
            breaker.record_failure()
            assert breaker.allow()
            breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.opens == 0

    def test_repeated_probe_failures_cycle_open_halfopen(self):
        breaker = self._tripped(cooldown=1)
        for cycle in range(3):
            assert breaker.allow()  # half-open probe
            assert breaker.state == HALF_OPEN
            breaker.record_failure()  # probe fails: full cooldown again
            assert breaker.state == OPEN
            assert not breaker.allow()  # cooldown request
        assert breaker.opens == 4  # initial trip + 3 failed probes

    def test_success_recorded_while_half_open_closes(self):
        # A late success from a request admitted before the trip can
        # land while the breaker is half-open; it must close it rather
        # than corrupt the probe accounting.
        breaker = self._tripped()
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        breaker.record_success()  # the probe's own success
        assert breaker.state == CLOSED


class TestThreadSafety:
    def test_concurrent_hammer_keeps_counters_consistent(self):
        import threading

        breaker = CircuitBreaker(failure_threshold=3, cooldown=4)
        per_thread = 500
        threads = 8

        def hammer(worker_index):
            for i in range(per_thread):
                allowed = breaker.allow()
                if not allowed:
                    continue
                if (worker_index + i) % 3 == 0:
                    breaker.record_failure()
                else:
                    breaker.record_success()

        pool = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        # Every allowed request recorded exactly one outcome, every
        # denied one exactly one short-circuit: nothing lost to races.
        assert (
            breaker.successes
            + breaker.failures
            + breaker.short_circuits
            == threads * per_thread
        )
        assert breaker.state in (CLOSED, OPEN, HALF_OPEN)

    def test_board_concurrent_creation_is_single_instance(self):
        import threading

        board = BreakerBoard()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(board.breaker("shared"))

        pool = [threading.Thread(target=create) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert all(breaker is seen[0] for breaker in seen)
