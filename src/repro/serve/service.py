"""The synchronous front door: pool + circuit breakers + bounded retry.

:class:`MinimizationService` is a thin adapter over
:meth:`MinimizationPool.minimize` (a batch of one) for synchronous
callers — ``repro-bdd serve``, ``minimize --isolate`` and the
differential ``pool`` lane.  One request is gated by its heuristic's
breaker (open: the identity cover with a ``CircuitOpen`` reason, the
pool never touched), retried with deadline backoff on *transient*
failures up to :class:`~repro.serve.breaker.RetryPolicy`
``max_attempts``, failed fast on deterministic ones, and finally
recorded on the breaker.

Every returned cover is valid for ``[f, c]`` (Definition 2): either the
heuristic's verified result or the identity ``f``.  The service never
raises on a request — the same contract as
:class:`repro.robust.guard.GuardedHeuristic`, lifted to process
isolation — and follows the same reason-recording protocol
(``failures``, ``last_failure``, ``on_failure``).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from repro.bdd.manager import Manager
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.breaker import (
    BreakerBoard,
    CircuitBreaker,
    DEFAULT_COOLDOWN,
    DEFAULT_FAILURE_THRESHOLD,
    RetryPolicy,
)
from repro.serve.pool import MinimizationPool, ServeResult, TRANSIENT


class MinimizationService:
    """Process-isolated minimization with per-heuristic circuit breaking.

    Parameters
    ----------
    pool:
        The :class:`~repro.serve.pool.MinimizationPool` requests run
        on.  The service does not own it unless ``own_pool=True`` (then
        :meth:`close` shuts it down too).
    failure_threshold / cooldown:
        Per-heuristic breaker settings (see
        :mod:`repro.serve.breaker`); both measured in requests.
    retry:
        A :class:`~repro.serve.breaker.RetryPolicy` for transient
        failures; defaults to two attempts with 2x deadline backoff.
    on_failure:
        Optional ``(method, reason)`` callback on every degradation,
        including short-circuits.
    """

    def __init__(
        self,
        pool: MinimizationPool,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown: int = DEFAULT_COOLDOWN,
        retry: Optional[RetryPolicy] = None,
        on_failure: Optional[Callable[[str, str], None]] = None,
        own_pool: bool = False,
    ):
        self.pool = pool
        self.board = BreakerBoard(
            failure_threshold=failure_threshold, cooldown=cooldown
        )
        self.retry = RetryPolicy() if retry is None else retry
        self.on_failure = on_failure
        self.own_pool = own_pool
        # Reason-recording protocol (mirrors GuardedHeuristic).
        self.requests = 0
        self.failures = 0
        self.short_circuits = 0
        self.retries = 0
        self.last_failure: Optional[str] = None
        #: Worker-side Manager.statistics() deltas summed over every
        #: request that shipped one back (sizes/peaks kept as maxima).
        self.worker_stats: Dict[str, int] = {}
        # Counter/aggregate guard: harness threads may share one service.
        self._lock = threading.Lock()

    def close(self) -> None:
        """Shut down (and close the pool when it is owned)."""
        if self.own_pool:
            self.pool.close()

    def __enter__(self) -> "MinimizationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def breaker(self, method: str) -> CircuitBreaker:
        """The circuit breaker guarding ``method``."""
        return self.board.breaker(method)

    def statistics(self) -> Dict[str, object]:
        """Service counters plus pool health and breaker states."""
        with self._lock:
            stats: Dict[str, object] = {
                "requests": self.requests,
                "failures": self.failures,
                "short_circuits": self.short_circuits,
                "retries": self.retries,
                "worker_stats": dict(self.worker_stats),
            }
        stats["breakers"] = self.board.states()
        stats.update(self.pool.statistics())
        return stats

    def minimize(
        self,
        manager: Manager,
        f: int,
        c: int,
        method: str = "osm_bt",
        deadline: Optional[float] = None,
    ) -> ServeResult:
        """One isolated, breaker-guarded, retried minimization request.

        Never raises; the returned :class:`ServeResult`'s ``cover`` is
        always a valid cover of ``[f, c]`` in ``manager``.
        """
        mreg = obs_metrics.active()
        breaker = self.board.breaker(method)
        with self._lock:
            self.requests += 1
        state_before = breaker.state
        allowed = breaker.allow()
        _count_transition(mreg, state_before, breaker.state)
        if not allowed:
            with self._lock:
                self.short_circuits += 1
            if mreg is not None:
                mreg.inc("serve.short_circuits")
            result = ServeResult(
                method=method,
                cover=f,
                reason="CircuitOpen: %s" % breaker.describe(),
                kind=TRANSIENT,
                short_circuited=True,
                attempts=0,
            )
        else:
            base = self.pool.deadline if deadline is None else deadline
            with obs_trace.span("serve.request", method=method):
                for attempt in range(self.retry.max_attempts):
                    if attempt > 0:
                        with self._lock:
                            self.retries += 1
                        if mreg is not None:
                            mreg.inc("serve.retries")
                    result = self.pool.minimize(
                        manager,
                        f,
                        c,
                        method=method,
                        deadline=self.retry.deadline_for(base, attempt),
                    )
                    result.attempts = attempt + 1
                    if result.stats:
                        with self._lock:
                            obs_metrics.merge_counts(
                                self.worker_stats, result.stats
                            )
                    # Deterministic failures fail fast: a bug does not
                    # heal under a bigger deadline.
                    if result.ok or not result.transient:
                        break
            if result.ok:
                breaker.record_success()
            else:
                state_before = breaker.state
                breaker.record_failure()
                _count_transition(mreg, state_before, breaker.state)
        if not result.ok:
            with self._lock:
                self.failures += 1
                self.last_failure = result.reason
            if self.on_failure is not None:
                self.on_failure(method, result.reason)
        return result


def _count_transition(mreg, before: str, after: str) -> None:
    """Count a breaker state change as ``serve.breaker.<from>_to_<to>``."""
    if mreg is not None and after != before:
        mreg.inc("serve.breaker.%s_to_%s" % (before, after))
