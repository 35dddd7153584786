"""Per-heuristic circuit breakers for the serve layer.

A heuristic that keeps getting its worker SIGKILLed is not going to
start succeeding on the next request — but every attempt costs a full
deadline plus a worker respawn.  The :class:`CircuitBreaker` bounds
that waste with the classic three-state machine:

``closed``
    Requests flow normally.  ``failure_threshold`` *consecutive*
    failures trip the breaker open (a single success resets the
    count).
``open``
    Requests are short-circuited — degraded immediately to the
    identity cover without touching the pool.  After ``cooldown``
    short-circuited requests the breaker moves to half-open.
``half_open``
    The next request is a *probe* and runs for real.  Success closes
    the breaker; failure re-opens it for another full cooldown.

Both the threshold and the cooldown are measured in **requests, not
wall time**: a breaker driven by the same request sequence always
makes the same decisions, so every breaker scenario is exactly
reproducible in tests — the same determinism-over-wall-clock choice as
:class:`repro.robust.faults.FaultPlan`.

Breakers gate :class:`repro.serve.gateway.MinimizationGateway` and the
experiment harness's pooled sweep.  The gateway also retries a
*transient* failure (deadline kill, OOM, budget trip, worker crash)
once, inside the request's remaining budget; deterministic failures
(contract violations, unknown heuristics) are never retried: a bug
does not heal on a second attempt.

Breakers are **thread-safe**: every transition and counter update
happens under a per-breaker lock, so the asyncio gateway's dispatcher
threads and a sweep on the main thread can share one
:class:`BreakerBoard` without corrupting statistics.  Determinism is
per request *sequence* — concurrent callers still interleave their
sequences, but each observed interleaving drives the same transitions.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.analysis.flow import deterministic

#: Breaker state names (strings, so reprs and logs read naturally).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Default consecutive failures before the breaker trips.
DEFAULT_FAILURE_THRESHOLD = 3

#: Default short-circuited requests before a half-open probe.
DEFAULT_COOLDOWN = 4


class CircuitBreaker:
    """A deterministic closed/open/half-open breaker (see module docs)."""

    def __init__(
        self,
        name: str = "heuristic",
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown: int = DEFAULT_COOLDOWN,
    ):
        if failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1, got %d" % failure_threshold
            )
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1, got %d" % cooldown)
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.consecutive_failures = 0
        self._cooldown_remaining = 0
        # Lifetime counters.
        self.successes = 0
        self.failures = 0
        self.opens = 0
        self.short_circuits = 0
        # Guards every transition and counter; RLock so describe() can
        # be called from failure callbacks fired under the lock.
        self._lock = threading.RLock()

    @deterministic
    def allow(self) -> bool:
        """May the next request run?  Advances the cooldown when open.

        Returns ``False`` exactly when the request must be
        short-circuited; when the cooldown has elapsed the breaker
        moves to half-open and this call's request becomes the probe
        (``True``).
        """
        with self._lock:
            if self.state == OPEN:
                if self._cooldown_remaining > 0:
                    self._cooldown_remaining -= 1
                    self.short_circuits += 1
                    return False
                self.state = HALF_OPEN
            return True

    @deterministic
    def record_success(self) -> None:
        """The request succeeded: close the breaker, reset the count."""
        with self._lock:
            self.successes += 1
            self.consecutive_failures = 0
            self.state = CLOSED

    @deterministic
    def record_failure(self) -> None:
        """The request failed (after any retries): advance toward open."""
        with self._lock:
            self.failures += 1
            if self.state == HALF_OPEN:
                # The probe failed: straight back to open, full cooldown.
                self._trip()
                return
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self.state = OPEN
        self.opens += 1
        self.consecutive_failures = 0
        self._cooldown_remaining = self.cooldown

    def describe(self) -> str:
        """One-line state summary for logs and degradation reasons."""
        with self._lock:
            if self.state == OPEN:
                return "%s: open (%d request(s) until half-open probe)" % (
                    self.name,
                    self._cooldown_remaining,
                )
            if self.state == HALF_OPEN:
                return "%s: half-open (probe outstanding)" % self.name
            return "%s: closed (%d/%d consecutive failure(s))" % (
                self.name,
                self.consecutive_failures,
                self.failure_threshold,
            )

    def __repr__(self) -> str:
        return "CircuitBreaker(%r, state=%s, threshold=%d, cooldown=%d)" % (
            self.name,
            self.state,
            self.failure_threshold,
            self.cooldown,
        )


class BreakerBoard:
    """A lazily populated ``{heuristic name: CircuitBreaker}`` map.

    Every heuristic gets its own breaker with shared settings — one
    pathological heuristic tripping open must not short-circuit the
    others.
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown: int = DEFAULT_COOLDOWN,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, method: str) -> CircuitBreaker:
        """The breaker for ``method``, created on first use."""
        with self._lock:
            breaker = self._breakers.get(method)
            if breaker is None:
                breaker = CircuitBreaker(
                    name=method,
                    failure_threshold=self.failure_threshold,
                    cooldown=self.cooldown,
                )
                self._breakers[method] = breaker
            return breaker

    def get(self, method: str) -> Optional[CircuitBreaker]:
        """The breaker for ``method`` if one exists (no creation)."""
        with self._lock:
            return self._breakers.get(method)

    def states(self) -> Dict[str, str]:
        """Current state of every instantiated breaker."""
        with self._lock:
            items = sorted(self._breakers.items())
        return {name: breaker.state for name, breaker in items}

    def counters(self) -> Dict[str, int]:
        """Lifetime totals summed over every instantiated breaker."""
        with self._lock:
            breakers = list(self._breakers.values())
        totals = {
            "breaker_successes": 0,
            "breaker_failures": 0,
            "breaker_opens": 0,
            "breaker_short_circuits": 0,
        }
        for breaker in breakers:
            with breaker._lock:
                totals["breaker_successes"] += breaker.successes
                totals["breaker_failures"] += breaker.failures
                totals["breaker_opens"] += breaker.opens
                totals["breaker_short_circuits"] += breaker.short_circuits
        return totals
