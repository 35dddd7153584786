"""Asyncio front door: admission control, deadlines, hedging, supervision.

:class:`MinimizationPool` answers "how do I survive one bad request";
this module answers "what happens when 5,000 requests arrive at once".
Optimizing one network with the SAT-based don't-care flow of Mishchenko
& Brayton fans out into thousands of ``[f, c]`` minimization calls
against the same service, so the front door must have an explicit
overload policy instead of an unbounded wait:

**Bounded admission queue with typed load shedding.**  A request either
enters the queue immediately or is rejected *immediately* with
:class:`OverloadedError` — admission never blocks, so under overload
the caller learns its fate in bounded time and can apply the
always-valid Definition 2 identity cover ``g = f`` itself.  Every
rejection this module produces is a typed :class:`GatewayError`
subclass; an untyped exception escaping ``submit`` is a bug (and the
chaos harness of :mod:`repro.robust.chaos` hunts for exactly that).

**End-to-end deadline propagation.**  A request's deadline is a total
budget, not a per-hop one: time spent queued is deducted from the
worker deadline, and a request whose budget is already exhausted when a
dispatcher picks it up is shed with :class:`DeadlineExpired` *without
ever dispatching to a worker* — a doomed request must not burn a worker
slot that a live one could use.  The same budget bounds the one retry
a transiently failed single-cell request gets (worker crash, budget
trip): a request killed at its deadline has nothing left to retry in,
so it degrades after one deadline.

**Deterministic counter-based hedged retries.**  Straggler latency
(a worker descheduled, stalled, or about to be watchdog-killed) is
hedged: an eligible single-cell request that has not answered after
``delay_fraction`` of its worker budget launches one duplicate attempt
on an *idle* worker (no idle worker — no hedge: hedging must never add
load to a saturated pool), and the first successful outcome wins.
Eligibility is decided by the admission counter (``seq % every == 0``),
not wall clock — the same admission sequence always hedges the same
requests, the same determinism-over-wall-clock choice as
:class:`repro.serve.breaker.CircuitBreaker`.

**Worker supervision.**  A background task probes idle workers with a
ping over their pipes and replaces unresponsive ones; consecutive
unhealthy rounds back off exponentially (capped), so a crash-looping
environment is retried patiently instead of hot-spinning respawns.
:meth:`MinimizationGateway.close` drains gracefully: admission stops,
queued and in-flight requests finish (bounded by their deadlines), and
only then do workers shut down.

Every admitted request is a batch — shared instance payloads plus
``(instance_index, method)`` cells — and
:meth:`MinimizationGateway.submit` is a batch of one, so admission,
shedding and breaker gating have a single implementation.  The gateway
speaks the wire format of :mod:`repro.bdd.wire` end to end: callers
submit serialized ``[f, c]`` payloads and receive covers back as wire
bytes, so no
:class:`~repro.bdd.manager.Manager` is ever shared across threads;
a caller decodes a reply into its own manager with
:func:`repro.bdd.wire.deserialize`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bdd.wire import (
    WireError,
    deserialize,
    deserialize_instance,
    serialize,
)
from repro.obs import metrics as obs_metrics
from repro.serve.breaker import BreakerBoard
from repro.serve.pool import (
    DETERMINISTIC,
    TRANSIENT,
    MinimizationPool,
    WireOutcome,
    pack_cells,
)

#: Minimum seconds of remaining budget worth dispatching a retry for.
MIN_RETRY_REMAINING = 0.01


class GatewayError(Exception):
    """Base of every typed gateway rejection.

    A raised ``GatewayError`` means the request was **not** executed
    (or was abandoned mid-flight by a forced shutdown); the caller owns
    the fallback — the Definition 2 identity cover ``g = f`` is always
    valid and always available to whoever holds ``f``.
    """


class OverloadedError(GatewayError):
    """The admission queue is full; the request was shed immediately."""

    def __init__(self, message: str, queue_depth: int = 0):
        super().__init__(message)
        self.queue_depth = queue_depth


class DeadlineExpired(GatewayError):
    """The deadline elapsed while queued; shed without dispatch."""

    def __init__(self, message: str, waited: float = 0.0):
        super().__init__(message)
        self.waited = waited


class GatewayClosed(GatewayError):
    """The gateway is closed (or closed before this request ran)."""


@dataclass(frozen=True)
class HedgePolicy:
    """Deterministic counter-based hedging policy.

    Admission sequence number ``seq`` is hedge-eligible iff
    ``seq % every == 0``.  An eligible request that has not answered
    after ``delay_fraction`` of its worker budget launches one
    duplicate attempt, but only on an idle worker — a hedge must never
    queue behind the straggler it is hedging.  ``min_remaining`` stops
    hedging (and retries) when the leftover budget could not fit a
    useful attempt anyway.
    """

    delay_fraction: float = 0.5
    every: int = 1
    min_remaining: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.delay_fraction <= 1.0:
            raise ValueError(
                "delay_fraction must be in [0, 1], got %g"
                % self.delay_fraction
            )
        if self.every < 1:
            raise ValueError("every must be >= 1, got %d" % self.every)
        if self.min_remaining < 0:
            raise ValueError("min_remaining must be >= 0")

    def eligible(self, seq: int) -> bool:
        """Is admission sequence ``seq`` hedge-eligible?"""
        return seq % self.every == 0


@dataclass
class GatewayReply:
    """One completed (non-shed) gateway response.

    ``payload`` is the wire-encoded cover: the heuristic's verified
    result when ``ok``, the identity cover ``f`` re-encoded from the
    request payload on degradation.  It is ``None`` only when the
    *request payload itself* was undecodable (so not even the identity
    could be recovered from it) — the caller falls back to its own
    ``f`` ref, which it necessarily holds.  ``runtime`` is the
    request's latency from admission to reply; a short-circuited cell,
    which never reaches a worker, reads 0.
    """

    method: str
    payload: Optional[bytes]
    reason: Optional[str] = None
    kind: str = TRANSIENT
    attempts: int = 1
    hedged: bool = False
    queue_wait: float = 0.0
    worker_deadline: float = 0.0
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        """True iff the heuristic itself produced the cover."""
        return self.reason is None

    @property
    def degraded(self) -> bool:
        return self.reason is not None


@dataclass
class _Admitted:
    """One queued batch: instance payloads, cells, expiry, caller's future.

    ``future`` resolves to a list of per-cell :class:`GatewayReply`
    aligned with ``cells``; ``label`` names the request in the
    dispatch log (the method for a batch of one).
    """

    seq: int
    label: str
    instances: List[bytes]
    cells: List[Tuple[int, str]]
    budget: float
    admitted_at: float
    expires_at: float
    future: "asyncio.Future[List[GatewayReply]]"


class MinimizationGateway:
    """Async admission control and supervision over a worker pool.

    Parameters
    ----------
    pool:
        The :class:`~repro.serve.pool.MinimizationPool` requests run
        on (closed with the gateway when ``own_pool=True``).
    queue_limit:
        Admission queue bound.  Size it for the burst you want to
        absorb, not the backlog you are willing to grow: a request
        admitted behind ``queue_limit`` others waits roughly
        ``queue_limit / workers`` service times, so the limit should
        keep worst-case queue wait well under the typical deadline.
    dispatchers:
        Concurrent dispatch slots (default: the pool's worker count —
        more would only queue inside the pool instead of the gateway).
    default_deadline:
        Total per-request budget (queue wait + worker time) when
        ``submit`` is not given one; defaults to the pool's deadline.
    hedge:
        Optional :class:`HedgePolicy` enabling hedged retries of
        single-cell requests.
    board:
        Optional :class:`~repro.serve.breaker.BreakerBoard`; when set,
        per-heuristic breakers gate dispatch and an open breaker
        degrades the request (typed reason, never an exception).
    probe_interval:
        Seconds between supervisor health probes (None disables the
        supervisor).  Consecutive unhealthy rounds double the interval
        up to ``probe_backoff_cap``.
    verify:
        Re-verify worker covers in a scratch manager before returning
        them (never trust a worker).
    clock:
        Monotonic clock used for queue-wait/deadline bookkeeping —
        injectable so deadline-propagation tests are exact.
    record_dispatches:
        Keep ``dispatch_log`` of ``(seq, label, worker_deadline)``
        per dispatched attempt, where ``label`` is the method of a
        single-cell request (tests and drills).
    """

    def __init__(
        self,
        pool: MinimizationPool,
        queue_limit: int = 128,
        dispatchers: Optional[int] = None,
        default_deadline: Optional[float] = None,
        hedge: Optional[HedgePolicy] = None,
        board: Optional[BreakerBoard] = None,
        probe_interval: Optional[float] = None,
        probe_timeout: float = 1.0,
        probe_backoff_cap: float = 5.0,
        verify: bool = True,
        own_pool: bool = False,
        clock: Callable[[], float] = time.monotonic,
        record_dispatches: bool = False,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1, got %d" % queue_limit)
        if dispatchers is not None and dispatchers < 1:
            raise ValueError("dispatchers must be >= 1 or None")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive")
        if probe_interval is not None and probe_interval <= 0:
            raise ValueError("probe_interval must be positive or None")
        self.pool = pool
        self.queue_limit = queue_limit
        self.num_dispatchers = (
            pool.num_workers if dispatchers is None else dispatchers
        )
        self.default_deadline = (
            pool.deadline if default_deadline is None else default_deadline
        )
        self.hedge = hedge
        self.board = board
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.probe_backoff_cap = probe_backoff_cap
        self.verify = verify
        self.own_pool = own_pool
        self._clock = clock
        self.dispatch_log: Optional[List[Tuple[int, str, float]]] = (
            [] if record_dispatches else None
        )
        # Counters (event-loop thread only).
        self.admitted = 0
        self.completed = 0
        self.degraded = 0
        self.shed_overload = 0
        self.shed_expired = 0
        self.shed_closed = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.retries = 0
        self.drains = 0
        self.probe_rounds = 0
        self.supervisor_restarts = 0
        self.max_queue_depth = 0
        self._seq = 0
        self._active = 0
        self._started = False
        self._accepting = False
        self._queue: Optional["asyncio.Queue[_Admitted]"] = None
        self._gate: Optional[asyncio.Event] = None
        self._tasks: List["asyncio.Task"] = []
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MinimizationGateway":
        """Spawn the dispatcher (and supervisor) tasks; idempotent."""
        if self._started:
            return self
        self._started = True
        self._accepting = True
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._gate = asyncio.Event()
        self._gate.set()
        # Hedges and retries can momentarily exceed the dispatcher
        # count, so give the executor headroom for one extra attempt
        # per dispatch slot.
        self._executor = ThreadPoolExecutor(
            max_workers=self.num_dispatchers * 2,
            thread_name_prefix="repro-gateway",
        )
        self._tasks = [
            asyncio.ensure_future(self._dispatch_loop())
            for _ in range(self.num_dispatchers)
        ]
        if self.probe_interval is not None:
            self._tasks.append(asyncio.ensure_future(self._supervise()))
        return self

    async def __aenter__(self) -> "MinimizationGateway":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the gateway; idempotent.

        With ``drain=True`` (the default) admission stops immediately
        but queued and in-flight requests run to completion — each is
        bounded by its own deadline, so the drain terminates.  With a
        ``timeout`` (or ``drain=False``) whatever is still queued when
        time runs out is shed with the typed :class:`GatewayClosed`.
        """
        if not self._started:
            return
        self._accepting = False
        if drain:
            give_up = (
                None if timeout is None else self._clock() + timeout
            )
            while self._queue.qsize() > 0 or self._active > 0:
                if give_up is not None and self._clock() >= give_up:
                    break
                await asyncio.sleep(0.005)
        # Shed anything still queued, typed.
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._bump("shed_closed")
            if not item.future.done():
                item.future.set_exception(
                    GatewayClosed("gateway closed before dispatch")
                )
        self._bump("drains")
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self._started = False
        # Wait out any executor work a cancelled dispatcher abandoned:
        # pool workers must not be shut down under a live request.
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.own_pool:
            self.pool.close()

    def pause_dispatch(self) -> None:
        """Hold dispatchers before their next dequeue (drills/tests)."""
        if self._gate is not None:
            self._gate.clear()

    def resume_dispatch(self) -> None:
        """Release a :meth:`pause_dispatch` hold."""
        if self._gate is not None:
            self._gate.set()

    def statistics(self) -> Dict[str, object]:
        """Gateway counters plus pool health (and breaker states)."""
        stats: Dict[str, object] = {
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "shed_overload": self.shed_overload,
            "shed_expired": self.shed_expired,
            "shed_closed": self.shed_closed,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "retries": self.retries,
            "drains": self.drains,
            "probe_rounds": self.probe_rounds,
            "supervisor_restarts": self.supervisor_restarts,
            "max_queue_depth": self.max_queue_depth,
            "queue_depth": 0 if self._queue is None else self._queue.qsize(),
        }
        if self.board is not None:
            stats["breakers"] = self.board.states()
            stats.update(self.board.counters())
        stats["pool"] = self.pool.statistics()
        return stats

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def submit(
        self,
        payload: bytes,
        method: str = "osm_bt",
        deadline: Optional[float] = None,
    ) -> GatewayReply:
        """Admit one wire-encoded ``[f, c]`` request: a batch of one.

        Returns a :class:`GatewayReply` for every request that runs
        (including degradations).  Raises a typed
        :class:`GatewayError` — and only that — when the request is
        shed: :class:`OverloadedError` immediately at admission,
        :class:`DeadlineExpired` if the budget dies in the queue,
        :class:`GatewayClosed` if the gateway shuts down first.
        """
        (reply,) = await self.submit_batch([payload], [(0, method)], deadline)
        return reply

    async def submit_batch(
        self,
        instances: Sequence[bytes],
        cells: Sequence[Tuple[int, str]],
        deadline: Optional[float] = None,
    ) -> List[GatewayReply]:
        """Admit one batch of ``(instance_index, method)`` cells.

        ``instances`` holds each distinct wire-encoded ``[f, c]``
        payload once, and every cell references one by index — the
        whole batch occupies a *single* admission slot and a single
        worker checkout, which is the sweep's admission amortization.
        Returns one :class:`GatewayReply` per cell, index-aligned with
        ``cells``; each cell degrades independently (breaker-denied
        cells are short-circuited without dispatch, failed cells carry
        their own typed reason), so one bad cell never rejects its
        batch.

        Typed shedding is all-or-nothing at the *batch* level, with the
        same errors as :meth:`submit`: cells of a batch share one
        end-to-end deadline.  Only a batch of one is hedged and retried:
        a duplicate whole-batch attempt would double worker load for
        one straggler cell, so per-cell transient failures of larger
        batches surface in the replies for the caller (who holds every
        ``f``) to re-submit individually if worthwhile.

        ``admitted`` counts one per batch; ``completed`` / ``degraded``
        count cells.
        """
        if not self._started:
            raise GatewayClosed("gateway is not started")
        if not self._accepting:
            raise GatewayClosed("gateway is closed to new requests")
        if not cells:
            return []
        for index, _ in cells:
            if not 0 <= index < len(instances):
                raise ValueError(
                    "cell references instance %d of %d"
                    % (index, len(instances))
                )
        budget = self.default_deadline if deadline is None else deadline
        if budget <= 0:
            raise ValueError("deadline must be positive")
        now = self._clock()
        label = cells[0][1] if len(cells) == 1 else "batch[%d]" % len(cells)
        item = _Admitted(
            seq=self._seq,
            label=label,
            instances=list(instances),
            cells=list(cells),
            budget=budget,
            admitted_at=now,
            expires_at=now + budget,
            future=asyncio.get_running_loop().create_future(),
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self._bump("shed_overload")
            raise OverloadedError(
                "admission queue full (%d queued); request shed"
                % self._queue.qsize(),
                queue_depth=self._queue.qsize(),
            ) from None
        self._seq += 1
        self.admitted += 1
        self.max_queue_depth = max(self.max_queue_depth, self._queue.qsize())
        return await item.future

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._gate.wait()
            item = await self._queue.get()
            if item.future.done():  # pragma: no cover - cancelled caller
                continue
            self._active += 1
            try:
                await self._run_item(item)
            except asyncio.CancelledError:
                if not item.future.done():
                    item.future.set_exception(
                        GatewayClosed("gateway closed mid-request")
                    )
                raise
            except Exception as error:  # noqa: BLE001 - typed boundary
                # No untyped exception may reach a caller; anything
                # landing here is a gateway bug reported as a typed,
                # deterministic degradation.
                if not item.future.done():
                    reason = "GatewayError: %s: %s" % (
                        type(error).__name__,
                        error,
                    )
                    item.future.set_result(
                        [
                            GatewayReply(
                                method=method,
                                payload=self._fallback_payload(
                                    item.instances[index]
                                ),
                                reason=reason,
                                kind=DETERMINISTIC,
                            )
                            for index, method in item.cells
                        ]
                    )
            finally:
                self._active -= 1

    async def _run_item(self, item: _Admitted) -> None:
        """Dispatch one admitted batch: gate, execute, reply per cell."""
        now = self._clock()
        waited = now - item.admitted_at
        remaining = item.expires_at - now
        if remaining <= 0.0:
            # Already dead on arrival at the dispatcher: shed without
            # ever touching a worker.
            self._bump("shed_expired")
            item.future.set_exception(
                DeadlineExpired(
                    "deadline of %.3fs expired after %.3fs in queue"
                    % (item.budget, waited),
                    waited=waited,
                )
            )
            return
        replies: List[Optional[GatewayReply]] = [None] * len(item.cells)
        allowed: List[int] = []
        for position, (index, method) in enumerate(item.cells):
            breaker = self._breaker(method)
            if breaker is None or breaker.allow():
                allowed.append(position)
                continue
            self._bump("degraded", "gateway.short_circuits")
            replies[position] = GatewayReply(
                method=method,
                payload=self._fallback_payload(item.instances[index]),
                reason="CircuitOpen: %s" % breaker.describe(),
                kind=TRANSIENT,
                attempts=0,
                queue_wait=waited,
            )
        if not allowed:
            item.future.set_result(replies)
            return
        outcomes, attempts, hedged = await self._attempts(
            item, [item.cells[position] for position in allowed], remaining
        )
        runtime = self._clock() - item.admitted_at
        for position, outcome in zip(allowed, outcomes):
            index, method = item.cells[position]
            breaker = self._breaker(method)
            if breaker is not None:
                if outcome.ok:
                    breaker.record_success()
                else:
                    breaker.record_failure()
            if outcome.ok:
                self.completed += 1
                payload = outcome.payload
            else:
                self._bump("degraded")
                payload = self._fallback_payload(item.instances[index])
            replies[position] = GatewayReply(
                method=method,
                payload=payload,
                reason=outcome.reason,
                kind=outcome.kind,
                attempts=attempts,
                hedged=hedged,
                queue_wait=waited,
                worker_deadline=remaining,
                runtime=runtime,
            )
        mreg = obs_metrics.active()
        if mreg is not None:
            mreg.observe("gateway.request_latency", runtime)
        item.future.set_result(replies)

    def _breaker(self, method: str):
        return None if self.board is None else self.board.breaker(method)

    def _bump(
        self, counter: str, metric: Optional[str] = None, amount: int = 1
    ) -> None:
        """Advance a gateway counter and its metric (by default
        ``gateway.<counter>``)."""
        setattr(self, counter, getattr(self, counter) + amount)
        mreg = obs_metrics.active()
        if mreg is not None:
            mreg.inc(metric or "gateway." + counter, amount)

    async def _attempts(
        self,
        item: _Admitted,
        cells: List[Tuple[int, str]],
        remaining: float,
    ) -> Tuple[List[WireOutcome], int, bool]:
        """Primary attempt; a batch of one also gets an optional hedge
        and, after a transient failure, a retry in the remaining
        budget."""
        loop = asyncio.get_running_loop()

        def attempt(budget: float, block: bool = True):
            if self.dispatch_log is not None:
                self.dispatch_log.append((item.seq, item.label, budget))
            return loop.run_in_executor(
                self._executor,
                self._attempt,
                item.instances,
                cells,
                budget,
                block,
            )

        primary = attempt(remaining)
        if len(item.cells) > 1:
            return await primary, 1, False
        attempts = 1
        hedge_task = None
        if (
            self.hedge is not None
            and self.hedge.eligible(item.seq)
            and remaining > self.hedge.min_remaining
        ):
            delay = remaining * self.hedge.delay_fraction
            done, _ = await asyncio.wait({primary}, timeout=delay)
            hedge_budget = item.expires_at - self._clock()
            if not done and hedge_budget > self.hedge.min_remaining:
                self._bump("hedges")
                attempts += 1
                # Idle worker only: a hedge must never add load.
                hedge_task = attempt(hedge_budget, block=False)
        if hedge_task is None:
            outcomes = await primary
        else:
            outcomes = await self._first_success(primary, hedge_task)
        (outcome,) = outcomes
        retry_budget = item.expires_at - self._clock()
        if (
            not outcome.ok
            and outcome.kind == TRANSIENT
            and retry_budget
            > max(
                MIN_RETRY_REMAINING,
                self.hedge.min_remaining if self.hedge else 0.0,
            )
        ):
            self._bump("retries")
            attempts += 1
            retried = await attempt(retry_budget)
            if retried[0].ok:
                outcomes = retried
        return outcomes, attempts, hedge_task is not None

    async def _first_success(self, primary, hedge):
        """First successful attempt wins; losers still complete (each
        is bounded by its own worker deadline) before we give up."""
        pending = {primary, hedge}
        fallback = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for future in done:
                outcomes = future.result()
                if outcomes is None:
                    # Hedge found no idle worker and stood down.
                    continue
                if outcomes[0].ok:
                    if future is hedge:
                        self._bump("hedge_wins")
                    return outcomes
                if fallback is None:
                    fallback = outcomes
        return fallback

    def _attempt(
        self,
        instances: List[bytes],
        cells: List[Tuple[int, str]],
        worker_deadline: float,
        block: bool,
    ) -> Optional[List[WireOutcome]]:
        """One pool attempt (executor thread; wire-level only).

        Returns ``None`` iff ``block=False`` and no worker was idle.
        """
        try:
            if len(cells) == 1:
                # A batch of one goes through the pool's single-cell
                # entry point, :meth:`MinimizationPool.execute`.
                ((index, method),) = cells
                outcome = self.pool.execute(
                    instances[index],
                    method,
                    deadline=worker_deadline,
                    block=block,
                )
                outcomes = None if outcome is None else [outcome]
            else:
                outcomes = self.pool.execute_batch(
                    pack_cells(instances, cells),
                    [method for _, method in cells],
                    deadline=worker_deadline,
                    block=block,
                )
        except RuntimeError as error:
            failure = WireOutcome(
                status="failed",
                reason="PoolClosed: %s" % error,
                kind=TRANSIENT,
            )
            return [failure] * len(cells)
        if outcomes is None or not self.verify:
            return outcomes
        return [
            self._verify_outcome(instances[index], method, outcome)
            for (index, method), outcome in zip(cells, outcomes)
        ]

    def _verify_outcome(
        self,
        payload: bytes,
        method: str,
        outcome: WireOutcome,
    ) -> WireOutcome:
        """Never trust a worker: re-verify the cover in a scratch
        manager (never the caller's — managers are single-threaded)."""
        if not outcome.ok:
            return outcome
        try:
            scratch, f, c = deserialize_instance(payload)
            _, roots = deserialize(outcome.payload, manager=scratch)
            cover = roots[0]
            from repro.core.ispec import ISpec

            is_cover = ISpec(scratch, f, c).is_cover(cover)
        except (WireError, IndexError) as error:
            return WireOutcome(
                status="failed",
                reason="WireError: undecodable result payload: %s" % error,
                kind=DETERMINISTIC,
                runtime=outcome.runtime,
                stats=outcome.stats,
            )
        if not is_cover:
            return WireOutcome(
                status="failed",
                reason="ContractError: worker returned a non-cover for %s"
                % method,
                kind=DETERMINISTIC,
                runtime=outcome.runtime,
                stats=outcome.stats,
            )
        return outcome

    def _fallback_payload(self, request_payload: bytes) -> Optional[bytes]:
        """Wire-encode the identity cover ``g = f`` from the request.

        Returns ``None`` when the request payload itself is
        undecodable (a corrupt-wire request has no recoverable ``f``;
        the caller falls back to its own ref).
        """
        try:
            manager, f, _ = deserialize_instance(request_payload)
        except WireError:
            return None
        return serialize(manager, (f,))

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _supervise(self) -> None:
        loop = asyncio.get_running_loop()
        unhealthy_rounds = 0
        while True:
            delay = min(
                self.probe_backoff_cap,
                self.probe_interval * (2 ** unhealthy_rounds),
            )
            await asyncio.sleep(delay)
            report = await loop.run_in_executor(
                self._executor, self.pool.probe, self.probe_timeout
            )
            self._bump("probe_rounds")
            if report["replaced"]:
                self._bump("supervisor_restarts", amount=report["replaced"])
                # A freshly restarted worker that dies again by the
                # next probe means the environment is unhealthy —
                # back off (capped) instead of hot-spinning respawns.
                unhealthy_rounds += 1
            else:
                unhealthy_rounds = 0
