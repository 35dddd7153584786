"""Seeded chaos schedules and a closed-loop load generator.

The serve layer's promise is easy to state and hard to trust: *every*
completed response is a valid Definition 2 cover and *every* rejection
is typed and bounded in time, no matter what the workers are doing.
This module earns that trust the only way it can be earned — by
breaking the workers on purpose, under load, and checking the promise
on every single response:

**Deterministic chaos schedules.**  A :class:`ChaosSchedule` is a set
of :class:`ChaosEvent`\\ s keyed on the **admission sequence number**,
not wall clock — the same seed and request count always injects the
same fault before the same request, the same
determinism-over-wall-clock choice as
:class:`repro.robust.faults.FaultPlan` and the serve breakers.  Four
fault kinds cover the serve layer's failure surface:

``kill``
    SIGKILL a live worker (the supervisor/respawn path).
``stall``
    SIGSTOP a worker for a bounded interval, then SIGCONT (the
    straggler path: watchdog kills and hedged retries).
``corrupt``
    Flip one byte of the request's wire payload (the CRC-32 /
    :class:`~repro.bdd.wire.WireError` path).
``spike``
    Swap the request's method for a heuristic that allocates a large
    block before answering (the memory-pressure / RLIMIT path).

**Closed-loop load generator.**  :func:`run_loadtest` drives a
:class:`~repro.serve.gateway.MinimizationGateway` with ``concurrency``
closed-loop clients over deterministic, seeded DNF instances, applies
the schedule's faults at their sequence numbers, and validates every
reply in a scratch manager against the *original* (uncorrupted)
request.  The resulting :class:`LoadReport` records p50/p99 latency,
throughput, and shed rate, and :meth:`LoadReport.violations` turns the
serve-layer promise into a pass/fail gate — exposed as
``repro-bdd loadtest`` and run in CI.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.cover import is_def2_cover
from repro.bdd.manager import Manager
from repro.bdd.wire import deserialize, deserialize_instance, serialize_instance
from repro.core.registry import register_heuristic, unregister_heuristic
from repro.serve.breaker import BreakerBoard
from repro.serve.gateway import (
    DeadlineExpired,
    GatewayClosed,
    GatewayError,
    HedgePolicy,
    MinimizationGateway,
    OverloadedError,
)
from repro.serve.pool import MinimizationPool

#: Chaos event kinds.
CHAOS_KILL = "kill"
CHAOS_STALL = "stall"
CHAOS_CORRUPT = "corrupt"
CHAOS_SPIKE = "spike"

CHAOS_KINDS = (CHAOS_KILL, CHAOS_STALL, CHAOS_CORRUPT, CHAOS_SPIKE)

#: The memory-spike heuristic's registry name.
SPIKE_METHOD = "chaos_spike"

#: Bytes the spike heuristic allocates before answering.  A module
#: global (not a closure) so forked workers inherit the value set by
#: :func:`run_loadtest` before the pool spawned.
SPIKE_BYTES = 192 << 20

#: Named fault schedules: per-kind injection rates (fraction of
#: requests).  ``calm`` is the fault-free control.
FAULT_SCHEDULES: Dict[str, Dict[str, float]] = {
    "calm": {},
    "kills": {CHAOS_KILL: 0.05},
    "stalls": {CHAOS_STALL: 0.04},
    "corrupt": {CHAOS_CORRUPT: 0.10},
    "spikes": {CHAOS_SPIKE: 0.05},
    "mixed": {
        CHAOS_KILL: 0.02,
        CHAOS_STALL: 0.02,
        CHAOS_CORRUPT: 0.05,
        CHAOS_SPIKE: 0.02,
    },
}


def _memory_spike(manager: Manager, f: int, c: int) -> int:
    """A heuristic that allocates ``SPIKE_BYTES`` then answers ``f``.

    The identity is always a valid cover, so a *surviving* spike
    request must still verify; a spike that trips the worker's
    RLIMIT_AS dies on the MemoryError path instead.  Either way the
    caller sees a valid cover or a typed degradation.
    """
    block = b"\xff" * SPIKE_BYTES
    return f if block else f


@dataclass(frozen=True)
class ChaosEvent:
    """Inject ``kind`` immediately before admission number ``at_request``."""

    at_request: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                "unknown chaos kind %r; expected one of %s"
                % (self.kind, ", ".join(CHAOS_KINDS))
            )
        if self.at_request < 0:
            raise ValueError("at_request must be >= 0")


@dataclass(frozen=True)
class ChaosSchedule:
    """A named, fully deterministic set of chaos events."""

    name: str
    events: Tuple[ChaosEvent, ...] = ()
    seed: int = 0

    def due(self, seq: int) -> List[str]:
        """Fault kinds to inject before admission number ``seq``."""
        return [e.kind for e in self.events if e.at_request == seq]

    @property
    def counts(self) -> Dict[str, int]:
        """Scheduled events per kind (zero-filled for absent kinds)."""
        totals = {kind: 0 for kind in CHAOS_KINDS}
        for event in self.events:
            totals[event.kind] += 1
        return totals

    @classmethod
    def generate(
        cls,
        name: str,
        seed: int,
        requests: int,
        rates: Dict[str, float],
    ) -> "ChaosSchedule":
        """Sample a schedule from per-kind ``rates`` — deterministic in
        ``(seed, requests, rates)``: each kind draws its target count
        of distinct sequence numbers from a seeded RNG."""
        rng = random.Random(seed)
        events: List[ChaosEvent] = []
        for kind in CHAOS_KINDS:  # fixed order => reproducible draws
            rate = rates.get(kind, 0.0)
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rate for %r must be in [0, 1]" % kind)
            count = min(requests, int(round(rate * requests)))
            if count <= 0:
                continue
            for at_request in sorted(rng.sample(range(requests), count)):
                events.append(ChaosEvent(at_request=at_request, kind=kind))
        events.sort(key=lambda e: (e.at_request, e.kind))
        return cls(name=name, events=tuple(events), seed=seed)


def named_schedule(name: str, seed: int, requests: int) -> ChaosSchedule:
    """Instantiate one of :data:`FAULT_SCHEDULES` for a request count."""
    if name not in FAULT_SCHEDULES:
        raise ValueError(
            "unknown schedule %r; available: %s"
            % (name, ", ".join(sorted(FAULT_SCHEDULES)))
        )
    return ChaosSchedule.generate(name, seed, requests, FAULT_SCHEDULES[name])


def corrupt_payload(payload: bytes, rng: random.Random) -> bytes:
    """Flip one byte of ``payload`` (CRC-32 must catch it downstream)."""
    if not payload:
        return payload
    index = rng.randrange(len(payload))
    corrupted = bytearray(payload)
    corrupted[index] ^= 0xFF
    return bytes(corrupted)


class ChaosInjector:
    """Applies kill/stall faults to a live pool's workers.

    Victim selection draws from a seeded RNG over the *sorted* live
    pid list — deterministic given the same pool state, and never
    dependent on wall clock.
    """

    def __init__(
        self,
        pool: MinimizationPool,
        seed: int = 0,
        stall_seconds: float = 0.5,
    ):
        self.pool = pool
        self.stall_seconds = stall_seconds
        self._rng = random.Random(seed)
        self._stopped: Dict[int, threading.Timer] = {}
        self._lock = threading.Lock()
        self.kills = 0
        self.stalls = 0

    def _victim(self) -> Optional[int]:
        pids = sorted(pid for pid in self.pool.worker_pids() if pid)
        if not pids:
            return None
        return self._rng.choice(pids)

    def kill_worker(self) -> Optional[int]:
        """SIGKILL one live worker; the pool must respawn it."""
        victim = self._victim()
        if victim is None:
            return None
        try:
            os.kill(victim, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - racing exit
            return None
        self.kills += 1
        return victim

    def stall_worker(self) -> Optional[int]:
        """SIGSTOP one worker, SIGCONT after ``stall_seconds``.

        While stopped the worker is a straggler: a request dispatched
        to it must be rescued by a hedge or killed by the watchdog.
        """
        victim = self._victim()
        if victim is None:
            return None
        try:
            os.kill(victim, signal.SIGSTOP)
        except ProcessLookupError:  # pragma: no cover - racing exit
            return None
        self.stalls += 1
        timer = threading.Timer(self.stall_seconds, self._resume, (victim,))
        timer.daemon = True
        with self._lock:
            self._stopped[victim] = timer
        timer.start()
        return victim

    def _resume(self, pid: int) -> None:
        with self._lock:
            self._stopped.pop(pid, None)
        try:
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass  # watchdog already reaped it

    def release(self) -> None:
        """Cancel pending timers and SIGCONT every stopped worker."""
        with self._lock:
            stopped = dict(self._stopped)
            self._stopped.clear()
        for pid, timer in stopped.items():
            timer.cancel()
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass


@dataclass(frozen=True)
class LoadConfig:
    """Knobs for one :func:`run_loadtest` run (all deterministic)."""

    requests: int = 200
    concurrency: int = 8
    workers: int = 2
    queue_limit: int = 32
    deadline: float = 2.0
    kill_grace: float = 0.25
    seed: int = 2026
    methods: Tuple[str, ...] = ("osm_bt", "constrain", "restrict", "f_and_c")
    num_vars: int = 6
    instance_pool: int = 8
    stall_seconds: float = 0.5
    hedge: bool = True
    memory_limit: Optional[int] = None
    probe_interval: Optional[float] = 0.5
    spike_bytes: int = SPIKE_BYTES

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.instance_pool < 1:
            raise ValueError("instance_pool must be >= 1")
        if not self.methods:
            raise ValueError("methods must be non-empty")


#: Extra seconds of slack on top of the theoretical shed/latency bound
#: (scheduler jitter, respawn time).
BOUND_SLACK = 2.0


@dataclass
class LoadReport:
    """Outcome of one load run under one fault schedule."""

    schedule: str
    config: LoadConfig
    chaos_counts: Dict[str, int] = field(default_factory=dict)
    completed_ok: int = 0
    degraded: int = 0
    shed_overload: int = 0
    shed_expired: int = 0
    shed_closed: int = 0
    invalid_covers: int = 0
    untyped_rejections: int = 0
    unhandled_exceptions: int = 0
    injected_kills: int = 0
    injected_stalls: int = 0
    latencies: List[float] = field(default_factory=list)
    shed_latencies: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    gateway_stats: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return self.config.requests

    @property
    def finished(self) -> int:
        return self.completed_ok + self.degraded

    @property
    def shed(self) -> int:
        return self.shed_overload + self.shed_expired + self.shed_closed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def throughput(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.finished / self.wall_seconds

    @property
    def p50(self) -> float:
        return _percentile(self.latencies, 0.50)

    @property
    def p99(self) -> float:
        return _percentile(self.latencies, 0.99)

    @property
    def max_shed_latency(self) -> float:
        return max(self.shed_latencies) if self.shed_latencies else 0.0

    def violations(
        self,
        max_p99: Optional[float] = None,
        max_shed_rate: Optional[float] = None,
    ) -> List[str]:
        """The serve-layer promise as a checklist; empty means it held."""
        problems = list(self.errors)
        if self.invalid_covers:
            problems.append(
                "%s: %d completed response(s) were not valid covers"
                % (self.schedule, self.invalid_covers)
            )
        if self.unhandled_exceptions:
            problems.append(
                "%s: %d unhandled exception(s) escaped the gateway"
                % (self.schedule, self.unhandled_exceptions)
            )
        if self.untyped_rejections:
            problems.append(
                "%s: %d rejection(s) were not typed GatewayErrors"
                % (self.schedule, self.untyped_rejections)
            )
        if self.finished + self.shed != self.requests:
            problems.append(
                "%s: %d request(s) unaccounted for (%d finished, %d shed)"
                % (
                    self.schedule,
                    self.requests - self.finished - self.shed,
                    self.finished,
                    self.shed,
                )
            )
        # Every shed must land within the request's own budget plus
        # the watchdog's grace: bounded-time rejection.
        bound = self.config.deadline + self.config.kill_grace + BOUND_SLACK
        if self.max_shed_latency > bound:
            problems.append(
                "%s: slowest shed took %.3fs (bound %.3fs)"
                % (self.schedule, self.max_shed_latency, bound)
            )
        if max_p99 is not None and self.p50 and self.p99 > max_p99:
            problems.append(
                "%s: p99 latency %.3fs exceeds bound %.3fs"
                % (self.schedule, self.p99, max_p99)
            )
        if max_shed_rate is not None and self.shed_rate > max_shed_rate:
            problems.append(
                "%s: shed rate %.1f%% exceeds bound %.1f%%"
                % (self.schedule, 100 * self.shed_rate, 100 * max_shed_rate)
            )
        return problems

    def to_record(self) -> Dict[str, object]:
        """JSON-serializable summary for ``BENCH_serve_load.json``."""
        pool_stats = self.gateway_stats.get("pool", {})
        return {
            "schedule": self.schedule,
            "requests": self.requests,
            "concurrency": self.config.concurrency,
            "workers": self.config.workers,
            "queue_limit": self.config.queue_limit,
            "deadline": self.config.deadline,
            "seed": self.config.seed,
            "chaos_counts": dict(self.chaos_counts),
            "injected_kills": self.injected_kills,
            "injected_stalls": self.injected_stalls,
            "completed_ok": self.completed_ok,
            "degraded": self.degraded,
            "shed_overload": self.shed_overload,
            "shed_expired": self.shed_expired,
            "shed_closed": self.shed_closed,
            "shed_rate": round(self.shed_rate, 4),
            "invalid_covers": self.invalid_covers,
            "untyped_rejections": self.untyped_rejections,
            "unhandled_exceptions": self.unhandled_exceptions,
            "p50_seconds": round(self.p50, 4),
            "p99_seconds": round(self.p99, 4),
            "max_shed_latency": round(self.max_shed_latency, 4),
            "throughput_rps": round(self.throughput, 2),
            "wall_seconds": round(self.wall_seconds, 3),
            "hedges": self.gateway_stats.get("hedges", 0),
            "hedge_wins": self.gateway_stats.get("hedge_wins", 0),
            "retries": self.gateway_stats.get("retries", 0),
            "supervisor_restarts": self.gateway_stats.get(
                "supervisor_restarts", 0
            ),
            "worker_kills": pool_stats.get("kills", 0),
            "worker_crashes": pool_stats.get("crashes", 0),
            "worker_restarts": pool_stats.get("worker_restarts", 0),
        }


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _build_payloads(config: LoadConfig) -> List[bytes]:
    """Pre-serialize a deterministic pool of ``[f, c]`` instances.

    Samples from the corpus framework's shared DNF builder so the load
    harness and ``repro.verify`` fuzz the same distribution.
    """
    from repro.verify.corpus import random_dnf_ref

    rng = random.Random(config.seed)
    payloads: List[bytes] = []
    for _ in range(config.instance_pool):
        manager = Manager(
            ["x%d" % index for index in range(config.num_vars)]
        )
        levels = [manager.var(level) for level in range(config.num_vars)]
        f = random_dnf_ref(manager, levels, rng, config.num_vars)
        c = random_dnf_ref(manager, levels, rng, config.num_vars)
        payloads.append(serialize_instance(manager, f, c))
    return payloads


def _validate_reply(request_payload: bytes, reply_payload) -> bool:
    """Is the reply a valid Definition 2 cover of the original request?

    Decodes the *uncorrupted* request into a scratch manager; a
    ``None`` reply payload means the caller's own ``f`` (the identity,
    always valid).
    """
    scratch, f, c = deserialize_instance(request_payload)
    if reply_payload is None:
        cover = f
    else:
        _, roots = deserialize(reply_payload, manager=scratch)
        cover = roots[0]
    return is_def2_cover(scratch, f, c, cover)


def run_loadtest(
    config: LoadConfig, schedule: ChaosSchedule
) -> LoadReport:
    """Drive a gateway with closed-loop load under ``schedule``.

    Deterministic inputs (instances, method choices, fault points) —
    the interleaving itself is of course scheduler-dependent, but every
    response is checked against invariants that must hold under *any*
    interleaving.
    """
    global SPIKE_BYTES
    SPIKE_BYTES = config.spike_bytes
    payloads = _build_payloads(config)
    report = LoadReport(
        schedule=schedule.name,
        config=config,
        chaos_counts=schedule.counts,
    )
    # Registered before the pool forks its workers so they inherit it.
    register_heuristic(SPIKE_METHOD, _memory_spike, replace=True)
    pool = MinimizationPool(
        workers=config.workers,
        deadline=config.deadline,
        kill_grace=config.kill_grace,
        memory_limit=config.memory_limit,
    )
    injector = ChaosInjector(
        pool, seed=config.seed, stall_seconds=config.stall_seconds
    )
    try:
        asyncio.run(_drive(config, schedule, payloads, pool, injector, report))
    finally:
        injector.release()
        pool.close()
        unregister_heuristic(SPIKE_METHOD)
    report.injected_kills = injector.kills
    report.injected_stalls = injector.stalls
    return report


async def _drive(
    config: LoadConfig,
    schedule: ChaosSchedule,
    payloads: List[bytes],
    pool: MinimizationPool,
    injector: ChaosInjector,
    report: LoadReport,
) -> None:
    gateway = MinimizationGateway(
        pool,
        queue_limit=config.queue_limit,
        board=BreakerBoard(),
        hedge=HedgePolicy(every=2) if config.hedge else None,
        probe_interval=config.probe_interval,
    )
    await gateway.start()
    counter = iter(range(config.requests))
    started = time.monotonic()

    async def client() -> None:
        loop = asyncio.get_running_loop()
        while True:
            seq = next(counter, None)
            if seq is None:
                return
            req_rng = random.Random(config.seed * 1_000_003 + seq)
            method = req_rng.choice(config.methods)
            payload = payloads[req_rng.randrange(len(payloads))]
            sent = payload
            for kind in schedule.due(seq):
                if kind == CHAOS_SPIKE:
                    method = SPIKE_METHOD
                elif kind == CHAOS_CORRUPT:
                    sent = corrupt_payload(payload, req_rng)
                elif kind == CHAOS_KILL:
                    await loop.run_in_executor(None, injector.kill_worker)
                elif kind == CHAOS_STALL:
                    await loop.run_in_executor(None, injector.stall_worker)
            t0 = time.monotonic()
            try:
                reply = await gateway.submit(sent, method)
            except OverloadedError:
                report.shed_overload += 1
                report.shed_latencies.append(time.monotonic() - t0)
            except DeadlineExpired:
                report.shed_expired += 1
                report.shed_latencies.append(time.monotonic() - t0)
            except GatewayClosed:
                report.shed_closed += 1
                report.shed_latencies.append(time.monotonic() - t0)
            except GatewayError as error:  # typed, but unexpected kind
                report.untyped_rejections += 1
                report.errors.append(
                    "%s: unexpected GatewayError %s" % (schedule.name, error)
                )
            except Exception as error:  # noqa: BLE001 - the invariant
                report.unhandled_exceptions += 1
                report.errors.append(
                    "%s: unhandled %s: %s"
                    % (schedule.name, type(error).__name__, error)
                )
            else:
                report.latencies.append(time.monotonic() - t0)
                if reply.ok:
                    report.completed_ok += 1
                else:
                    report.degraded += 1
                # Validate against the ORIGINAL payload: corruption
                # happened on the wire, not in the caller's instance.
                try:
                    valid = _validate_reply(payload, reply.payload)
                except Exception as error:  # noqa: BLE001
                    valid = False
                    report.errors.append(
                        "%s: reply validation raised %s: %s"
                        % (schedule.name, type(error).__name__, error)
                    )
                if not valid:
                    report.invalid_covers += 1

    try:
        await asyncio.gather(*(client() for _ in range(config.concurrency)))
    finally:
        report.wall_seconds = time.monotonic() - started
        await gateway.close()
        report.gateway_stats = gateway.statistics()
