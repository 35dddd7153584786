"""Differential serving lanes: one instance, every path to a cover.

A *lane* pushes wire-encoded ``[f, c]`` instances through one serving
path and reports, per ``(instance, method)``, a normalized
:class:`LaneResult`.  Four lanes ship:

``inprocess``
    The registry heuristic called directly — the reference lane.
``pool``
    :class:`~repro.serve.service.MinimizationService` over an isolated
    :class:`~repro.serve.pool.MinimizationPool` (process workers,
    watchdog, breakers, retries), each cell a batch of one.
``gateway``
    The async :class:`~repro.serve.gateway.MinimizationGateway` with
    admission control, each instance's cells submitted as one batch.
``chaos``
    The gateway again, under a named fault schedule from
    :mod:`repro.robust.chaos` (worker kills, stalls, corrupt payloads,
    memory spikes).

Covers are normalized before comparison: every lane decodes the
*original* instance payload into a scratch manager and re-serializes
its cover there, so byte equality is meaningful across lanes (the wire
format is canonical over a fixed variable universe).

:func:`differential_violations` then asserts the serving invariant:
completed lanes agree byte-for-byte and return valid Definition 2
covers; degradations and rejections are typed; nothing escapes as an
untyped exception.  The chaos lane is conformance-only — whether a
particular request completes or degrades under injected faults is
timing-dependent, so its statuses are excluded from the byte-agreement
check (each completed cover is still validated).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.cover import is_def2_cover
from repro.bdd.manager import Manager
from repro.bdd.wire import WireError, deserialize, serialize
from repro.verify.corpus import Instance

LANE_NAMES: Tuple[str, ...] = (
    "inprocess",
    "pool",
    "gateway",
    "chaos",
)

#: Statuses a lane may report.  ``error`` is always a violation.
COMPLETED, DEGRADED, REJECTED, ERROR = (
    "completed",
    "degraded",
    "rejected",
    "error",
)


@dataclass(frozen=True)
class LaneResult:
    """One lane's outcome for one ``(instance, method)`` request."""

    lane: str
    instance: Instance
    method: str
    status: str
    cover_payload: Optional[bytes] = None
    reason: Optional[str] = None
    kind: Optional[str] = None

    @property
    def label(self) -> str:
        return "%s:%s on %s" % (self.lane, self.method, self.instance.label)


def _normalize(manager: Manager, cover: int) -> bytes:
    """Canonical bytes of a cover over the instance's scratch manager."""
    return serialize(manager, (cover,))


class InProcessLane:
    """The reference lane: raw registry heuristics, no isolation."""

    name = "inprocess"

    def run(
        self, instances: Sequence[Instance], methods: Sequence[str]
    ) -> List[LaneResult]:
        from repro.core.registry import get_heuristic

        results: List[LaneResult] = []
        for instance in instances:
            for method in methods:
                heuristic = get_heuristic(
                    method, audited=False, guarded=False
                )
                manager, f, c = instance.decode()
                try:
                    g = heuristic(manager, f, c)
                except Exception as error:  # noqa: BLE001 - fuzz boundary
                    results.append(
                        LaneResult(
                            self.name,
                            instance,
                            method,
                            ERROR,
                            reason="%s: %s" % (type(error).__name__, error),
                        )
                    )
                    continue
                results.append(
                    LaneResult(
                        self.name,
                        instance,
                        method,
                        COMPLETED,
                        cover_payload=_normalize(manager, g),
                    )
                )
        return results


class PoolLane:
    """Process-isolated lane through MinimizationService."""

    name = "pool"

    def __init__(self, workers: int = 2, deadline: float = 30.0):
        self.workers = workers
        self.deadline = deadline

    def run(
        self, instances: Sequence[Instance], methods: Sequence[str]
    ) -> List[LaneResult]:
        from repro.serve.pool import MinimizationPool
        from repro.serve.service import MinimizationService

        pool = MinimizationPool(
            workers=self.workers, deadline=self.deadline
        )
        service = MinimizationService(pool, own_pool=True)
        results: List[LaneResult] = []
        try:
            for instance in instances:
                for method in methods:
                    manager, f, c = instance.decode()
                    outcome = service.minimize(manager, f, c, method)
                    results.append(
                        LaneResult(
                            self.name,
                            instance,
                            method,
                            COMPLETED if outcome.ok else DEGRADED,
                            cover_payload=_normalize(manager, outcome.cover),
                            reason=outcome.reason,
                            kind=outcome.kind if not outcome.ok else None,
                        )
                    )
        finally:
            service.close()
        return results


class GatewayLane:
    """Async admission-controlled lane through MinimizationGateway.

    Each instance's cells are submitted as one batch, so this lane's
    byte agreement with the single-cell ``pool`` lane is the
    multi-cell-envelope differential: a stale ref surviving a
    between-cell collection, a cross-cell leak in the warm manager or
    a mis-aligned outcome surfaces as a lane disagreement.
    """

    name = "gateway"

    def __init__(
        self,
        workers: int = 2,
        deadline: float = 30.0,
        queue_limit: int = 64,
    ):
        self.workers = workers
        self.deadline = deadline
        self.queue_limit = queue_limit

    def run(
        self, instances: Sequence[Instance], methods: Sequence[str]
    ) -> List[LaneResult]:
        return asyncio.run(self._drive(instances, methods))

    async def _drive(
        self, instances: Sequence[Instance], methods: Sequence[str]
    ) -> List[LaneResult]:
        from repro.serve.breaker import BreakerBoard
        from repro.serve.gateway import (
            GatewayError,
            MinimizationGateway,
        )
        from repro.serve.pool import MinimizationPool

        pool = MinimizationPool(
            workers=self.workers, deadline=self.deadline
        )
        gateway = MinimizationGateway(
            pool,
            queue_limit=self.queue_limit,
            board=BreakerBoard(),
            own_pool=True,
        )
        await gateway.start()
        results: List[LaneResult] = []
        try:
            for instance in instances:
                try:
                    replies = await gateway.submit_batch(
                        [instance.payload],
                        [(0, method) for method in methods],
                    )
                except GatewayError as error:
                    results.extend(
                        LaneResult(
                            self.name,
                            instance,
                            method,
                            REJECTED,
                            reason="%s: %s" % (type(error).__name__, error),
                            kind=type(error).__name__,
                        )
                        for method in methods
                    )
                    continue
                for method, reply in zip(methods, replies):
                    manager, f, _ = instance.decode()
                    cover = f
                    if reply.payload is not None:
                        _, (cover,) = deserialize(reply.payload, manager=manager)
                    results.append(
                        LaneResult(
                            self.name,
                            instance,
                            method,
                            COMPLETED if reply.ok else DEGRADED,
                            cover_payload=_normalize(manager, cover),
                            reason=reply.reason,
                            kind=reply.kind if not reply.ok else None,
                        )
                    )
        finally:
            await gateway.close()
        return results


class ChaosLane:
    """Gateway lane under an injected fault schedule (conformance only)."""

    name = "chaos"

    def __init__(
        self,
        schedule: str = "mixed",
        seed: int = 0,
        workers: int = 2,
        deadline: float = 10.0,
        queue_limit: int = 64,
    ):
        self.schedule = schedule
        self.seed = seed
        self.workers = workers
        self.deadline = deadline
        self.queue_limit = queue_limit

    def run(
        self, instances: Sequence[Instance], methods: Sequence[str]
    ) -> List[LaneResult]:
        from repro.robust.chaos import ChaosInjector
        from repro.serve.pool import MinimizationPool

        pool = MinimizationPool(
            workers=self.workers, deadline=self.deadline
        )
        injector = ChaosInjector(pool, seed=self.seed)
        try:
            return asyncio.run(
                self._drive(pool, injector, instances, methods)
            )
        finally:
            injector.release()
            pool.close()

    async def _drive(
        self,
        pool,
        injector,
        instances: Sequence[Instance],
        methods: Sequence[str],
    ) -> List[LaneResult]:
        from repro.robust.chaos import (
            CHAOS_CORRUPT,
            CHAOS_KILL,
            CHAOS_STALL,
            corrupt_payload,
            named_schedule,
        )
        from repro.serve.breaker import BreakerBoard
        from repro.serve.gateway import (
            GatewayError,
            MinimizationGateway,
        )

        total = len(instances) * len(methods)
        schedule = named_schedule(self.schedule, self.seed, total)
        gateway = MinimizationGateway(
            pool,
            queue_limit=self.queue_limit,
            board=BreakerBoard(),
        )
        await gateway.start()
        loop = asyncio.get_running_loop()
        results: List[LaneResult] = []
        seq = 0
        try:
            for instance in instances:
                for method in methods:
                    rng = random.Random(self.seed * 1_000_003 + seq)
                    sent = instance.payload
                    for fault in schedule.due(seq):
                        if fault == CHAOS_CORRUPT:
                            sent = corrupt_payload(instance.payload, rng)
                        elif fault == CHAOS_KILL:
                            await loop.run_in_executor(
                                None, injector.kill_worker
                            )
                        elif fault == CHAOS_STALL:
                            await loop.run_in_executor(
                                None, injector.stall_worker
                            )
                    seq += 1
                    try:
                        reply = await gateway.submit(sent, method)
                    except GatewayError as error:
                        results.append(
                            LaneResult(
                                self.name,
                                instance,
                                method,
                                REJECTED,
                                reason="%s: %s"
                                % (type(error).__name__, error),
                                kind=type(error).__name__,
                            )
                        )
                        continue
                    except Exception as error:  # noqa: BLE001 - invariant
                        results.append(
                            LaneResult(
                                self.name,
                                instance,
                                method,
                                ERROR,
                                reason="untyped %s: %s"
                                % (type(error).__name__, error),
                            )
                        )
                        continue
                    # Validate against the ORIGINAL payload: corruption
                    # happened on the wire, not in the caller's instance.
                    manager, f, c = instance.decode()
                    if reply.payload is None:
                        cover = f
                    else:
                        try:
                            _, roots = deserialize(
                                reply.payload, manager=manager
                            )
                            cover = roots[0]
                        except WireError as error:
                            results.append(
                                LaneResult(
                                    self.name,
                                    instance,
                                    method,
                                    ERROR,
                                    reason="undecodable reply: %s" % error,
                                )
                            )
                            continue
                    results.append(
                        LaneResult(
                            self.name,
                            instance,
                            method,
                            COMPLETED if reply.ok else DEGRADED,
                            cover_payload=_normalize(manager, cover),
                            reason=reply.reason,
                            kind=reply.kind if not reply.ok else None,
                        )
                    )
        finally:
            await gateway.close()
        return results


def build_lane(name: str, seed: int = 0, deadline: float = 30.0):
    """Instantiate a lane by name (the CLI's ``--lanes`` vocabulary)."""
    if name == "inprocess":
        return InProcessLane()
    if name == "pool":
        return PoolLane(deadline=deadline)
    if name == "gateway":
        return GatewayLane(deadline=deadline)
    if name == "chaos":
        return ChaosLane(seed=seed, deadline=deadline)
    raise ValueError(
        "unknown lane %r (available: %s)" % (name, ", ".join(LANE_NAMES))
    )


# ----------------------------------------------------------------------
# Differential comparison
# ----------------------------------------------------------------------
def _cover_valid(instance: Instance, payload: bytes) -> bool:
    manager, f, c = instance.decode()
    _, roots = deserialize(payload, manager=manager)
    return is_def2_cover(manager, f, c, roots[0])


def differential_violations(
    instance: Instance,
    method: str,
    results: Sequence[LaneResult],
) -> List[str]:
    """The serving invariant, checked across lanes for one request.

    Returns human-readable violation strings (empty = conforming):

    * every ``completed`` or ``degraded`` cover is a valid Definition 2
      cover of the original instance;
    * ``degraded``/``rejected`` results carry a typed reason;
    * ``error`` results (untyped escapes) are violations outright;
    * all non-chaos ``completed`` lanes agree byte-for-byte.
    """
    violations: List[str] = []
    agreed: Dict[bytes, List[str]] = {}
    for result in results:
        where = result.label
        if result.status == ERROR:
            violations.append("%s: %s" % (where, result.reason))
            continue
        if result.status in (DEGRADED, REJECTED) and not result.reason:
            violations.append("%s: untyped degradation" % where)
        if result.cover_payload is not None:
            try:
                valid = _cover_valid(instance, result.cover_payload)
            except WireError as error:
                valid = False
                violations.append(
                    "%s: cover payload undecodable: %s" % (where, error)
                )
            else:
                if not valid:
                    violations.append(
                        "%s: returned cover violates Definition 2" % where
                    )
            if valid and result.status == COMPLETED and result.lane != "chaos":
                agreed.setdefault(result.cover_payload, []).append(
                    result.lane
                )
    if len(agreed) > 1:
        detail = "; ".join(
            "%s from %s" % (payload.hex()[:16], "+".join(lanes))
            for payload, lanes in sorted(agreed.items())
        )
        violations.append(
            "completed lanes disagree on %s:%s: %s"
            % (method, instance.label, detail)
        )
    return violations


def group_by_request(
    results: Sequence[LaneResult],
) -> Dict[Tuple[str, str], List[LaneResult]]:
    """Bucket lane results by ``(instance digest, method)``."""
    grouped: Dict[Tuple[str, str], List[LaneResult]] = {}
    for result in results:
        key = (result.instance.digest, result.method)
        grouped.setdefault(key, []).append(result)
    return grouped
