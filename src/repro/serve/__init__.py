"""Process-isolated minimization serving: pool, watchdog, breakers.

The robustness layer (:mod:`repro.robust`) degrades *cooperatively*:
budgets fire through the manager's step hook, so a heuristic stuck
inside one huge operation still owns the interpreter.  This package
adds the outer, non-cooperative fence — minimization as a *service*,
the way industrial flows invoke it thousands of times per run:

:mod:`repro.bdd.wire` (substrate)
    A versioned, checksummed, deterministic wire format moving ROBDDs
    and ``[f, c]`` instances across managers and process boundaries.
:mod:`repro.serve.pool`
    A ``multiprocessing`` worker pool running registry heuristics in
    child processes under an OS-level wall-clock watchdog (SIGKILL on
    overrun, worker recycled) and an optional address-space rlimit.
:mod:`repro.serve.breaker`
    Per-heuristic closed/open/half-open circuit breakers and a bounded
    retry-with-backoff policy — both measured in requests, not wall
    time, so every scenario replays deterministically.
:mod:`repro.serve.service`
    :class:`MinimizationService`: a thin synchronous adapter adding
    breakers and bounded retry to the pool.  Every request returns a
    valid cover (heuristic result or the Definition-2 identity
    ``g = f``) with the failure reason recorded — the service never
    raises on a request.
:mod:`repro.serve.gateway`
    :class:`MinimizationGateway`: the asyncio front door for
    concurrent load — bounded admission queue with typed load shedding
    (:class:`OverloadedError`), end-to-end deadline propagation (queue
    wait deducted from the worker budget; expired requests shed
    without dispatch), deterministic counter-based hedged retries, and
    a worker supervisor with capped-backoff health probing.

The experiment harness shards benchmark cells across the pool with
``run_experiment(parallel=N)`` / ``repro-bdd experiments --parallel N``,
and ``repro-bdd serve`` / ``repro-bdd minimize --isolate`` expose the
layer on the command line.  See ``docs/serving.md``.
"""

from repro.bdd.wire import (
    WireError,
    deserialize,
    deserialize_instance,
    serialize,
    serialize_instance,
)
from repro.serve.breaker import (
    BreakerBoard,
    CircuitBreaker,
    CLOSED,
    HALF_OPEN,
    OPEN,
    RetryPolicy,
)
from repro.serve.gateway import (
    DeadlineExpired,
    GatewayClosed,
    GatewayError,
    GatewayReply,
    HedgePolicy,
    MinimizationGateway,
    OverloadedError,
)
from repro.serve.pool import (
    DEFAULT_DEADLINE,
    DETERMINISTIC,
    MinimizationPool,
    ServeResult,
    TRANSIENT,
    WireOutcome,
)
from repro.serve.service import MinimizationService

__all__ = [
    "MinimizationPool",
    "MinimizationService",
    "MinimizationGateway",
    "GatewayError",
    "GatewayReply",
    "GatewayClosed",
    "OverloadedError",
    "DeadlineExpired",
    "HedgePolicy",
    "ServeResult",
    "WireOutcome",
    "CircuitBreaker",
    "BreakerBoard",
    "RetryPolicy",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "TRANSIENT",
    "DETERMINISTIC",
    "DEFAULT_DEADLINE",
    "WireError",
    "serialize",
    "deserialize",
    "serialize_instance",
    "deserialize_instance",
]
