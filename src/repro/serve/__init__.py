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
    Per-heuristic closed/open/half-open circuit breakers, measured in
    requests, not wall time, so every scenario replays
    deterministically.
:mod:`repro.serve.gateway`
    :class:`MinimizationGateway`: the front door for repeated traffic
    — bounded admission queue with typed load shedding
    (:class:`OverloadedError`), end-to-end deadline propagation (queue
    wait deducted from the worker budget; expired requests shed
    without dispatch), per-heuristic breakers, one retry of a
    transient failure within the request's remaining budget,
    deterministic counter-based hedged retries, and a worker
    supervisor with capped-backoff health probing.  Every request that
    runs returns a valid cover (heuristic result or the Definition-2
    identity ``g = f``) with the failure reason recorded.

Callers that run one heuristic at a time and need no breaker call
:meth:`MinimizationPool.minimize` directly.  The experiment harness
shards benchmark cells across the pool with
``run_experiment(parallel=N)`` / ``repro-bdd experiments --parallel N``;
``repro-bdd serve`` goes through the gateway and ``repro-bdd minimize
--isolate`` through the pool.  See ``docs/serving.md``.
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

__all__ = [
    "MinimizationPool",
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
