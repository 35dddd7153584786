"""A process-isolated worker pool for minimization requests.

The guard/governor layer of :mod:`repro.robust` degrades *cooperatively*:
budgets are enforced through the manager's step hook, so a heuristic
stuck inside one enormous ``apply`` (or burning memory faster than the
hook fires) still owns the interpreter.  This pool closes that gap by
running every request in a **child process** under two OS-level fences:

* a **wall-clock watchdog** in the parent — a worker that has not
  answered by its deadline is ``SIGKILL``-ed (no cooperation required)
  and transparently replaced by a fresh worker;
* an optional **address-space cap** (``resource.setrlimit``) applied at
  worker start, so a memory hog dies with ``MemoryError`` (or an
  OOM kill) inside its own process instead of taking down the sweep.

There is one dispatch path.  Every request is a batch envelope
(:func:`repro.bdd.wire.encode_batch`): a shared-instance table plus
``(instance_index, method)`` cells, sent to one worker checkout by
:meth:`MinimizationPool.execute_batch`.  A single cell is a batch of
one (:meth:`MinimizationPool.execute`).  The child decodes each shared
instance once into a **warm, resident manager** (:class:`_WarmHost` —
persisting across requests, collected between cells, compacted past a
node watermark), runs the registry heuristic, verifies the cover, and
streams one reply per cell back.  On *any* failure — timeout, OOM,
crash, budget trip, contract violation — the affected cell (and only
that cell) degrades to the identity cover ``g = f`` (always correct per
Definition 2) with the reason recorded, following the same
reason-recording protocol as :class:`repro.robust.guard.GuardedHeuristic`
(``failures``, ``last_failure``, ``on_failure``).

Failures are classified for the circuit breaker / retry layer
(:mod:`repro.serve.breaker`), mirroring the guard's split:

* **transient** — deadline kills, memory kills, worker crashes, budget
  trips: a retry (with a bigger deadline) might succeed;
* **deterministic** — contract violations, invariant violations,
  unknown heuristics, malformed payloads: retrying cannot help.

Concurrency model
-----------------

Workers live on a checked-out/checked-in free list guarded by one
condition variable, so the pool is safe to drive from **multiple
threads at once** — the asyncio gateway's dispatcher threads
(:mod:`repro.serve.gateway`), the chaos harness and a sweep can share
one pool.  :meth:`MinimizationPool.execute_batch` is the thread-safe,
wire-level primitive (bytes in, :class:`WireOutcome` objects out; it
never touches a caller manager); :meth:`run_batch` and :meth:`minimize`
are built on top of it and do all caller-manager encoding and decoding
in the calling thread, so a :class:`~repro.bdd.manager.Manager` is
never shared across threads by this module.

Custom heuristics must be resolvable *in the child*.  With the default
``fork`` start method, anything registered via
:func:`repro.core.registry.register_heuristic` before the pool starts
is inherited automatically; under ``spawn`` only importable registry
entries are visible.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.errors import (
    BudgetExceeded,
    ContractError,
    DeadlineExceeded,
    InvariantError,
)
from repro.bdd.cover import is_def2_cover
from repro.bdd.manager import Manager
from repro.bdd.wire import (
    WireError,
    _target_manager,
    build_parsed,
    decode_batch,
    deserialize,
    encode_batch,
    parse_payload,
    serialize,
    serialize_instance,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.dist import (
    GLOBAL_PHASES,
    TRACE_DETAIL_EVERY,
    PhaseAccumulator,
    PhaseClock,
    TraceContext,
    TraceMerger,
    build_parent_group,
    request_trace_id,
    synthesize_worker_spans,
)

#: Default wall-clock deadline (seconds) per request.
DEFAULT_DEADLINE = 10.0

#: Extra seconds past the deadline before the watchdog SIGKILLs: gives
#: the child's cooperative deadline governor a chance to degrade
#: cleanly (cheap) before the OS-level kill (loses the warm worker).
DEFAULT_KILL_GRACE = 0.25

#: Failure classifications carried by :class:`ServeResult`.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Compaction watermark for warm worker managers: when the resident
#: manager's node table (live plus free-list slots) grows past this
#: many entries, the between-cell collection compacts — rebuilding
#: dense ids and bumping ``gc_generation`` — instead of just sweeping
#: dead nodes to the free list.
DEFAULT_NODE_WATERMARK = 1 << 16


@dataclass
class ServeResult:
    """Outcome of one isolated minimization request.

    ``cover`` is always a valid cover of the request's ``[f, c]`` in
    the *caller's* manager: the heuristic's result on success, the
    identity ``f`` on degradation.  ``reason`` is ``None`` exactly when
    the heuristic succeeded.
    """

    method: str
    cover: int
    reason: Optional[str] = None
    kind: str = TRANSIENT
    killed: bool = False
    short_circuited: bool = False
    runtime: float = 0.0
    attempts: int = 1
    #: The worker manager's per-request ``statistics()`` delta, shipped
    #: back across the process boundary (None when the worker never got
    #: far enough to have a manager — watchdog kills, crashes,
    #: undecodable requests).  Worker managers are *warm* — they persist
    #: across requests — so cumulative counters are differenced against
    #: a snapshot taken at cell start (:func:`repro.obs.metrics
    #: .diff_statistics`), while table-size readings (``live_nodes``,
    #: ``peak_nodes``) report the post-cell value.
    stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        """True iff the heuristic itself produced the cover."""
        return self.reason is None

    @property
    def degraded(self) -> bool:
        """True iff the request fell back to the identity cover."""
        return self.reason is not None

    @property
    def transient(self) -> bool:
        """True iff a retry (bigger deadline) could plausibly succeed."""
        return self.kind == TRANSIENT


@dataclass
class WireOutcome:
    """Wire-level outcome of one worker attempt.

    The thread-safe twin of :class:`ServeResult`: it carries the
    result as wire bytes instead of a caller-manager ref, so it can be
    produced on any thread without touching any manager.  ``payload``
    is the wire-encoded cover on success and ``None`` on failure — a
    failed request degrades at whatever layer holds the caller's
    ``f`` ref (the batch API here, or the gateway's fallback encoder).
    """

    status: str
    payload: Optional[bytes] = None
    reason: Optional[str] = None
    kind: str = TRANSIENT
    killed: bool = False
    runtime: float = 0.0
    stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _apply_memory_limit(limit_bytes: Optional[int]) -> None:
    """Cap the worker's address space; silently a no-op off-POSIX."""
    if limit_bytes is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = limit_bytes
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    except (ValueError, OSError):  # pragma: no cover - platform quirks
        pass


class _WarmHost:
    """The worker's resident manager, persisting across requests.

    Building a fresh :class:`~repro.bdd.manager.Manager` per request
    made the pooled sweep lose to serial — per-request interpreter
    allocation dominated the paper's tiny per-cell minimizations
    (ROADMAP item 1).  The warm host keeps one manager alive for the
    worker's lifetime: requests decode into it, covers encode out of
    it, and :meth:`settle` collects between cells so nothing leaks
    from one cell into the next.

    The resident manager is reused only when the incoming payload's
    variable universe is compatible (same name-per-level prefix — the
    rule :func:`repro.bdd.wire._target_manager` enforces); a mismatch
    swaps in a fresh manager instead of raising, because one worker
    serves arbitrary interleavings of universes.  After a failure that
    may have left the manager inconsistent (memory exhaustion, an
    invariant violation, an unclassified heuristic crash) the host is
    poisoned — the next :meth:`acquire` starts fresh.
    """

    __slots__ = ("watermark", "manager", "resets", "compactions")

    def __init__(self, watermark: int = DEFAULT_NODE_WATERMARK):
        self.watermark = watermark
        self.manager: Optional[Manager] = None
        self.resets = 0
        self.compactions = 0

    def acquire(self, names: Sequence[str]) -> Manager:
        """The resident manager, aligned to ``names`` — or a fresh one."""
        if self.manager is not None:
            try:
                return _target_manager(names, self.manager)
            except WireError:
                self.resets += 1
        # Imported lazily so the sanitizer's patched Manager class
        # (REPRO_SANITIZE=1) is honored even though this module bound
        # the unpatched name at import time.
        from repro.bdd.manager import Manager as manager_class

        self.manager = manager_class(var_names=list(names))
        return self.manager

    def settle(self, roots: Sequence[int]):
        """Collect between cells; compact past the node watermark.

        Everything not reachable from ``roots`` is swept to the free
        list; past the watermark the sweep compacts instead, so the
        table's dense-id space cannot grow without bound across a long
        batch.  Returns the :class:`~repro.bdd.manager.Remap` when the
        collection compacted (the caller must translate every ref it
        holds — the sanitizer's ``gc_generation`` tagging turns a
        missed translation into a typed error), else ``None``.
        """
        manager = self.manager
        if manager is None:
            return None
        if manager.num_nodes > self.watermark:
            self.compactions += 1
            return manager.gc(roots, compact=True)
        manager.gc(roots)
        return None

    def poison(self) -> None:
        """Drop the resident manager; the next cell starts fresh."""
        self.manager = None


class _CellAlarm:
    """Per-cell wall-clock deadline via ``SIGALRM``/``setitimer``.

    The governor's cooperative deadline costs a Python call on *every*
    node/ITE event — measured ~25% of worker compute on the sweep's
    tiny cells.  The alarm costs two syscalls per cell instead: arm an
    interval timer before compute, disarm after.  The trade is that
    the handler raises :class:`DeadlineExceeded` asynchronously, which
    can interrupt the warm manager mid-mutation — so the cell handler
    poisons the resident manager on an alarm trip, paying one rare
    re-decode for hook-free steady-state compute.

    Off-POSIX (or when the serving loop is not the process's main
    thread, where signal handlers cannot be installed) ``ensure()``
    reports False and the caller falls back to the governor's polled
    deadline.
    """

    __slots__ = ("_armed", "_ready")

    def __init__(self):
        self._armed = False
        self._ready: Optional[bool] = None

    def ensure(self) -> bool:
        """Install the handler once; False when alarms are unusable."""
        if self._ready is None:
            try:
                signal.setitimer  # noqa: B018 - AttributeError off-POSIX
                signal.signal(signal.SIGALRM, self._handle)
                self._ready = True
            except (AttributeError, ValueError, OSError):
                self._ready = False
        return self._ready

    def _handle(self, signum, frame) -> None:
        # A disarmed delivery (raced with setitimer(0)) must be
        # swallowed, or a stray alarm could abort the serve loop.
        if self._armed:
            self._armed = False
            raise DeadlineExceeded(
                "deadline exhausted: cell exceeded its wall-clock budget"
            )

    @contextmanager
    def limit(self, seconds: Optional[float]):
        if seconds is None or not self.ensure():
            yield
            return
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._armed = False


#: Worker-process singleton; the handler is installed on first use.
_ALARM = _CellAlarm()


class _SharedInstances:
    """A batch's shared instances, decoded lazily onto the warm manager.

    Decode and manager-build cost is paid once per *instance*, not once
    per cell.  Cached ``[f, c]`` refs belong to the manager they were
    built in: when the host poisons or swaps its manager they are
    dropped and rebuilt on demand.  An instance that fails to decode
    stays failed for the rest of the batch, without re-parsing.
    """

    __slots__ = ("payloads", "host", "manager", "refs", "errors")

    def __init__(self, payloads: Sequence[bytes], host: _WarmHost):
        self.payloads = payloads
        self.host = host
        self.manager: Optional[Manager] = None
        self.refs: Dict[int, List[int]] = {}
        self.errors: Dict[int, str] = {}

    def _drop_stale(self, manager: Optional[Manager]) -> None:
        if manager is not self.manager:
            self.refs.clear()
            self.manager = manager

    def load(self, index: int, clock: PhaseClock):
        """``(manager, [f, c], stats_before)`` for instance ``index``.

        ``stats_before`` is the cell-start statistics snapshot, taken
        before a first decode so the decode's nodes count toward the
        cell.  Raises :class:`WireError` for an undecodable instance.
        """
        if index in self.errors:
            raise WireError(self.errors[index])
        self._drop_stale(self.host.manager)
        refs = self.refs.get(index)
        if refs is not None:
            return self.manager, refs, self.manager.statistics()
        try:
            with clock.phase("worker.decode"):
                parsed = parse_payload(self.payloads[index])
            with clock.phase("worker.manager"):
                manager = self.host.acquire(parsed.names)
                self._drop_stale(manager)
                stats_before = manager.statistics()
                _, roots = build_parsed(parsed, manager)
            if len(roots) != 2:
                raise WireError(
                    "instance payload must carry exactly 2 roots "
                    "[f, c], got %d" % len(roots)
                )
        except WireError as error:
            self.errors[index] = str(error)
            raise
        refs = self.refs[index] = list(roots)
        return manager, refs, stats_before

    def live(self) -> List[int]:
        """Every cached ref: roots for the between-cell collection."""
        return [ref for refs in self.refs.values() for ref in refs]

    def remap(self, remap) -> None:
        """Translate every cached ref after a compacting collection."""
        for refs in self.refs.values():
            refs[:] = [remap(ref) for ref in refs]


def _run_cell(
    request: dict,
    clock: PhaseClock,
    host: _WarmHost,
    shared: _SharedInstances,
    index: int,
    method: str,
) -> dict:
    """Decode (or reuse) a cell's shared instance and run the cell on
    the warm manager; never raises.

    Even a failed cell ships its statistics delta home (the journals
    can then explain *why* it degraded, e.g. nodes created right up
    against the budget).
    """
    from repro.core.ispec import ISpec
    from repro.core.registry import HEURISTICS
    from repro.robust.governor import Budget, governed
    from repro.robust.guard import describe_error

    started = time.perf_counter()
    try:
        manager, (f, c), stats_before = shared.load(index, clock)
    except WireError as error:
        return {
            "status": "failed",
            "reason": "WireError: %s" % error,
            "kind": DETERMINISTIC,
            "runtime": time.perf_counter() - started,
        }

    def stats() -> Dict[str, int]:
        return obs_metrics.diff_statistics(stats_before, manager.statistics())

    def failed(reason: str, kind: str) -> dict:
        return {
            "status": "failed",
            "reason": reason,
            "kind": kind,
            "runtime": time.perf_counter() - started,
            "stats": stats(),
        }

    heuristic = HEURISTICS.get(method)
    if heuristic is None:
        return failed(
            "UnknownHeuristic: %r is not registered in this worker"
            % method,
            DETERMINISTIC,
        )
    # The wall-clock deadline is enforced by the interval-timer alarm
    # when available — the governor then only installs its per-event
    # hook when a node/step budget actually needs counting, keeping
    # unbudgeted compute hook-free.
    use_alarm = _ALARM.ensure()
    budget = Budget(
        max_nodes=request.get("node_budget"),
        max_steps=request.get("step_budget"),
        deadline=None if use_alarm else request.get("deadline"),
    )
    try:
        with clock.phase("worker.compute"):
            with _ALARM.limit(
                request.get("deadline") if use_alarm else None
            ):
                with governed(
                    manager, None if budget.unlimited else budget
                ):
                    cover = heuristic(manager, f, c)
                if not ISpec(manager, f, c).is_cover(cover):
                    return failed(
                        "ContractError: %s returned a non-cover" % method,
                        DETERMINISTIC,
                    )
        # Between-cell collection on the warm manager: the heuristic's
        # scratch nodes are dead weight once the cover is known, and
        # past the node watermark the sweep compacts.  The wire format
        # emits canonically, so a remapped ref serializes to the same
        # bytes the uncollected one would.
        with clock.phase("worker.gc"):
            remap = host.settle(shared.live() + [cover])
            if remap is not None:
                cover = remap(cover)
                shared.remap(remap)
        with clock.phase("worker.encode"):
            payload = serialize(manager, (cover,))
    except DeadlineExceeded as error:
        # An alarm-raised deadline interrupts the manager at an
        # arbitrary bytecode — possibly mid-mutation — so the resident
        # manager cannot be trusted afterwards.
        host.poison()
        return failed(describe_error(error), TRANSIENT)
    except BudgetExceeded as error:
        return failed(describe_error(error), TRANSIENT)
    except RecursionError:
        host.poison()
        return failed(
            "RecursionError: interpreter recursion limit exceeded",
            TRANSIENT,
        )
    except MemoryError:
        host.poison()
        return failed(
            "MemoryError: worker memory cap exceeded", TRANSIENT
        )
    except InvariantError as error:
        host.poison()
        return failed(describe_error(error), DETERMINISTIC)
    except ContractError as error:
        return failed(describe_error(error), DETERMINISTIC)
    except Exception as error:  # noqa: BLE001 - the boundary must hold
        # A programming error cannot propagate across the process
        # boundary as an exception; it is reported fail-fast instead
        # (deterministic: retrying the same bug cannot help).
        host.poison()
        return failed(
            "WorkerError: %s" % describe_error(error), DETERMINISTIC
        )
    return {
        "status": "ok",
        "payload": payload,
        "runtime": time.perf_counter() - started,
        "stats": stats(),
    }


def _send(conn, message: dict) -> bool:
    """Ship one reply; False when the pipe is gone."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        return False
    return True


def _serve_batch(request: dict, conn, host: _WarmHost) -> bool:
    """Run one batch inside the worker, streaming per-cell replies.

    Sends one ``{"cell": i, ...}`` reply the moment each cell finishes
    — the parent resets its watchdog window per cell and keeps every
    streamed result even when a later cell hangs and gets this worker
    killed.  The last reply is marked ``done`` and carries the batch's
    accumulated phase durations, warm-host counters and (when sampled
    for detail) the span bundle.  An undecodable envelope gets a single
    ``done`` reply with status ``batch_error`` instead.  Returns
    ``False`` when the pipe died (the worker exits its serve loop).
    """
    started = time.perf_counter()
    context = request.get("trace")
    bundle_tracer = None
    batch_span = obs_trace._NULL_SPAN
    if context is not None and context.get("detail", True):
        # A fresh, request-scoped tracer: span timestamps are relative
        # to *this* request's start, which is exactly the shape the
        # merger's logical-clock rebasing expects.  Only requests the
        # pool sampled for detail record (and ship) real spans — phase
        # spans for the rest are synthesized pool-side from the
        # ``phases`` durations, which keeps tracing overhead on
        # sub-millisecond requests near zero.
        bundle_tracer = obs_trace.activate(obs_trace.Tracer())
        batch_span = bundle_tracer.span(
            "worker.request",
            seq=context["seq"],
            trace_id=context["trace_id"],
            parent=context["parent_span"],
        )
    clock = PhaseClock(tracer=bundle_tracer)
    try:
        with batch_span:
            try:
                with clock.phase("worker.decode"):
                    envelope = decode_batch(request["batch"])
            except WireError as error:
                last = {
                    "status": "batch_error",
                    "reason": "WireError: %s" % error,
                    "kind": DETERMINISTIC,
                }
            else:
                shared = _SharedInstances(envelope.instances, host)
                final = len(envelope.cells) - 1
                for position, (index, method) in enumerate(envelope.cells):
                    last = _run_cell(
                        request, clock, host, shared, index, method
                    )
                    last["cell"] = position
                    if position < final and not _send(conn, last):
                        return False
    finally:
        if bundle_tracer is not None:
            obs_trace.deactivate()
    phases = dict(clock.durations)
    phases["worker.request"] = time.perf_counter() - started
    last["done"] = True
    last["phases"] = phases
    last["warm"] = {"resets": host.resets, "compactions": host.compactions}
    if bundle_tracer is not None:
        last["spans"] = bundle_tracer.events
    return _send(conn, last)


def _worker_main(conn, memory_limit: Optional[int]) -> None:
    """Worker process entry: serve batches until the sentinel."""
    _apply_memory_limit(memory_limit)
    # Under ``fork`` the child inherits the parent's active tracer.
    # Recording into that copy is pure waste — the events can never
    # reach the parent's file — and it would pollute the per-request
    # bundles, so worker tracing is strictly request-scoped.
    obs_trace.deactivate()
    host = _WarmHost()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:
            break
        if "ping" in request:
            # Health probe from the supervisor: echo the token back.
            # Kept trivially cheap so a probe never competes with work.
            if not _send(conn, {"pong": request["ping"]}):
                break
            continue
        if request.get("watermark") is not None:
            host.watermark = request["watermark"]
        if not _serve_batch(request, conn, host):
            break
    conn.close()


class _Worker:
    """One child process plus its duplex pipe.

    ``target`` overrides the process entry point — used by tests to
    spawn pathological workers (e.g. one that ignores the shutdown
    sentinel) against the same lifecycle machinery.
    """

    def __init__(self, context, memory_limit: Optional[int], target=None):
        #: Requests dispatched to this worker so far (drives recycling).
        self.served = 0
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main if target is None else target,
            args=(child_conn, memory_limit),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def kill(self) -> None:
        """SIGKILL the worker — no cooperation, no cleanup, no mercy."""
        try:
            self.process.kill()
            self.process.join()
        finally:
            self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then kill.

        A worker that ignores the sentinel (wedged interpreter, blocked
        signal handling, a child that stopped reading its pipe) is
        SIGKILLed after a 1 second join; the parent end of the pipe is
        closed on every path.
        """
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        try:
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        finally:
            self.conn.close()


#: Pool counter and metric a lost worker is booked under, by cause.
_LOSSES = {
    "kills": "serve.watchdog_kills",
    "crashes": "serve.worker_crashes",
    "probe_failures": "serve.probe_failures",
}


def pack_cells(
    instances: Sequence[bytes], cells: Sequence[Tuple[int, str]]
) -> bytes:
    """Encode ``(instance_index, method)`` cells into a batch envelope
    carrying only the ``instances`` they reference, in first-use order."""
    local: Dict[int, int] = {}
    for index, _ in cells:
        local.setdefault(index, len(local))
    return encode_batch(
        [instances[index] for index in local],
        [(local[index], method) for index, method in cells],
    )


class MinimizationPool:
    """A fixed-size pool of process-isolated minimization workers.

    Parameters
    ----------
    workers:
        Number of child processes kept warm.
    deadline:
        Default wall-clock seconds per cell.  The child runs each cell
        under an interval-timer (or cooperative governor) deadline at
        this value; the parent's watchdog SIGKILLs ``kill_grace``
        seconds later if the child has not answered.
    memory_limit:
        Optional address-space cap in bytes applied at worker start.
    node_budget / step_budget:
        Optional per-cell governor bounds enforced inside the child.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (inherits the parent's registry, including
        test-registered heuristics) and ``spawn`` elsewhere.
    verify:
        Re-check returned covers in the parent (two BDD operations) —
        the child already verifies, but the parent does not have to
        trust a worker that may have corrupted itself.  Applies to the
        manager-level APIs (:meth:`minimize` / :meth:`run_batch` /
        :meth:`decode_outcome`); the wire-level :meth:`execute_batch`
        leaves verification to its caller.
    on_failure:
        Optional ``(method, reason)`` callback invoked on every
        degradation — the same protocol as
        :class:`repro.robust.guard.GuardedHeuristic`.  May be invoked
        from a dispatcher thread when the pool is driven concurrently.
    recycle_after:
        Optional dispatch count after which an idle worker is gracefully
        stopped and replaced by a fresh one.  Warm worker managers are
        collected between cells (and compacted past the node
        watermark); recycling additionally returns any
        interpreter-level growth (allocator arenas, fragmentation) to
        the OS, which matters for long sweeps under ``memory_limit``.
    node_watermark:
        Compaction watermark for the warm per-worker manager: when its
        node table grows past this many entries, the between-cell
        collection compacts instead of just sweeping.  ``None`` keeps
        the worker default (:data:`DEFAULT_NODE_WATERMARK`).
    """

    def __init__(
        self,
        workers: int = 2,
        deadline: float = DEFAULT_DEADLINE,
        memory_limit: Optional[int] = None,
        node_budget: Optional[int] = None,
        step_budget: Optional[int] = None,
        start_method: Optional[str] = None,
        kill_grace: float = DEFAULT_KILL_GRACE,
        verify: bool = True,
        on_failure: Optional[Callable[[str, str], None]] = None,
        recycle_after: Optional[int] = None,
        node_watermark: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1, got %d" % workers)
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        if kill_grace < 0:
            raise ValueError("kill_grace must be >= 0")
        if recycle_after is not None and recycle_after < 1:
            raise ValueError("recycle_after must be positive or None")
        if node_watermark is not None and node_watermark < 1:
            raise ValueError("node_watermark must be positive or None")
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._context = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.num_workers = workers
        self.deadline = deadline
        self.kill_grace = kill_grace
        self.memory_limit = memory_limit
        self.node_budget = node_budget
        self.step_budget = step_budget
        self.verify = verify
        self.on_failure = on_failure
        self.recycle_after = recycle_after
        self.node_watermark = node_watermark
        # Reason-recording protocol (mirrors GuardedHeuristic).
        # ``requests`` counts *cells* — a batch of N increments it by N;
        # ``batches`` counts worker dispatches.
        self.requests = 0
        self.batches = 0
        self.failures = 0
        self.last_failure: Optional[str] = None
        # Pool health counters.
        self.kills = 0
        self.crashes = 0
        self.worker_restarts = 0
        self.recycles = 0
        self.probe_failures = 0
        # Warm-host counters from each batch's last reply, keyed by
        # worker pid.  Each carries the host's *cumulative* counts, so
        # the latest one per pid is the truth for that worker.
        self._warm: Dict[int, Dict[str, int]] = {}
        self._closed = False
        self._probe_token = 0
        # Distributed-trace plumbing: the merger buffers per-request
        # span groups keyed by admission sequence; the accumulator
        # keeps exact phase latency samples for percentile reporting.
        self._merger = TraceMerger()
        self._phases = PhaseAccumulator()
        # Worker free list: every member is either idle or busy; both
        # collections (and every counter above) are guarded by _cv.
        self._cv = threading.Condition()
        self._idle: deque = deque(
            _Worker(self._context, memory_limit) for _ in range(workers)
        )
        self._busy: List[_Worker] = []
        # Lazily created dispatcher threads for multi-worker batches.
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down; idempotent.

        New checkouts are refused immediately; requests already running
        on other threads are allowed to finish (each is bounded by its
        deadline plus the kill grace), and their workers are stopped as
        they check back in.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._cv.notify_all()
        for worker in idle:
            worker.stop()
        with self._cv:
            while self._busy:
                self._cv.wait(timeout=0.1)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.flush_trace()

    def __enter__(self) -> "MinimizationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def worker_pids(self) -> List[Optional[int]]:
        """PIDs of the live workers (useful to observe recycling)."""
        with self._cv:
            members = list(self._idle) + list(self._busy)
        return [worker.pid for worker in members]

    def flush_trace(self) -> int:
        """Emit buffered request span groups into the active tracer.

        Groups are flushed in admission-sequence order (deterministic
        regardless of worker completion order) with per-process track
        metadata, so the resulting file is one merged Chrome-trace
        timeline.  Called automatically by :meth:`close`; returns the
        number of events emitted.
        """
        return self._merger.flush(obs_trace.active())

    def phase_summary(self) -> Dict[str, Dict[str, float]]:
        """Exact per-phase latency percentiles for this pool's
        requests (``{phase: {count,total,p50,p95,p99,max}}``)."""
        return self._phases.summary()

    def statistics(self) -> Dict[str, int]:
        """Health counters: requests, failures, kills, restarts.

        ``warm_resets``/``warm_compactions`` sum the warm-host counters
        reported by each worker's most recent batch — how often a
        resident manager was replaced (universe mismatch) and how often
        the between-cell collection compacted past the node watermark.
        """
        with self._cv:
            return {
                "workers": len(self._idle) + len(self._busy),
                "requests": self.requests,
                "batches": self.batches,
                "failures": self.failures,
                "kills": self.kills,
                "crashes": self.crashes,
                "worker_restarts": self.worker_restarts,
                "recycles": self.recycles,
                "probe_failures": self.probe_failures,
                "warm_resets": sum(
                    warm.get("resets", 0)
                    for warm in self._warm.values()
                ),
                "warm_compactions": sum(
                    warm.get("compactions", 0)
                    for warm in self._warm.values()
                ),
            }

    # ------------------------------------------------------------------
    # Worker free list
    # ------------------------------------------------------------------
    def _checkout(self, block: bool = True) -> Optional[_Worker]:
        """Claim an idle worker; ``block=False`` returns None instead
        of waiting (the gateway's hedge path: a hedge only helps when
        spare capacity exists)."""
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is closed")
                if self._idle:
                    worker = self._idle.popleft()
                    self._busy.append(worker)
                    return worker
                if not block:
                    return None
                self._cv.wait()

    def _checkin(self, worker: _Worker, fresh: Optional[_Worker] = None) -> None:
        """Return ``worker`` (or its replacement ``fresh``) to the free
        list.  The caller kills/stops a replaced ``worker`` itself —
        always outside the lock."""
        stop_me: Optional[_Worker] = None
        with self._cv:
            self._busy.remove(worker)
            member = worker if fresh is None else fresh
            if self._closed:
                stop_me = member
            elif (
                fresh is None
                and self.recycle_after is not None
                and worker.served >= self.recycle_after
            ):
                self.recycles += 1
                mreg = obs_metrics.active()
                if mreg is not None:
                    mreg.inc("serve.worker_recycles")
                stop_me = worker
                self._idle.append(_Worker(self._context, self.memory_limit))
            else:
                self._idle.append(member)
            self._cv.notify_all()
        if stop_me is not None:
            stop_me.stop()

    def _replace(
        self, worker: _Worker, cause: str, keep: bool = False
    ) -> _Worker:
        """Book a lost worker under ``cause`` (a key of ``_LOSSES``),
        SIGKILL it and return its fresh replacement — checked in to the
        free list, or with ``keep`` still checked out to the caller."""
        fresh = _Worker(self._context, self.memory_limit)
        with self._cv:
            setattr(self, cause, getattr(self, cause) + 1)
            self.worker_restarts += 1
            if keep:
                self._busy[self._busy.index(worker)] = fresh
        mreg = obs_metrics.active()
        if mreg is not None:
            mreg.inc(_LOSSES[cause])
            mreg.inc("serve.worker_replacements")
        if not keep:
            self._checkin(worker, fresh=fresh)
        worker.kill()
        return fresh

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def minimize(
        self,
        manager: Manager,
        f: int,
        c: int,
        method: str = "osm_bt",
        deadline: Optional[float] = None,
    ) -> ServeResult:
        """Run one heuristic on ``[f, c]`` in a worker; never raises.

        Returns a :class:`ServeResult` whose ``cover`` is a ref in
        ``manager`` — the heuristic's verified result, or ``f`` with a
        recorded reason on any failure.
        """
        return self.run_batch(
            manager, [(method, f, c)], deadline=deadline
        )[0]

    def run_batch(
        self,
        manager: Manager,
        requests: Sequence[Tuple[str, int, int]],
        deadline: Optional[float] = None,
    ) -> List[ServeResult]:
        """Run ``(method, f, c)`` requests across the worker pool.

        Each distinct ``(f, c)`` instance is encoded once into a
        shared-instance table (the sweep runs every heuristic over the
        same instance, so this cuts encode bytes by the heuristic
        count), and the cells are sharded contiguously across up to
        ``workers`` single-checkout dispatches (:meth:`execute_batch`).
        Each cell is independently watchdogged and degrades alone — a
        killed or failed cell never poisons the rest of its batch — and
        results come back index-aligned with the input.  All
        caller-manager work (wire encoding, decoding, re-verification)
        happens on the calling thread; only the wire-level middle runs
        on dispatcher threads.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        per_request = self.deadline if deadline is None else deadline
        if per_request <= 0:
            raise ValueError("deadline must be positive")
        if not requests:
            return []
        instance_ids: Dict[Tuple[int, int], int] = {}
        instances: List[bytes] = []
        cells: List[Tuple[int, str]] = []
        for method, f, c in requests:
            index = instance_ids.get((f, c))
            if index is None:
                index = instance_ids[(f, c)] = len(instances)
                instances.append(serialize_instance(manager, f, c))
            cells.append((index, method))

        def dispatch(shard: List[Tuple[int, str]]) -> List[WireOutcome]:
            return self.execute_batch(
                pack_cells(instances, shard),
                [method for _, method in shard],
                deadline=per_request,
            )

        count = min(self.num_workers, len(cells))
        size, extra = divmod(len(cells), count)
        shards: List[List[Tuple[int, str]]] = []
        for position in range(count):
            base = position * size + min(position, extra)
            shards.append(cells[base:base + size + (position < extra)])
        if count == 1:
            outcomes = dispatch(shards[0])
        else:
            executor = self._dispatchers()
            futures = [executor.submit(dispatch, shard) for shard in shards]
            outcomes = [
                outcome for future in futures for outcome in future.result()
            ]
        return [
            self.decode_outcome(manager, method, f, c, outcome)
            for (method, f, c), outcome in zip(requests, outcomes)
        ]

    def execute(
        self,
        payload: bytes,
        method: str,
        deadline: Optional[float] = None,
        block: bool = True,
    ) -> Optional[WireOutcome]:
        """Run one wire-encoded ``[f, c]`` cell: a batch of one.

        Returns the cell's :class:`WireOutcome`, or ``None`` iff
        ``block=False`` and no worker is idle (see
        :meth:`execute_batch`).
        """
        outcomes = self.execute_batch(
            encode_batch([payload], [(0, method)]),
            [method],
            deadline=deadline,
            block=block,
        )
        return None if outcomes is None else outcomes[0]

    def execute_batch(
        self,
        envelope: bytes,
        methods: Sequence[str],
        deadline: Optional[float] = None,
        block: bool = True,
    ) -> Optional[List[WireOutcome]]:
        """Run one batch envelope on a single worker checkout.

        The thread-safe, wire-level primitive every request goes
        through: ships an :func:`repro.bdd.wire.encode_batch` envelope,
        reads the worker's streamed per-cell replies — resetting the
        watchdog window after every reply, so ``deadline`` bounds each
        *cell*, not the whole batch — and returns :class:`WireOutcome`
        objects index-aligned with ``methods`` (which must name the
        envelope's cells in order; it is what failure recording and the
        breaker callback see).  One cell's failure never poisons its
        batch: a guard trip or contract violation degrades that cell
        alone; a watchdog kill or worker crash keeps every
        already-streamed result, degrades the in-flight cell
        (``killed`` set on a kill), and degrades the not-yet-run tail
        as transient ``BatchAborted`` failures.  Blocks until a worker
        is free; returns ``None`` iff ``block=False`` and no worker is
        idle.  Never raises on a request, only on caller errors (closed
        pool, non-positive deadline).  Wire-level failures are recorded
        against ``failures`` / ``last_failure`` and reported through
        ``on_failure`` here; parent-side decode and verification belong
        to the caller (:meth:`decode_outcome`).
        """
        num_cells = len(methods)
        if num_cells == 0:
            return []
        per_cell = self.deadline if deadline is None else deadline
        if per_cell <= 0:
            raise ValueError("deadline must be positive")
        tracer = obs_trace.active()
        t_entry = time.perf_counter()
        worker = self._checkout(block=block)
        if worker is None:
            return None
        t_checkout = time.perf_counter()
        with self._cv:
            self.requests += num_cells
            self.batches += 1
        mreg = obs_metrics.active()
        if mreg is not None:
            mreg.inc("serve.batches")
            mreg.inc("serve.batch_cells", num_cells)
        request = {
            "batch": envelope,
            "deadline": per_cell,
            "node_budget": self.node_budget,
            "step_budget": self.step_budget,
            "watermark": self.node_watermark,
        }
        label = methods[0] if num_cells == 1 else "batch[%d]" % num_cells
        context: Optional[TraceContext] = None
        if tracer is not None:
            seq = self._merger.next_seq()
            self._merger.register_process(tracer._pid, "pool")
            context = TraceContext(
                trace_id=request_trace_id(seq),
                seq=seq,
                parent_span="pool.dispatch",
                detail=seq % TRACE_DETAIL_EVERY == 0,
            )
        started = time.monotonic()
        while True:
            worker.served += 1
            t_send = time.perf_counter()
            if context is not None:
                # The logical-clock offset: the parent-timeline µs at
                # which this envelope hits the pipe.  The worker's span
                # bundle is recorded relative to its own receipt and
                # rebased here at merge time, so no cross-process clock
                # agreement is assumed.  Refreshed on the crash-retry
                # path — the retry is a new send.
                context.sent_at_us = tracer.offset_us(t_send)
                request["trace"] = context.to_wire()
            if _send(worker.conn, request):
                break
            # The worker died between requests; replace it and retry
            # the whole batch on the fresh one (nothing was streamed
            # yet, so the retry is loss-free).
            worker = self._replace(worker, "crashes", keep=True)
        outcomes: List[Optional[WireOutcome]] = [None] * num_cells
        received = 0
        last: Optional[dict] = None
        status = "ok"
        kill_at = started + per_cell + self.kill_grace
        while last is None:
            try:
                overdue = not worker.conn.poll(
                    max(0.0, kill_at - time.monotonic())
                )
                message = None if overdue else worker.conn.recv()
            except (EOFError, OSError):
                overdue, message = False, None
            if message is None:
                # Watchdog (the in-flight cell is overdue) or crash (the
                # worker died: OOM kill, segfault, explicit exit).  Both
                # are transient; replace the worker, keep every
                # streamed result, degrade the in-flight cell here and
                # the not-yet-run tail below.
                if overdue:
                    status = "killed"
                    reason = (
                        "DeadlineExceeded: worker exceeded the %.3fs "
                        "per-cell wall-clock deadline and was killed "
                        "(SIGKILL)" % per_cell
                    )
                    runtime = per_cell
                else:
                    status = "crashed"
                    reason = (
                        "WorkerCrash: worker died mid-request (exit "
                        "code %s)" % worker.process.exitcode
                    )
                    runtime = time.monotonic() - started
                self._replace(worker, "kills" if overdue else "crashes")
                if received < num_cells:
                    outcomes[received] = self._wire_failure(
                        methods[received],
                        reason,
                        TRANSIENT,
                        killed=overdue,
                        runtime=runtime,
                    )
                break
            if message["status"] == "batch_error":
                # The envelope itself was undecodable: every cell
                # fails deterministically; the worker stays healthy.
                for position in range(num_cells):
                    outcomes[position] = self._wire_failure(
                        methods[position],
                        message["reason"],
                        message["kind"],
                    )
            else:
                position = message["cell"]
                runtime = message.get("runtime", 0.0)
                if mreg is not None:
                    mreg.observe("serve.request_latency", runtime)
                if message["status"] == "ok":
                    outcomes[position] = WireOutcome(
                        status="ok",
                        payload=message["payload"],
                        runtime=runtime,
                        stats=message.get("stats"),
                    )
                else:
                    outcomes[position] = self._wire_failure(
                        methods[position],
                        message["reason"],
                        message["kind"],
                        runtime=runtime,
                        stats=message.get("stats"),
                    )
                received += 1
                kill_at = time.monotonic() + per_cell + self.kill_grace
            if message.get("done"):
                last = message
                if worker.pid is not None:
                    with self._cv:
                        self._warm[worker.pid] = message["warm"]
                self._checkin(worker)
        failed_cells = 0
        for position, outcome in enumerate(outcomes):
            if outcome is None:
                outcome = outcomes[position] = self._wire_failure(
                    methods[position],
                    "BatchAborted: the batch ended (%s) before this "
                    "cell ran" % status,
                    TRANSIENT,
                )
            failed_cells += not outcome.ok
        if status == "ok" and failed_cells:
            status = "degraded"
        if mreg is not None and 0 < failed_cells < num_cells:
            mreg.inc("serve.batch_partial_failures")
        self._finish_request(
            context,
            label,
            status,
            t_entry,
            t_checkout,
            t_send,
            reply=last,
            worker_pid=worker.pid,
        )
        return outcomes

    def probe(self, timeout: float = 1.0) -> Dict[str, int]:
        """Health-check every currently idle worker with a ping.

        A worker that does not echo the probe token within ``timeout``
        seconds is killed and replaced.  Busy workers are skipped —
        they are already covered by their request's watchdog.  Returns
        ``{"probed": n, "healthy": n, "replaced": n}``.
        """
        grabbed: List[_Worker] = []
        while True:
            try:
                worker = self._checkout(block=False)
            except RuntimeError:
                break
            if worker is None:
                break
            grabbed.append(worker)
        healthy = 0
        for worker in grabbed:
            with self._cv:
                self._probe_token += 1
                token = self._probe_token
            alive = False
            try:
                worker.conn.send({"ping": token})
                if worker.conn.poll(timeout):
                    reply = worker.conn.recv()
                    alive = (
                        isinstance(reply, dict)
                        and reply.get("pong") == token
                    )
            except (BrokenPipeError, EOFError, OSError):
                alive = False
            if alive:
                healthy += 1
                self._checkin(worker)
            else:
                self._replace(worker, "probe_failures")
        return {
            "probed": len(grabbed),
            "healthy": healthy,
            "replaced": len(grabbed) - healthy,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatchers(self) -> ThreadPoolExecutor:
        with self._cv:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-pool",
                )
            return self._executor

    def _finish_request(
        self,
        context: Optional[TraceContext],
        method: str,
        status: str,
        t_entry: float,
        t_checkout: float,
        t_send: float,
        reply: Optional[dict] = None,
        worker_pid: Optional[int] = None,
    ) -> None:
        """Phase accounting and span-group finalization for one request.

        Runs on the dispatching thread for **every** exit path —
        success, degraded, watchdog-killed, crashed — so a failed
        request still closes its root span (tagged with ``status``)
        instead of leaking a partial trace.  Phase durations are
        observed unconditionally; span groups only when tracing.
        Requests sampled for detail ship a real worker span bundle;
        for the rest the worker track is synthesized from the reply's
        phase durations, so the merged timeline stays complete either
        way.
        """
        t_done = time.perf_counter()
        # The *ledger* entry named ``pool.dispatch`` is pool-side
        # dispatch overhead: the send->reply round trip minus the wall
        # time the worker reports for itself (``worker.request``) —
        # i.e. pickling, pipe transport and scheduling.  When the
        # worker never reported (watchdog kill, crash), the whole
        # round trip is attributed to dispatch.  Ledger phases are
        # therefore non-overlapping — ``pool.queue + pool.dispatch +
        # worker.request`` sums to the request wall — unlike the trace
        # *span* of the same name, which keeps interval semantics on
        # the merged timeline.
        dispatch_wall = t_done - t_send
        phases: Dict[str, float] = {
            "pool.queue": t_checkout - t_entry,
            "pool.dispatch": dispatch_wall,
        }
        worker_phases = (reply or {}).get("phases")
        if worker_phases:
            phases.update(worker_phases)
            phases["pool.dispatch"] = max(
                0.0,
                dispatch_wall - worker_phases.get("worker.request", 0.0),
            )
        self._phases.merge(phases)
        GLOBAL_PHASES.merge(phases)
        mreg = obs_metrics.active()
        if mreg is not None:
            for name, seconds in phases.items():
                mreg.observe("phase." + name, seconds)
        if context is None:
            return
        tracer = obs_trace.active()
        if tracer is None:  # pragma: no cover - tracer raced off
            return
        parent_events = build_parent_group(
            tracer,
            context,
            method,
            status,
            t_entry,
            t_checkout,
            t_send,
            t_done,
        )
        if worker_pid is not None:
            self._merger.register_process(
                worker_pid, "worker-%d" % worker_pid
            )
        bundle = (reply or {}).get("spans")
        if bundle is None and worker_phases:
            # Synthesized events are emitted directly in merged
            # coordinates, so they ride along as parent-timeline
            # events instead of paying the bundle rebase.
            parent_events = parent_events + synthesize_worker_spans(
                worker_phases, worker_pid, context
            )
        self._merger.add_group(
            context.seq,
            parent_events,
            context=context,
            bundle=bundle,
        )

    def _wire_failure(
        self,
        method: str,
        reason: str,
        kind: str,
        killed: bool = False,
        runtime: float = 0.0,
        stats: Optional[Dict[str, int]] = None,
    ) -> WireOutcome:
        self._record_failure(method, reason)
        return WireOutcome(
            status="failed",
            reason=reason,
            kind=kind,
            killed=killed,
            runtime=runtime,
            stats=stats,
        )

    def _record_failure(self, method: str, reason: str) -> None:
        with self._cv:
            self.failures += 1
            self.last_failure = reason
        if self.on_failure is not None:
            self.on_failure(method, reason)

    def decode_outcome(
        self,
        manager: Manager,
        method: str,
        fallback: int,
        care: int,
        outcome: WireOutcome,
    ) -> ServeResult:
        """Decode one :class:`WireOutcome` into ``manager``.

        Dispatch can happen on any thread, but decode and
        re-verification (when ``verify`` is set) mutate the caller's
        manager and must run on the thread that owns it.  Failed
        outcomes map to a ``ServeResult`` carrying ``fallback`` as the
        cover.
        """

        def result(cover: int, reason: Optional[str], kind: str):
            return ServeResult(
                method=method,
                cover=cover,
                reason=reason,
                kind=kind,
                killed=outcome.killed,
                runtime=outcome.runtime,
                stats=outcome.stats,
            )

        if not outcome.ok:
            return result(fallback, outcome.reason, outcome.kind)
        try:
            _, roots = deserialize(outcome.payload, manager=manager)
            cover = roots[0]
        except (WireError, IndexError) as error:
            reason = "WireError: undecodable result payload: %s" % error
        else:
            if not self.verify or is_def2_cover(manager, fallback, care, cover):
                return result(cover, None, TRANSIENT)
            reason = (
                "ContractError: worker returned a non-cover for %s" % method
            )
        self._record_failure(method, reason)
        return result(fallback, reason, DETERMINISTIC)
