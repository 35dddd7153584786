"""Replaying recorded calls through every heuristic, fairly timed.

"Measuring runtimes is a delicate issue since the BDD package caches
the results of earlier computations. ... we invoke the BDD garbage
collector before each heuristic is called to flush the caches of
computations from earlier heuristics" (§4.1.1).  ``run_heuristics``
does exactly that via :meth:`Manager.gc` — a real mark-and-sweep
collection rooted at the record's recorded instances, which both
flushes the computed tables and reclaims the dead nodes left behind by
the previous heuristic (``gc=False`` falls back to a cache-only flush
for A/B comparisons; see ``benchmarks/bench_kernel.py``).  Every flush
of a record passes the same root tuple, so after its first one the
collector skips the mark and reclaims just the nodes created since.

Each cell runs through :func:`repro.robust.guard.run_cell`, as in a
pool worker for ``parallel=N``, so a cell's ``runtimes`` (Table 3's
runtime column) and ``stats`` are the heuristic's own on both paths:
the flush, the cover check and a worker's decode, collection and
encode are not in them.

Robustness: each heuristic measurement is isolated.  A budget trip,
contract violation or non-cover on one cell records ``sizes[name] =
None`` with the reason in ``failures[name]`` and the sweep moves on —
one pathological instance never loses a run.  With a ``checkpoint``,
every completed :class:`CallResult` is journalled to JSONL the moment
it is measured, and ``resume=True`` skips the calls already on disk
(see :mod:`repro.robust.checkpoint`).
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import Manager
from repro.core.lower_bound import cube_lower_bound
from repro.core.registry import HEURISTICS, PAPER_HEURISTICS
from repro.experiments.buckets import Bucket, bucket_of
from repro.experiments.calls import (
    BenchmarkCalls,
    MinimizationCall,
    collect_suite_calls,
)
from repro.robust.guard import run_cell


@dataclass
class CallResult:
    """Per-call measurements across all heuristics.

    ``sizes[name]`` is ``None`` when that heuristic failed on this
    call; the reason is in ``failures[name]``.  ``min_size`` aggregates
    over the *measured* heuristics only, falling back to ``f_size``
    (the identity cover is always available) if every one failed.
    """

    benchmark: str
    iteration: int
    f_size: int
    onset_fraction: float
    sizes: Dict[str, Optional[int]]
    runtimes: Dict[str, float]
    min_size: int
    lower_bound: Optional[int] = None
    failures: Dict[str, str] = field(default_factory=dict)
    #: Per-heuristic ``Manager.statistics()`` deltas for this cell —
    #: recorded for failed cells too, so a journal explains *why* a
    #: cell fell back (e.g. ite_calls hit the budget).  Serial and
    #: pooled sweeps both record :func:`repro.robust.guard.run_cell`'s
    #: delta across the governed heuristic call alone, so the cover
    #: check's ``agree`` steps and the collections around the cell are
    #: not in it (killed/crashed pooled cells ship none).
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def bucket(self) -> Bucket:
        return bucket_of(self.onset_fraction)


@dataclass
class ExperimentResults:
    """All call results plus bookkeeping for the exhibits."""

    heuristics: Tuple[str, ...]
    results: List[CallResult] = field(default_factory=list)
    total_calls: int = 0
    filtered_out: int = 0
    resumed_calls: int = 0
    #: Serve-layer health for pooled sweeps (``parallel=N``): the
    #: pool's counters (requests, kills, crashes, worker_restarts,
    #: probe_failures, ...) plus the breaker board's lifetime totals
    #: and final states.  Empty for in-process sweeps.
    serve_stats: Dict[str, object] = field(default_factory=dict)

    def in_bucket(self, bucket: Optional[Bucket]) -> List[CallResult]:
        """Results restricted to one bucket (None = all calls)."""
        if bucket is None:
            return self.results
        return [result for result in self.results if result.bucket is bucket]

    @property
    def failed_cells(self) -> int:
        """Total (call, heuristic) cells that recorded a failure."""
        return sum(len(result.failures) for result in self.results)


def _flush(manager: Manager, gc_roots) -> None:
    """One §4.1.1 flush point: collect, or just clear caches."""
    if gc_roots is None:
        manager.clear_caches()
    else:
        manager.gc(gc_roots)


def _measure_call(
    manager: Manager,
    call: MinimizationCall,
    heuristics: Sequence[str],
    budget,
    compute_lower_bound: bool,
    cube_limit: int,
    gc_roots,
) -> CallResult:
    """Measure one recorded call across all heuristics, isolated."""
    sizes: Dict[str, Optional[int]] = {}
    runtimes: Dict[str, float] = {}
    failures: Dict[str, str] = {}
    stats: Dict[str, Dict[str, int]] = {}
    for name in heuristics:
        _flush(manager, gc_roots)
        cell = run_cell(
            manager, call.f, call.c, HEURISTICS[name], name, budget
        )
        runtimes[name] = cell.seconds
        # Recorded on the failure path too — a journalled cell that
        # fell back to the identity cover still says how much work it
        # burned before tripping.
        stats[name] = cell.stats
        if cell.cover is None:
            sizes[name] = None
            failures[name] = cell.reason
        else:
            sizes[name] = manager.size(cell.cover)
    lower = None
    if compute_lower_bound:
        _flush(manager, gc_roots)
        lower = cube_lower_bound(
            manager, call.f, call.c, cube_limit=cube_limit
        )
    measured = [size for size in sizes.values() if size is not None]
    return CallResult(
        benchmark=call.benchmark,
        iteration=call.iteration,
        f_size=call.f_size,
        onset_fraction=call.onset_fraction,
        sizes=sizes,
        runtimes=runtimes,
        min_size=min(measured) if measured else call.f_size,
        lower_bound=lower,
        failures=failures,
        stats=stats,
    )


def _gate_call_pooled(
    heuristics: Sequence[str], board
) -> Tuple[
    List[str],
    Dict[str, Optional[int]],
    Dict[str, float],
    Dict[str, str],
]:
    """Breaker-gate one call's heuristic cells.

    A denied cell is short-circuited to ``sizes[name] = None`` with a
    ``CircuitOpen`` reason and never touches the pool.
    """
    sizes: Dict[str, Optional[int]] = {}
    runtimes: Dict[str, float] = {}
    failures: Dict[str, str] = {}
    allowed: List[str] = []
    for name in heuristics:
        breaker = board.breaker(name)
        if breaker.allow():
            allowed.append(name)
        else:
            sizes[name] = None
            runtimes[name] = 0.0
            failures[name] = "CircuitOpen: %s" % breaker.describe()
    return allowed, sizes, runtimes, failures


def _reap_call_pooled(
    manager: Manager,
    call: MinimizationCall,
    heuristics: Sequence[str],
    board,
    allowed: Sequence[str],
    replies,
    sizes: Dict[str, Optional[int]],
    runtimes: Dict[str, float],
    failures: Dict[str, str],
    compute_lower_bound: bool,
    cube_limit: int,
    gc_roots,
) -> CallResult:
    """Turn one call's pool replies into its :class:`CallResult`.

    Breaker bookkeeping happens here, in the caller's heuristic order,
    so the same call sequence always drives the breakers through the
    same states — pooled sweeps stay deterministic modulo
    wall-clock-dependent kills.
    """
    stats: Dict[str, Dict[str, int]] = {}
    by_name = dict(zip(allowed, replies))
    for name in heuristics:
        reply = by_name.get(name)
        if reply is None:
            continue
        runtimes[name] = reply.runtime
        if reply.stats is not None:
            # The worker's per-cell delta against its warm manager's
            # cell-start snapshot; killed/crashed cells ship none.
            stats[name] = reply.stats
        breaker = board.breaker(name)
        if reply.ok:
            breaker.record_success()
            sizes[name] = manager.size(reply.cover)
        else:
            breaker.record_failure()
            sizes[name] = None
            failures[name] = reply.reason
    lower = None
    if compute_lower_bound:
        _flush(manager, gc_roots)
        lower = cube_lower_bound(
            manager, call.f, call.c, cube_limit=cube_limit
        )
    measured = [size for size in sizes.values() if size is not None]
    return CallResult(
        benchmark=call.benchmark,
        iteration=call.iteration,
        f_size=call.f_size,
        onset_fraction=call.onset_fraction,
        sizes=sizes,
        runtimes=runtimes,
        min_size=min(measured) if measured else call.f_size,
        lower_bound=lower,
        failures=failures,
        stats=stats,
    )


def _sweep_record_pooled(
    record: BenchmarkCalls,
    manager: Manager,
    heuristics: Sequence[str],
    pool,
    board,
    executor: ThreadPoolExecutor,
    compute_lower_bound: bool,
    cube_limit: int,
    gc_roots,
    journal,
    completed,
    results: ExperimentResults,
) -> None:
    """Pipelined batched sweep of one record's calls.

    Each non-resumed call becomes one batch envelope — its instance
    encoded once and shared by all of the call's breaker-allowed
    heuristic cells — and up to ``workers + 1`` calls are kept in
    flight, so every child process computes while the caller decodes
    finished ones.  Reaping happens strictly in call order: breaker
    bookkeeping, caller-manager decode and journalling all run in the
    order a sequential sweep would, so pooled sweeps stay
    deterministic.  Breaker gating happens at submission time with the
    board state of the last *reaped* call, so a heuristic that starts
    failing mid-record is short-circuited with at most a
    pipeline-window lag instead of running to the end of the record.
    """
    from repro.bdd.wire import encode_batch, serialize_instance

    def reap(entry) -> None:
        call, resumed, submission = entry
        if resumed is not None:
            results.results.append(resumed)
            results.resumed_calls += 1
            return
        (allowed, sizes, runtimes, failures), future = submission
        outcomes = future.result() if future is not None else []
        result = _reap_call_pooled(
            manager,
            call,
            heuristics,
            board,
            allowed,
            [
                pool.decode_outcome(manager, name, call.f, call.c, outcome)
                for name, outcome in zip(allowed, outcomes)
            ],
            sizes,
            runtimes,
            failures,
            compute_lower_bound,
            cube_limit,
            gc_roots,
        )
        if journal is not None:
            journal.append(result)
        results.results.append(result)

    # One extra envelope beyond the worker count keeps every worker
    # busy while the caller reaps, without letting breaker gating lag
    # further than it must.
    window = pool.num_workers + 1
    pending: List[tuple] = []
    for ordinal, call in enumerate(record.calls):
        results.total_calls += 1
        key = (call.benchmark, ordinal)
        if key in completed:
            pending.append((call, completed[key], None))
        else:
            gating = _gate_call_pooled(heuristics, board)
            allowed = gating[0]
            future: Optional[Future] = None
            if allowed:
                payload = serialize_instance(manager, call.f, call.c)
                envelope = encode_batch(
                    [payload], [(0, name) for name in allowed]
                )
                future = executor.submit(
                    pool.execute_batch, envelope, list(allowed)
                )
            pending.append((call, None, (gating, future)))
        while len(pending) > window:
            reap(pending.pop(0))
    while pending:
        reap(pending.pop(0))


def _open_checkpoint(checkpoint, resume: bool):
    """Normalize the checkpoint arguments into (journal, completed)."""
    if checkpoint is None:
        if resume:
            raise ValueError("resume=True requires a checkpoint path")
        return None, {}
    from repro.robust.checkpoint import Checkpoint

    journal = checkpoint if isinstance(checkpoint, Checkpoint) else (
        Checkpoint(checkpoint)
    )
    if resume:
        journal.trim_partial()
        return journal, journal.load()
    journal.truncate()
    return journal, {}


def run_heuristics(
    benchmark_calls: Sequence[BenchmarkCalls],
    heuristics: Sequence[str] = PAPER_HEURISTICS,
    compute_lower_bound: bool = True,
    cube_limit: int = 1000,
    budget=None,
    checkpoint=None,
    resume: bool = False,
    parallel: Optional[int] = None,
    serve_deadline: Optional[float] = None,
    serve_memory_limit: Optional[int] = None,
    gc: bool = True,
) -> ExperimentResults:
    """Measure every heuristic on every recorded call.

    Every cell runs through :func:`repro.robust.guard.run_cell`, in
    this process or in a pool worker: the heuristic is timed alone, and
    its result is then checked to actually cover its instance — a
    paranoia bit that has caught real bugs and costs one node-free
    ``agree`` walk per measurement; a non-cover records a failed cell.
    ``budget`` (a :class:`repro.robust.governor.Budget`) bounds each
    individual heuristic call.  ``checkpoint`` (a path or
    :class:`repro.robust.checkpoint.Checkpoint`) journals completed
    calls; with ``resume=True`` already-journalled calls are replayed
    from disk instead of re-measured.

    ``parallel=N`` shards each call's heuristic cells across a
    :class:`repro.serve.pool.MinimizationPool` of ``N`` workers: every
    heuristic runs in a child process under an OS-level watchdog
    (``serve_deadline`` seconds, SIGKILL on overrun) and an optional
    ``serve_memory_limit`` address-space cap, gated by a per-heuristic
    circuit breaker.  A killed, crashed or breaker-denied cell records
    ``sizes[name] = None`` with the reason — exactly the serial failure
    contract, so serial and pooled sweeps agree modulo ``None`` cells.
    ``budget``'s node/step limits are enforced inside the workers; its
    ``deadline`` seeds the watchdog when ``serve_deadline`` is unset.

    A pooled sweep packs each call's cells into one batch envelope —
    the instance encoded once, shared by every cell — and pipelines a
    record's calls: later calls are dispatched while earlier ones still
    compute, with results reaped strictly in call order so breaker
    bookkeeping and journalling stay deterministic.

    ``gc=True`` (the default) makes each §4.1.1 flush point a real
    mark-and-sweep collection rooted at the record's instances, so
    nodes built by one heuristic are reclaimed before the next is
    timed; ``gc=False`` flushes caches only (the pre-collector
    behaviour), kept for memory A/B benchmarks.
    """
    journal, completed = _open_checkpoint(checkpoint, resume)
    pool = None
    board = None
    executor: Optional[ThreadPoolExecutor] = None
    if parallel is not None:
        if parallel < 1:
            raise ValueError(
                "parallel must be >= 1, got %d" % parallel
            )
        from repro.serve.breaker import BreakerBoard
        from repro.serve.pool import DEFAULT_DEADLINE, MinimizationPool

        deadline = serve_deadline
        if deadline is None and budget is not None:
            deadline = budget.deadline
        pool = MinimizationPool(
            workers=parallel,
            deadline=DEFAULT_DEADLINE if deadline is None else deadline,
            memory_limit=serve_memory_limit,
            node_budget=budget.max_nodes if budget is not None else None,
            step_budget=budget.max_steps if budget is not None else None,
            # Workers verify every cover unconditionally — run_cell's
            # is_cover check, as in the serial sweep — so the sweep skips
            # the pool's parent-side paranoia re-verify: it would repeat
            # the pure-Python check on the reaping thread, serializing
            # work the workers already did in parallel.
            verify=False,
        )
        board = BreakerBoard()
        # The pipeline's dispatch lanes: one submitting thread per
        # worker keeps every child busy while the caller reaps.
        executor = ThreadPoolExecutor(max_workers=parallel)
    results = ExperimentResults(heuristics=tuple(heuristics))
    try:
        for record in benchmark_calls:
            manager = record.manager
            results.filtered_out += record.filtered_out
            # Roots for the flush-point collections: every recorded
            # instance in this record must survive the sweep — later
            # calls replay against the same manager.
            gc_roots = (
                tuple(
                    ref
                    for recorded in record.calls
                    for ref in (recorded.f, recorded.c)
                )
                if gc
                else None
            )
            if pool is not None:
                _sweep_record_pooled(
                    record,
                    manager,
                    heuristics,
                    pool,
                    board,
                    executor,
                    compute_lower_bound,
                    cube_limit,
                    gc_roots,
                    journal,
                    completed,
                    results,
                )
                continue
            for ordinal, call in enumerate(record.calls):
                results.total_calls += 1
                # Keyed by position, not iteration: frontier and image
                # calls inside one fixpoint step share an iteration
                # number.
                key = (call.benchmark, ordinal)
                if key in completed:
                    results.results.append(completed[key])
                    results.resumed_calls += 1
                    continue
                result = _measure_call(
                    manager,
                    call,
                    heuristics,
                    budget,
                    compute_lower_bound,
                    cube_limit,
                    gc_roots,
                )
                if journal is not None:
                    journal.append(result)
                results.results.append(result)
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
        if pool is not None:
            # Snapshot serve-layer health before the pool shuts down,
            # so sweep records can report retry/shed/breaker counters.
            results.serve_stats = dict(pool.statistics())
            results.serve_stats.update(board.counters())
            results.serve_stats["breaker_states"] = board.states()
            # Exact per-phase latency percentiles (queue / IPC /
            # decode / compute / encode) — the before-picture every
            # batching or warm-manager PR is judged against.
            results.serve_stats["phases"] = pool.phase_summary()
            pool.close()
    return results


def run_experiment(
    names: Optional[Sequence[str]] = None,
    heuristics: Sequence[str] = PAPER_HEURISTICS,
    compute_lower_bound: bool = True,
    cube_limit: int = 1000,
    max_iterations: Optional[int] = None,
    budget=None,
    checkpoint=None,
    resume: bool = False,
    parallel: Optional[int] = None,
    serve_deadline: Optional[float] = None,
    serve_memory_limit: Optional[int] = None,
    gc: bool = True,
) -> ExperimentResults:
    """Collect calls over a suite and measure: the whole §4 pipeline."""
    # Validate the journal before the expensive call collection, so a
    # malformed checkpoint fails fast (the CLI maps it to exit 2).
    _open_checkpoint(checkpoint, resume)
    benchmark_calls = collect_suite_calls(
        names, max_iterations=max_iterations
    )
    return run_heuristics(
        benchmark_calls,
        heuristics=heuristics,
        compute_lower_bound=compute_lower_bound,
        cube_limit=cube_limit,
        budget=budget,
        checkpoint=checkpoint,
        resume=resume,
        parallel=parallel,
        serve_deadline=serve_deadline,
        serve_memory_limit=serve_memory_limit,
        gc=gc,
    )
