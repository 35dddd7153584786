"""The four workloads of the end-to-end benchmark.

Each workload takes a :class:`Context` and returns an :class:`Outcome`:
its set-up times, the samples its end-to-end metrics are taken from,
what it attempted and what failed, every mismatch against the
correctness reference, and — on a traced run — its per-layer numbers.
Workloads drive only the program's public entry points
(``collect_suite_calls``, ``run_heuristics``, ``compile_product`` /
``check_equivalence``, ``MinimizationGateway.submit``) and read the
counters the program already exposes.

Why these four: the two sweeps are the paper's §4 pipeline (Table 3),
run in-process and through the worker pool; the traversal uses the BDD
kernel the other way round (a few huge image computations, warm caches,
no collection); the gateway workload is latency-bound serving where
admission, the pool and the wire format dominate and compute is tiny.
A change to one layer should move some of them and leave the others
alone.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import random
import resource
import signal
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from tracing import Tracer, emit_span, self_times

#: Set-ups per run; ``setup_s`` is their median.  The traversal's
#: set-up takes ~25 ms, so it repeats more often for a steady median.
SETUPS = 3
TRAVERSAL_SETUPS = 15
#: Pool workers for the pooled sweep and the gateway (the host has 2 CPUs).
WORKERS = 2

#: Machines each sweep pass covers.  ``default`` is the paper's full
#: Table 3 set (1044 calls); ``smoke`` is for the self-tests.
SWEEP_MACHINES: Dict[str, Tuple[str, ...]] = {
    "smoke": ("tlc",),
    "default": (
        "s344", "s386", "s510", "s641", "s820", "s953", "s1238", "s1488",
        "scf", "styr", "tbk", "mult16b", "cbp.32.4", "minmax5", "tlc",
    ),
}
#: Machines the traversal checks, each against itself and a mutant.
TRAVERSAL_MACHINES: Dict[str, Tuple[str, ...]] = {
    "smoke": ("tlc",),
    "default": ("s344", "tbk", "s1238"),
}

SERVE_FAMILIES = ("circuit_cone", "fsm_reach")
#: Instances in the serving corpus.  The seed picks them, and with 16
#: the mean cost of a request differed by up to 2x between seeds; with
#: 128 the burst's run-to-run spread fell from 8% to 3%.
SERVE_CORPUS = 128
SERVE_METHODS = ("osm_bt", "restrict", "tsm_td", "constrain")
SERVE_QUEUE_LIMIT = 64
#: The light open-loop rate the end-to-end latency is measured at.
SERVE_RATE = 300
#: Closed-window bursts: requests per burst and requests in flight.
BURST_REQUESTS = 512
BURST_WINDOW = 32
#: Trace track of the per-request spans, apart from the main thread's.
REQUEST_TRACK = 2
#: Rate ladder of the traced run; a step passes when p99 stays under
#: the limit, nothing is shed or degraded, and the backlog drains soon.
LADDER = (600, 900, 1200, 1500)
LADDER_P99_MS = 50.0
LADDER_DRAIN_S = 1.0

#: Self-time rows: span name -> layer row.
ROWS: Dict[str, str] = {
    "workload": "workload",
    "record": "harness",
    "run_heuristics": "harness",
    "call": "harness",
    "Manager.gc": "harness.flush",
    "ISpec.is_cover": "harness.cover_check",
    "Manager.size": "harness.size",
    "cube_lower_bound": "harness.lower_bound",
    "heuristic": "core",
    "compile_product": "fsm.compile",
    "check_equivalence": "fsm.check",
    "image": "fsm.image",
    "minimize": "fsm.minimize",
    "pool.wait": "pool.wait",
    "pool.decode": "pool.decode",
    "wire.encode": "wire.encode",
    "wire.decode": "wire.decode",
    "event_loop": "loop.busy",
    "loop.idle": "loop.idle",
}
#: Aggregated hot calls and the row they are carved out of.
HOT = {"try_match": "core"}

now = time.perf_counter


@dataclasses.dataclass
class Context:
    """What one workload run is asked to do."""

    seed: int
    seconds: float
    size: str
    expected: dict
    tracer: Optional[Tracer] = None
    #: Host-speed sampler of an untraced run; workloads decide when it runs.
    sampler: Optional["HostSampler"] = None

    def sampling(self):
        """Take host-speed probes for the duration of the block."""
        if self.sampler is None:
            return contextlib.nullcontext()
        return self.sampler

    def span(self, name: str, args: Optional[dict] = None):
        """A span around the block while tracing is on."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, args)


@dataclasses.dataclass
class Unit:
    """One measured interval: a set-up, a pass, a check, a serve step."""

    begin: float
    end: float
    #: Wall seconds behind ``wall_s`` (or ``setup_s``), if any.
    wall: Optional[float] = None
    #: Latency samples behind ``p50_ms``, in milliseconds.
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    #: Scale to reference host speed by the probes taken in the interval.
    scaled: bool = True


@dataclasses.dataclass
class Outcome:
    """Everything a workload run measured."""

    setups: List[Unit] = dataclasses.field(default_factory=list)
    units: List[Unit] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = dataclasses.field(default_factory=list)
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Self seconds per layer row of the traced pass.
    rows: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: The traced pass's spans (a ``repro.obs.trace.Tracer``).
    spans: Optional[object] = None
    #: Peak RSS in MB of this process plus its largest reaped child.
    peak_rss_mb: Optional[float] = None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


_PROBE_TABLE = {(index & 15, index >> 4): index for index in range(256)}
_PROBE_KEYS = tuple(_PROBE_TABLE)


def reference_probe() -> float:
    """CPU seconds of a fixed pure-Python dict-lookup loop (~1 ms).

    It runs none of the program's code, so it tracks only how fast the
    host executes Python at that moment.  Thread CPU time leaves out
    time the thread waits for a CPU, so the benchmark's own processes
    competing for the CPUs do not slow the probe down.  It allocates
    nothing that outlives a loop step: a probe that built containers
    fragmented the heap under the measured work and moved its peak RSS.
    """
    started = time.thread_time()
    table = _PROBE_TABLE
    total = 0
    for _ in range(80):
        for key in _PROBE_KEYS:
            total += table[key]
    return time.thread_time() - started


#: Probe seconds on an unloaded host; normalized times are scaled to it.
REFERENCE_PROBE_S = 0.001


class HostSampler:
    """Host-speed samples, taken every ``interval`` seconds of a run.

    The 2-CPU host this benchmark was written on runs the same work up
    to 2x slower for seconds to minutes at a time (other tenants share
    its cores), which no amount of repetition inside a run averages
    out.  So while the measured work runs, a ``SIGALRM`` interval timer
    runs :func:`reference_probe` on the main thread — the thread, and so
    the CPU, the measured work runs on — and :func:`end_to_end` scales
    each measured interval to reference speed by the probes taken
    during it.  Forked pool workers inherit no interval timer.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        #: ``(taken at, probe seconds)``
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append((now(), reference_probe()))

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, begin: float, end: float) -> float:
        """Mean of ``REFERENCE_PROBE_S / probe`` over the probes taken in
        ``[begin, end]``: the factor that turns the interval's seconds
        into seconds at reference speed.

        Probes are evenly spaced in time, and the work done in a moment
        is proportional to the host's speed then, so the mean speed
        weighs a slow episode by how long it lasted; the median probe
        would ignore an episode shorter than half the interval.  An
        interval shorter than a few sampling periods (a cheap set-up)
        uses the probes nearest to it instead.
        """
        probes = [probe for at, probe in self.samples if begin <= at <= end]
        if len(probes) < PROBES_MIN:
            middle = (begin + end) / 2.0
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            probes = [probe for _, probe in nearest[:PROBES_MIN]]
        return statistics.fmean(REFERENCE_PROBE_S / probe for probe in probes)


#: Probes behind one speed estimate, at least.
PROBES_MIN = 5


def end_to_end(outcome: Outcome, sampler: Optional[HostSampler]) -> Dict[str, float]:
    """Medians of set-up, wall and latency samples, each scaled to
    reference host speed where its unit asks for it and probes ran."""

    def factor(unit: Unit) -> float:
        if sampler is None or not sampler.samples or not unit.scaled:
            return 1.0
        return sampler.speed(unit.begin, unit.end)

    def walls(units: Sequence[Unit]) -> List[float]:
        return [unit.wall * factor(unit) for unit in units if unit.wall is not None]

    latencies = [
        latency * factor(unit)
        for unit in outcome.units
        for latency in unit.latencies_ms
    ]
    return {
        "setup_s": statistics.median(walls(outcome.setups)),
        "wall_s": statistics.median(walls(outcome.units)),
        "p50_ms": statistics.median(latencies),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def _set_up(outcome: Outcome, build: Callable, count: int = SETUPS):
    """Set up ``count`` times; returns the last set-up's state.

    Each earlier set-up is released and its garbage collected before the
    next starts, so every set-up and the measured passes start from the
    same memory state.  Left to the cyclic collector, a released set-up
    survived into the next one at random, and the serial sweep's peak
    RSS ranged from 78 to 112 MB from run to run.
    """
    state = None
    for _ in range(count):
        state = None
        gc.collect()
        begun = now()
        state = build()
        end = now()
        outcome.setups.append(Unit(begun, end, end - begun))
    gc.collect()
    return state


def _timed(outcome: Outcome, one_pass: Callable, check: Callable):
    """Run and time one pass; check its result outside the timed region."""
    begun = now()
    result = one_pass()
    end = now()
    unit = Unit(begun, end, end - begun)
    outcome.units.append(unit)
    check(result, unit)
    return result, unit


def _another(ctx: Context, started: float, last: float) -> bool:
    """Whether another pass (or block) of ``last`` seconds should start.

    It starts when at least half of it fits in the run's seconds, so a
    run measures close to ``ctx.seconds`` whatever a pass takes.
    """
    return now() - started + last / 2.0 <= ctx.seconds


def _repeat(
    ctx: Context,
    outcome: Outcome,
    one_pass: Callable,
    check: Callable,
    reset: Callable[[], None] = lambda: None,
) -> None:
    """Time passes until the run's seconds are spent (at least one).

    ``reset`` runs between passes, untimed, to return the program's
    state to where the first pass found it.  Peak RSS is read after the
    first pass: how many passes fit depends on the host's speed, and
    memory freed by one pass is not all returned to the system, so
    pool workers forked by a later pass started bigger.
    """
    started = now()
    while True:
        _, unit = _timed(outcome, one_pass, check)
        if outcome.peak_rss_mb is None:
            outcome.peak_rss_mb = peak_rss_mb()
        if not _another(ctx, started, unit.wall):
            break
        reset()


def _traced(
    ctx: Context,
    outcome: Outcome,
    one_pass: Callable,
    check: Callable,
    prepare: Callable[[], None] = lambda: None,
):
    """One untraced pass, then one traced pass of the same work.

    Returns the traced pass's result and wall seconds; records the
    tracing overhead and the traced pass's self-time rows.  ``prepare``
    runs just before the traced pass (counter snapshots).
    """
    tracer = ctx.tracer
    untraced = _timed(outcome, one_pass, check)[1].wall
    prepare()
    tracer.activate()
    try:
        with tracer.span("workload"):
            result = one_pass()
    finally:
        spans = tracer.deactivate()
    check(result, None)
    traced = _record_trace(outcome, tracer, spans)
    outcome.layers["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return result, traced


def _record_trace(outcome: Outcome, tracer: Tracer, spans) -> float:
    """Self-time rows and trace metrics of a traced pass; returns its wall."""
    root = next(event for event in spans.events if event["name"] == "workload")
    wall = root["dur"] / 1e6
    outcome.spans = spans
    outcome.rows = self_times(spans, ROWS, tracer.totals, HOT)
    layers = outcome.layers
    layers["trace.wall_s"] = wall
    layers["trace.unaccounted_pct"] = 100.0 * abs(
        wall - sum(outcome.rows.values())
    ) / wall
    for row, seconds in outcome.rows.items():
        layers[row + ".self_pct"] = 100.0 * seconds / wall
    calls, _, hits = tracer.totals.get("try_match", [0, 0, 0])
    layers["core.try_match.calls"] = calls
    layers["core.try_match.hit_ratio"] = hits / calls if calls else 0.0
    return wall


def _heuristic_layers(
    layers: Dict[str, float],
    cells: Sequence[Tuple[str, float, Optional[Dict[str, int]]]],
) -> None:
    """Per-heuristic share of compute time, ite calls and nodes created.

    ``cells`` holds ``(heuristic, runtime_s, statistics_delta)`` for
    every measured cell of the traced pass.
    """
    total = sum(runtime for _, runtime, _ in cells) or 1.0
    for name, runtime, stats in cells:
        key = "core." + name
        layers[key + ".time_pct"] = (
            layers.get(key + ".time_pct", 0.0) + 100.0 * runtime / total
        )
        for counter in ("ite_calls", "nodes_created"):
            layers[key + "." + counter] = layers.get(
                key + "." + counter, 0
            ) + (stats or {}).get(counter, 0)
    layers["core.cells"] = len(cells)


def _bdd_layers(
    layers: Dict[str, float], deltas: Sequence[Dict[str, int]], wall: float
) -> None:
    """Kernel counters summed over statistics deltas of one pass."""
    total: Dict[str, int] = {}
    for delta in deltas:
        for key in ("ite_calls", "ite_cache_hits", "nodes_created",
                    "gc_runs", "nodes_reclaimed"):
            total[key] = total.get(key, 0) + delta.get(key, 0)
        total["peak_nodes"] = max(
            total.get("peak_nodes", 0), delta.get("peak_nodes", 0)
        )
    calls = total.get("ite_calls", 0)
    layers["bdd.ite_calls"] = calls
    layers["bdd.ite_calls_per_s"] = calls / wall
    layers["bdd.ite_cache_hit_ratio"] = (
        total.get("ite_cache_hits", 0) / calls if calls else 0.0
    )
    for key in ("nodes_created", "peak_nodes", "gc_runs", "nodes_reclaimed"):
        layers["bdd." + key] = total.get(key, 0)


def _pool_layers(
    layers: Dict[str, float], phases: Dict[str, Dict[str, float]], wall: float
) -> None:
    """Pool and worker busy seconds per wall second of the pass, in %."""
    for phase in ("pool.queue", "pool.dispatch", "worker.decode",
                  "worker.manager", "worker.compute", "worker.gc",
                  "worker.encode"):
        name = phase if phase.startswith("pool.") else "pool." + phase
        layers[name + "_pct"] = (
            100.0 * phases.get(phase, {}).get("total", 0.0) / wall
        )


def _pool_counts(layers: Dict[str, float], stats: Dict[str, object]) -> None:
    for key in ("requests", "batches", "kills", "crashes", "worker_restarts"):
        layers["pool." + key] = stats.get(key, 0)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _install_sweep_hooks(tracer: Tracer, wire_log: List[int]) -> None:
    import concurrent.futures

    from repro.bdd import wire
    from repro.bdd.manager import Manager
    from repro.core import sibling
    from repro.core.ispec import ISpec
    from repro.core.registry import HEURISTICS, PAPER_HEURISTICS
    from repro.experiments import harness
    from repro.serve.pool import MinimizationPool

    # Harness-level helpers are attributed only where the harness calls
    # them for a cell, not from inside a heuristic or the lower bound.
    cell = ("call", "record", "run_heuristics")
    for name in PAPER_HEURISTICS:
        tracer.patch(
            HEURISTICS,
            name,
            lambda fn, name=name: tracer.wrap(
                fn, "heuristic", args=lambda *a, **kw: {"heuristic": name}
            ),
        )
    tracer.patch(Manager, "gc", lambda fn: tracer.wrap(fn, "Manager.gc", cell))
    tracer.patch(Manager, "size", lambda fn: tracer.wrap(fn, "Manager.size", cell))
    tracer.patch(
        ISpec, "is_cover", lambda fn: tracer.wrap(fn, "ISpec.is_cover", cell)
    )
    tracer.patch(
        harness,
        "cube_lower_bound",
        lambda fn: tracer.wrap(fn, "cube_lower_bound", cell),
    )
    # Call-level spans hang on the harness's per-call helpers when they
    # exist; without them the cell spans nest under the record instead.
    tracer.patch(harness, "_measure_call", lambda fn: tracer.wrap(fn, "call"))
    tracer.patch(harness, "_reap_call_pooled", lambda fn: tracer.wrap(fn, "call"))
    tracer.patch(sibling, "try_match", lambda fn: tracer.tally(fn, "try_match"))
    main = ("workload", "run_heuristics")
    tracer.patch(
        concurrent.futures.Future,
        "result",
        lambda fn: tracer.wrap(fn, "pool.wait", main),
    )
    tracer.patch(
        MinimizationPool,
        "decode_outcome",
        lambda fn: tracer.wrap(fn, "pool.decode", main),
    )
    tracer.patch_everywhere(
        wire.serialize_instance, lambda fn: tracer.wrap(fn, "wire.encode")
    )
    tracer.patch_everywhere(
        wire.deserialize, lambda fn: tracer.wrap(fn, "wire.decode")
    )

    def log_batch(fn):
        def execute_batch(self, envelope, methods, *args, **kwargs):
            outcomes = fn(self, envelope, methods, *args, **kwargs)
            if tracer.enabled:
                wire_log.append(len(envelope))
                wire_log.extend(
                    len(outcome.payload or b"") for outcome in outcomes or ()
                )
            return outcomes

        return execute_batch

    tracer.patch(MinimizationPool, "execute_batch", log_batch)


def _sweep(ctx: Context, parallel: bool) -> Outcome:
    from repro.experiments.calls import collect_suite_calls
    from repro.experiments.harness import run_heuristics
    from repro.obs.metrics import diff_statistics

    outcome = Outcome()
    rng = random.Random(ctx.seed)
    machines = list(SWEEP_MACHINES[ctx.size])
    rng.shuffle(machines)
    wire_log: List[int] = []
    if ctx.tracer is not None:
        _install_sweep_hooks(ctx.tracer, wire_log)
    records = _set_up(outcome, lambda: collect_suite_calls(machines))
    # The seed also orders each machine's calls; covers do not depend on
    # the order, only node numbering does.
    records = [
        dataclasses.replace(record, calls=rng.sample(record.calls, len(record.calls)))
        for record in records
    ]
    expected = ctx.expected["machines"]

    def one_pass():
        if parallel:
            with ctx.span("run_heuristics"):
                return [
                    run_heuristics(
                        records, parallel=WORKERS, compute_lower_bound=False
                    )
                ]
        results = []
        for record in records:
            with ctx.span("record", {"machine": record.name}):
                results.append(run_heuristics([record]))
        return results

    def check(results, unit: Optional[Unit]) -> None:
        columns: Dict[str, Dict[str, int]] = {}
        for result in results:
            for call in result.results:
                row = columns.setdefault(call.benchmark, {})
                row["calls"] = row.get("calls", 0) + 1
                row["min"] = row.get("min", 0) + call.min_size
                if call.lower_bound is not None:
                    row["low_bd"] = row.get("low_bd", 0) + call.lower_bound
                for name, size in call.sizes.items():
                    outcome.attempted += 1
                    if size is None:
                        outcome.failed += 1
                    else:
                        row[name] = row.get(name, 0) + size
                    if unit is not None:
                        unit.latencies_ms.append(1000.0 * call.runtimes[name])
        for machine in machines:
            row = columns.get(machine, {})
            for column, want in expected[machine].items():
                if column == "low_bd" and parallel:
                    continue
                if row.get(column) != want:
                    outcome.mismatches.append(
                        "%s %s: got %s, expected %d"
                        % (machine, column, row.get(column), want)
                    )

    instances = [
        tuple(ref for call in record.calls for ref in (call.f, call.c))
        for record in records
    ]

    def reset() -> None:
        # A pooled pass leaves every cover it decoded in its record's
        # manager, so the next pass would decode into a table that
        # already holds its nodes.
        for record, roots in zip(records, instances):
            record.manager.gc(roots)
        gc.collect()

    if ctx.tracer is None:
        _repeat(ctx, outcome, one_pass, check, reset)
        return outcome
    before: List[Dict[str, int]] = []

    def snapshot() -> None:
        reset()
        before[:] = [record.manager.statistics() for record in records]

    results, wall = _traced(ctx, outcome, one_pass, check, snapshot)
    layers = outcome.layers
    recorded = sum(len(record.calls) for record in records)
    filtered = sum(record.filtered_out for record in records)
    layers["calls.recorded"] = recorded
    layers["calls.filtered_share"] = 100.0 * filtered / (recorded + filtered)
    cells = [
        (name, call.runtimes[name], call.stats.get(name))
        for result in results
        for call in result.results
        for name in call.sizes
    ]
    _heuristic_layers(layers, cells)
    deltas = [
        diff_statistics(start, record.manager.statistics())
        for start, record in zip(before, records)
    ]
    if parallel:
        deltas.extend(stats for _, _, stats in cells if stats)
        serve_stats = results[0].serve_stats
        _pool_layers(layers, serve_stats.get("phases", {}), wall)
        _pool_counts(layers, serve_stats)
        layers["wire.bytes"] = sum(wire_log)
    _bdd_layers(layers, deltas, wall)
    return outcome


def sweep_serial(ctx: Context) -> Outcome:
    """Table 3 pipeline in-process: per-cell gc flush, cover check, lower bound."""
    with ctx.sampling():
        return _sweep(ctx, parallel=False)


def sweep_pooled(ctx: Context) -> Outcome:
    """The same cells through ``run_heuristics(parallel=2)``, batched."""
    with ctx.sampling():
        return _sweep(ctx, parallel=True)


# ----------------------------------------------------------------------
# FSM traversal
# ----------------------------------------------------------------------
def _mutant(spec, rng: random.Random):
    """Flip the polarity of one expression output — an injected bug."""
    from repro.fsm.machine import FsmSpec, OutputSpec

    candidates = [
        index for index, output in enumerate(spec.outputs)
        if isinstance(output.fn, str)
    ]
    index = candidates[rng.randrange(len(candidates))]
    outputs = list(spec.outputs)
    outputs[index] = OutputSpec(outputs[index].name, "~(%s)" % outputs[index].fn)
    return FsmSpec(spec.name + "_bug", spec.inputs, spec.latches, tuple(outputs))


def traversal(ctx: Context) -> Outcome:
    """Self-equivalence and mutant checks via ``check_equivalence``."""
    with ctx.sampling():
        return _traversal(ctx)


def _traversal(ctx: Context) -> Outcome:
    from repro.bdd.manager import Manager
    from repro.circuits.suite import benchmark_spec
    from repro.core import sibling
    from repro.core.registry import HEURISTICS
    from repro.fsm.image import image_by_relation
    from repro.fsm.product import compile_product
    from repro.fsm.reachability import check_equivalence
    from repro.obs.metrics import diff_statistics

    outcome = Outcome()
    tracer = ctx.tracer
    if tracer is not None:
        tracer.patch(sibling, "try_match", lambda fn: tracer.tally(fn, "try_match"))

    def build():
        rng = random.Random(ctx.seed)
        checks = []
        for name in TRAVERSAL_MACHINES[ctx.size]:
            spec = benchmark_spec(name)
            checks.append((name, spec, spec, True))
            checks.append((name + "_bug", spec, _mutant(spec, rng), False))
        rng.shuffle(checks)
        for _, left, right, _ in checks:
            compile_product(Manager(), left, right)
        return checks

    checks = _set_up(outcome, build, TRAVERSAL_SETUPS)
    want = ctx.expected["traversal"]
    osm_bt = HEURISTICS["osm_bt"]
    minimize_cells: List[Tuple[str, float, Dict[str, int]]] = []

    def image(machine, states):
        with ctx.span("image"):
            return image_by_relation(machine, states)

    def minimize(manager, f, c):
        with ctx.span("minimize"):
            if tracer is None or not tracer.enabled:
                return osm_bt(manager, f, c)
            before = manager.statistics()
            begun = now()
            with ctx.span("heuristic", {"heuristic": "osm_bt"}):
                cover = osm_bt(manager, f, c)
            minimize_cells.append(
                ("osm_bt", now() - begun, diff_statistics(before, manager.statistics()))
            )
            return cover

    def one_pass():
        verdicts = []
        for name, left, right, _ in checks:
            begun = now()
            manager = Manager()
            with ctx.span("compile_product"):
                product = compile_product(manager, left, right)
            with ctx.span("check_equivalence", {"check": name}):
                result = check_equivalence(product, minimize=minimize, image=image)
            verdicts.append((name, result, manager.statistics(), (begun, now())))
        return verdicts

    def check(verdicts, unit: Optional[Unit]) -> None:
        for (name, _, _, expect_equal), (_, result, _, window) in zip(checks, verdicts):
            outcome.attempted += 1
            expected_verdict = want["self"] if expect_equal else want["mutated"]
            if result.equivalent != expected_verdict:
                outcome.failed += 1
                outcome.mismatches.append(
                    "%s: equivalent=%s, expected %s"
                    % (name, result.equivalent, expected_verdict)
                )
            # A mutant fails at the reset state within milliseconds; the
            # latency that matters is a check that traverses every state.
            # Each is its own unit, scaled by the probes taken during it.
            if expect_equal and unit is not None:
                begun, end = window
                outcome.units.append(
                    Unit(begun, end, latencies_ms=[1000.0 * (end - begun)])
                )

    if tracer is None:
        _repeat(ctx, outcome, one_pass, check)
        return outcome
    verdicts, wall = _traced(ctx, outcome, one_pass, check)
    layers = outcome.layers
    layers["fsm.iterations"] = sum(result.iterations for _, result, _, _ in verdicts)
    _heuristic_layers(layers, minimize_cells)
    _bdd_layers(layers, [stats for _, _, stats, _ in verdicts], wall)
    return outcome


# ----------------------------------------------------------------------
# Gateway serving
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Step:
    """Replies and timings of one open-loop step or burst."""

    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    late_ms: List[float] = dataclasses.field(default_factory=list)
    #: ``(instance index, method, reply)`` for every reply.
    replies: List[tuple] = dataclasses.field(default_factory=list)
    #: ``(due, done, method)`` per answered open-loop request.
    timeline: List[tuple] = dataclasses.field(default_factory=list)
    sent: int = 0
    shed: int = 0
    #: Open loop: seconds from the last send until every reply was in.
    drain_s: float = 0.0
    #: Burst: seconds until every reply was in.
    wall_s: float = 0.0

    @property
    def degraded(self) -> int:
        return sum(1 for _, _, reply in self.replies if reply.degraded)


def _requests(rng: random.Random, instances: Sequence, count: int) -> List[tuple]:
    return [
        (rng.randrange(len(instances)), SERVE_METHODS[rng.randrange(len(SERVE_METHODS))])
        for _ in range(count)
    ]


async def _open_loop(gateway, instances, rng, rate: float, seconds: float) -> _Step:
    """Poisson arrivals at ``rate``; each request timed from its due time."""
    from repro.serve.gateway import GatewayError

    step = _Step()
    tasks = []

    async def one(due: float, index: int, method: str) -> None:
        try:
            reply = await gateway.submit(instances[index].payload, method)
        except GatewayError:
            step.shed += 1
            return
        done = now()
        step.latencies_ms.append(1000.0 * (done - due))
        step.replies.append((index, method, reply))
        step.timeline.append((due, done, method))

    begun = now()
    due = begun
    while True:
        due += rng.expovariate(rate)
        if due - begun > seconds:
            break
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        step.late_ms.append(1000.0 * max(0.0, now() - due))
        index, method = _requests(rng, instances, 1)[0]
        tasks.append(asyncio.ensure_future(one(due, index, method)))
    step.sent = len(tasks)
    last_send = now()
    await asyncio.gather(*tasks)
    step.drain_s = now() - last_send
    return step


async def _burst(gateway, instances, rng) -> _Step:
    """``BURST_REQUESTS`` requests at once, at most ``BURST_WINDOW`` in flight."""
    from repro.serve.gateway import GatewayError

    step = _Step()
    window = asyncio.Semaphore(BURST_WINDOW)

    async def one(index: int, method: str) -> None:
        async with window:
            try:
                reply = await gateway.submit(instances[index].payload, method)
            except GatewayError:
                step.shed += 1
                return
        step.replies.append((index, method, reply))

    batch = _requests(rng, instances, BURST_REQUESTS)
    begun = now()
    await asyncio.gather(*(one(index, method) for index, method in batch))
    step.wall_s = now() - begun
    step.sent = len(batch)
    return step


def _invalid_replies(instances, step: _Step, verified: set) -> int:
    """Replies that are not Definition 2 covers of their instance."""
    from repro.bdd.cover import is_def2_cover
    from repro.bdd.wire import WireError, deserialize, deserialize_instance

    invalid = 0
    for index, method, reply in step.replies:
        key = (index, reply.payload)
        if key in verified:
            continue
        try:
            scratch, f, c = deserialize_instance(instances[index].payload)
            _, roots = deserialize(reply.payload, manager=scratch)
            valid = is_def2_cover(scratch, f, c, roots[0])
        except (WireError, TypeError, IndexError):
            valid = False
        if valid:
            verified.add(key)
        else:
            invalid += 1
    return invalid


def _install_serve_hooks(tracer: Tracer, log: List[tuple]) -> None:
    from repro.serve.pool import MinimizationPool

    def log_execute(fn):
        def execute(self, payload, method, *args, **kwargs):
            outcome = fn(self, payload, method, *args, **kwargs)
            if tracer.enabled and outcome is not None:
                log.append((method, outcome, len(payload)))
            return outcome

        return execute

    tracer.patch(MinimizationPool, "execute", log_execute)


def serve(ctx: Context) -> Outcome:
    """Open-loop Poisson traffic and bursts through the asyncio gateway."""
    outcome = asyncio.run(_serve(ctx))
    # The gateway's workers serve the whole run and are reaped when it
    # closes, so serving's peak RSS covers the whole run.
    outcome.peak_rss_mb = peak_rss_mb()
    return outcome


async def _serve(ctx: Context) -> Outcome:
    from repro.serve.breaker import BreakerBoard
    from repro.serve.gateway import MinimizationGateway
    from repro.serve.pool import MinimizationPool
    from repro.verify.corpus import Corpus

    outcome = Outcome()
    tracer = ctx.tracer
    executed: List[tuple] = []
    if tracer is not None:
        # Before the pool forks, so workers inherit the same (idle) code.
        _install_serve_hooks(tracer, executed)
    size = 4 if ctx.size == "smoke" else SERVE_CORPUS
    gateway = None
    instances = []
    try:
        for _ in range(SETUPS):
            if gateway is not None:
                await gateway.close()
                gateway = None
            begun = now()
            instances = Corpus(
                SERVE_FAMILIES, size=size, num_vars=8, seed=ctx.seed
            ).generate()
            gateway = MinimizationGateway(
                MinimizationPool(workers=WORKERS),
                queue_limit=SERVE_QUEUE_LIMIT,
                board=BreakerBoard(),
                own_pool=True,
            )
            await gateway.start()
            await _open_loop(
                gateway, instances, random.Random("warm-%d" % ctx.seed), 200, 0.5
            )
            # Dominated by the fixed-length warm-up: not scaled.
            outcome.setups.append(Unit(begun, now(), now() - begun, scaled=False))
        await _serve_measure(ctx, outcome, gateway, instances, executed)
    finally:
        if gateway is not None:
            await gateway.close()
    return outcome


async def _serve_measure(ctx, outcome, gateway, instances, executed) -> None:
    rng = random.Random(ctx.seed)
    verified: set = set()
    # Each block spends this long at the light rate, then as long again
    # on back-to-back bursts: a run takes the median of 25-30 bursts,
    # which a few slow bursts do not move.
    half_s = ctx.seconds / 10.0

    def count(step: _Step) -> int:
        invalid = _invalid_replies(instances, step, verified)
        if invalid:
            outcome.mismatches.append(
                "%d replies are not Definition 2 covers" % invalid
            )
        return step.shed + step.degraded + invalid

    async def block() -> Tuple[_Step, List[_Step]]:
        # The light-rate step is scaled by the probes taken during it,
        # not by the bursts' probes: the host slows a mostly idle
        # system differently from a saturated one.
        bursts: List[_Step] = []
        with ctx.sampling():
            begun = now()
            steady = await _open_loop(gateway, instances, rng, SERVE_RATE, half_s)
            outcome.units.append(Unit(begun, now(), latencies_ms=steady.latencies_ms))
            started = now()
            while not bursts or now() - started < half_s:
                begun = now()
                bursts.append(await _burst(gateway, instances, rng))
                outcome.units.append(Unit(begun, now(), bursts[-1].wall_s))
        for step in [steady, *bursts]:
            outcome.attempted += step.sent
            outcome.failed += count(step)
        return steady, bursts

    def burst_wall(bursts: List[_Step]) -> float:
        return statistics.median(burst.wall_s for burst in bursts)

    tracer = ctx.tracer
    if tracer is None:
        started = now()
        while True:
            begun = now()
            await block()
            if not _another(ctx, started, now() - begun):
                return
    untraced_burst = burst_wall((await block())[1])
    phases_before = gateway.pool.phase_summary()
    stats_before = gateway.statistics()
    # The event loop runs the generator, gateway admission and dispatch;
    # the time it spends blocked in select() is its idle time.
    selector = asyncio.get_running_loop()._selector
    tracer.patch(
        selector, "select", lambda fn: tracer.wrap(fn, "loop.idle", ("event_loop",))
    )
    tracer.activate()
    try:
        with tracer.span("workload"), tracer.span("event_loop"):
            steady, bursts = await block()
    finally:
        spans = tracer.deactivate()
    wall = _record_trace(outcome, tracer, spans)
    layers = outcome.layers
    # The open-loop step lasts as long as its schedule, traced or not;
    # the bursts are what tracing can slow down.
    layers["trace.overhead_pct"] = 100.0 * (burst_wall(bursts) / untraced_burst - 1.0)
    for due, done, method in steady.timeline:
        emit_span(spans, "request", REQUEST_TRACK, due, done, {"method": method})
    _heuristic_layers(
        layers,
        [(method, result.runtime, result.stats) for method, result, _ in executed],
    )
    _bdd_layers(layers, [result.stats or {} for _, result, _ in executed], wall)
    layers["wire.bytes"] = sum(
        size + len(result.payload or b"") for _, result, size in executed
    )
    phases_after = gateway.pool.phase_summary()
    phases = {
        phase: {"total": summary["total"] - phases_before.get(phase, {}).get("total", 0.0)}
        for phase, summary in phases_after.items()
    }
    _pool_layers(layers, phases, wall)
    stats = gateway.statistics()
    _pool_counts(
        layers,
        {
            key: stats["pool"][key] - stats_before["pool"][key]
            for key in ("requests", "batches", "kills", "crashes", "worker_restarts")
        },
    )
    for key, source in (("shed", "shed_overload"), ("degraded", "degraded"),
                        ("retries", "retries")):
        layers["gateway." + key] = stats[source] - stats_before[source]
    layers["gateway.max_queue_depth"] = stats["max_queue_depth"]
    # Where a request's latency goes, as shares of the summed latency:
    # the generator sending late, the admission queue, execution (pool
    # round trip plus the gateway's re-verification) and delivery of
    # the reply back to the awaiting task.
    total_latency = sum(steady.latencies_ms) / 1000.0
    replies = [reply for _, _, reply in steady.replies]
    late = sum(steady.late_ms) / 1000.0
    queued = sum(reply.queue_wait for reply in replies)
    running = sum(reply.runtime - reply.queue_wait for reply in replies)
    layers["serve.late_pct"] = 100.0 * late / total_latency
    layers["serve.queue_wait_pct"] = 100.0 * queued / total_latency
    layers["serve.execute_pct"] = 100.0 * running / total_latency
    layers["serve.delivery_pct"] = 100.0 * (
        total_latency - late - queued - running
    ) / total_latency
    # Tail latencies and capacity: the light rate, then the ladder.
    p50 = percentile(steady.latencies_ms, 0.5)
    layers["serve.p99_over_p50_r300"] = percentile(steady.latencies_ms, 0.99) / p50
    best = SERVE_RATE if steady.shed == 0 and steady.degraded == 0 else 0
    step_s = ctx.seconds / 10.0
    for rate in LADDER:
        step = await _open_loop(gateway, instances, rng, rate, step_s)
        count(step)
        if rate == 900:
            layers["serve.p50_r900_over_r300"] = (
                percentile(step.latencies_ms, 0.5) / p50
            )
            layers["serve.p99_r900_over_r300"] = (
                percentile(step.latencies_ms, 0.99) / p50
            )
        passed = (
            step.shed == 0
            and step.degraded == 0
            and step.drain_s <= LADDER_DRAIN_S
            and percentile(step.latencies_ms, 0.99) <= LADDER_P99_MS
        )
        if not passed:
            break
        best = rate
    layers["serve.max_rate_rps"] = best


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "sweep_serial": sweep_serial,
    "sweep_pooled": sweep_pooled,
    "traversal": traversal,
    "serve_open_loop": serve,
}
