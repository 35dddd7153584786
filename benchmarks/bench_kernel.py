"""Kernel and collector baseline: the first recorded perf trajectory.

Seven measurements, written to ``BENCH_kernel.json`` next to this file:

``ite_throughput``
    ITE kernel steps per second on a cache-cold random-function
    workload, for the shipped iterative kernel and for
    ``RecursiveKernelManager`` — a benchmark-local subclass carrying
    the old recursive ``ite`` (with the same counters), kept here as
    the reference the iterative kernel must not regress against.  The
    two kernels alternate round by round, and ``ratio`` is the median
    of the per-round ratios.

``sanitizer_overhead``
    The same throughput workload on ``SanitizedManager`` — the
    ``REPRO_SANITIZE=1`` tag-and-check wrapper — against the plain
    kernel, interleaved the same way; ``slowdown`` is the median
    per-round plain/sanitized ratio.  ``--quick`` gates it below
    ``--max-sanitizer-overhead`` (default 2.0x).

``deep_chain``
    Wall-clock seconds to push a multi-thousand-variable chain BDD
    through ``ite`` under the **default** interpreter recursion limit.
    The recursive kernel records its ``RecursionError`` instead of a
    time — that failure is the point of the rewrite.

``gc_sweep``
    A capped Table-2 sweep (quick suite) run twice through
    ``run_heuristics``: once with the §4.1.1 flush points as real
    mark-and-sweep collections (``gc=True``) and once cache-flush-only
    (``gc=False``).  Records the peak unique-table length per mode —
    the collector must run strictly flatter.

``agree_replay``
    The same capped sweep once more, with ``Manager.agree`` wrapped so
    that every query reaches it twice on the same operands: match tests,
    UMG edges, ``leq`` and Definition 2 cover checks are answered by the
    shipped node-free walk and by the node-building formula it replaced
    (``(f ⊕ g)·c·d`` built with ``ite``, then compared with ZERO).
    Records, separately for three-operand queries (``d`` is ONE) and
    four-operand ones, the query count, any verdict mismatch, the
    agree steps and their rate; and the formula's ITE step rate.  The
    formula runs second, so its nodes and ITE-table entries are extra
    state the heuristics see — covers are unaffected, counters are not.

``opt_lv_depth``
    Seconds per level of ``opt_lv`` on ``deep_chain``-shaped instances
    (``f`` the AND of the even levels, ``c`` the OR of the odd ones) of
    2,400 and 9,600 levels, the minimum of three runs each.  The runs
    alternate between the depths, and a run at 2,400 levels times four
    chains, so both depths see the same host.  Every run is bounded by
    a ``SIGALRM`` deadline: 5 s at 2,400 levels, and at 9,600 levels
    the time that would already break the gate below, so a quadratic
    ``opt_lv`` fails in seconds instead of running for minutes.
    ``--quick`` fails when the time per level grows by more than 1.5x
    or a depth has no run inside its deadline.

``relation_image``
    Product-machine self-equivalence by the relation image (tbk in
    ``--quick`` mode, s344 and s1238 in full mode).  The transition
    relation is built by the shipped ``transition_relation`` and, in a
    fresh manager, by the deepest-latch-first left fold it replaced;
    each build records its seconds, nodes created and the relation's
    size.  ``check_equivalence`` with ``image_by_relation`` then runs
    on the shipped relation, and a full cyclic collection afterwards
    counts the quantification memo keys the collector still tracks.

Run::

    PYTHONPATH=src python benchmarks/bench_kernel.py          # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick  # CI gate

``--quick`` shrinks the workloads and exits non-zero if the iterative
kernel falls below ``--min-ratio`` (default 0.9) of the recursive
throughput, the deep chain fails, ``opt_lv``'s time per level is not
flat in depth, gc stops flattening the sweep, the sanitizer slowdown
reaches its bound, any replayed verdict of
``agree`` differs from the formula's, either agree kind replayed no
query, the two relation builds differ
in canonical wire bytes, the shipped build creates no fewer nodes than
the fold, a self-equivalence verdict is wrong, or a quantification memo
key is tracked by the collector (or none was memoized) — the
perf-smoke CI gate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time

from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.truthtable import bdd_from_leaves
from repro.obs.provenance import provenance


class RecursiveKernelManager(Manager):
    """The pre-rewrite recursive ITE kernel, preserved as a baseline.

    Forbidden in ``src/`` (the iterative kernels exist precisely to
    kill recursion-limit coupling) but kept here so every future run
    re-measures the rewrite's speedup instead of trusting a number in
    a commit message.  Counter updates match the shipped kernel's, so
    the comparison isolates the call-stack-versus-explicit-stack cost.

    The ``repro-lint: skip=L2`` annotations below are justified: this
    class *is* a kernel reimplementation, so touching the private node
    storage is the whole point — going through the public traversal
    API would change exactly the cost being measured.
    """

    def ite(self, f: int, g: int, h: int) -> int:
        self._ite_calls += 1
        hook = self._step_hook
        if hook is not None:
            hook("ite")
        if f & 1:
            f ^= 1
            g, h = h, g
        if f == ONE:
            return g
        if g == h:
            return g
        if g == ONE and h == ZERO:
            return f
        if g == ZERO and h == ONE:
            return f ^ 1
        if g == f:
            g = ONE
        elif g == (f ^ 1):
            g = ZERO
        if h == f:
            h = ZERO
        elif h == (f ^ 1):
            h = ONE
        if g == ONE and h == ZERO:
            return f
        if g == ZERO and h == ONE:
            return f ^ 1
        if g == h:
            return g
        if g == ONE:
            if h > f:
                f, h = h, f
        elif g == ZERO:
            if (h ^ 1) > f:
                f, h = h ^ 1, f ^ 1
        elif h == ONE:
            if (g ^ 1) > f:
                f, g = g ^ 1, f ^ 1
        elif h == ZERO:
            if g > f:
                f, g = g, f
        elif g == (h ^ 1):
            if g > f:
                f, g = g, f
                h = g ^ 1
        output_complement = 0
        if g & 1:
            g ^= 1
            h ^= 1
            output_complement = 1
        key = (f, g, h)
        cached = self._ite_cache.get(key)  # repro-lint: skip=L2
        if cached is not None:
            self._ite_hits += 1
            return cached ^ output_complement
        self._ite_misses += 1
        level_f = self._level[f >> 1]  # repro-lint: skip=L2
        level_g = self._level[g >> 1]  # repro-lint: skip=L2
        level_h = self._level[h >> 1]  # repro-lint: skip=L2
        top = min(level_f, level_g, level_h)
        f_then, f_else = self.branches(f, top)
        g_then, g_else = self.branches(g, top)
        h_then, h_else = self.branches(h, top)
        result = self.make_node(
            top,
            self.ite(f_then, g_then, h_then),
            self.ite(f_else, g_else, h_else),
        )
        self._ite_cache[key] = result  # repro-lint: skip=L2
        return result ^ output_complement


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


# ----------------------------------------------------------------------
# ite throughput
# ----------------------------------------------------------------------
def _random_instances(manager_cls, num_vars, count, seed=7):
    rng = random.Random(seed)
    manager = manager_cls()
    pairs = []
    for _ in range(count):
        f = bdd_from_leaves(
            manager, [rng.random() < 0.5 for _ in range(1 << num_vars)]
        )
        g = bdd_from_leaves(
            manager, [rng.random() < 0.5 for _ in range(1 << num_vars)]
        )
        pairs.append((f, g))
    return manager, pairs


def _ite_round(manager, pairs):
    """Cache-cold ITE steps/second of one pass over ``pairs``."""
    manager.clear_caches()
    steps_before = manager.statistics()["ite_calls"]
    started = time.perf_counter()
    for f, g in pairs:
        manager.ite(f, g, f ^ 1)
        manager.xor(f, g)
    elapsed = time.perf_counter() - started
    steps = manager.statistics()["ite_calls"] - steps_before
    return steps / elapsed


def measure_ite_pair(first_cls, second_cls, num_vars, rounds):
    """ITE throughput of two manager classes, interleaved round by round.

    Each round times one pass of the same workload on each class, and
    the class that goes first alternates, so host drift and load spikes
    hit both sides of a round alike.  Returns ``(first_rate,
    second_rate, ratio)``: each side's median steps/second and the
    median of the per-round ratios first/second.
    """
    sides = [
        _random_instances(manager_cls, num_vars, count=6)
        for manager_cls in (first_cls, second_cls)
    ]
    rates = ([], [])
    for round_index in range(rounds):
        for side in (0, 1) if round_index % 2 == 0 else (1, 0):
            rates[side].append(_ite_round(*sides[side]))
    ratios = [first / second for first, second in zip(*rates)]
    return _median(rates[0]), _median(rates[1]), _median(ratios)


# ----------------------------------------------------------------------
# deep chain
# ----------------------------------------------------------------------
def _chain(manager, depth):
    conj = ONE
    parity = ZERO
    for level in range(depth - 1, -1, -1):
        conj = manager.make_node(level, conj, ZERO)
        parity = manager.make_node(level, parity ^ 1, parity)
    return conj, parity


def measure_deep_chain(manager_cls, depth):
    """Seconds to AND a depth-``depth`` chain against parity, or the
    error name if the kernel cannot cross that many levels."""
    manager = manager_cls()
    manager.ensure_vars(depth)
    conj, parity = _chain(manager, depth)
    started = time.perf_counter()
    try:
        result = manager.and_(conj, parity)
    except RecursionError:
        return None, "RecursionError"
    elapsed = time.perf_counter() - started
    expected = conj if depth % 2 else ZERO
    if not (result == expected):
        raise SystemExit("deep-chain ite returned a wrong function")
    return elapsed, None


# ----------------------------------------------------------------------
# opt_lv depth
# ----------------------------------------------------------------------
OPT_LV_DEPTHS = (2_400, 9_600)

#: The most opt_lv's time per level may grow from the first depth to
#: the last.
OPT_LV_MAX_GROWTH = 1.5

#: Deadline of one opt_lv run on the shallowest chain.  The one-pass
#: opt_lv takes ~0.04 s there on a 2-CPU host; the per-boundary
#: re-gather it replaced took ~17 s.
OPT_LV_FIRST_DEADLINE = 5.0


class _OverDeadline(Exception):
    """An opt_lv run outlived its ``SIGALRM`` deadline."""


class _RunAlarm:
    """One-shot wall-clock deadline by ``setitimer``.

    The governor's deadline polls on node and ITE events, and the
    per-boundary gathers of a quadratic ``opt_lv`` fire none, so only
    a timer can bound them.
    """

    def __init__(self):
        self.armed = False

    def __call__(self, signum, frame):
        # A disarmed delivery (raced with the disarm) is swallowed.
        if self.armed:
            self.armed = False
            raise _OverDeadline()

    def arm(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def _opt_lv_chain(manager, levels):
    """``f`` = AND of the even levels, ``c`` = OR of the odd ones: a
    member of the ``deep_chain`` corpus family, one node per level."""
    f, c = ONE, ZERO
    for level in range(levels - 1, -1, -1):
        if level % 2:
            c = manager.make_node(level, ONE, c)
        else:
            f = manager.make_node(level, f, ZERO)
    return f, c


def measure_opt_lv_depth(max_growth, depths=OPT_LV_DEPTHS, repeats=3):
    """Best seconds per level of opt_lv on chains of each depth.

    Each of ``repeats`` rounds times every depth once, shallowest
    first, so a slow spell of the host falls on all depths alike, and
    a timing at a shallower depth runs several chains, so that every
    timing covers as many levels as one chain of the deepest.  Every
    timing has a deadline: ``OPT_LV_FIRST_DEADLINE`` at the first
    depth, and at the others the time at which their cost per level
    would already exceed ``max_growth`` times the first depth's best so
    far.  A timing that outlives its deadline is counted as over.
    """
    from repro.core.levels import opt_lv

    deepest = max(depths)
    best = dict.fromkeys(depths)
    over = dict.fromkeys(depths, 0)
    alarm = _RunAlarm()
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for _ in range(repeats):
            for levels in depths:
                chains = deepest // levels
                first = best[depths[0]]
                if levels == depths[0]:
                    deadline = OPT_LV_FIRST_DEADLINE
                elif first is None:
                    over[levels] += 1
                    continue
                else:
                    deadline = first * max_growth * levels * chains
                instances = []
                for _ in range(chains):
                    manager = Manager()
                    manager.ensure_vars(levels)
                    f, c = _opt_lv_chain(manager, levels)
                    instances.append((manager, f, c))
                started = time.perf_counter()
                try:
                    alarm.arm(deadline)
                    for manager, f, c in instances:
                        opt_lv(manager, f, c)
                    alarm.disarm()
                except _OverDeadline:
                    over[levels] += 1
                    continue
                per_level = (time.perf_counter() - started) / (levels * chains)
                if best[levels] is None or per_level < best[levels]:
                    best[levels] = per_level
    finally:
        alarm.disarm()
        signal.signal(signal.SIGALRM, previous)
    rows = [
        {
            "levels": levels,
            "chains_per_run": deepest // levels,
            "runs_over_deadline": over[levels],
            "us_per_level": (
                None if best[levels] is None else round(best[levels] * 1e6, 2)
            ),
        }
        for levels in depths
    ]
    growth = None
    if best[depths[0]] is not None and best[depths[-1]] is not None:
        growth = best[depths[-1]] / best[depths[0]]
    return {
        "depths": rows,
        "growth": None if growth is None else round(growth, 3),
        "max_growth": max_growth,
    }


# ----------------------------------------------------------------------
# gc sweep
# ----------------------------------------------------------------------
def measure_gc_sweep(max_iterations, benchmarks=None):
    """Peak unique-table length of a capped Table-2 sweep, per gc mode."""
    from repro.circuits.suite import QUICK_SUITE
    from repro.experiments.calls import collect_suite_calls
    from repro.experiments.harness import run_heuristics

    names = list(benchmarks or QUICK_SUITE)
    out = {}
    for mode in (True, False):
        records = collect_suite_calls(
            names, max_iterations=max_iterations
        )
        started = time.perf_counter()
        run_heuristics(
            records, compute_lower_bound=False, gc=mode
        )
        elapsed = time.perf_counter() - started
        # num_nodes is the table-length watermark: with gc the free
        # list is recycled and the table stays near the live size;
        # without it every heuristic's scratch stays resident.
        peak = max(record.manager.num_nodes for record in records)
        gc_runs = sum(
            record.manager.statistics()["gc_runs"] for record in records
        )
        reclaimed = sum(
            record.manager.statistics()["nodes_reclaimed"]
            for record in records
        )
        out["with_gc" if mode else "without_gc"] = {
            "peak_num_nodes": peak,
            "sweep_seconds": round(elapsed, 3),
            "gc_runs": gc_runs,
            "nodes_reclaimed": reclaimed,
        }
    return out


# ----------------------------------------------------------------------
# agree replay
# ----------------------------------------------------------------------
#: Replay kinds: a query is three-operand when its second care ``d`` is
#: ONE (``leq``, cover checks, osm tests), four-operand otherwise.
AGREE_KINDS = ("three", "four")


def measure_agree_replay(max_iterations, benchmarks=None):
    """Answer every ``agree`` query of the capped sweep both ways.

    ``Manager.agree`` itself is wrapped for the sweep, so whatever path
    reaches it is replayed: match tests, UMG edges, ``leq`` and cover
    checks.  Returns the record: per kind, the query, mismatch and
    step counts and the agree step rate; the formula's ITE step rate
    over all queries.
    """
    from repro.circuits.suite import QUICK_SUITE
    from repro.experiments.calls import collect_suite_calls
    from repro.experiments.harness import run_heuristics

    shipped = Manager.agree
    totals = {
        kind: dict.fromkeys(("queries", "mismatches", "steps", "seconds"), 0)
        for kind in AGREE_KINDS
    }
    formula = dict.fromkeys(("steps", "seconds"), 0)

    def replayed(manager, f, g, c, d=ONE):
        entry = totals["three" if d == ONE else "four"]
        steps = manager.statistics()["agree_steps"]
        started = time.perf_counter()
        verdict = shipped(manager, f, g, c, d)
        entry["seconds"] += time.perf_counter() - started
        stats = manager.statistics()
        entry["steps"] += stats["agree_steps"] - steps
        calls = stats["ite_calls"]
        started = time.perf_counter()
        disagreement = manager.and_(manager.xor(f, g), manager.and_(c, d))
        formula["seconds"] += time.perf_counter() - started
        formula["steps"] += manager.statistics()["ite_calls"] - calls
        entry["queries"] += 1
        if verdict != (disagreement == ZERO):
            entry["mismatches"] += 1
        return verdict

    Manager.agree = replayed
    try:
        records = collect_suite_calls(
            list(benchmarks or QUICK_SUITE), max_iterations=max_iterations
        )
        run_heuristics(records, compute_lower_bound=False)
    finally:
        Manager.agree = shipped

    def rate(steps, seconds):
        return round(steps / max(seconds, 1e-9))

    kinds = {
        kind: {
            "queries": entry["queries"],
            "mismatches": entry["mismatches"],
            "agree_steps": entry["steps"],
            "agree_seconds": round(entry["seconds"], 3),
            "agree_steps_per_sec": rate(entry["steps"], entry["seconds"]),
        }
        for kind, entry in totals.items()
    }
    steps = sum(entry["steps"] for entry in totals.values())
    seconds = sum(entry["seconds"] for entry in totals.values())
    return {
        "kinds": kinds,
        "mismatches": sum(entry["mismatches"] for entry in kinds.values()),
        "agree_steps": steps,
        "agree_steps_per_sec": rate(steps, seconds),
        "agree_seconds": round(seconds, 3),
        "formula_ite_steps": formula["steps"],
        "formula_ite_steps_per_sec": rate(
            formula["steps"], formula["seconds"]
        ),
        "formula_seconds": round(formula["seconds"], 3),
    }


# ----------------------------------------------------------------------
# relation image
# ----------------------------------------------------------------------
def _fold_relation(fsm):
    """The deepest-latch-first left fold ``transition_relation`` replaced."""
    manager = fsm.manager
    relation = ONE
    for index in range(fsm.num_latches - 1, -1, -1):
        clause = manager.xnor(fsm.next_var(index), fsm.next_fns[index])
        relation = manager.and_(relation, clause)
    return relation


def _timed_build(build, fsm):
    manager = fsm.manager
    before = manager.statistics()["nodes_created"]
    started = time.perf_counter()
    relation = build(fsm)
    elapsed = time.perf_counter() - started
    return relation, {
        "seconds": round(elapsed, 3),
        "nodes_created": manager.statistics()["nodes_created"] - before,
        "size": manager.size(relation),
    }


def measure_relation_image(names):
    """Self-equivalence through the relation image, per machine.

    Returns ``{name: record}``: both builds' seconds, nodes created and
    size, whether their canonical wire bytes match, the verdict and
    seconds of ``check_equivalence``, and the tracked memo keys.
    """
    import gc

    from repro.bdd.wire import serialize
    from repro.circuits.suite import benchmark_spec
    from repro.fsm.image import image_by_relation, transition_relation
    from repro.fsm.product import compile_product
    from repro.fsm.reachability import check_equivalence

    out = {}
    for name in names:
        spec = benchmark_spec(name)
        product = compile_product(Manager(), spec, spec)
        machine = product.machine
        manager = machine.manager
        relation, shipped = _timed_build(transition_relation, machine)
        started = time.perf_counter()
        result = check_equivalence(product, image=image_by_relation)
        check_seconds = time.perf_counter() - started
        gc.collect()
        keys = [
            key
            for table in ("exists", "forall", "and_exists")
            for key in manager.cache(table)
        ]
        tracked = sum(gc.is_tracked(key) for key in keys)
        fold_machine = compile_product(Manager(), spec, spec).machine
        fold_relation, fold = _timed_build(_fold_relation, fold_machine)
        same = serialize(manager, [relation]) == serialize(
            fold_machine.manager, [fold_relation]
        )
        out[name] = {
            "shipped": shipped,
            "fold": fold,
            "same_relation": same,
            "equivalent": result.equivalent,
            "iterations": result.iterations,
            "check_seconds": round(check_seconds, 3),
            "memo_keys": len(keys),
            "tracked_memo_keys": tracked,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads + enforce the throughput gate (CI)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="timing rounds for the throughput workload",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.9,
        help="minimum iterative/recursive throughput ratio (default 0.9)",
    )
    parser.add_argument(
        "--max-sanitizer-overhead",
        type=float,
        default=2.0,
        help="maximum SanitizedManager slowdown factor (default 2.0)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "BENCH_kernel.json",
        ),
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)
    rounds = args.rounds or (9 if args.quick else 25)
    num_vars = 10 if args.quick else 12
    depth = 5_000 if args.quick else 20_000
    # Two traversal iterations even in quick mode: the first one's two
    # calls leave their heuristics nothing to build that the traversal
    # has not, so neither the gc gate nor the replay would measure.
    max_iterations = 2
    benchmarks = ["s344", "tlc"] if args.quick else None

    iterative, recursive, ratio = measure_ite_pair(
        Manager, RecursiveKernelManager, num_vars, rounds
    )
    print(
        "ite throughput: iterative %.0f steps/s, recursive %.0f steps/s "
        "(ratio %.2fx)" % (iterative, recursive, ratio)
    )

    # The slowdown every kernel call pays for the REPRO_SANITIZE=1
    # provenance checks.  The off-path cost (sanitizer not installed) is
    # not measured: the plain Manager code path is the same either way.
    from repro.analysis.sanitize import SanitizedManager

    plain_rate, sanitized_rate, slowdown = measure_ite_pair(
        Manager, SanitizedManager, num_vars, rounds
    )
    print(
        "sanitizer overhead: plain %.0f steps/s, sanitized %.0f steps/s "
        "(%.2fx slowdown)" % (plain_rate, sanitized_rate, slowdown)
    )

    iter_chain, iter_err = measure_deep_chain(Manager, depth)
    rec_chain, rec_err = measure_deep_chain(RecursiveKernelManager, depth)
    print(
        "deep chain (%d vars, limit %d): iterative %s, recursive %s"
        % (
            depth,
            sys.getrecursionlimit(),
            "%.3fs" % iter_chain if iter_err is None else iter_err,
            "%.3fs" % rec_chain if rec_err is None else rec_err,
        )
    )

    depth_record = measure_opt_lv_depth(OPT_LV_MAX_GROWTH)
    print(
        "opt_lv depth: %s; growth %s (gate: <= %.2fx)"
        % (
            ", ".join(
                "%d levels %s" % (
                    row["levels"],
                    "no run inside its deadline"
                    if row["us_per_level"] is None
                    else "%.1f us/level" % row["us_per_level"],
                )
                for row in depth_record["depths"]
            ),
            "n/a" if depth_record["growth"] is None
            else "%.2fx" % depth_record["growth"],
            OPT_LV_MAX_GROWTH,
        )
    )

    sweep = measure_gc_sweep(max_iterations, benchmarks)
    print(
        "gc sweep peak num_nodes: %d with gc (%d collections, %d nodes "
        "reclaimed), %d without"
        % (
            sweep["with_gc"]["peak_num_nodes"],
            sweep["with_gc"]["gc_runs"],
            sweep["with_gc"]["nodes_reclaimed"],
            sweep["without_gc"]["peak_num_nodes"],
        )
    )

    replay = measure_agree_replay(max_iterations, benchmarks)
    print(
        "agree replay: %s; formula %d ITE steps in %.3fs (%.0f steps/s)"
        % (
            "; ".join(
                "%s-operand %d queries, %d mismatches, %d steps in %.3fs "
                "(%.0f steps/s)"
                % (
                    kind,
                    entry["queries"],
                    entry["mismatches"],
                    entry["agree_steps"],
                    entry["agree_seconds"],
                    entry["agree_steps_per_sec"],
                )
                for kind, entry in replay["kinds"].items()
            ),
            replay["formula_ite_steps"],
            replay["formula_seconds"],
            replay["formula_ite_steps_per_sec"],
        )
    )

    relation_names = ["tbk"] if args.quick else ["s344", "s1238"]
    relation = measure_relation_image(relation_names)
    for name, entry in relation.items():
        print(
            "relation image %s: shipped build %.3fs, %d nodes created "
            "(size %d); fold %.3fs, %d nodes created; same relation %s; "
            "check %.3fs, equivalent %s in %d iterations; %d of %d "
            "memo keys tracked"
            % (
                name,
                entry["shipped"]["seconds"],
                entry["shipped"]["nodes_created"],
                entry["shipped"]["size"],
                entry["fold"]["seconds"],
                entry["fold"]["nodes_created"],
                entry["same_relation"],
                entry["check_seconds"],
                entry["equivalent"],
                entry["iterations"],
                entry["tracked_memo_keys"],
                entry["memo_keys"],
            )
        )

    record = {
        "agree_replay": replay,
        "ite_throughput": {
            "iterative_steps_per_sec": round(iterative),
            "recursive_steps_per_sec": round(recursive),
            "ratio": round(ratio, 3),
            "num_vars": num_vars,
            "rounds": rounds,
        },
        "deep_chain": {
            "depth": depth,
            "recursion_limit": sys.getrecursionlimit(),
            "iterative_seconds": (
                None if iter_err else round(iter_chain, 3)
            ),
            "iterative_error": iter_err,
            "recursive_seconds": (
                None if rec_err else round(rec_chain, 3)
            ),
            "recursive_error": rec_err,
        },
        "gc_sweep": sweep,
        "opt_lv_depth": depth_record,
        "relation_image": relation,
        "sanitizer_overhead": {
            "plain_steps_per_sec": round(plain_rate),
            "sanitized_steps_per_sec": round(sanitized_rate),
            "slowdown": round(slowdown, 3),
        },
        "quick": args.quick,
        "provenance": provenance(argv),
    }
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("record written to %s" % args.output)

    failed = []
    if iter_err is not None:
        failed.append(
            "iterative kernel failed the deep chain: %s" % iter_err
        )
    growth = depth_record["growth"]
    if growth is None:
        failed.append(
            "opt_lv had no run inside its deadline at %s levels"
            % " and ".join(
                "%d" % row["levels"]
                for row in depth_record["depths"]
                if row["us_per_level"] is None
            )
        )
    elif growth > OPT_LV_MAX_GROWTH:
        failed.append(
            "opt_lv time per level grew %.2fx from %d to %d levels "
            "(gate: <= %.2fx)"
            % (
                growth,
                depth_record["depths"][0]["levels"],
                depth_record["depths"][-1]["levels"],
                OPT_LV_MAX_GROWTH,
            )
        )
    if ratio < args.min_ratio:
        failed.append(
            "iterative ite throughput is %.2fx the recursive baseline "
            "(gate: >= %.2fx)" % (ratio, args.min_ratio)
        )
    if slowdown >= args.max_sanitizer_overhead:
        failed.append(
            "sanitizer slowdown is %.2fx (gate: < %.2fx)"
            % (slowdown, args.max_sanitizer_overhead)
        )
    gc_peak = sweep["with_gc"]["peak_num_nodes"]
    raw_peak = sweep["without_gc"]["peak_num_nodes"]
    if gc_peak >= raw_peak:
        failed.append(
            "gc sweep peak %d is not strictly below the no-gc peak %d"
            % (gc_peak, raw_peak)
        )
    if replay["mismatches"]:
        failed.append(
            "agree and the node-building formula disagree on %d of the "
            "replayed queries" % replay["mismatches"]
        )
    for kind, entry in replay["kinds"].items():
        if not entry["queries"]:
            failed.append(
                "the agree replay replayed no %s-operand query" % kind
            )
    for name, entry in relation.items():
        if not entry["same_relation"]:
            failed.append(
                "%s: the shipped relation and the fold differ in "
                "canonical wire bytes" % name
            )
        if entry["shipped"]["nodes_created"] >= entry["fold"]["nodes_created"]:
            failed.append(
                "%s: the shipped relation build created %d nodes, no "
                "fewer than the fold's %d"
                % (
                    name,
                    entry["shipped"]["nodes_created"],
                    entry["fold"]["nodes_created"],
                )
            )
        if not entry["equivalent"]:
            failed.append("%s: self-equivalence check failed" % name)
        if entry["tracked_memo_keys"] or not entry["memo_keys"]:
            failed.append(
                "%s: %d of %d quantification memo keys are tracked by "
                "the cyclic collector (an empty memo measures nothing)"
                % (name, entry["tracked_memo_keys"], entry["memo_keys"])
            )
    for message in failed:
        print("FAIL: %s" % message, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
