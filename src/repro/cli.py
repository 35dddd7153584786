"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------

``minimize``
    Minimize a paper-notation instance (``"d1 01"``) or an
    expression pair, with one heuristic or all of them.
``experiments``
    Run the §4 pipeline and print Tables 3/4 and Figure 3
    (the same driver as ``examples/run_paper_experiments.py``).
``equivalence``
    Self-check a benchmark machine (or compare two) with
    ``verify_fsm``-style product traversal.
``blif``
    Parse a BLIF file, report machine shape, optionally compute the
    reachable state count.
``lint``
    Run ``repro-lint``, the codebase-specific AST lint pass (rules
    L1–L5 plus, with ``--flow``, the cross-module ref-flow rules
    F1–F4; see ``docs/analysis.md``), over the given paths (default:
    the installed ``repro`` package plus ``benchmarks/`` and
    ``examples/``).  Supports ``--format json|sarif`` and baseline
    files (``--baseline`` / ``--write-baseline``).
``audit``
    Replay circuit-suite minimization instances against every
    registered heuristic and check the advertised contracts (cover
    containment, no-new-vars, never-grow, Theorem-7 cube bound).
``inject``
    Fault-injection drill: run a heuristic on a manager that fails on
    schedule (budget trip, recursion failure, cache corruption) and
    report whether the guard degraded gracefully.
``serve``
    Process-isolated minimization service: JSON-lines requests on
    stdin, one JSON result per line on stdout, every heuristic call
    running in a worker process under an OS-level watchdog with
    per-heuristic circuit breakers (see ``docs/serving.md``).
``metrics``
    Run a capped Table-2-style sweep with observability enabled and
    print the BDD-engine counters (ITE calls, cache hits/misses,
    nodes created) per heuristic plus every collected metric (see
    ``docs/observability.md``).

Observability flags (``minimize`` and ``experiments``): ``--metrics``
collects and prints engine/heuristic counters for the run;
``--trace FILE`` writes a Chrome trace-event JSON of the run, viewable
in Perfetto or ``chrome://tracing``.

Resource flags (``minimize`` and ``experiments``): ``--node-budget``,
``--step-budget`` and ``--deadline`` bound each heuristic call; a call
exceeding them degrades to the identity cover and is reported, never
crashed on.  ``experiments --checkpoint FILE`` journals completed calls
to JSONL; ``--resume`` continues an interrupted sweep from the journal
(a malformed journal exits with status 2).  ``experiments --parallel N``
shards heuristic cells across an ``N``-worker pool, batching each
call's cells into one envelope per worker checkout; ``minimize
--isolate`` runs each heuristic in a worker process, so even a hung
heuristic is SIGKILLed and degraded instead of hanging the CLI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bdd.manager import Manager
from repro.bdd.parser import parse_expression


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--node-budget",
        type=int,
        help="max BDD nodes created per heuristic call",
    )
    parser.add_argument(
        "--step-budget",
        type=int,
        help="max ITE recursion steps per heuristic call",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        help="wall-clock seconds allowed per heuristic call",
    )


def _budget_from_args(args: argparse.Namespace):
    """Build a Budget from the CLI flags, or None when none given."""
    if (
        args.node_budget is None
        and args.step_budget is None
        and args.deadline is None
    ):
        return None
    from repro.robust.governor import Budget

    return Budget(
        max_nodes=args.node_budget,
        max_steps=args.step_budget,
        deadline=args.deadline,
    )


def _print_registry(registry) -> None:
    """Dump a metrics registry in stable, greppable text form."""
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    if counters:
        print("\ncounters:")
        for name in sorted(counters):
            print("  %-44s %d" % (name, counters[name]))
    gauges = snapshot["gauges"]
    if gauges:
        print("gauges:")
        for name in sorted(gauges):
            print("  %-44s %g" % (name, gauges[name]))
    histograms = snapshot["histograms"]
    if histograms:
        print("histograms (count / total / min / max):")
        for name in sorted(histograms):
            summary = histograms[name]
            print(
                "  %-44s %d / %g / %g / %g"
                % (
                    name,
                    summary["count"],
                    summary["total"],
                    summary["min"],
                    summary["max"],
                )
            )


def _obs_stack(args: argparse.Namespace, manager: Optional[Manager] = None):
    """ExitStack with --metrics / --trace scopes entered, plus registry.

    Returns ``(stack, registry)``; the registry is ``None`` unless
    ``--metrics`` was given.  With a ``manager`` its engine counters
    are attached too, so ``manager.*`` deltas land in the registry when
    the stack unwinds.
    """
    import contextlib

    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    stack = contextlib.ExitStack()
    registry = None
    if getattr(args, "metrics", False):
        registry = stack.enter_context(obs_metrics.collecting())
        if manager is not None:
            manager.attach_metrics(registry)
            stack.callback(manager.detach_metrics)
    if getattr(args, "trace", None):
        stack.enter_context(obs_trace.tracing(args.trace))
    return stack, registry


def _cmd_minimize(args: argparse.Namespace) -> int:
    manager = Manager()
    if args.expression:
        if args.care is None:
            print("--care is required with --expression", file=sys.stderr)
            return 2
        f = parse_expression(manager, args.instance)
        c = parse_expression(manager, args.care)
        from repro.core.ispec import ISpec

        spec = ISpec(manager, f, c)
    else:
        from repro.core.ispec import parse_instance

        spec = parse_instance(manager, args.instance)
    from repro.core.registry import HEURISTICS, get_heuristic
    from repro.core.lower_bound import cube_lower_bound

    print("|f| = %d  |c| = %d" % (manager.size(spec.f), manager.size(spec.c)))
    print(
        "cube lower bound = %d"
        % cube_lower_bound(manager, spec.f, spec.c, cube_limit=args.cube_limit)
    )
    budget = _budget_from_args(args)
    if args.all:
        names = sorted(HEURISTICS)
    else:
        names = [args.method]
    stack, registry = _obs_stack(args, manager)
    with stack:
        if args.isolate:
            from repro.serve.pool import DEFAULT_DEADLINE, MinimizationPool
            from repro.serve.service import MinimizationService

            pool = MinimizationPool(
                workers=1,
                deadline=(
                    args.deadline if args.deadline else DEFAULT_DEADLINE
                ),
                node_budget=args.node_budget,
                step_budget=args.step_budget,
            )
            with MinimizationService(pool, own_pool=True) as service:
                for name in names:
                    result = service.minimize(
                        manager, spec.f, spec.c, method=name
                    )
                    note = (
                        "  (degraded: %s)" % result.reason
                        if result.reason
                        else ""
                    )
                    print(
                        "%-12s |g| = %d%s"
                        % (name, manager.size(result.cover), note)
                    )
        else:
            for name in names:
                heuristic = get_heuristic(name, budget=budget)
                cover = heuristic(manager, spec.f, spec.c)
                failure = getattr(heuristic, "last_failure", None)
                note = "  (degraded: %s)" % failure if failure else ""
                print("%-12s |g| = %d%s" % (name, manager.size(cover), note))
    if args.trace:
        print("trace written to %s" % args.trace)
    if registry is not None:
        _print_registry(registry)
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    from repro.circuits.suite import QUICK_SUITE
    from repro.experiments import (
        run_experiment,
        render_table3,
        render_table4,
        render_figure3,
        render_per_benchmark,
        export_csv,
    )
    from repro.experiments.buckets import Bucket
    from repro.experiments.summary import render_stats

    from repro.robust.checkpoint import CheckpointError

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    names = list(QUICK_SUITE) if args.quick else None
    stack, registry = _obs_stack(args)
    try:
        with stack:
            results = run_experiment(
                names=names,
                cube_limit=args.cube_limit,
                budget=_budget_from_args(args),
                checkpoint=args.checkpoint,
                resume=args.resume,
                parallel=args.parallel,
                serve_memory_limit=args.memory_limit,
                gc=not args.no_gc,
            )
    except CheckpointError as error:
        print("checkpoint error: %s" % error, file=sys.stderr)
        return 2
    print(
        "%d calls measured (%d filtered as trivial)"
        % (results.total_calls, results.filtered_out)
    )
    if results.resumed_calls:
        print(
            "%d call(s) replayed from checkpoint %s"
            % (results.resumed_calls, args.checkpoint)
        )
    if results.failed_cells:
        print(
            "%d heuristic cell(s) failed under the resource budget "
            "(recorded, not crashed)" % results.failed_cells
        )
    print()
    print(
        render_table3(
            results, buckets=[None, Bucket.SPARSE, Bucket.DENSE]
        )
    )
    print()
    print(render_table4(results))
    print()
    print(render_figure3(results))
    print()
    print(render_per_benchmark(results))
    if args.metrics:
        print()
        print(render_stats(results))
    if args.csv:
        with open(args.csv, "w") as handle:
            export_csv(results, stream=handle)
        print("raw measurements written to %s" % args.csv)
    if args.trace:
        print("trace written to %s" % args.trace)
    if registry is not None:
        _print_registry(registry)
    return 0


def _cmd_equivalence(args: argparse.Namespace) -> int:
    from repro.circuits.suite import benchmark_spec
    from repro.fsm import (
        compile_product,
        check_equivalence,
        equivalence_counterexample_trace,
    )

    manager = Manager()
    left = benchmark_spec(args.left)
    right = benchmark_spec(args.right or args.left)
    product = compile_product(manager, left, right)
    result = check_equivalence(product)
    print(
        "%s vs %s: %s (%d iterations, %d nodes)"
        % (
            args.left,
            args.right or args.left,
            "EQUIVALENT" if result.equivalent else "NOT EQUIVALENT",
            result.iterations,
            manager.num_nodes,
        )
    )
    if result.counterexample is not None:
        state = ", ".join(
            "%s=%d" % (name, value)
            for name, value in sorted(result.counterexample.items())
        )
        print("counterexample state: %s" % state)
        if args.trace:
            trace = equivalence_counterexample_trace(product)
            if trace is not None:
                print("distinguishing run:")
                print(trace.render())
    return 0 if result.equivalent else 1


def _cmd_blif(args: argparse.Namespace) -> int:
    from repro.fsm.blif import parse_blif, compile_blif
    from repro.fsm.reachability import reachable_states

    with open(args.path) as handle:
        model = parse_blif(handle.read())
    print(
        "model %s: %d inputs, %d outputs, %d latches, %d tables"
        % (
            model.name,
            len(model.inputs),
            len(model.outputs),
            len(model.latches),
            len(model.tables),
        )
    )
    manager = Manager()
    fsm = compile_blif(manager, model)
    if args.reachable:
        result = reachable_states(fsm)
        print(
            "reachable states: %d of %d (%d iterations)"
            % (
                result.state_count(fsm),
                1 << fsm.num_latches,
                result.iterations,
            )
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import main as lint_main

    argv = list(args.paths)
    if args.flow:
        argv.append("--flow")
    if args.output_format != "text":
        argv.extend(["--format", args.output_format])
    if args.baseline:
        argv.extend(["--baseline", args.baseline])
    if args.write_baseline:
        argv.extend(["--write-baseline", args.write_baseline])
    return lint_main(argv)


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.contracts import audit_suite
    from repro.circuits.suite import (
        BENCHMARK_SUITE,
        QUICK_SUITE,
        benchmark_spec,
    )

    if args.benchmarks:
        benchmarks = args.benchmarks
    elif args.full:
        benchmarks = list(BENCHMARK_SUITE)
    else:
        benchmarks = list(QUICK_SUITE)
    names = args.heuristics or None
    try:
        for benchmark in benchmarks:  # fail fast on typos, before replay
            benchmark_spec(benchmark)
        report = audit_suite(
            benchmarks=benchmarks,
            names=names,
            max_calls_per_benchmark=args.max_calls,
        )
    except KeyError as error:
        message = error.args[0] if error.args else str(error)
        print("error: %s" % message, file=sys.stderr)
        return 2
    print(
        "audited %d instance(s), %d contract check(s)"
        % (report.instances, report.checks)
    )
    if not report.ok:
        for message in report.failures:
            print("FAIL: %s" % message, file=sys.stderr)
        print("%d violation(s)" % len(report.failures), file=sys.stderr)
        return 1
    print("all contracts hold")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    """Fault-injection drill: prove the degradation path by breaking it."""
    import random

    from repro.core.ispec import ISpec
    from repro.core.registry import HEURISTICS
    from repro.robust.faults import FaultPlan, FaultyManager
    from repro.robust.guard import guard

    if args.heuristic not in HEURISTICS:
        print(
            "unknown heuristic %r; available: %s"
            % (args.heuristic, ", ".join(sorted(HEURISTICS))),
            file=sys.stderr,
        )
        return 2
    plan = FaultPlan(args.fault, args.at, repeat=args.repeat)
    manager = FaultyManager(plan=plan, armed=False)
    # Deterministic pseudo-random DNF instance: seeded, so every drill
    # with the same flags replays the same fault at the same operation.
    rng = random.Random(args.seed)
    levels = [manager.new_var("x%d" % index) for index in range(args.vars)]

    def random_dnf(cubes: int) -> int:
        result = None
        for _ in range(cubes):
            chosen = rng.sample(levels, k=min(3, len(levels)))
            cube = None
            for literal in chosen:
                literal = literal if rng.random() < 0.5 else literal ^ 1
                cube = literal if cube is None else manager.and_(cube, literal)
            result = cube if result is None else manager.or_(result, cube)
        return result

    f = random_dnf(args.vars)
    c = random_dnf(args.vars)
    spec = ISpec(manager, f, c)
    setup_operations = manager.operations
    manager.clear_caches()
    manager.armed = True
    guarded = guard(
        HEURISTICS[args.heuristic],
        name=args.heuristic,
        flush_before_verify=True,
    )
    cover = guarded(manager, f, c)
    manager.armed = False
    manager.clear_caches()
    print(
        "fault plan: %s at operation %d%s (setup used %d operations)"
        % (
            plan.kind,
            plan.at_operation,
            " repeating" if plan.repeat else "",
            setup_operations,
        )
    )
    print("faults fired: %d" % manager.faults_fired)
    if guarded.last_failure:
        print("guard degraded: %s" % guarded.last_failure)
    else:
        print("heuristic completed despite the fault")
    print(
        "|f| = %d  |g| = %d  cover valid: %s"
        % (manager.size(f), manager.size(cover), spec.is_cover(cover))
    )
    if not spec.is_cover(cover):
        print("FAIL: guarded result is not a cover", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """JSON-lines minimization service over stdin/stdout."""
    import json

    from repro.core.ispec import parse_instance
    from repro.serve.breaker import RetryPolicy
    from repro.serve.pool import MinimizationPool
    from repro.serve.service import MinimizationService

    pool = MinimizationPool(
        workers=args.workers,
        deadline=args.deadline,
        memory_limit=args.memory_limit,
        recycle_after=args.recycle_after,
    )
    served = 0
    stream = open(args.input) if args.input else sys.stdin
    with MinimizationService(
        pool,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        own_pool=True,
    ) as service:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            manager = Manager()
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
                if "instance" in request:
                    spec = parse_instance(manager, request["instance"])
                    f, c = spec.f, spec.c
                elif "f" in request:
                    f = parse_expression(manager, request["f"])
                    c = parse_expression(manager, request.get("care", "1"))
                else:
                    raise ValueError(
                        'request needs "instance" or "f" (+ optional '
                        '"care")'
                    )
            except Exception as error:  # noqa: BLE001 — a service loop
                # must answer malformed requests, never die on them.
                print(
                    json.dumps(
                        {
                            "ok": False,
                            "error": "bad request: %s" % error,
                        }
                    ),
                    flush=True,
                )
                continue
            result = service.minimize(
                manager, f, c, method=request.get("method", "osm_bt")
            )
            reply = {
                "method": result.method,
                "ok": result.ok,
                "f_size": manager.size(f),
                "size": manager.size(result.cover),
                "runtime": round(result.runtime, 6),
            }
            if result.reason:
                reply["reason"] = result.reason
            print(json.dumps(reply), flush=True)
            served += 1
    if stream is not sys.stdin:
        stream.close()
    stats = service.statistics()
    print(
        "served %d request(s): %d failure(s), %d short-circuit(s), "
        "%d worker kill(s)"
        % (
            served,
            stats["failures"],
            stats["short_circuits"],
            stats["kills"],
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Chaos load drill: gateway + pool under seeded fault schedules.

    Runs the closed-loop load generator of :mod:`repro.robust.chaos`
    against every requested fault schedule, asserts the serve-layer
    invariants (every completed response is a valid cover, every
    rejection is typed and bounded in time), and records the results
    in ``benchmarks/BENCH_serve_load.json``.  Exit status 1 on any
    invariant violation — this is the CI gate behind ``load-smoke``.
    """
    import contextlib
    import json
    import multiprocessing

    from repro.obs import trace as obs_trace
    from repro.robust.chaos import (
        FAULT_SCHEDULES,
        LoadConfig,
        named_schedule,
        run_loadtest,
    )

    if "fork" not in multiprocessing.get_all_start_methods():
        print("loadtest requires the fork start method", file=sys.stderr)
        return 2
    if args.quick:
        config = LoadConfig(
            requests=args.requests or 80,
            concurrency=args.concurrency or 6,
            workers=args.workers,
            deadline=args.deadline or 1.5,
            seed=args.seed,
            stall_seconds=0.3,
            spike_bytes=32 << 20,
        )
        names = args.schedule or ["mixed"]
    else:
        config = LoadConfig(
            requests=args.requests or 200,
            concurrency=args.concurrency or 8,
            workers=args.workers,
            deadline=args.deadline or 2.0,
            seed=args.seed,
        )
        names = args.schedule or sorted(FAULT_SCHEDULES)
    for name in names:
        if name not in FAULT_SCHEDULES:
            print(
                "unknown schedule %r; available: %s"
                % (name, ", ".join(sorted(FAULT_SCHEDULES))),
                file=sys.stderr,
            )
            return 2
    all_violations: List[str] = []
    records = []
    trace_stack = contextlib.ExitStack()
    if getattr(args, "trace", None):
        trace_stack.enter_context(obs_trace.tracing(args.trace))
    with trace_stack:
        for name in names:
            schedule = named_schedule(name, config.seed, config.requests)
            report = run_loadtest(config, schedule)
            record = report.to_record()
            records.append(record)
            violations = report.violations(
                max_p99=args.max_p99, max_shed_rate=args.max_shed_rate
            )
            all_violations.extend(violations)
            print(
                "%-8s %4d req: %4d ok, %3d degraded, %3d shed "
                "(p50 %.3fs, p99 %.3fs, %.0f req/s)%s"
                % (
                    name,
                    report.requests,
                    report.completed_ok,
                    report.degraded,
                    report.shed,
                    report.p50,
                    report.p99,
                    report.throughput,
                    "  FAIL" if violations else "",
                )
            )
            for message in violations:
                print("  violation: %s" % message, file=sys.stderr)
    if args.output:
        payload = {
            "quick": bool(args.quick),
            "seed": config.seed,
            "requests_per_schedule": config.requests,
            "concurrency": config.concurrency,
            "workers": config.workers,
            "schedules": records,
            "violations": all_violations,
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.output)
    if all_violations:
        print(
            "%d invariant violation(s)" % len(all_violations),
            file=sys.stderr,
        )
        return 1
    print("all serve-layer invariants held under every schedule")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: seeded corpora, oracle pack, serving lanes.

    Generates deterministic ``[f, c]`` corpora, checks the paper's
    theorems as metamorphic oracles over every requested heuristic,
    pushes every instance through the requested serving lanes
    (asserting byte-level cover agreement and typed degradations), and
    optionally delta-debugs any failure down to a minimal reproducer
    plus a pytest regression stub.  Exit status 1 on any finding or
    violation — the CI gate behind ``fuzz-smoke``.
    """
    import json

    from repro.obs import metrics as obs_metrics
    from repro.verify import FuzzConfig, run_fuzz
    from repro.verify.corpus import DEFAULT_FAMILIES, FAMILIES
    from repro.verify.driver import DEFAULT_METHODS
    from repro.verify.lanes import LANE_NAMES
    from repro.verify.oracles import ORACLE_NAMES

    for family in args.families or ():
        if family not in FAMILIES:
            print(
                "unknown family %r; available: %s"
                % (family, ", ".join(sorted(FAMILIES))),
                file=sys.stderr,
            )
            return 2
    for lane in args.lanes:
        if lane not in LANE_NAMES:
            print(
                "unknown lane %r; available: %s"
                % (lane, ", ".join(LANE_NAMES)),
                file=sys.stderr,
            )
            return 2
    for oracle in args.oracles or ():
        if oracle not in ORACLE_NAMES:
            print(
                "unknown oracle %r; available: %s"
                % (oracle, ", ".join(ORACLE_NAMES)),
                file=sys.stderr,
            )
            return 2
    config = FuzzConfig(
        seed=args.seed,
        rounds=args.rounds,
        size=args.size,
        num_vars=args.num_vars,
        families=tuple(args.families) if args.families else DEFAULT_FAMILIES,
        methods=tuple(args.methods) if args.methods else DEFAULT_METHODS,
        lanes=tuple(args.lanes),
        oracles=tuple(args.oracles) if args.oracles else None,
        shrink=args.shrink,
        deadline=args.deadline,
        output_dir=args.reproducer_dir if args.shrink else None,
    )
    with obs_metrics.collecting() as registry:
        report = run_fuzz(config, log=print)
    print(
        "%d instance(s), %d oracle check(s), %d lane request(s) over %s"
        % (
            report.instances,
            report.oracle_checks,
            report.lane_requests,
            ", ".join(config.lanes),
        )
    )
    for lane, counts in sorted(report.lane_status_counts.items()):
        print(
            "  %-9s %s"
            % (
                lane,
                " ".join(
                    "%s=%d" % item for item in sorted(counts.items())
                ),
            )
        )
    for record in report.oracle_findings:
        print(
            "finding: %s/%s on %s: %s"
            % (
                record["oracle"],
                record["heuristic"] or "-",
                record["instance"],
                record["message"],
            ),
            file=sys.stderr,
        )
    for message in report.lane_violations:
        print("violation: %s" % message, file=sys.stderr)
    for record in report.shrunk:
        print(
            "shrunk %s/%s to %d variable(s)%s"
            % (
                record["oracle"],
                record["heuristic"] or "-",
                record["num_vars"],
                ": %s" % ", ".join(record["artifacts"])
                if "artifacts" in record
                else "",
            )
        )
    print("report fingerprint: %s" % report.fingerprint())
    if args.metrics:
        _print_registry(registry)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.output)
    if not report.ok:
        print(
            "%d oracle finding(s), %d lane violation(s)"
            % (len(report.oracle_findings), len(report.lane_violations)),
            file=sys.stderr,
        )
        return 1
    print("all oracles and lanes conformed")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Capped sweep with observability fully on; print every counter."""
    from repro.circuits.suite import QUICK_SUITE
    from repro.experiments import run_experiment
    from repro.experiments.summary import aggregate_stats, render_stats
    from repro.core.registry import PAPER_HEURISTICS
    from repro.obs import dist as obs_dist
    from repro.obs import metrics as obs_metrics

    names = args.benchmarks or list(QUICK_SUITE)
    heuristics = tuple(args.heuristics) if args.heuristics else (
        PAPER_HEURISTICS
    )
    obs_dist.GLOBAL_PHASES.reset()
    with obs_metrics.collecting() as registry:
        results = run_experiment(
            names=names,
            heuristics=heuristics,
            compute_lower_bound=False,
            max_iterations=args.max_iterations,
        )
        if args.parallel:
            # Drive the serve stack too, so the pool/gateway supervisor
            # counters (serve.* / gateway.*) land in the same registry.
            from repro.verify.corpus import Corpus
            from repro.verify.lanes import GatewayLane, PoolLane

            instances = Corpus(
                families=("random_dnf",), size=4, num_vars=6, seed=0
            ).generate()
            lane_results = PoolLane(workers=args.parallel).run(
                instances, ["osm_bt"]
            )
            lane_results += GatewayLane(workers=args.parallel).run(
                instances, ["osm_bt"]
            )
            registry.inc("verify.lane_requests", len(lane_results))
            # The merged parallel view exports the *complete*
            # serve-path key set — a counter that only appears once
            # something sheds or hedges is invisible exactly when a
            # dashboard is being built against this output.
            obs_dist.ensure_serve_counters(registry)
    print(
        "%d calls measured over %s (max %d iterations each)"
        % (results.total_calls, ", ".join(names), args.max_iterations)
    )
    print()
    print(render_stats(results))
    totals = aggregate_stats(results)
    print()
    print(
        "total ite calls: %d"
        % sum(cell.get("ite_calls", 0) for cell in totals.values())
    )
    print(
        "total ite cache hits: %d"
        % sum(cell.get("ite_cache_hits", 0) for cell in totals.values())
    )
    _print_registry(registry)
    phase_summary = obs_dist.GLOBAL_PHASES.summary()
    if phase_summary:
        print("\nphase percentiles (count / p50 / p95 / p99, seconds):")
        for name in sorted(phase_summary):
            entry = phase_summary[name]
            print(
                "  %-44s %d / %.6f / %.6f / %.6f"
                % (
                    name,
                    entry["count"],
                    entry["p50"],
                    entry["p95"],
                    entry["p99"],
                )
            )
    return 0


def _cmd_perf_report(args: argparse.Namespace) -> int:
    """Aggregate a merged trace into its phase-breakdown table."""
    from repro.obs import dist as obs_dist

    try:
        events = obs_dist.load_trace(args.trace)
    except (OSError, ValueError) as error:
        print("unreadable trace %s: %s" % (args.trace, error),
              file=sys.stderr)
        return 2
    breakdown = obs_dist.phase_breakdown(events)
    if breakdown["requests"] == 0:
        print(
            "no pool request spans in %s (was the sweep run with "
            "--trace and --parallel?)" % args.trace,
            file=sys.stderr,
        )
        return 1
    print(
        "%d request(s), %.3f ms total wall"
        % (breakdown["requests"], breakdown["wall_us"] / 1e3)
    )
    print()
    print(obs_dist.render_phase_table(breakdown))
    if args.collapsed:
        lines = obs_dist.collapsed_stacks(events)
        with open(args.collapsed, "w") as handle:
            for line in lines:
                handle.write(line + "\n")
        print("\nwrote %d collapsed stack(s) to %s"
              % (len(lines), args.collapsed))
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(breakdown, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.json)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark history ledger: record, compare, list."""
    import datetime

    from repro.obs import hist

    if not (args.record or args.compare or args.list):
        print("nothing to do: pass --record, --compare and/or --list",
              file=sys.stderr)
        return 2
    ledger_path = args.ledger
    try:
        if args.record:
            recorded_at = datetime.datetime.now(
                datetime.timezone.utc
            ).strftime("%Y-%m-%dT%H:%M:%SZ")
            entries = hist.record(
                args.dir, ledger_path=ledger_path, recorded_at=recorded_at
            )
            for entry in entries:
                print(
                    "recorded %-16s %s"
                    % (
                        entry["bench"],
                        " ".join(
                            "%s=%g" % (metric, value["value"])
                            for metric, value in sorted(
                                entry["metrics"].items()
                            )
                        ),
                    )
                )
            if not entries:
                print("no BENCH_*.json records in %s" % args.dir,
                      file=sys.stderr)
                return 2
        if args.list:
            entries = hist.load_ledger(
                ledger_path
                or "%s/%s" % (args.dir, hist.LEDGER_NAME)
            )
            for entry in entries:
                print(
                    "%-20s %-16s %s"
                    % (
                        entry.get("recorded_at") or "-",
                        entry["bench"],
                        " ".join(
                            "%s=%g" % (metric, value["value"])
                            for metric, value in sorted(
                                entry["metrics"].items()
                            )
                        ),
                    )
                )
            print("%d ledger entr%s" % (
                len(entries), "y" if len(entries) == 1 else "ies"))
        if args.compare:
            outcome = hist.compare(
                args.dir,
                ledger_path=ledger_path,
                tolerance=args.tolerance,
            )
            for skip in outcome["skipped"]:
                print(
                    "skipped %s: %s" % (skip["bench"], skip["reason"])
                )
            for regression in outcome["regressions"]:
                print(
                    "REGRESSION %s.%s: %g -> %g (%+.1f%%, %s is "
                    "better, tolerance %.0f%%)"
                    % (
                        regression["bench"],
                        regression["metric"],
                        regression["baseline"],
                        regression["current"],
                        regression["relative_change"] * 100.0,
                        regression["direction"],
                        regression["tolerance"] * 100.0,
                    ),
                    file=sys.stderr,
                )
            print(
                "%d directed metric(s) checked, %d regression(s)"
                % (outcome["checked"], len(outcome["regressions"]))
            )
            if not outcome["ok"]:
                return 1
    except hist.LedgerError as error:
        print("ledger error: %s" % error, file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heuristic BDD minimization with don't cares (DAC'94)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    minimize_parser = commands.add_parser(
        "minimize", help="minimize one [f, c] instance"
    )
    minimize_parser.add_argument(
        "instance",
        help='leaf string like "d1 01", or an expression with --expression',
    )
    minimize_parser.add_argument(
        "--expression",
        action="store_true",
        help="treat the instance as a Boolean expression for f",
    )
    minimize_parser.add_argument(
        "--care", help="care-set expression (with --expression)"
    )
    minimize_parser.add_argument("--method", default="osm_bt")
    minimize_parser.add_argument("--all", action="store_true")
    minimize_parser.add_argument("--cube-limit", type=int, default=1000)
    minimize_parser.add_argument(
        "--isolate",
        action="store_true",
        help="run each heuristic in a worker process under the "
        "--deadline watchdog (SIGKILL on overrun, degrade to g = f)",
    )
    _add_budget_flags(minimize_parser)
    minimize_parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print engine and heuristic counters",
    )
    minimize_parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON of the run (view in "
        "Perfetto or chrome://tracing)",
    )
    minimize_parser.set_defaults(handler=_cmd_minimize)

    experiments_parser = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments_parser.add_argument("--quick", action="store_true")
    experiments_parser.add_argument("--cube-limit", type=int, default=1000)
    experiments_parser.add_argument("--csv")
    _add_budget_flags(experiments_parser)
    experiments_parser.add_argument(
        "--checkpoint",
        help="JSONL journal of completed calls (written as the sweep runs)",
    )
    experiments_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip calls already recorded in --checkpoint",
    )
    experiments_parser.add_argument(
        "--parallel",
        type=int,
        metavar="N",
        help="shard heuristic cells across N pool workers, each under "
        "an OS-level watchdog and per-heuristic circuit breaker",
    )
    experiments_parser.add_argument(
        "--memory-limit",
        type=int,
        metavar="BYTES",
        help="address-space rlimit per pool worker (with --parallel)",
    )
    experiments_parser.add_argument(
        "--no-gc",
        action="store_true",
        help="flush caches only at the §4.1.1 flush points instead of "
        "running the mark-and-sweep collector (for memory A/B runs)",
    )
    experiments_parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect metrics for the sweep and print per-heuristic "
        "BDD-engine counters",
    )
    experiments_parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON of the sweep (view in "
        "Perfetto or chrome://tracing)",
    )
    experiments_parser.set_defaults(handler=_run_experiments)

    equivalence_parser = commands.add_parser(
        "equivalence", help="product-machine equivalence check"
    )
    equivalence_parser.add_argument("left", help="benchmark name")
    equivalence_parser.add_argument(
        "right", nargs="?", help="second benchmark (default: self-check)"
    )
    equivalence_parser.add_argument(
        "--trace",
        action="store_true",
        help="print a distinguishing input sequence on inequivalence",
    )
    equivalence_parser.set_defaults(handler=_cmd_equivalence)

    blif_parser = commands.add_parser("blif", help="inspect a BLIF file")
    blif_parser.add_argument("path")
    blif_parser.add_argument("--reachable", action="store_true")
    blif_parser.set_defaults(handler=_cmd_blif)

    lint_parser = commands.add_parser(
        "lint",
        help=(
            "run the codebase-specific lint pass (rules L1-L5; "
            "--flow adds F1-F4)"
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories (default: the repro package tree "
            "plus benchmarks/ and examples/)"
        ),
    )
    lint_parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the cross-module ref-flow rules F1-F4",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="output_format",
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in FILE",
    )
    lint_parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record current findings to FILE and exit 0",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    audit_parser = commands.add_parser(
        "audit",
        help="check heuristic contracts on circuit-suite instances",
    )
    audit_parser.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmark names (default: the quick suite)",
    )
    audit_parser.add_argument(
        "--full",
        action="store_true",
        help="audit the full benchmark suite",
    )
    audit_parser.add_argument(
        "--heuristics",
        nargs="+",
        help="restrict to these heuristic names (default: all registered)",
    )
    audit_parser.add_argument(
        "--max-calls",
        type=int,
        default=25,
        help="recorded calls audited per benchmark (default 25)",
    )
    audit_parser.set_defaults(handler=_cmd_audit)

    inject_parser = commands.add_parser(
        "inject",
        help="fault-injection drill against a guarded heuristic",
    )
    inject_parser.add_argument(
        "--fault",
        required=True,
        choices=["budget", "recursion", "cache"],
        help="failure to inject (see repro.robust.faults)",
    )
    inject_parser.add_argument(
        "--at",
        type=int,
        default=100,
        help="operation count the fault fires at (default 100)",
    )
    inject_parser.add_argument(
        "--repeat",
        action="store_true",
        help="fire on every operation from --at on (retries fail too)",
    )
    inject_parser.add_argument(
        "--heuristic",
        default="osm_bt",
        help="registered heuristic to drill (default osm_bt)",
    )
    inject_parser.add_argument(
        "--vars",
        type=int,
        default=8,
        help="variables in the synthetic instance (default 8)",
    )
    inject_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the deterministic synthetic instance",
    )
    inject_parser.set_defaults(handler=_cmd_inject)

    serve_parser = commands.add_parser(
        "serve",
        help="process-isolated minimization service (JSON lines)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="pool worker processes (default 2)",
    )
    serve_parser.add_argument(
        "--deadline",
        type=float,
        default=10.0,
        help="wall-clock seconds per request before SIGKILL (default 10)",
    )
    serve_parser.add_argument(
        "--memory-limit",
        type=int,
        metavar="BYTES",
        help="address-space rlimit per worker process",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries for transient failures, with 2x deadline "
        "backoff per attempt (default 1)",
    )
    serve_parser.add_argument(
        "--recycle-after",
        type=int,
        metavar="N",
        help="gracefully replace each worker after it has served N "
        "requests (bounds interpreter-level memory growth)",
    )
    serve_parser.add_argument(
        "--input",
        help="read requests from this file instead of stdin",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    loadtest_parser = commands.add_parser(
        "loadtest",
        help="chaos load drill: gateway invariants under fault schedules",
    )
    loadtest_parser.add_argument(
        "--schedule",
        nargs="+",
        metavar="NAME",
        help="fault schedules to run (default: all; quick mode: mixed)",
    )
    loadtest_parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller load and smaller memory spikes (CI smoke)",
    )
    loadtest_parser.add_argument(
        "--requests",
        type=int,
        help="requests per schedule (default 200; quick 80)",
    )
    loadtest_parser.add_argument(
        "--concurrency",
        type=int,
        help="closed-loop clients (default 8; quick 6)",
    )
    loadtest_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="pool worker processes (default 2)",
    )
    loadtest_parser.add_argument(
        "--deadline",
        type=float,
        help="per-request budget in seconds (default 2.0; quick 1.5)",
    )
    loadtest_parser.add_argument(
        "--seed",
        type=int,
        default=2026,
        help="chaos/instance seed (default 2026)",
    )
    loadtest_parser.add_argument(
        "--max-p99",
        type=float,
        help="fail if any schedule's p99 latency exceeds this bound",
    )
    loadtest_parser.add_argument(
        "--max-shed-rate",
        type=float,
        help="fail if any schedule's shed rate exceeds this fraction",
    )
    loadtest_parser.add_argument(
        "--output",
        default="benchmarks/BENCH_serve_load.json",
        help="JSON record path (default benchmarks/BENCH_serve_load.json; "
        "empty string to skip writing)",
    )
    loadtest_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a merged distributed Chrome trace of the drill "
        "(chaos injections tagged as instant events)",
    )
    loadtest_parser.set_defaults(handler=_cmd_loadtest)

    metrics_parser = commands.add_parser(
        "metrics",
        help="run a capped sweep with observability on, print counters",
    )
    metrics_parser.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmark names (default: the quick suite)",
    )
    metrics_parser.add_argument(
        "--heuristics",
        nargs="+",
        help="restrict to these heuristic names (default: the paper's "
        "twelve)",
    )
    metrics_parser.add_argument(
        "--max-iterations",
        type=int,
        default=4,
        help="fixpoint iterations recorded per benchmark (default 4)",
    )
    metrics_parser.add_argument(
        "--parallel",
        type=int,
        metavar="WORKERS",
        help="also drive the pool and gateway lanes with this many "
        "workers, so serve.* and gateway.* counters appear",
    )
    metrics_parser.set_defaults(handler=_cmd_metrics)

    perf_parser = commands.add_parser(
        "perf-report",
        help="aggregate a merged trace into a phase-breakdown table",
    )
    perf_parser.add_argument(
        "trace",
        help="merged Chrome-trace JSON written by a --trace run",
    )
    perf_parser.add_argument(
        "--collapsed",
        metavar="PATH",
        help="also write collapsed stacks (flamegraph.pl/speedscope "
        "format)",
    )
    perf_parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the full breakdown as JSON",
    )
    perf_parser.set_defaults(handler=_cmd_perf_report)

    bench_parser = commands.add_parser(
        "bench",
        help="benchmark history ledger: record and compare BENCH_*.json",
    )
    bench_parser.add_argument(
        "--dir",
        default="benchmarks",
        help="directory holding BENCH_*.json records (default "
        "benchmarks)",
    )
    bench_parser.add_argument(
        "--ledger",
        metavar="PATH",
        help="ledger path (default <dir>/BENCH_history.jsonl)",
    )
    bench_parser.add_argument(
        "--record",
        action="store_true",
        help="append one ledger entry per BENCH_*.json record",
    )
    bench_parser.add_argument(
        "--compare",
        action="store_true",
        help="check current records against the latest ledger "
        "baselines (exit 1 on regression)",
    )
    bench_parser.add_argument(
        "--list",
        action="store_true",
        help="print every ledger entry",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="relative tolerance before a directed metric counts as "
        "a regression (default 0.30)",
    )
    bench_parser.set_defaults(handler=_cmd_bench)

    fuzz_parser = commands.add_parser(
        "fuzz",
        help="differential fuzzing: corpora, oracles, serving lanes",
    )
    fuzz_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="corpus seed; the whole run is deterministic in it "
        "(default 0)",
    )
    fuzz_parser.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="corpus rounds; round k uses seed+k (default 1)",
    )
    fuzz_parser.add_argument(
        "--size",
        type=int,
        default=3,
        help="instances per family per round (default 3)",
    )
    fuzz_parser.add_argument(
        "--num-vars",
        type=int,
        default=6,
        help="variable budget per generated instance (default 6)",
    )
    fuzz_parser.add_argument(
        "--families",
        nargs="+",
        metavar="NAME",
        help="corpus families (default: all registered)",
    )
    fuzz_parser.add_argument(
        "--methods",
        nargs="+",
        metavar="NAME",
        help="heuristics to fuzz (default: constrain restrict osm_bt "
        "osm_nv)",
    )
    fuzz_parser.add_argument(
        "--lanes",
        nargs="+",
        default=["inprocess"],
        metavar="NAME",
        help="serving lanes to compare: inprocess pool gateway chaos "
        "(default: inprocess)",
    )
    fuzz_parser.add_argument(
        "--oracles",
        nargs="+",
        metavar="NAME",
        help="restrict the oracle pack to these oracles (default: all)",
    )
    fuzz_parser.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug failing instances and emit reproducers",
    )
    fuzz_parser.add_argument(
        "--reproducer-dir",
        default="fuzz-reproducers",
        help="directory for shrunk reproducers and pytest stubs "
        "(default fuzz-reproducers/; only written with --shrink)",
    )
    fuzz_parser.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="per-request worker deadline for serving lanes "
        "(default 30)",
    )
    fuzz_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the observability registry after the run",
    )
    fuzz_parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the JSON report here",
    )
    fuzz_parser.set_defaults(handler=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
