"""Serial vs pooled sweep wall-clock: the --parallel speedup record.

A standalone script (no pytest benches): it runs the same heuristic
sweep twice — once serially in-process and once through the pooled
path (one batch envelope per call, warm worker managers, pipelined
dispatch) — and writes the wall-clock comparison to
``BENCH_parallel_sweep.json`` next to this file.  The headline metric
is explicitly

    ``speedup = serial_seconds / pooled_seconds``

so values above 1.0 mean the pooled sweep beats serial.  The pooled
numbers include the full isolation overhead (wire encoding, pipe
transport, child-side verification), so the speedup honestly reports
what ``repro-bdd experiments --parallel N`` buys, not an idealized
bound.

The script exits 1 unless both passes do the same counted work: every
cell measured on both sides must have the same cover size and the same
``agree_steps``.  Both paths run a cell through
``repro.robust.guard.run_cell``, which counts the heuristic call alone,
so a pooled cell whose statistics also took in the cover check's walk
fails here.  ``ite_calls`` and ``nodes_created`` are not compared: they
depend on node numbering and table contents, which differ between the
serial manager and a warm worker's.

``--min-speedup`` gates the speedup, but only when the machine can
physically parallelize: a pool of N workers plus the reaping
parent needs more than N CPUs to beat serial, so on smaller boxes the
gate records itself as skipped (``speedup_gate.enforced = false``)
instead of failing on hardware that cannot pass.

Run::

    PYTHONPATH=src python benchmarks/bench_parallel_sweep.py --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.core.registry import PAPER_HEURISTICS
from repro.experiments.calls import collect_suite_calls
from repro.experiments.harness import run_heuristics
from repro.obs.provenance import provenance


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1

#: Benchmarks kept small enough that CI pays seconds, not minutes.
DEFAULT_BENCHMARKS = ("tlc", "minmax5", "s344")


def _sweep(names, heuristics, parallel):
    calls = collect_suite_calls(list(names))
    started = time.perf_counter()
    results = run_heuristics(
        calls,
        heuristics=heuristics,
        compute_lower_bound=False,
        parallel=parallel,
    )
    elapsed = time.perf_counter() - started
    return results, elapsed


def _check_agreement(serial_results, pooled_results, heuristics):
    if not (serial_results.total_calls == pooled_results.total_calls):
        raise SystemExit(
            "bench gate failed: serial_results.total_calls == "
            "pooled_results.total_calls"
        )
    agreeing = 0
    counted_apart = []
    for left, right in zip(serial_results.results, pooled_results.results):
        for name in heuristics:
            if None in (left.sizes[name], right.sizes[name]):
                continue
            if not (left.sizes[name] == right.sizes[name]):
                raise SystemExit(
                    "pooled sweep diverged on %s/%s" % (left.benchmark, name)
                )
            agreeing += 1
            # Both sides count the heuristic call alone, so its agree
            # walks match.  ite_calls and nodes_created depend on node
            # numbering and table contents, so they are not compared.
            serial_steps = left.stats[name]["agree_steps"]
            pooled_steps = right.stats[name]["agree_steps"]
            if serial_steps != pooled_steps:
                counted_apart.append(
                    "%s call %d/%s: serial %d, pooled %d"
                    % (left.benchmark, left.iteration, name,
                       serial_steps, pooled_steps)
                )
    if counted_apart:
        raise SystemExit(
            "pooled sweep counted different agree_steps on %d of %d "
            "cells measured on both sides (first: %s)"
            % (len(counted_apart), agreeing, counted_apart[0])
        )
    return agreeing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="pool workers for the parallel pass (default 2)",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        help="benchmarks to sweep (default: %s)"
        % ", ".join(DEFAULT_BENCHMARKS),
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless the pooled speedup reaches X; the "
        "gate is recorded but not enforced when the machine has "
        "fewer than workers+1 CPUs (parallelism cannot beat serial "
        "there)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "BENCH_parallel_sweep.json",
        ),
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)

    benchmarks = list(args.benchmarks or DEFAULT_BENCHMARKS)

    heuristics = tuple(PAPER_HEURISTICS)
    serial_results, serial_seconds = _sweep(
        benchmarks, heuristics, parallel=None
    )
    pooled_results, pooled_seconds = _sweep(
        benchmarks, heuristics, parallel=args.workers
    )

    # Sanity: the pooled sweep measured the same cells and produced
    # the same sizes (modulo None cells, which the contract allows).
    agreeing = _check_agreement(serial_results, pooled_results, heuristics)

    cpus = _effective_cpus()
    record = {
        "benchmarks": benchmarks,
        "heuristics": list(heuristics),
        "cells": serial_results.total_calls * len(heuristics),
        "agreeing_cells": agreeing,
        "workers": args.workers,
        "cpus": cpus,
        "serial_seconds": round(serial_seconds, 4),
        "pooled_seconds": round(pooled_seconds, 4),
        # The headline: speedup = serial_seconds / pooled_seconds.
        # > 1.0 means the pooled sweep beats the serial one.
        "speedup": round(serial_seconds / pooled_seconds, 4),
        "pooled_failed_cells": pooled_results.failed_cells,
        # Serve-layer health of the pooled pass: the record must show
        # how hard the isolation machinery worked, not just how fast.
        "serve_stats": {
            key: pooled_results.serve_stats.get(key, 0)
            for key in (
                "requests",
                "batches",
                "failures",
                "kills",
                "crashes",
                "worker_restarts",
                "probe_failures",
                "recycles",
                "breaker_successes",
                "breaker_failures",
                "breaker_opens",
                "breaker_short_circuits",
            )
        },
        "breaker_states": pooled_results.serve_stats.get(
            "breaker_states", {}
        ),
        "provenance": provenance(argv),
    }
    # Exact per-phase percentiles of the pooled pass (seconds): the
    # decode/compute/encode split every batching PR is judged against.
    record["serve_stats"]["phases"] = pooled_results.serve_stats.get(
        "phases", {}
    )

    # Ledger sanity: pool.dispatch is the pool-side overhead residual
    # (round trip minus worker-reported wall), so a healthy batched
    # sweep spends strictly less on dispatch than on compute.
    phases = record["serve_stats"]["phases"]
    dispatch_total = phases.get("pool.dispatch", {}).get("total", 0.0)
    compute_total = phases.get("worker.compute", {}).get("total", 0.0)
    if compute_total and dispatch_total >= compute_total:
        raise SystemExit(
            "bench gate failed: pool.dispatch total %.4fs is not below "
            "worker.compute total %.4fs" % (dispatch_total, compute_total)
        )

    # The speedup floor: enforced only where the hardware can pass it.
    # N workers plus the decoding/reaping parent need more than N CPUs
    # before wall-clock parallel gains are physically possible.
    if args.min_speedup is not None:
        enforced = cpus >= args.workers + 1
        record["speedup_gate"] = {
            "floor": args.min_speedup,
            "enforced": enforced,
            "reason": None
            if enforced
            else "%d CPU(s) cannot parallelize %d workers + parent"
            % (cpus, args.workers),
        }
        if enforced and record["speedup"] < args.min_speedup:
            raise SystemExit(
                "bench gate failed: speedup %.2fx below the %.2fx floor"
                % (record["speedup"], args.min_speedup)
            )
        if not enforced:
            print(
                "speedup floor %.2fx recorded but not enforced: %s"
                % (args.min_speedup, record["speedup_gate"]["reason"])
            )

    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        "serial %.2fs vs pooled %.2fs with %d worker(s) on %d CPU(s) "
        "(speedup %.2fx, %d/%d cells agree) -> %s"
        % (
            serial_seconds,
            pooled_seconds,
            args.workers,
            cpus,
            record["speedup"],
            agreeing,
            record["cells"],
            args.output,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
