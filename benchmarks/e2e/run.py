#!/usr/bin/env python3
"""End-to-end benchmark: the §4 sweep (serial and pooled), FSM traversal
and open-loop gateway serving, with end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--trace-out PATH] [--out PATH]
        [--runs K] [--size smoke|default]

Each workload runs in a fresh child process that builds its inputs from
the seed, measures for ``--seconds`` seconds and checks every output
against ``expected.json``.  With ``--trace 0`` (the default) it reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` instead
times one untraced and one traced pass of the same work and reports the
per-layer metrics, a self-time table and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every output matched the reference, 1 when one did
not, 2 when a workload could not run (e.g. the program's sources are
missing, or it did not finish in time) — no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
#: A child gets ``--seconds`` per pass it times (two on a traced run)
#: plus this long for start-up, set-up, a pass overrunning the run's
#: seconds and the output checks; then it is killed with its workers.
CHILD_MARGIN_S = 120.0


def load_spec() -> dict:
    with open(SPEC) as handle:
        return json.load(handle)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Child: one workload, in-process
# ----------------------------------------------------------------------
def run_child(args) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer

    spec = load_spec()
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    tracer = Tracer() if args.trace else None
    # End-to-end times are scaled to reference host speed; traced runs
    # report shares and counts, and take no probes.
    sampler = None if args.trace else workloads.HostSampler()
    if tracer is not None:
        # Forked pool workers inherit the wrappers but must not record.
        os.register_at_fork(after_in_child=tracer.deactivate)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        size=args.size,
        expected=expected,
        tracer=tracer,
        sampler=sampler,
    )
    (workload,) = args.workload
    outcome = workloads.WORKLOADS[workload](ctx)
    if args.trace:
        names = [metric["name"] for metric in spec["per_layer"]]
        values = dict.fromkeys(names, 0)
        latencies = [ms for unit in outcome.units for ms in unit.latencies_ms]
        values["latency.p90_ms"] = workloads.percentile(latencies, 0.90)
        values["latency.p99_ms"] = workloads.percentile(latencies, 0.99)
        unknown = sorted(set(outcome.layers) - set(names))
        if unknown:
            raise KeyError("per-layer metrics missing from BENCHMARK.json: %s" % unknown)
        values.update(outcome.layers)
        if args.trace_out:
            outcome.spans.write(args.trace_out)
    else:
        values = workloads.end_to_end(outcome, sampler)
        values["peak_rss_mb"] = outcome.peak_rss_mb
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "correct": not outcome.mismatches,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "mismatches": outcome.mismatches[:20],
        "metrics": values,
        "rows": outcome.rows,
        # The end-to-end times before host-speed scaling, and the
        # median host-speed probe.
        "raw": {} if args.trace else {
            **workloads.end_to_end(outcome, None),
            "host_probe_s": _median([probe for _, probe in sampler.samples]),
        },
    }


# ----------------------------------------------------------------------
# Parent: orchestration and reporting
# ----------------------------------------------------------------------
def spawn(args, workload: str, seed: int) -> Optional[dict]:
    """Run one workload in a fresh child; None if it did not finish."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--size", args.size,
    ]
    if args.trace_out:
        base, ext = os.path.splitext(args.trace_out)
        command += ["--trace-out", "%s.%s.%d%s" % (base, workload, seed, ext or ".json")]
    timeout = (2 if args.trace else 1) * args.seconds + CHILD_MARGIN_S
    # Own session, so a timeout can kill the child and its pool workers.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(
            "error: workload %s (seed %d) did not finish in %g s"
            % (workload, seed, timeout),
            file=sys.stderr,
        )
        return None
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(
            "error: workload %s (seed %d) exited with status %s"
            % (workload, seed, child.returncode),
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def report(result: dict, units: Dict[str, str]) -> None:
    """Human-readable lines for one workload run."""
    print(
        "== %s  seed %d  %gs  %s  %s: %d attempted, %d failed"
        % (
            result["workload"], result["seed"], result["seconds"],
            "traced" if result["trace"] else "untraced",
            "correct" if result["correct"] else "WRONG OUTPUT",
            result["attempted"], result["failed"],
        )
    )
    for mismatch in result["mismatches"]:
        print("   mismatch: %s" % mismatch)
    rows = result["rows"]
    if rows:
        wall = result["metrics"]["trace.wall_s"]
        print("   %-24s %10s %8s" % ("self time by layer", "s", "share"))
        for row, seconds in sorted(rows.items(), key=lambda item: -item[1]):
            print("   %-24s %10.4f %7.1f%%" % (row, seconds, 100.0 * seconds / wall))
        print(
            "   %-24s %10.4f  (wall %.4f s, tracing overhead %+.1f%%)"
            % ("sum", sum(rows.values()), wall, result["metrics"]["trace.overhead_pct"])
        )
    for name, value in result["metrics"].items():
        print("   %-36s %16.6g %s" % (name, value, units[name]))


def provenance() -> dict:
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="Chrome trace file (traced runs)")
    parser.add_argument("--out", help="write every run's results as JSON")
    parser.add_argument(
        "--runs", type=int, default=1,
        help="runs per workload, with seeds seed, seed+1, ...",
    )
    parser.add_argument(
        "--size", choices=("smoke", "default"), default="default",
        help="smoke: one small machine per workload, for the self-tests",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_child(args)))
        return 0
    if not (SRC / "repro").is_dir():
        print("error: program sources not found at %s" % SRC, file=sys.stderr)
        return 2
    # A terminated parent still kills the running child and its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    results = []
    for run in range(args.runs):
        for workload in args.workload or names:
            result = spawn(args, workload, args.seed + run)
            if result is None:
                return 2
            report(result, units)
            results.append(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"provenance": provenance(), "runs": results}, handle, indent=1)
    single = len(results) == 1
    merged: Dict[str, List[float]] = {}
    for result in results:
        for name, value in result["metrics"].items():
            key = name if single else "%s/%s" % (result["workload"], name)
            merged.setdefault(key, []).append(value)
    summary = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            key: {"value": _median(values), "unit": units[key.rsplit("/", 1)[-1]]}
            for key, values in merged.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
