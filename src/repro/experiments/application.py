"""Application-level impact of frontier minimization.

The paper deliberately does not measure how minimization affects the
*application* ("other researchers have already demonstrated that
minimization (using constrain) can have a dramatic effect on the
runtime of applications" — citing Coudert et al. and Touati et al.).
This module runs that deferred experiment on our substrate: for each
benchmark and each frontier minimizer, the product-machine equivalence
check is executed end to end and its cost recorded — wall-clock time,
nodes allocated in the manager, and the cumulative size of the
minimized frontiers the traversal actually iterated on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bdd.manager import Manager
from repro.core.registry import HEURISTICS
from repro.fsm.product import compile_product
from repro.fsm.reachability import check_equivalence
from repro.circuits.suite import benchmark_spec
from repro.experiments.report import render_table

#: Minimizers worth comparing at the application level.
DEFAULT_MINIMIZERS = ("f_orig", "constrain", "restrict", "osm_bt", "robust")


@dataclass(frozen=True)
class ApplicationRun:
    """One (benchmark, minimizer) traversal measurement.

    ``degraded_calls`` counts frontier minimizations that fell back to
    the identity cover under the guard (budget trips etc.) — the
    traversal still completes exactly, just without that compression.
    """

    benchmark: str
    minimizer: str
    equivalent: bool
    iterations: int
    seconds: float
    nodes_allocated: int
    degraded_calls: int = 0


def measure_application_impact(
    names: Sequence[str],
    minimizers: Sequence[str] = DEFAULT_MINIMIZERS,
    budget=None,
) -> List[ApplicationRun]:
    """Self-equivalence traversal cost per (benchmark, minimizer).

    Every frontier minimizer runs guarded: a budget trip or broken
    contract inside one minimization degrades that call to the exact
    (unminimized) frontier instead of killing the whole traversal.
    ``budget`` optionally bounds each minimization call (see
    :class:`repro.robust.governor.Budget`).
    """
    from repro.robust.guard import guard

    runs: List[ApplicationRun] = []
    for name in names:
        for minimizer_name in minimizers:
            spec = benchmark_spec(name)
            manager = Manager()
            product = compile_product(manager, spec, spec)
            minimizer = guard(
                HEURISTICS[minimizer_name],
                name=minimizer_name,
                budget=budget,
            )
            started = time.perf_counter()
            result = check_equivalence(product, minimize=minimizer)
            elapsed = time.perf_counter() - started
            runs.append(
                ApplicationRun(
                    benchmark=name,
                    minimizer=minimizer_name,
                    equivalent=result.equivalent,
                    iterations=result.iterations,
                    seconds=elapsed,
                    nodes_allocated=manager.num_nodes,
                    degraded_calls=minimizer.failures,
                )
            )
    return runs


def render_application_impact(runs: Sequence[ApplicationRun]) -> str:
    """Text table: one row per benchmark, one column pair per minimizer."""
    minimizers: List[str] = []
    benchmarks: List[str] = []
    for run in runs:
        if run.minimizer not in minimizers:
            minimizers.append(run.minimizer)
        if run.benchmark not in benchmarks:
            benchmarks.append(run.benchmark)
    by_key: Dict = {(run.benchmark, run.minimizer): run for run in runs}
    show_degraded = any(run.degraded_calls for run in runs)
    headers = ["Benchmark"]
    for minimizer in minimizers:
        headers.append("%s nodes" % minimizer)
        headers.append("%s s" % minimizer)
        if show_degraded:
            headers.append("%s deg" % minimizer)
    rows = []
    for benchmark in benchmarks:
        row = [benchmark]
        for minimizer in minimizers:
            run = by_key[(benchmark, minimizer)]
            row.append(str(run.nodes_allocated))
            row.append("%.3f" % run.seconds)
            if show_degraded:
                row.append(str(run.degraded_calls))
        rows.append(row)
    return render_table(
        headers, rows, title="Application impact (traversal cost)"
    )
