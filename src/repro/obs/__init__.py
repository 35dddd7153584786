"""repro.obs — metrics, structured tracing, and composing step hooks.

The observability layer for the reproduction: a process-local
:class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
histogram summaries) that the BDD core, the minimization heuristics
and the serving layer report into; a :class:`~repro.obs.trace.Tracer`
emitting Perfetto-loadable Chrome trace events for schedule windows,
sibling matching, DMG sink computation and clique-cover rounds; and
:func:`~repro.obs.hooks.attach_hook` / ``detach_hook`` so the robust
governor, the CheckedManager auditor and the tracer can share one
manager's step-hook slot.  The worker pool's always-on phase ledger
(:class:`~repro.serve.pool.PhaseAccumulator`) lives next to the pool,
its only producer.

Everything is opt-in: with no registry enabled and no tracer active,
the instrumented paths cost a single ``is None`` test (bounded by the
``bench_obs_overhead`` benchmark at <5% on ``bench_bdd_ops``
workloads).  See ``docs/observability.md``.
"""

from repro.obs import metrics, trace
from repro.obs.hooks import (
    StepHookDispatcher,
    attach_hook,
    attached_hooks,
    detach_hook,
)
from repro.obs.metrics import (
    MetricsRegistry,
    collecting,
    diff_statistics,
    merge_counts,
)
from repro.obs.trace import Tracer, tracing, validate_events

__all__ = [
    "MetricsRegistry",
    "StepHookDispatcher",
    "Tracer",
    "attach_hook",
    "attached_hooks",
    "collecting",
    "detach_hook",
    "diff_statistics",
    "merge_counts",
    "metrics",
    "trace",
    "tracing",
    "validate_events",
]
