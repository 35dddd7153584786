"""Process-local metrics: counters, gauges and histogram summaries.

The paper's whole experimental argument rests on *measuring* the
heuristics — Tables 2–4 are sizes and runtimes, and the related work
(Mishchenko & Brayton's windowed don't-care computation, Bryant's
chain-reduction statistics) attributes its conclusions to per-node and
per-operation cost accounting.  This module is the substrate those
measurements flow through: a :class:`MetricsRegistry` of named
counters, gauges and histogram summaries that library code updates
while it runs.

Cost model
----------

Collection is **opt-in and process-global**: a registry is activated
with :func:`enable` (or the ``REPRO_METRICS=1`` environment switch) and
instrumented code asks :func:`active` for it.  When no registry is
active, :func:`active` returns ``None`` and every instrumentation site
reduces to one ``is None`` test — the library never pays for metrics it
is not collecting.  The :class:`~repro.bdd.manager.Manager`'s own
cumulative counters (ITE steps, cache hits/misses, nodes created) are
the one exception: they are plain integer increments, cheap enough to
stay always-on, and are read out via
:meth:`~repro.bdd.manager.Manager.statistics`.

Snapshots are plain ``dict``s (JSON-serializable), so worker processes
ship them across the serve layer's pipe and
:func:`merge_snapshot` / :func:`diff_statistics` aggregate them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.analysis.flow import deterministic

#: Environment variable enabling metrics collection at import time.
ENV_VAR = "REPRO_METRICS"

#: ``Manager.statistics()`` keys that are cumulative counters: a
#: per-cell delta is ``after - before``.  Everything else (table sizes,
#: peaks) is a point-in-time reading where the ``after`` value stands.
CUMULATIVE_STATISTICS = frozenset(
    {
        "ite_calls",
        "ite_cache_hits",
        "ite_cache_misses",
        "nodes_created",
        "gc_runs",
        "nodes_reclaimed",
        "agree_steps",
    }
)

#: Suffixes marking per-named-cache counters as cumulative too.
_CUMULATIVE_SUFFIXES = ("_hits", "_misses")


class MetricsRegistry:
    """Named counters, gauges and histogram summaries.

    All three families share one flat namespace per family.  Histogram
    "summaries" keep ``count``/``total``/``min``/``max`` instead of
    buckets — enough for the mean and range reporting the experiment
    exhibits need, with O(1) update cost and a JSON-friendly shape.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}

    # -- counters ------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    # -- gauges --------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to a point-in-time reading."""
        self._gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """Raise a high-watermark gauge to ``value`` if it is larger."""
        if value > self._gauges.get(name, float("-inf")):
            self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        """Current gauge reading, or ``None`` if never set."""
        return self._gauges.get(name)

    # -- histograms ----------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one observation into the summary ``name``."""
        summary = self._histograms.get(name)
        if summary is None:
            self._histograms[name] = {
                "count": 1,
                "total": value,
                "min": value,
                "max": value,
            }
            return
        summary["count"] += 1
        summary["total"] += value
        if value < summary["min"]:
            summary["min"] = value
        if value > summary["max"]:
            summary["max"] = value

    def histogram(self, name: str) -> Optional[Dict[str, float]]:
        """The summary dict for ``name`` (count/total/min/max) or None."""
        summary = self._histograms.get(name)
        return dict(summary) if summary is not None else None

    # -- lifecycle -----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy of everything collected so far."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: dict(summary)
                for name, summary in self._histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram counts/totals add; gauges and histogram
        min/max combine as watermarks.  Used to aggregate worker-side
        snapshots shipped back through :mod:`repro.serve`.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.max_gauge(name, float(value))
        for name, summary in snapshot.get("histograms", {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = dict(summary)
                continue
            mine["count"] += summary["count"]
            mine["total"] += summary["total"]
            if summary["min"] < mine["min"]:
                mine["min"] = summary["min"]
            if summary["max"] > mine["max"]:
                mine["max"] = summary["max"]

    def reset(self) -> None:
        """Drop everything collected so far."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return "MetricsRegistry(%d counters, %d gauges, %d histograms)" % (
            len(self._counters),
            len(self._gauges),
            len(self._histograms),
        )


#: The process-global active registry (None = collection disabled).
_ACTIVE: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when collection is disabled.

    Instrumentation sites call this once per operation and skip all
    metric work on ``None`` — the disabled path costs one comparison.
    """
    return _ACTIVE


def enabled() -> bool:
    """True iff a registry is currently collecting."""
    return _ACTIVE is not None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Activate collection into ``registry`` (a fresh one by default).

    Returns the now-active registry.  Enabling while another registry
    is active replaces it (the previous registry keeps its data).
    """
    global _ACTIVE
    if registry is None:
        registry = _ACTIVE if _ACTIVE is not None else MetricsRegistry()
    _ACTIVE = registry
    return registry


def disable() -> Optional[MetricsRegistry]:
    """Deactivate collection; returns the previously active registry."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Scope metrics collection to one ``with`` block.

    Activates ``registry`` (fresh by default), yields it, and restores
    whatever was active before on exit — so scoped collection nests and
    never leaks into later code.
    """
    global _ACTIVE
    previous = _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


@deterministic
def diff_statistics(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Per-cell delta between two ``Manager.statistics()`` snapshots.

    Cumulative counters (see :data:`CUMULATIVE_STATISTICS` and the
    per-cache ``*_hits``/``*_misses`` keys) are differenced; everything
    else (table sizes, ``peak_nodes``) reports the ``after`` reading.
    A counter that went *backwards* (the cache-flush fairness protocol
    resets per-cache counters) reports its ``after`` value.
    """
    delta: Dict[str, int] = {}
    for name, value in after.items():
        if name in CUMULATIVE_STATISTICS or name.endswith(
            _CUMULATIVE_SUFFIXES
        ):
            previous = before.get(name, 0)
            delta[name] = value - previous if value >= previous else value
        else:
            delta[name] = value
    return delta


@deterministic
def merge_counts(
    accumulator: Dict[str, int], snapshot: Dict[str, int]
) -> Dict[str, int]:
    """Sum one flat ``{name: count}`` snapshot into ``accumulator``.

    The aggregation primitive for per-cell ``Manager.statistics()``
    deltas: cumulative counters add; point-in-time readings (sizes,
    peaks) combine as maxima, so the aggregate reports the worst cell.
    """
    for name, value in snapshot.items():
        if name in CUMULATIVE_STATISTICS or name.endswith(
            _CUMULATIVE_SUFFIXES
        ):
            accumulator[name] = accumulator.get(name, 0) + value
        elif value > accumulator.get(name, 0):
            accumulator[name] = value
    return accumulator


#: Every serve-path counter the merged ``repro-bdd metrics --parallel``
#: view must surface, even at zero: a counter that only appears once
#: something goes wrong is invisible exactly when dashboards are being
#: built.  Grouped by the module that increments them.
SERVE_COUNTER_KEYS = (
    # repro.serve.pool
    "serve.batch_cells",
    "serve.batch_partial_failures",
    "serve.batches",
    "serve.probe_failures",
    "serve.watchdog_kills",
    "serve.worker_crashes",
    "serve.worker_recycles",
    "serve.worker_replacements",
    # repro.serve.gateway
    "gateway.degraded",
    "gateway.drains",
    "gateway.hedge_wins",
    "gateway.hedges",
    "gateway.probe_rounds",
    "gateway.retries",
    "gateway.shed_closed",
    "gateway.shed_expired",
    "gateway.shed_overload",
    "gateway.short_circuits",
    "gateway.supervisor_restarts",
    # repro.verify lanes
    "verify.instances",
    "verify.lane_requests",
    "verify.lane_violations",
    "verify.oracle_checks",
    "verify.oracle_findings",
    "verify.shrink_accepted_steps",
    "verify.shrinks",
)


def ensure_serve_counters(registry: MetricsRegistry) -> None:
    """Zero-fill every :data:`SERVE_COUNTER_KEYS` counter in place.

    ``inc(name, 0)`` materializes the key without changing any count
    that instrumentation already recorded, so the merged parallel view
    always exports the full serve-path key set.
    """
    for name in SERVE_COUNTER_KEYS:
        registry.inc(name, 0)


if os.environ.get(ENV_VAR) == "1":  # pragma: no cover - env bootstrap
    enable()
