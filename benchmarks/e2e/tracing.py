"""Span wrappers for the benchmark's traced pass.

The benchmark records spans from its own files, around the calls it
makes into each layer of the program: wrappers replace public names
(module attributes, class methods, registry entries) before any pool
forks, and record nothing until :meth:`Tracer.activate` is called, so
one process can time an untraced pass and a traced pass of the same
work.  Hot inner calls (the match test runs ~10^5 times per pass) get
an aggregated count and time instead of a span each.

Spans are recorded and written by :class:`repro.obs.trace.Tracer`.  It
is deliberately not installed as the program's active tracer: that
would switch on the program's own span sites and the pool's
distributed tracing, and so change the code the benchmark measures.
Only the main thread records, so spans nest on one stack; a span's
*self time* is its duration minus the part its child spans cover, and
:func:`self_times` sums it per layer row, so the rows add up to the
traced pass's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs import trace


class Tracer:
    """Installable wrappers that record onto a :class:`trace.Tracer`."""

    def __init__(self) -> None:
        #: The pass's span recorder while tracing is on, else ``None``.
        self.spans: Optional[trace.Tracer] = None
        #: Aggregated hot calls: name -> [calls, nanoseconds, hits].
        self.totals: Dict[str, List[int]] = {}
        self.main_thread = threading.get_ident()
        #: Names of the open spans, innermost last.
        self._open: List[str] = []

    @property
    def enabled(self) -> bool:
        return self.spans is not None

    def activate(self) -> trace.Tracer:
        """Start recording into a fresh span recorder and zero the totals."""
        self.spans = trace.Tracer()
        self.totals = {name: [0, 0, 0] for name in self.totals}
        return self.spans

    def deactivate(self) -> Optional[trace.Tracer]:
        """Stop recording; returns the recorder with the pass's spans."""
        spans, self.spans = self.spans, None
        return spans

    def _recording(self) -> bool:
        return self.spans is not None and threading.get_ident() == self.main_thread

    @contextlib.contextmanager
    def span(self, name: str, args: Optional[dict] = None):
        """A span around the ``with`` block while tracing is on."""
        if not self._recording():
            yield
            return
        self._open.append(name)
        try:
            with self.spans.span(name, **(args or {})):
                yield
        finally:
            self._open.pop()

    # -- wrappers -----------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        parents: Optional[Iterable[str]] = None,
        args: Optional[Callable[..., dict]] = None,
    ) -> Callable:
        """A span around every call of ``fn`` while tracing is on.

        With ``parents`` the span is recorded only when the enclosing
        span has one of those names, so a helper the program also calls
        from deep inside a heuristic is attributed only at the layer
        boundary the benchmark cares about.
        """
        allowed = None if parents is None else frozenset(parents)
        tracer = self
        opened = self._open

        @functools.wraps(fn)
        def traced(*a, **kw):
            if not tracer._recording() or (
                allowed is not None and (not opened or opened[-1] not in allowed)
            ):
                return fn(*a, **kw)
            opened.append(name)
            try:
                with tracer.spans.span(name, **(args(*a, **kw) if args else {})):
                    return fn(*a, **kw)
            finally:
                opened.pop()

        return traced

    def tally(self, fn: Callable, name: str) -> Callable:
        """Count calls, time and non-``None`` results of a hot call."""
        self.totals.setdefault(name, [0, 0, 0])
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def counted(*a, **kw):
            if tracer.spans is None:
                return fn(*a, **kw)
            started = clock()
            result = fn(*a, **kw)
            entry = tracer.totals[name]
            entry[0] += 1
            entry[1] += clock() - started
            if result is not None:
                entry[2] += 1
            return result

        return counted

    @staticmethod
    def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict).

        Changes nothing when the name does not exist — a refactored-away
        helper then simply leaves its span out of the trace.  The
        benchmark process ends after its run, so nothing is restored.
        """
        is_dict = isinstance(owner, dict)
        original = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if original is None:
            return
        if is_dict:
            owner[attr] = make(original)
        else:
            setattr(owner, attr, make(original))

    @staticmethod
    def patch_everywhere(
        function: Callable, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``function`` in every ``repro`` module that imported it."""
        replacement = make(function)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, replacement)


def emit_span(
    spans: trace.Tracer,
    name: str,
    track: int,
    begin: float,
    end: float,
    args: Optional[dict] = None,
) -> None:
    """Add a finished ``perf_counter`` interval that no stack encloses
    (async work) as a top-level span on its own track of the trace."""
    spans.emit(
        {
            "name": name,
            "ph": "X",
            "ts": spans.offset_us(begin),
            "dur": (end - begin) * 1e6,
            "pid": os.getpid(),
            "tid": track,
            "cat": "benchmark",
            "args": dict(args or {}, depth=0),
        }
    )


def self_times(
    spans: trace.Tracer, rows: Dict[str, str], hot: Dict[str, List[int]], carve: Dict[str, str]
) -> Dict[str, float]:
    """Self seconds per row over the main thread's spans.

    Spans complete in post-order on one stack, so each span's children
    are the spans one level deeper that completed since the last span
    at its own level.  ``hot`` holds the aggregated totals and
    ``carve`` maps an aggregated call to the row whose spans it runs
    inside, e.g. ``{"try_match": "core"}``; its time is carved out of
    that row into a row of its own.
    """
    children: Dict[int, float] = {}
    result: Dict[str, float] = {}
    for event in spans.events:
        if event["ph"] != "X" or event["tid"] != trace.TRACE_TID:
            continue
        depth = event["args"]["depth"]
        duration = event["dur"]
        own = duration - children.pop(depth + 1, 0.0)
        children[depth] = children.get(depth, 0.0) + duration
        row = rows.get(event["name"], event["name"])
        result[row] = result.get(row, 0.0) + own / 1e6
    for name, row in carve.items():
        seconds = hot.get(name, [0, 0, 0])[1] / 1e9
        if seconds:
            result[row] = result.get(row, 0.0) - seconds
            result[row + "." + name] = seconds
    return result
