"""Hierarchical spans in Chrome trace-event format.

A :class:`Tracer` records *spans* — named, nested intervals of work —
and writes them as Chrome trace-event JSON ("X" complete events with
microsecond ``ts``/``dur``), the format Perfetto and ``chrome://tracing``
load directly.  One event is written per line inside a valid JSON
array, so the file is both a legal ``.json`` trace and greppable as
JSONL-with-brackets.

Like :mod:`repro.obs.metrics`, tracing is opt-in and process-global:
:func:`activate` installs a tracer, instrumented code calls the
module-level :func:`span` helper, and when no tracer is active that
helper returns a shared no-op context manager — the disabled path is
one ``is None`` test plus a ``with`` on a pre-built null context.

Span sites in the library cover the units the paper reasons about:
schedule windows (§4.1.2), sibling-matching passes, the DMG
DFS-to-sinks representative computation, and UMG clique-cover rounds.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Synthetic thread id used for all spans (the library is single-
#: threaded per manager; worker processes get distinct pids).
TRACE_TID = 1


class _NullSpan:
    """Shared no-op context manager for the tracing-disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Reusable-shape context manager recording one "X" event.

    A plain class instead of ``@contextmanager``: the generator
    machinery costs ~2.5µs per span, which at the library's span
    density (a span per schedule window and per clique-cover round)
    would show up in every traced sweep.
    """

    __slots__ = ("_tracer", "_name", "_args", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> None:
        tracer = self._tracer
        self._depth = tracer._depth
        tracer._depth = self._depth + 1
        self._start = time.perf_counter_ns()
        return None

    def __exit__(self, *exc: object) -> bool:
        # Integer-ns arithmetic with a single float division: ns/1000.0
        # renders as at most three decimals in JSON (exact µs), without
        # paying for two ``round()`` calls per span.
        end = time.perf_counter_ns()
        tracer = self._tracer
        depth = self._depth
        tracer._depth = depth
        args = self._args
        if "depth" not in args:
            args["depth"] = depth
        tracer.events.append(
            {
                "name": self._name,
                "ph": "X",
                "ts": (self._start - tracer._origin_ns) / 1000.0,
                "dur": (end - self._start) / 1000.0,
                "pid": tracer._pid,
                "tid": TRACE_TID,
                "cat": "repro",
                "args": args,
            }
        )
        return False


class Tracer:
    """Collects nested spans as Chrome trace "complete" events.

    Spans are recorded at exit (Chrome "X" events carry start + dur),
    so the emitted list is ordered by *completion*; Perfetto rebuilds
    nesting from the timestamps.  Parent/child structure is also made
    explicit in each event's ``args.depth`` so tests (and humans
    reading the raw JSON) can check nesting without a timeline viewer.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []
        self._origin_ns = time.perf_counter_ns()
        self._depth = 0
        self._pid = os.getpid()

    def span(self, name: str, **args: object) -> "_Span":
        """Time a block as a span named ``name`` with optional args."""
        return _Span(self, name, args)

    def offset_us(self, at: Optional[float] = None) -> float:
        """``perf_counter`` time ``at`` (default: now) in trace µs.

        Converts an absolute :func:`time.perf_counter` reading into
        this tracer's timeline (microseconds since the tracer's
        origin), the unit Chrome trace events carry in ``ts``.
        """
        if at is None:
            at = time.perf_counter()
        return round(at * 1e6 - self._origin_ns / 1000.0, 3)

    def emit(self, event: Dict[str, object]) -> None:
        """Append one pre-built trace event.

        Unlike :meth:`span` this never touches ``_depth``, so it is
        safe from pool dispatcher threads: a single ``list.append`` is
        atomic under the GIL.  Callers are responsible for supplying a
        complete event (``ph``/``ts``/``pid``/``tid``/...), for example
        a span timed on another thread and converted with
        :meth:`offset_us`.
        """
        self.events.append(event)

    def write(self, path: str) -> int:
        """Write the trace as a JSON array, one event per line.

        Returns the number of events written.  The output parses as a
        single JSON array (what Perfetto expects) while keeping each
        event on its own line for diffing and grepping.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[\n")
            last = len(self.events) - 1
            for index, event in enumerate(self.events):
                handle.write(json.dumps(event, sort_keys=True))
                handle.write(",\n" if index != last else "\n")
            handle.write("]\n")
        return len(self.events)

    def __repr__(self) -> str:
        return "Tracer(%d events)" % len(self.events)


#: The process-global active tracer (None = tracing disabled).
_ACTIVE: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def activate(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (a fresh one by default) as the active tracer."""
    global _ACTIVE
    if tracer is None:
        tracer = Tracer()
    _ACTIVE = tracer
    return tracer


def deactivate() -> Optional[Tracer]:
    """Stop tracing; returns the previously active tracer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def span(name: str, **args: object):
    """Span on the active tracer, or a shared no-op when disabled.

    This is the helper instrumentation sites use::

        with trace.span("schedule.window", lo=lo, hi=hi):
            ...
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **args)


@contextmanager
def tracing(path: Optional[str] = None) -> Iterator[Tracer]:
    """Scope tracing to one ``with`` block, optionally writing a file.

    Activates a fresh tracer, yields it, restores the previous tracer
    on exit, and — when ``path`` is given — writes the Chrome trace
    there even if the block raised (a partial trace of a failed run is
    exactly when you want one).
    """
    global _ACTIVE
    previous = _ACTIVE
    tracer = Tracer()
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
        if path is not None:
            tracer.write(path)


def validate_events(events: List[Dict[str, object]]) -> None:
    """Raise ``ValueError`` unless ``events`` are schema-valid spans.

    Accepts only the "X" complete events a :class:`Tracer` writes,
    each with the fields Perfetto requires (name, ts, dur, pid, tid),
    and checks that the recorded ``args.depth`` nesting is consistent:
    every span at depth ``d > 0`` lies strictly inside some span at
    depth ``d - 1``.  Used by the test suite's round-trip check and
    handy for ad-hoc trace debugging.
    """
    spans = []
    for event in events:
        phase = event.get("ph")
        if phase != "X":
            raise ValueError("unknown event phase: %r" % (phase,))
        for field in ("name", "ts", "dur", "pid", "tid"):
            if field not in event:
                raise ValueError(
                    "event missing %r: %r" % (field, event)
                )
        spans.append(event)
    # Timestamps and durations are rounded to 3 decimals (nanosecond
    # resolution) independently, so a child's rounded end can poke at
    # most a few ns past its parent's rounded end; the containment
    # check allows that much slack.
    eps = 0.005
    for event in spans:
        depth = event["args"]["depth"]
        if depth == 0:
            continue
        start = event["ts"]
        end = start + event["dur"]
        enclosed = any(
            parent["args"]["depth"] == depth - 1
            and parent["ts"] - eps <= start
            and end <= parent["ts"] + parent["dur"] + eps
            for parent in spans
            if parent is not event
        )
        if not enclosed:
            raise ValueError(
                "span %r at depth %d has no enclosing parent"
                % (event["name"], depth)
            )
