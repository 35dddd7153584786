"""Tests for the Chrome trace-event tracer."""

import json

import pytest

from repro.obs import trace
from repro.obs.trace import Tracer, tracing, validate_events


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", detail=3):
            pass
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"]["detail"] == 3
        assert event["args"]["depth"] == 0

    def test_nested_spans_record_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {event["name"]: event for event in tracer.events}
        assert by_name["outer"]["args"]["depth"] == 0
        assert by_name["inner"]["args"]["depth"] == 1
        validate_events(tracer.events)

    def test_write_is_valid_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.json"
        count = tracer.write(str(path))
        assert count == 2
        events = json.loads(path.read_text())
        assert len(events) == 2
        validate_events(events)


class TestModuleLevel:
    def test_span_is_null_when_inactive(self):
        assert trace.active() is None
        with trace.span("ignored"):
            pass  # no tracer: must be a no-op, not an error

    def test_activate_deactivate(self):
        tracer = trace.activate()
        try:
            assert trace.active() is tracer
            with trace.span("seen"):
                pass
        finally:
            assert trace.deactivate() is tracer
        assert trace.active() is None
        assert tracer.events[0]["name"] == "seen"

    def test_tracing_writes_file(self, tmp_path):
        path = tmp_path / "out.json"
        with tracing(str(path)):
            with trace.span("step"):
                pass
        events = json.loads(path.read_text())
        assert [event["name"] for event in events] == ["step"]

    def test_tracing_writes_on_exception(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with tracing(str(path)):
                with trace.span("doomed"):
                    raise RuntimeError("boom")
        events = json.loads(path.read_text())
        assert events and events[0]["name"] == "doomed"


class TestValidation:
    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            validate_events([{"name": "x", "ph": "X"}])

    def test_orphan_depth_rejected(self):
        # A depth-1 span with no enclosing depth-0 span is malformed.
        bad = [
            {
                "name": "floating",
                "ph": "X",
                "ts": 100,
                "dur": 5,
                "pid": 1,
                "tid": 1,
                "args": {"depth": 1},
            }
        ]
        with pytest.raises(ValueError):
            validate_events(bad)

    @pytest.mark.parametrize(
        "event",
        [
            {"name": "mark", "ph": "i", "ts": 1, "pid": 1, "tid": 1},
            {"name": "process_name", "ph": "M", "pid": 1},
        ],
        ids=["instant", "metadata"],
    )
    def test_only_complete_events_are_accepted(self, event):
        # A Tracer writes "X" events only; anything else is not ours.
        with pytest.raises(ValueError, match="unknown event phase"):
            validate_events([event])


class TestCoreSpans:
    def test_minimization_emits_nested_spans(self, tmp_path):
        """A sched run covers schedule, window, sibling and level spans."""
        from repro.bdd.manager import Manager
        from repro.bdd.parser import parse_expression
        from repro.core.registry import minimize

        path = tmp_path / "sched.json"
        with tracing(str(path)):
            manager = Manager()
            f = parse_expression(
                manager, "(a & b) | (c & d) | (e & ~a) | (b & ~d & g)"
            )
            c = parse_expression(manager, "(a | b | c) & (d | e | g)")
            minimize(manager, f, c, method="sched")
        events = json.loads(path.read_text())
        validate_events(events)
        names = {event["name"] for event in events}
        assert "schedule.minimize" in names
        assert "schedule.window" in names
        assert "sibling.pass" in names
        assert "levels.minimize_at_level" in names
        # The heuristic wrapper span appears because tracing is active.
        assert "heuristic.sched" in names
