"""Tracer unit tests: nesting, attributes, errors, threads."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs import Span, Tracer


def _by_name(tracer: Tracer) -> dict[str, Span]:
    spans = {}
    for span in tracer.finished():
        assert span.name not in spans, "helper expects unique names"
        spans[span.name] = span
    return spans


class TestNesting:
    def test_child_parents_on_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        spans = _by_name(tracer)
        assert spans["first"].parent_id == spans["outer"].span_id
        assert spans["second"].parent_id == spans["outer"].span_id

    def test_finish_order_is_innermost_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished()] == ["inner", "outer"]

    def test_explicit_parent_overrides_contextvar(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with tracer.span("active"):
            with tracer.span("detached", parent=root) as detached:
                assert detached.parent_id == root.span_id

    def test_durations_are_monotonic(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = _by_name(tracer)
        assert spans["outer"].duration_ns >= spans["inner"].duration_ns > 0
        assert spans["outer"].duration_s >= spans["inner"].duration_s


class TestAttributes:
    def test_open_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("work", triples=10) as span:
            span.set("nodes", 4)
        finished = tracer.finished()[0]
        assert finished.attributes == {"triples": 10, "nodes": 4}

    def test_incr_accumulates(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.incr("hits")
            span.incr("hits", 2)
        assert tracer.finished()[0].attributes["hits"] == 3


class TestErrors:
    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        spans = _by_name(tracer)
        assert spans["inner"].status == "error"
        assert spans["inner"].attributes["exception"] == "ValueError"
        assert spans["outer"].status == "error"
        assert spans["inner"].end_ns is not None
        assert spans["outer"].end_ns is not None

    def test_current_span_restored_after_error(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with pytest.raises(RuntimeError):
                with tracer.span("inner"):
                    raise RuntimeError
            assert obs.current_span() is outer
        assert obs.current_span() is None


class TestThreadIsolation:
    def test_threads_do_not_inherit_or_leak_parents(self):
        tracer = Tracer()
        seen: dict[str, str | None] = {}
        barrier = threading.Barrier(2)

        def worker(label: str):
            # A fresh thread starts with no current span...
            seen[f"{label}-before"] = obs.current_span()
            with tracer.span(f"thread.{label}") as span:
                barrier.wait(timeout=5)
                # ...and only ever sees its own span as current.
                seen[label] = obs.current_span().span_id
                assert obs.current_span() is span
                barrier.wait(timeout=5)

        with tracer.span("main"):
            threads = [
                threading.Thread(target=worker, args=(label,))
                for label in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)

        assert seen["a-before"] is None
        assert seen["b-before"] is None
        spans = _by_name(tracer)
        assert seen["a"] == spans["thread.a"].span_id
        assert seen["b"] == spans["thread.b"].span_id
        # Threads opened their spans with no inherited context: roots.
        assert spans["thread.a"].parent_id is None
        assert spans["thread.b"].parent_id is None


class TestModuleApi:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.enabled()
        first = obs.span("anything")
        second = obs.span("else")
        assert first is second  # the singleton no-op context manager
        with first as span:
            span.set("ignored", 1)
            span.incr("ignored")
            assert span.duration_s == 0.0

    def test_configure_enables_and_disable_reverts(self):
        tracer = obs.configure()
        try:
            assert obs.enabled()
            assert obs.get_tracer() is tracer
            with obs.span("work", k=1):
                pass
            assert len(tracer) == 1
        finally:
            obs.disable()
        assert obs.get_tracer() is None

    def test_set_tracer_returns_previous(self):
        first = obs.configure()
        second = Tracer()
        assert obs.set_tracer(second) is first
        assert obs.set_tracer(None) is second

    def test_timed_span_measures_when_disabled(self):
        with obs.timed_span("phase") as span:
            pass
        assert span.end_ns is not None
        assert span.duration_ns > 0
        assert obs.get_tracer() is None  # still unrecorded

    def test_timed_span_records_when_enabled(self):
        tracer = obs.configure()
        with obs.timed_span("phase") as span:
            pass
        assert tracer.finished() == [span]
