"""The flight recorder: bounded rings, slow-op capture, install hooks."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.recorder import FlightRecorder


# --------------------------------------------------------------------- #
# Ring bounds
# --------------------------------------------------------------------- #

def test_span_ring_is_bounded():
    recorder = obs.install_recorder(span_capacity=8)
    for i in range(50):
        with obs.span(f"op.{i}"):
            pass
    assert len(recorder.tracer) == 8
    names = [record["name"] for record in recorder.recent_spans()]
    assert names == [f"op.{i}" for i in range(42, 50)]  # newest retained


def test_recent_spans_limit():
    recorder = obs.install_recorder(span_capacity=32)
    for i in range(10):
        with obs.span(f"op.{i}"):
            pass
    tail = recorder.recent_spans(limit=3)
    assert [record["name"] for record in tail] == ["op.7", "op.8", "op.9"]


def test_slow_log_is_bounded():
    recorder = FlightRecorder(slow_threshold_ms=0.0, slow_capacity=4)
    for i in range(20):
        recorder.observe("query", f"q{i}", duration_s=0.001)
    slow = recorder.slow()
    assert len(slow) == 4
    assert [record["name"] for record in slow] == ["q16", "q17", "q18", "q19"]
    # Sequence numbers keep counting even though old records dropped.
    assert slow[-1]["seq"] == 20


# --------------------------------------------------------------------- #
# Slow-op capture
# --------------------------------------------------------------------- #

def test_threshold_gates_capture():
    recorder = FlightRecorder(slow_threshold_ms=50.0)
    assert recorder.observe("query", "fast", duration_s=0.01) is None
    record = recorder.observe("query", "slow", duration_s=0.2)
    assert record is not None
    assert record["duration_ms"] == pytest.approx(200.0)
    assert [r["name"] for r in recorder.slow()] == ["slow"]


def test_plan_capture_is_lazy():
    recorder = FlightRecorder(slow_threshold_ms=50.0)
    calls = []

    def plan():
        calls.append(1)
        return {"op": "Scan"}

    recorder.observe("query", "fast", duration_s=0.01, plan=plan)
    assert calls == []  # fast ops never pay for explain assembly
    record = recorder.observe("query", "slow", duration_s=0.1, plan=plan)
    assert calls == [1]
    assert record["plan"] == {"op": "Scan"}


def test_plan_capture_failure_never_fails_the_op():
    recorder = FlightRecorder(slow_threshold_ms=0.0)

    def broken():
        raise RuntimeError("no plan here")

    record = recorder.observe("query", "q", duration_s=0.1, plan=broken)
    assert "plan" not in record
    assert record["plan_error"] == "RuntimeError: no plan here"


def test_slow_capture_increments_counter():
    obs.install_recorder(slow_threshold_ms=0.0)
    obs.report_query("sparql", "SELECT 1", None, 0.01, rows=1)
    obs.record_op("cdc.batch", "batch@7", 0.01, detail={"size": 3})
    exposition = obs.get_metrics().to_prometheus()
    assert 'repro_slow_ops_total{kind="query"} 1' in exposition
    assert 'repro_slow_ops_total{kind="cdc.batch"} 1' in exposition
    slow = obs.get_recorder().slow()
    assert {record["kind"] for record in slow} == {"query", "cdc.batch"}
    assert slow[1]["size"] == 3  # detail merged into the record


# --------------------------------------------------------------------- #
# Module-level hooks + install semantics
# --------------------------------------------------------------------- #

def test_hooks_are_noops_without_recorder():
    assert obs.get_recorder() is None
    obs.record_op("cdc.batch", "batch@1", 10.0)
    assert obs.get_metrics().snapshot() == {}
    # A query's report still writes its own families, but no slow op.
    obs.report_query("sparql", "SELECT 1", None, 10.0, rows=0)
    assert obs.get_recorder() is None
    assert sorted(obs.get_metrics().snapshot()) == [
        "repro_query_latency_seconds", "repro_query_runs_total",
    ]


def test_install_is_idempotent_and_uninstall_restores():
    first = obs.install_recorder(span_capacity=16)
    second = obs.install_recorder(span_capacity=999)
    assert second is first  # already installed: parameters ignored
    assert obs.get_tracer() is first.tracer
    obs.uninstall_recorder()
    assert obs.get_recorder() is None
    assert obs.get_tracer() is None


def test_install_respects_existing_tracer():
    obs.configure()  # an explicit --trace style unbounded tracer
    existing = obs.get_tracer()
    recorder = obs.install_recorder()
    assert obs.get_tracer() is existing  # recorder did not displace it
    assert recorder.tracer is not existing
    obs.uninstall_recorder()
    assert obs.get_tracer() is existing  # and uninstall leaves it alone


def test_install_preregisters_promised_families():
    obs.install_recorder()
    exposition = obs.get_metrics().to_prometheus()
    for family in (
        "repro_query_runs_total",
        "repro_query_latency_seconds",
        "repro_slow_ops_total",
        "repro_plan_q_error",
    ):
        assert f"# TYPE {family}" in exposition, family


def test_snapshot_reports_occupancy():
    recorder = obs.install_recorder(
        span_capacity=4, slow_threshold_ms=0.0, slow_capacity=2
    )
    with obs.span("one"):
        pass
    obs.report_query("sparql", "SELECT 1", None, 0.01, rows=1)
    snapshot = recorder.snapshot()
    assert snapshot["span_capacity"] == 4
    assert snapshot["spans_buffered"] == 1
    assert snapshot["slow_capacity"] == 2
    assert snapshot["slow_captured"] == 1
    assert snapshot["slow_threshold_ms"] == 0.0
    assert snapshot["started_unix_ms"] > 0
