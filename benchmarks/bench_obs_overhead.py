"""Overhead of the observability layer (the zero-cost-when-disabled claim).

The :mod:`repro.obs` instrumentation in the hot paths is guarded by a
module-level tracer check: with no tracer configured, ``obs.span`` hands
back a shared no-op context manager and the query engines skip their
stats collection entirely.  This bench pins that property down two ways:

* a micro-benchmark of the disabled ``obs.span`` call itself, asserting
  the per-call cost times a generous span count stays under 5% of the
  serial transform's wall time,
* an A/B of the serial transform with tracing off vs. on, reported (but
  not asserted — wall-clock A/Bs at this scale are noise-dominated), and
* the same per-call budget argument with the **flight recorder**
  installed: bounded span ring + the one per-query report
  (``obs.report_query``) must also land under 5%, and the ring must stay
  at its capacity bound, and
* the report of a planned query with the **workload tracker**
  installed, under the same budget.
"""

from __future__ import annotations

import time

from conftest import write_json_result, write_result

from repro import obs
from repro.core.pipeline import S3PG
from repro.eval import render_table

#: A traced serial transform emits well under this many spans.
SPAN_BUDGET = 100

#: The satellite requirement: disabled tracing must cost < 5%.
MAX_OVERHEAD = 0.05


def _transform_seconds(bundle) -> float:
    start = time.perf_counter()
    S3PG().transform(bundle.graph, bundle.shapes)
    return time.perf_counter() - start


def test_disabled_span_is_noop(dbpedia2022_bundle):
    """Per-call cost of a disabled span, scaled to a whole run's spans."""
    assert not obs.enabled()

    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        with obs.span("bench.noop"):
            pass
    per_call = (time.perf_counter() - start) / calls

    transform_s = min(
        _transform_seconds(dbpedia2022_bundle) for _ in range(3)
    )
    overhead = per_call * SPAN_BUDGET / transform_s
    rows = [{
        "noop_span_ns": round(per_call * 1e9, 1),
        "span_budget": SPAN_BUDGET,
        "transform_s": round(transform_s, 4),
        "overhead_pct": round(overhead * 100, 4),
    }]
    write_result("obs_overhead.txt", render_table(
        rows, title="Disabled-tracing overhead (serial transform)"
    ))
    write_json_result("obs_overhead", rows)
    assert overhead < MAX_OVERHEAD, (
        f"disabled obs.span costs {overhead:.2%} of a serial transform"
    )


def test_traced_vs_untraced_transform(dbpedia2022_bundle):
    """Report the wall-time A/B; tracing on must still finish sanely."""
    untraced = min(_transform_seconds(dbpedia2022_bundle) for _ in range(3))

    obs.configure()
    try:
        traced = min(_transform_seconds(dbpedia2022_bundle) for _ in range(3))
        spans = len(obs.get_tracer())
    finally:
        obs.disable()
        obs.get_metrics().reset()

    write_json_result(
        "obs_overhead_ab",
        [{
            "untraced_s": round(untraced, 4),
            "traced_s": round(traced, 4),
            "spans": spans,
        }],
    )
    assert spans > 0
    assert spans <= SPAN_BUDGET


def test_recorder_overhead(dbpedia2022_bundle):
    """Flight-recorder-enabled instrumentation must stay under 5%.

    The recorder path is costlier than disabled tracing: every span
    lands in the bounded ring and every finished query pays its report:
    the per-query metrics and the slow-op threshold check.  Both
    per-call costs, scaled by
    the span budget, must still fit the same 5% envelope — and the span
    ring must honour its capacity bound no matter how many spans flow
    through it.
    """
    assert not obs.enabled()
    transform_s = min(_transform_seconds(dbpedia2022_bundle) for _ in range(3))

    calls = 100_000
    recorder = obs.install_recorder(span_capacity=1024, slow_threshold_ms=100.0)
    try:
        assert obs.enabled()  # the recorder's bounded tracer is live

        start = time.perf_counter()
        for _ in range(calls):
            with obs.span("bench.recorded"):
                pass
        per_span = (time.perf_counter() - start) / calls

        start = time.perf_counter()
        for _ in range(calls):
            # Fast path: below the slow threshold, so no capture.
            obs.report_query("sparql", "SELECT 1", None, 0.0001, 1)
        per_record = (time.perf_counter() - start) / calls

        # The ring is bounded: 100k spans flowed, at most 1024 retained.
        assert len(recorder.tracer) <= recorder.span_capacity
        assert len(recorder.slow()) == 0  # nothing crossed the threshold

        overhead = (per_span + per_record) * SPAN_BUDGET / transform_s
        rows = [{
            "recorded_span_ns": round(per_span * 1e9, 1),
            "report_query_ns": round(per_record * 1e9, 1),
            "span_budget": SPAN_BUDGET,
            "spans_buffered": len(recorder.tracer),
            "span_capacity": recorder.span_capacity,
            "transform_s": round(transform_s, 4),
            "overhead_pct": round(overhead * 100, 4),
        }]
        write_result("obs_overhead_recorder.txt", render_table(
            rows, title="Flight-recorder overhead (serial transform)"
        ))
        write_json_result("obs_overhead_recorder", rows)
        assert overhead < MAX_OVERHEAD, (
            f"flight recorder costs {overhead:.2%} of a serial transform"
        )
    finally:
        obs.uninstall_recorder()
        obs.get_metrics().reset()
    assert not obs.enabled()


def test_statements_tracking_overhead(dbpedia2022_bundle):
    """Workload statement tracking must also fit the 5% envelope.

    Per the same budget argument: the per-call cost of
    ``obs.report_query`` for a planned query, with the record its
    engine passes — its metrics (runs, latency, plan-cache lookup,
    operator rows, q-error), then the prepared statement's cached
    fingerprint and the per-statement aggregate — scaled by the span
    budget must stay under 5% of a serial transform.  Without a tracker
    the report writes the metrics alone.  A ``planner=False`` engine
    passes the parsed query, which is fingerprinted on every call; that
    cost is reported alongside, not gated.
    """
    from repro.datasets.university import university_graph
    from repro.query.sparql import SparqlEngine
    from repro.query.sparql.parser import parse_sparql

    transform_s = min(_transform_seconds(dbpedia2022_bundle) for _ in range(3))

    text = (
        "SELECT ?s ?name WHERE { "
        "?s a <http://example.org/university#Student> . "
        "?s <http://example.org/university#name> ?name }"
    )
    engine = SparqlEngine(university_graph())
    engine.query(text)
    statement = engine.statements.prepare(text)
    executions = engine.planner.last_executions
    calls = 20_000

    def per_call(query) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            obs.report_query("sparql", text, query, 0.001, 10, executions)
        return (time.perf_counter() - start) / calls

    # No tracker: the metrics and a None check.
    assert obs.get_workload() is None
    per_disabled = per_call(statement)

    obs.install_workload()
    try:
        per_enabled = per_call(statement)
        per_parsed = per_call(parse_sparql(text))
    finally:
        obs.uninstall_workload()
        obs.get_metrics().reset()

    overhead = per_enabled * SPAN_BUDGET / transform_s
    rows = [{
        "disabled_hook_ns": round(per_disabled * 1e9, 1),
        "report_query_ns": round(per_enabled * 1e9, 1),
        "report_parsed_query_ns": round(per_parsed * 1e9, 1),
        "span_budget": SPAN_BUDGET,
        "transform_s": round(transform_s, 4),
        "overhead_pct": round(overhead * 100, 4),
    }]
    write_result("obs_overhead_statements.txt", render_table(
        rows, title="Statement-tracking overhead (serial transform)"
    ))
    write_json_result("obs_overhead_statements", rows)
    assert overhead < MAX_OVERHEAD, (
        f"statement tracking costs {overhead:.2%} of a serial transform"
    )
