"""Unified observability: hierarchical tracing + a metrics registry.

One layer serves every subsystem — the transformation pipeline, the
SHACL validator, the CDC service and both query engines — replacing the
per-module timing silos that existed before.  The two halves:

* :mod:`repro.obs.tracer` — contextvar-propagated spans with per-span
  attributes/counters, zero-cost when no tracer is configured;
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-boundary
  histograms with Prometheus text exposition.

Exporters (:mod:`repro.obs.export`) write JSON-lines, Chrome
trace-event, and Prometheus artifacts; :mod:`repro.obs.profile` turns a
span list into a top-N self-time table.  The ``--trace`` / ``--metrics``
CLI flags and the ``repro profile`` subcommand are the user-facing
entry points.
"""

from .export import (
    spans_to_chrome_trace,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
    write_trace,
)
from .metrics import (
    DEFAULT_BOUNDARIES,
    LATENCY_BOUNDARIES,
    Q_ERROR_BOUNDARIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    histogram_from_samples,
    quantiles_from_histogram,
)
from .profile import SelfTimeRow, aggregate_self_times, render_profile
from .recorder import (
    FlightRecorder,
    get_recorder,
    install_recorder,
    record_op,
    report_query,
    uninstall_recorder,
)
from .server import OpsServer
from .workload import (
    StatementStats,
    WorkloadTracker,
    fingerprint_query,
    get_workload,
    install_workload,
    plan_cache_stats,
    register_plan_cache,
    uninstall_workload,
)
from .tracer import (
    Span,
    Tracer,
    configure,
    current_span,
    disable,
    enabled,
    get_tracer,
    set_tracer,
    span,
    timed_span,
)

__all__ = [
    "Counter",
    "DEFAULT_BOUNDARIES",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDARIES",
    "MetricsRegistry",
    "OpsServer",
    "Q_ERROR_BOUNDARIES",
    "SelfTimeRow",
    "Span",
    "StatementStats",
    "Tracer",
    "WorkloadTracker",
    "aggregate_self_times",
    "configure",
    "current_span",
    "disable",
    "enabled",
    "fingerprint_query",
    "get_metrics",
    "get_recorder",
    "get_tracer",
    "get_workload",
    "histogram_from_samples",
    "install_recorder",
    "install_workload",
    "plan_cache_stats",
    "quantiles_from_histogram",
    "record_op",
    "register_plan_cache",
    "render_profile",
    "report_query",
    "set_tracer",
    "span",
    "spans_to_chrome_trace",
    "spans_to_jsonl",
    "timed_span",
    "uninstall_recorder",
    "uninstall_workload",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
    "write_trace",
]
