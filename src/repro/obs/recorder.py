"""The flight recorder, and the one report every query makes.

A :class:`FlightRecorder` owns two ring buffers sized for an always-on
service:

* a **span ring** — a :class:`~repro.obs.tracer.Tracer` bounded to the
  most recent ``span_capacity`` spans, installed as the global tracer
  so every existing instrument point feeds it; and
* a **slow-op log** — any observed operation (query, CDC batch) slower
  than ``slow_threshold_ms`` is captured with its metadata, including
  the full plan with actuals for queries.  Plan capture is *lazy*: the
  instrument points pass a zero-argument callable that is only invoked
  when the operation actually crossed the threshold, so fast operations
  never pay for explain assembly.

:func:`report_query` is the one record of a finished query on either
engine: it writes every per-query metric and feeds the slow-op log and
the workload tracker.  :func:`record_op` feeds the CDC batches to the
slow-op log.  Both are called unconditionally; with no recorder or
tracker installed those feeds are a single attribute check, keeping the
disabled path within the overhead budget pinned by
``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from collections.abc import Callable

from .metrics import LATENCY_BOUNDARIES, Q_ERROR_BOUNDARIES, get_metrics
from .tracer import Tracer, get_tracer, set_tracer
from .workload import get_workload

__all__ = [
    "FlightRecorder",
    "get_recorder",
    "install_recorder",
    "record_op",
    "report_query",
    "uninstall_recorder",
]


class FlightRecorder:
    """Bounded recent-history diagnostics for a long-running process.

    Args:
        span_capacity: how many recent spans the span ring retains.
        slow_threshold_ms: operations at or above this latency are
            captured in the slow-op log (0 captures everything).
        slow_capacity: how many slow operations the log retains.
    """

    def __init__(
        self,
        span_capacity: int = 4096,
        slow_threshold_ms: float = 100.0,
        slow_capacity: int = 64,
    ):
        self.span_capacity = span_capacity
        self.slow_threshold_ms = slow_threshold_ms
        self.slow_capacity = slow_capacity
        self.started_ns = time.time_ns()
        #: The bounded tracer backing ``/debug/trace``.
        self.tracer = Tracer(max_spans=span_capacity)
        self._slow: deque[dict] = deque(maxlen=slow_capacity)
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def observe(
        self,
        kind: str,
        name: str,
        duration_s: float,
        detail: dict | None = None,
        plan: Callable[[], object] | None = None,
    ) -> dict | None:
        """Record one finished operation; capture it if it was slow.

        ``plan`` is a lazy callable producing a JSON-friendly plan
        snapshot — only invoked when the operation crosses the slow
        threshold.  Returns the captured record, or None for fast ops.
        """
        duration_ms = duration_s * 1000.0
        if duration_ms < self.slow_threshold_ms:
            return None
        record: dict = {
            "seq": next(self._seq),
            "kind": kind,
            "name": name,
            "duration_ms": round(duration_ms, 3),
            "unix_ms": time.time_ns() // 1_000_000,
        }
        if detail:
            record.update(detail)
        if plan is not None:
            try:
                record["plan"] = plan()
            except Exception as exc:  # capture must never fail the op
                record["plan_error"] = f"{type(exc).__name__}: {exc}"
        with self._lock:
            self._slow.append(record)
        _family(get_metrics(), "repro_slow_ops_total").inc(1, kind=kind)
        return record

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def slow(self) -> list[dict]:
        """The slow-op log, oldest first."""
        with self._lock:
            return list(self._slow)

    def recent_spans(self, limit: int | None = None) -> list[dict]:
        """The most recent spans of the ring, as dicts, oldest first."""
        spans = self.tracer.serialized()
        if limit is not None:
            spans = spans[-limit:]
        return spans

    def snapshot(self) -> dict:
        """Recorder configuration + occupancy (for ``/healthz``)."""
        with self._lock:
            slow_len = len(self._slow)
        return {
            "span_capacity": self.span_capacity,
            "spans_buffered": len(self.tracer),
            "slow_threshold_ms": self.slow_threshold_ms,
            "slow_capacity": self.slow_capacity,
            "slow_captured": slow_len,
            "started_unix_ms": self.started_ns // 1_000_000,
        }


# --------------------------------------------------------------------- #
# Process-global recorder + fast-path hooks
# --------------------------------------------------------------------- #

_RECORDER: FlightRecorder | None = None


def install_recorder(
    span_capacity: int = 4096,
    slow_threshold_ms: float = 100.0,
    slow_capacity: int = 64,
) -> FlightRecorder:
    """Install the process-global flight recorder (idempotent).

    The recorder's bounded tracer becomes the global tracer *unless*
    one is already configured (an explicit ``--trace`` run keeps its
    unbounded tracer; the recorder then only maintains the slow-op
    log).  Metric families that the ops endpoint promises are
    pre-registered so a scrape before the first query still shows them.
    """
    global _RECORDER
    if _RECORDER is not None:
        return _RECORDER
    _RECORDER = FlightRecorder(
        span_capacity=span_capacity,
        slow_threshold_ms=slow_threshold_ms,
        slow_capacity=slow_capacity,
    )
    if get_tracer() is None:
        set_tracer(_RECORDER.tracer)
    metrics = get_metrics()
    for name in (
        "repro_query_runs_total", "repro_query_latency_seconds",
        "repro_slow_ops_total", "repro_plan_q_error",
    ):
        _family(metrics, name)
    return _RECORDER


def uninstall_recorder() -> None:
    """Remove the global recorder (and its tracer, if installed)."""
    global _RECORDER
    if _RECORDER is None:
        return
    if get_tracer() is _RECORDER.tracer:
        set_tracer(None)
    _RECORDER = None


def get_recorder() -> FlightRecorder | None:
    """The global flight recorder, or None when not installed."""
    return _RECORDER


def record_op(
    kind: str,
    name: str,
    duration_s: float,
    detail: dict | None = None,
    plan: Callable[[], object] | None = None,
) -> None:
    """Feed one finished operation to the recorder (no-op when absent)."""
    recorder = _RECORDER
    if recorder is None:
        return
    recorder.observe(kind, name, duration_s, detail=detail, plan=plan)


# --------------------------------------------------------------------- #
# The per-query report
# --------------------------------------------------------------------- #

#: The families a query's report (and the slow-op log) write:
#: name -> (help, histogram boundaries, or None for a counter).
_FAMILIES = {
    "repro_query_runs_total": ("query engine invocations", None),
    "repro_query_latency_seconds": (
        "end-to-end query evaluation latency", LATENCY_BOUNDARIES
    ),
    "repro_plan_cache_total": ("plan cache lookups", None),
    "repro_plan_operator_rows_total": ("rows produced by physical plan operators", None),
    "repro_plan_q_error": ("per-plan worst cardinality q-error", Q_ERROR_BOUNDARIES),
    "repro_cypher_expansions_total": ("edges considered by pattern expansion", None),
    "repro_cypher_rows_total": ("result rows produced", None),
    "repro_sparql_pattern_matches_total": (
        "bindings yielded by triple-pattern matches", None
    ),
    "repro_slow_ops_total": ("operations captured by the slow-op log", None),
}


def _family(metrics, name: str):
    help, boundaries = _FAMILIES[name]
    if boundaries is None:
        return metrics.counter(name, help=help)
    return metrics.histogram(name, boundaries=boundaries, help=help)


_BOUND: dict[tuple, tuple] = {}


def _child(metrics, name: str, **labels):
    """The child of ``name`` for ``labels``, bound once per registry."""
    family = _family(metrics, name)
    key = (name, *labels.values())
    bound = _BOUND.get(key)
    if bound is None or bound[0] is not family:
        bound = _BOUND[key] = (family, family.labels(**labels))
    return bound[1]


def _count_execution(metrics, lang: str, execution) -> None:
    """One planned execution's plan-cache lookup, operator rows and
    q-error; the lookup and row children are bound once per plan."""
    family, plan = _family(metrics, "repro_plan_operator_rows_total"), execution.plan
    if plan.row_counters is None or plan.row_counters[0] is not family:
        lookups = _family(metrics, "repro_plan_cache_total")
        plan.row_counters = (
            family,
            [family.labels(lang=lang, op=op.op) for op in plan.ops],
            [lookups.labels(engine=lang, result=r) for r in ("miss", "hit")],
        )
    _, rows, lookups = plan.row_counters
    lookups[execution.hit].inc()
    for child, actual in zip(rows, execution.rows):
        child.inc(actual)
    if execution.worst is not None:
        _child(metrics, "repro_plan_q_error", engine=lang).observe(execution.worst)


def report_query(
    lang: str,
    text: str,
    statement,
    duration_s: float,
    rows: int,
    executions=(),
    plan: Callable[[], object] | None = None,
    counters: dict | None = None,
) -> None:
    """Report one finished query: the only writer of per-query metrics.

    Both engines' ``query()`` and ``explain()`` call this once, with one
    record: the language, the text, the prepared statement (or parsed
    query) the tracker fingerprints, the wall time, the row count, the
    planner's :class:`~repro.query.plan.operator.Execution` records (one
    per planned BGP or MATCH clause), a lazy plan builder for the
    slow-op log, and the engine's counters as ``{name: amount}`` (written
    to the label-less ``repro_<lang>_<name>_total``).  A statement is a
    plan-cache hit when every execution hit, and its q-error is the
    worst across them.
    """
    metrics = get_metrics()
    _child(metrics, "repro_query_runs_total", lang=lang).inc()
    _child(metrics, "repro_query_latency_seconds", lang=lang).observe(duration_s)
    for name, amount in (counters or {}).items():
        _child(metrics, f"repro_{lang}_{name}_total").inc(amount)
    for execution in executions:
        _count_execution(metrics, lang, execution)
    recorder = _RECORDER
    if recorder is not None:
        recorder.observe(
            "query", text, duration_s, detail={"lang": lang, "rows": rows},
            plan=plan,
        )
    tracker = get_workload()
    if tracker is not None:
        worst = [e.worst for e in executions if e.worst is not None]
        tracker.record(
            lang, text, statement, duration_s, rows,
            cache_hit=all(e.hit for e in executions) if executions else None,
            q_error=max(worst, default=None),
        )
