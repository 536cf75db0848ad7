"""pg_stat_statements-style workload statistics.

A bounded registry aggregates every execution on both engines by
*statement*, the way PostgreSQL's ``pg_stat_statements`` does:

* :func:`fingerprint_query` hashes (truncated SHA-256) the canonical
  text of :mod:`repro.query.normalize`, the shape normaliser the
  planners key their plan caches with: constants become ordered ``$n``
  placeholders and variables are renumbered, so literal-renamed queries
  collapse onto one statement.  A planned engine's prepared statement
  computes its pair once, on the tracker's first read.
* :class:`WorkloadTracker` is a bounded LRU registry of
  :class:`StatementStats` keyed by ``(lang, fingerprint)``: calls,
  total/min/max latency, a fixed-boundary latency histogram on the
  shared ``LATENCY_BOUNDARIES``, rows returned, plan-cache hit/miss,
  and worst/mean q-error of the planned executions.  It is the one
  per-statement view of estimate accuracy.  Both engines feed it
  through :func:`repro.obs.report_query` (a no-op ``None`` check when
  no tracker is installed); ``/debug/statements`` and ``/healthz`` read
  it.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict

from .metrics import (
    LATENCY_BOUNDARIES,
    Histogram,
    get_metrics,
    quantiles_from_histogram,
)

__all__ = [
    "StatementStats",
    "WorkloadTracker",
    "fingerprint_query",
    "get_workload",
    "install_workload",
    "plan_cache_stats",
    "register_plan_cache",
    "uninstall_workload",
]

#: How many hex chars of the SHA-256 make a fingerprint.
_FINGERPRINT_LEN = 16


def fingerprint_query(
    lang: str, text: str | None, query=None
) -> tuple[str, str]:
    """``(fingerprint, canonical_text)`` for a query.

    ``query`` is the parsed AST, or the engine's prepared statement
    bound to its parameters (:class:`repro.query.statements.Bound`),
    whose statement computes the pair once; without it the text is
    parsed with the matching parser.  The canonical text comes from the
    planners' own shape normaliser (:mod:`repro.query.normalize`,
    imported lazily: the query packages import ``repro.obs`` at module
    load).
    """
    if hasattr(query, "statement"):  # a prepared statement, bound
        return query.statement.fingerprint
    if lang == "sparql":
        from ..query.normalize import normalize_sparql as normalize
        from ..query.sparql.parser import parse_sparql as parse
    elif lang == "cypher":
        from ..query.cypher.parser import parse_cypher as parse
        from ..query.normalize import normalize_cypher as normalize
    else:
        raise ValueError(f"unknown query language {lang!r}")
    canonical, _ = normalize(parse(text) if query is None else query)
    digest = hashlib.sha256(f"{lang}\n{canonical}".encode("utf-8"))
    return digest.hexdigest()[:_FINGERPRINT_LEN], canonical


class StatementStats:
    """Aggregated execution statistics of one fingerprint."""

    __slots__ = (
        "lang", "fingerprint", "query", "calls", "total_s", "min_s",
        "max_s", "rows_total", "histogram", "cache_hits", "cache_misses",
        "q_error_max", "q_error_sum", "q_error_count",
    )

    def __init__(self, lang: str, fingerprint: str, query: str) -> None:
        self.lang = lang
        self.fingerprint = fingerprint
        self.query = query
        self.calls = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.rows_total = 0
        self.histogram = Histogram(LATENCY_BOUNDARIES)
        self.cache_hits = 0
        self.cache_misses = 0
        self.q_error_max = 0.0
        self.q_error_sum = 0.0
        self.q_error_count = 0

    def observe(
        self,
        duration_s: float,
        rows: int,
        cache_hit: bool | None = None,
        q_error: float | None = None,
    ) -> None:
        self.calls += 1
        self.total_s += duration_s
        self.min_s = min(self.min_s, duration_s)
        self.max_s = max(self.max_s, duration_s)
        self.rows_total += rows
        self.histogram.observe(duration_s)
        if cache_hit is True:
            self.cache_hits += 1
        elif cache_hit is False:
            self.cache_misses += 1
        if q_error is not None:
            self.q_error_max = max(self.q_error_max, q_error)
            self.q_error_sum += q_error
            self.q_error_count += 1

    def snapshot(self) -> dict:
        p50, p95, p99 = quantiles_from_histogram(
            self.histogram, (0.5, 0.95, 0.99)
        )
        q_max = round(self.q_error_max, 3) if self.q_error_count else None
        q_mean = (
            round(self.q_error_sum / self.q_error_count, 3)
            if self.q_error_count
            else None
        )
        return {
            "fingerprint": self.fingerprint,
            "lang": self.lang,
            "query": self.query,
            "calls": self.calls,
            "rows_total": self.rows_total,
            "total_ms": round(self.total_s * 1000.0, 3),
            "mean_ms": round(self.total_s * 1000.0 / self.calls, 3)
            if self.calls
            else 0.0,
            "min_ms": round(self.min_s * 1000.0, 3) if self.calls else 0.0,
            "max_ms": round(self.max_s * 1000.0, 3),
            "p50_ms": round(p50 * 1000.0, 3),
            "p95_ms": round(p95 * 1000.0, 3),
            "p99_ms": round(p99 * 1000.0, 3),
            "plan_cache_hits": self.cache_hits,
            "plan_cache_misses": self.cache_misses,
            "q_error_max": q_max,
            "q_error_mean": q_mean,
        }


class WorkloadTracker:
    """Bounded per-fingerprint statement registry.

    Args:
        capacity: max distinct statements kept (LRU eviction beyond it).
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(1, int(capacity))
        self.evicted = 0
        self.calls = 0
        self._statements: OrderedDict[tuple[str, str], StatementStats]
        self._statements = OrderedDict()
        self._lock = threading.Lock()
        metrics = get_metrics()
        self._m_calls = metrics.counter(
            "repro_statement_calls_total",
            help="statement executions aggregated by the workload tracker",
        )
        self._m_rows = metrics.counter(
            "repro_statement_rows_total",
            help="rows returned by tracked statements",
        )
        self._m_evicted = metrics.counter(
            "repro_statements_evicted_total",
            help="statements evicted from the bounded registry",
        )
        self._m_tracked = metrics.gauge(
            "repro_statements_tracked",
            help="distinct statements currently tracked",
        )

    # -- recording ------------------------------------------------------ #

    def record(
        self,
        lang: str,
        text: str,
        query,
        duration_s: float,
        rows: int,
        cache_hit: bool | None = None,
        q_error: float | None = None,
    ) -> None:
        """Fold one execution into the registry."""
        fingerprint, canonical = fingerprint_query(lang, text, query)
        with self._lock:
            key = (lang, fingerprint)
            stats = self._statements.get(key)
            if stats is None:
                stats = StatementStats(lang, fingerprint, canonical)
                self._statements[key] = stats
                if len(self._statements) > self.capacity:
                    self._statements.popitem(last=False)
                    self.evicted += 1
                    self._m_evicted.inc(1, lang=lang)
            else:
                self._statements.move_to_end(key)
            stats.observe(duration_s, rows, cache_hit, q_error)
            self.calls += 1
            tracked = len(self._statements)
        self._m_calls.inc(1, lang=lang)
        self._m_rows.inc(rows, lang=lang)
        self._m_tracked.set(tracked)

    # -- reading -------------------------------------------------------- #

    def snapshot(self, top: int | None = None, lang: str | None = None) -> list[dict]:
        """Per-statement snapshots, heaviest (total time) first."""
        with self._lock:
            snapshots = [
                stats.snapshot()
                for stats in self._statements.values()
                if lang is None or stats.lang == lang
            ]
        snapshots.sort(key=lambda s: (-s["total_ms"], s["fingerprint"]))
        if top is not None:
            snapshots = snapshots[: max(0, int(top))]
        return snapshots

    def summary(self) -> dict:
        with self._lock:
            return {
                "statements": len(self._statements),
                "calls": self.calls,
                "evicted": self.evicted,
                "capacity": self.capacity,
            }


# --------------------------------------------------------------------- #
# Global tracker (install/uninstall)
# --------------------------------------------------------------------- #

_TRACKER: WorkloadTracker | None = None


def install_workload() -> WorkloadTracker:
    """Install (replacing any previous) the global workload tracker."""
    global _TRACKER
    _TRACKER = WorkloadTracker()
    return _TRACKER


def uninstall_workload() -> None:
    """Remove the global tracker."""
    global _TRACKER
    _TRACKER = None


def get_workload() -> WorkloadTracker | None:
    return _TRACKER


# --------------------------------------------------------------------- #
# Plan-cache registry (for /healthz occupancy and hit-ratio)
# --------------------------------------------------------------------- #

_PLAN_CACHES: list[tuple[str, weakref.ref]] = []
_PLAN_CACHES_LOCK = threading.Lock()


def register_plan_cache(engine: str, cache) -> None:
    """Register a planner's :class:`PlanCache` for healthz aggregation."""
    with _PLAN_CACHES_LOCK:
        _PLAN_CACHES[:] = [
            (name, ref) for name, ref in _PLAN_CACHES if ref() is not None
        ]
        _PLAN_CACHES.append((engine, weakref.ref(cache)))


def plan_cache_stats() -> dict:
    """Aggregated live plan-cache statistics, keyed by engine."""
    engines: dict[str, dict] = {}
    with _PLAN_CACHES_LOCK:
        live = []
        for engine, ref in _PLAN_CACHES:
            cache = ref()
            if cache is None:
                continue
            live.append((engine, ref))
            agg = engines.setdefault(
                engine,
                {"caches": 0, "entries": 0, "capacity": 0,
                 "hits": 0, "misses": 0},
            )
            stats = cache.stats()
            agg["caches"] += 1
            agg["entries"] += stats["entries"]
            agg["capacity"] += stats["maxsize"]
            agg["hits"] += stats["hits"]
            agg["misses"] += stats["misses"]
        _PLAN_CACHES[:] = live
    for agg in engines.values():
        lookups = agg["hits"] + agg["misses"]
        agg["hit_ratio"] = (
            round(agg["hits"] / lookups, 4) if lookups else None
        )
        agg["occupancy"] = (
            round(agg["entries"] / agg["capacity"], 4)
            if agg["capacity"]
            else 0.0
        )
    return engines
