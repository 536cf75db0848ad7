"""pg_stat_statements-style workload statistics, capture, replay, diff.

The subsystem has three layers, mirroring how PostgreSQL's
``pg_stat_statements`` is used in production:

1. **Fingerprinting** — :func:`fingerprint_query` hashes (truncated
   SHA-256) the canonical text of :mod:`repro.query.normalize`, the
   shape normaliser the planners key their plan caches with: constants
   become ordered ``$n`` placeholders and variables are renumbered, so
   literal-renamed queries collapse onto one *statement*.

2. **Aggregation** — a bounded LRU :class:`WorkloadTracker` registry of
   :class:`StatementStats` keyed by ``(lang, fingerprint)``: calls,
   total/min/max latency, a fixed-boundary latency histogram on the
   shared ``LATENCY_BOUNDARIES``, rows returned, plan-cache hit/miss,
   and worst/mean q-error joined from the planner's ``FeedbackStore``.
   Both engines feed it through the :func:`record_statement` fast-path
   hook (a no-op ``None`` check when no tracker is installed, the same
   pattern as the flight recorder).

3. **Capture & replay** — an installed tracker with a ``log_path``
   appends one JSONL record per (sampled) execution: canonical text,
   parameter renderings, timing, rows, and an order-insensitive
   value-only result hash.  :func:`replay_workload` re-executes a
   captured log against a graph/store by substituting the parameters
   back into the canonical text, verifies bag-identity via the result
   hashes, and emits a per-fingerprint report; :func:`diff_reports`
   compares two such reports and flags latency / q-error regressions.

Because canonical texts must be *re-executable*, the normaliser renders
exactly the fragment the repo's own parsers accept — round-trip
stability (substitute → parse → normalize → same fingerprint) is pinned
by the fuzz oracle in ``tests/obs/test_workload_fuzz.py``.

Known parameterization limit (documented, tested pathological cases
excluded): an IRI whose text contains ``$<digits>`` would collide with a
placeholder during substitution.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import weakref
from collections import OrderedDict
from operator import methodcaller
from pathlib import Path

from ..lexer import resolve
from .metrics import (
    LATENCY_BOUNDARIES,
    Histogram,
    get_metrics,
    quantiles_from_histogram,
)

__all__ = [
    "StatementStats",
    "WorkloadTracker",
    "cypher_result_hash",
    "diff_reports",
    "fingerprint_query",
    "get_workload",
    "install_workload",
    "log_workload_event",
    "plan_cache_stats",
    "read_query_log",
    "record_statement",
    "register_plan_cache",
    "replay_workload",
    "report_from_log",
    "sparql_result_hash",
    "substitute_params",
    "uninstall_workload",
]

#: How many hex chars of the SHA-256 make a fingerprint.
_FINGERPRINT_LEN = 16


# --------------------------------------------------------------------- #
# Fingerprints and parameter substitution
# --------------------------------------------------------------------- #

def fingerprint_query(
    lang: str, text: str, query=None
) -> tuple[str, str, tuple[str, ...]]:
    """``(fingerprint, canonical_text, params)`` for a query.

    ``query`` is the parsed AST, or the engine's prepared statement
    bound to its parameters (:class:`repro.query.statements.Bound`);
    without it the text is parsed with the matching parser.  The
    canonical text comes from the planners' own shape normaliser
    (:mod:`repro.query.normalize`, imported lazily: the query packages
    import ``repro.obs`` at module load).
    """
    if lang == "sparql":
        from ..query.normalize import normalize_sparql as normalize
        from ..query.sparql.parser import parse_sparql as parse

        render = methodcaller("n3")
    elif lang == "cypher":
        from ..query.cypher.parser import parse_cypher as parse
        from ..query.normalize import cypher_value_text as render
        from ..query.normalize import normalize_cypher as normalize
    else:
        raise ValueError(f"unknown query language {lang!r}")
    if hasattr(query, "statement"):  # a prepared statement, bound
        (canonical, lifted), params = query.statement.shape, query.params
    else:
        canonical, lifted = normalize(parse(text) if query is None else query)
        params = ()
    digest = hashlib.sha256(f"{lang}\n{canonical}".encode("utf-8"))
    return digest.hexdigest()[:_FINGERPRINT_LEN], canonical, tuple(
        render(resolve(value, params)) for value in lifted
    )


_PLACEHOLDER_RE = re.compile(r"\$(\d+)")


def substitute_params(canonical: str, params) -> str:
    """Rebuild an executable query from canonical text + parameters."""
    params = list(params)

    def _sub(match) -> str:
        index = int(match.group(1)) - 1
        if index < 0 or index >= len(params):
            raise ValueError(
                f"placeholder ${match.group(1)} out of range "
                f"({len(params)} parameter(s))"
            )
        return params[index]

    return _PLACEHOLDER_RE.sub(_sub, canonical)


# --------------------------------------------------------------------- #
# Result hashing (order-insensitive, values only)
# --------------------------------------------------------------------- #
#
# Column names are excluded on purpose: variable renumbering renames the
# binding keys, so a replayed query returns the same *values* under
# canonical names.  Rows are reduced to sorted value renderings and the
# row hashes sorted, making the hash a bag identity.

def _bag_hash(row_texts) -> str:
    digest = hashlib.sha256()
    for text in sorted(row_texts):
        digest.update(text.encode("utf-8", "replace"))
        digest.update(b"\x00")
    return digest.hexdigest()[:_FINGERPRINT_LEN]


def sparql_result_hash(rows) -> str:
    """Bag hash of SPARQL solutions (term N3 renderings, names ignored)."""
    return _bag_hash(
        "|".join(sorted(term.n3() for term in row.values())) for row in rows
    )


def _cypher_value_id(value) -> str:
    type_name = type(value).__name__
    if type_name == "PGNode":
        iri = value.properties.get("iri") if hasattr(value, "properties") else None
        return f"node:{iri if iri is not None else value.id}"
    if type_name == "PGEdge":
        return f"edge:{value.id}"
    if isinstance(value, list):
        return "[" + ",".join(_cypher_value_id(v) for v in value) + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cypher_result_hash(rows) -> str:
    """Bag hash of Cypher rows (stable value ids, names ignored)."""
    return _bag_hash(
        "|".join(sorted(_cypher_value_id(v) for v in row.values()))
        for row in rows
    )


# --------------------------------------------------------------------- #
# Statement statistics
# --------------------------------------------------------------------- #

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
    """Bounded per-fingerprint statement registry with optional capture.

    Args:
        capacity: max distinct statements kept (LRU eviction beyond it).
        log_path: when given, append one JSONL record per sampled
            execution to this file (the *query log*).
        sample_every: stride sampling for the log — record every Nth
            execution (statistics always see every execution).
    """

    def __init__(
        self,
        capacity: int = 256,
        log_path: str | Path | None = None,
        sample_every: int = 1,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.sample_every = max(1, int(sample_every))
        self.log_path = Path(log_path) if log_path is not None else None
        self.evicted = 0
        self.logged = 0
        self.seq = 0
        self._statements: OrderedDict[tuple[str, str], StatementStats]
        self._statements = OrderedDict()
        self._lock = threading.Lock()
        self._log_file = (
            open(self.log_path, "a", encoding="utf-8")
            if self.log_path is not None
            else None
        )
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
        self._m_logged = metrics.counter(
            "repro_statement_log_records_total",
            help="records appended to the query log",
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
        result_hash=None,
    ) -> None:
        """Fold one execution into the registry (and the query log)."""
        fingerprint, canonical, params = fingerprint_query(lang, text, query)
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
            self.seq += 1
            sampled = (
                self._log_file is not None
                and (self.seq - 1) % self.sample_every == 0
            )
            tracked = len(self._statements)
        self._m_calls.inc(1, lang=lang)
        self._m_rows.inc(rows, lang=lang)
        self._m_tracked.set(tracked)
        if sampled:
            record = {
                "seq": self.seq,
                "lang": lang,
                "fingerprint": fingerprint,
                "query": canonical,
                "params": list(params),
                "duration_ms": round(duration_s * 1000.0, 6),
                "rows": rows,
            }
            if cache_hit is not None:
                record["cache_hit"] = bool(cache_hit)
            if q_error is not None:
                record["q_error"] = round(q_error, 6)
            if callable(result_hash):
                record["result_hash"] = result_hash()
            self._append(record)

    def log_event(self, record: dict) -> None:
        """Append a non-query event (e.g. a CDC revalidation probe)."""
        if self._log_file is None:
            return
        with self._lock:
            self.seq += 1
            record = {"seq": self.seq, **record}
        self._append(record)

    def _append(self, record: dict) -> None:
        with self._lock:
            if self._log_file is None:
                return
            self._log_file.write(json.dumps(record, sort_keys=True) + "\n")
            self._log_file.flush()
            self.logged += 1
        self._m_logged.inc(1, lang=record.get("lang", "event"))

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
                "calls": self.seq,
                "evicted": self.evicted,
                "logged": self.logged,
                "capacity": self.capacity,
            }

    def close(self) -> None:
        with self._lock:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None


# --------------------------------------------------------------------- #
# Global tracker (install/uninstall + fast-path hooks)
# --------------------------------------------------------------------- #

_TRACKER: WorkloadTracker | None = None


def install_workload(
    capacity: int = 256,
    log_path: str | Path | None = None,
    sample_every: int = 1,
) -> WorkloadTracker:
    """Install (replacing any previous) the global workload tracker."""
    global _TRACKER
    if _TRACKER is not None:
        _TRACKER.close()
    _TRACKER = WorkloadTracker(
        capacity=capacity, log_path=log_path, sample_every=sample_every
    )
    return _TRACKER


def uninstall_workload() -> None:
    """Remove the global tracker (closing its query log, if any)."""
    global _TRACKER
    if _TRACKER is not None:
        _TRACKER.close()
        _TRACKER = None


def get_workload() -> WorkloadTracker | None:
    return _TRACKER


def record_statement(
    lang: str,
    text: str,
    query,
    duration_s: float,
    rows: int,
    cache_hit: bool | None = None,
    q_error: float | None = None,
    result_hash=None,
) -> None:
    """Engine hook: a no-op unless a tracker is installed."""
    tracker = _TRACKER
    if tracker is None:
        return
    tracker.record(
        lang, text, query, duration_s, rows,
        cache_hit=cache_hit, q_error=q_error, result_hash=result_hash,
    )


def log_workload_event(record: dict) -> None:
    """Event hook (CDC revalidation probes): no-op unless capturing."""
    tracker = _TRACKER
    if tracker is None:
        return
    tracker.log_event(record)


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


# --------------------------------------------------------------------- #
# Query-log IO, offline reports, replay, diff
# --------------------------------------------------------------------- #

def read_query_log(path: str | Path) -> list[dict]:
    """Parse a JSONL query log; malformed lines raise ``ValueError``."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: malformed query-log record: {error}"
                ) from error
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{number}: query-log record is not an object"
                )
            records.append(record)
    return records


def report_from_log(records, source: str = "") -> dict:
    """Aggregate captured records offline into a workload report."""
    stats: dict[tuple[str, str], StatementStats] = {}
    events = 0
    for record in records:
        lang = record.get("lang")
        if lang not in ("sparql", "cypher"):
            events += 1
            continue
        fingerprint = record.get("fingerprint", "")
        key = (lang, fingerprint)
        entry = stats.get(key)
        if entry is None:
            entry = StatementStats(lang, fingerprint, record.get("query", ""))
            stats[key] = entry
        entry.observe(
            float(record.get("duration_ms", 0.0)) / 1000.0,
            int(record.get("rows", 0)),
            record.get("cache_hit"),
            record.get("q_error"),
        )
    statements = [entry.snapshot() for entry in stats.values()]
    statements.sort(key=lambda s: (-s["total_ms"], s["fingerprint"]))
    return {
        "kind": "workload-report",
        "source": str(source),
        "records": len(records),
        "events": events,
        "statements": statements,
    }


def replay_workload(
    records,
    graph=None,
    store=None,
    repeat: int = 1,
    source: str = "",
) -> dict:
    """Re-execute a captured workload and report per-fingerprint stats.

    SPARQL records run against ``graph``; Cypher records against
    ``store``.  Each record's canonical text is rebuilt with its logged
    parameters, executed ``repeat`` times, and — when the record
    carries a ``result_hash`` — checked for bag-identity against the
    capture.  The replay installs its own tracker for the duration (the
    previously installed one, if any, is restored afterwards).
    """
    global _TRACKER
    repeat = max(1, int(repeat))
    previous = _TRACKER
    tracker = WorkloadTracker(capacity=4096)
    _TRACKER = tracker
    sparql_engine = None
    cypher_engine = None
    replayed = skipped = mismatches = 0
    verified: dict[str, list[int]] = {}
    try:
        for record in records:
            lang = record.get("lang")
            if lang == "sparql":
                if graph is None:
                    raise ValueError(
                        "query log contains SPARQL records but no graph "
                        "was provided"
                    )
                if sparql_engine is None:
                    from ..query.sparql.evaluator import SparqlEngine

                    sparql_engine = SparqlEngine(graph)
                engine = sparql_engine
                hasher = sparql_result_hash
            elif lang == "cypher":
                if store is None:
                    raise ValueError(
                        "query log contains Cypher records but no property "
                        "graph store was provided (transform the data first)"
                    )
                if cypher_engine is None:
                    from ..query.cypher.evaluator import CypherEngine

                    cypher_engine = CypherEngine(store)
                engine = cypher_engine
                hasher = cypher_result_hash
            else:
                skipped += 1
                continue
            text = substitute_params(
                record["query"], record.get("params", ())
            )
            for _ in range(repeat):
                rows = engine.query(text)
            replayed += 1
            expected = record.get("result_hash")
            if expected is not None:
                counts = verified.setdefault(record["fingerprint"], [0, 0])
                counts[0] += 1
                if hasher(rows) != expected:
                    counts[1] += 1
                    mismatches += 1
    finally:
        _TRACKER = previous
    statements = tracker.snapshot()
    for statement in statements:
        counts = verified.get(statement["fingerprint"])
        statement["bag_identical"] = (
            None if counts is None else counts[1] == 0
        )
    return {
        "kind": "workload-report",
        "source": str(source),
        "records": len(records),
        "replayed": replayed,
        "repeat": repeat,
        "skipped": skipped,
        "mismatches": mismatches,
        "statements": statements,
    }


def diff_reports(
    baseline: dict,
    current: dict,
    latency_ratio: float = 1.5,
    q_error_ratio: float = 2.0,
    min_ms: float = 0.1,
) -> dict:
    """Compare two workload reports, flagging per-fingerprint regressions.

    A statement regresses on latency when its mean latency grew by more
    than ``latency_ratio``× *and* the current mean exceeds ``min_ms``
    (absolute floor against timer noise on micro-queries), and on
    q-error when its worst q-error grew by more than ``q_error_ratio``×.
    """
    base = {s["fingerprint"]: s for s in baseline.get("statements", ())}
    cur = {s["fingerprint"]: s for s in current.get("statements", ())}
    statements: list[dict] = []
    regressed = added = removed = 0
    for fingerprint in sorted(set(base) | set(cur)):
        b, c = base.get(fingerprint), cur.get(fingerprint)
        entry = {
            "fingerprint": fingerprint,
            "lang": (c or b)["lang"],
            "query": (c or b)["query"],
        }
        if c is None:
            entry["status"] = "removed"
            entry["baseline_mean_ms"] = b["mean_ms"]
            removed += 1
        elif b is None:
            entry["status"] = "added"
            entry["current_mean_ms"] = c["mean_ms"]
            added += 1
        else:
            flags = []
            ratio = (
                round(c["mean_ms"] / b["mean_ms"], 3)
                if b["mean_ms"] > 0
                else None
            )
            if (
                ratio is not None
                and ratio > latency_ratio
                and c["mean_ms"] >= min_ms
            ):
                flags.append("latency")
            bq, cq = b.get("q_error_max"), c.get("q_error_max")
            if bq and cq and cq > bq * q_error_ratio:
                flags.append("q_error")
            entry.update(
                status="regressed" if flags else "ok",
                flags=flags,
                baseline_mean_ms=b["mean_ms"],
                current_mean_ms=c["mean_ms"],
                latency_ratio=ratio,
                baseline_q_error=bq,
                current_q_error=cq,
            )
            if flags:
                regressed += 1
        statements.append(entry)
    order = {"regressed": 0, "added": 1, "removed": 2, "ok": 3}
    statements.sort(key=lambda s: (order[s["status"]], s["fingerprint"]))
    return {
        "kind": "workload-diff",
        "thresholds": {
            "latency_ratio": latency_ratio,
            "q_error_ratio": q_error_ratio,
            "min_ms": min_ms,
        },
        "compared": len(statements),
        "regressed": regressed,
        "added": added,
        "removed": removed,
        "statements": statements,
    }
