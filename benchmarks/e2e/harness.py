"""Shared plumbing of the end-to-end benchmark.

Four things live here, all free of ``repro`` imports so that the parent
process can use them before the library is on ``sys.path``:

* :class:`Tracer` / :class:`NullTracer` — the harness-side span recorder.
  Workloads call every layer entry point through ``tracer.call(name, fn,
  ...)``; the untraced run gets a :class:`NullTracer` whose ``call`` is a
  plain function call, so end-to-end numbers carry no span bookkeeping.
* :class:`Ops` — attempted/failed operation accounting.  A check that
  fails or an operation that raises marks that operation failed; nothing
  is swallowed silently (the message is kept for the report).
* Small statistics helpers: median, a percentile that refuses to report
  a tail with fewer than ten samples beyond it, and the time-budget loop.
* :func:`validate` — the subset of JSON Schema that ``schema.json`` uses.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import statistics
import time
import traceback
from pathlib import Path

#: Directory of the benchmark (``benchmarks/e2e``) and of the checkout.
HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

#: Fresh workload processes per untraced run (set-up is timed in each).
PROCESSES = 3
#: cdc_stream: deltas each process applies before sampling starts.
CDC_WARMUP = 5

#: The five workloads, in the order ``run.py`` runs them.
WORKLOADS = ("bulk_migrate", "query_join", "query_scan", "query_point",
             "cdc_stream")


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #

class NullTracer:
    """The untraced run's tracer: every call goes straight through."""

    enabled = False
    round_id = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name):
        yield


class Tracer:
    """In-memory span recorder (name, start, end, parent, round id).

    Spans nest by call order: the span open when ``call`` is entered is
    the parent.  ``enabled`` can be flipped between rounds, which is how
    the traced run interleaves untraced rounds to measure its own
    overhead in one process.
    """

    def __init__(self):
        self.enabled = True
        self.round_id = -1
        #: [name, start, end, parent index, round id]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name) -> list:
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self.round_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- derived views ------------------------------------------------- #

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every finished span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2]]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            totals[span[0]] = totals.get(span[0], 0.0) + (
                span[2] - span[1] - covered
            )
        return totals

    def unattributed_share(self, root: str) -> float:
        """Share of the ``root`` spans' wall no child span covers."""
        total = sum(self.durations(root))
        return self.self_times().get(root, 0.0) / total if total else 0.0

    def write_jsonl(self, path: Path, workload: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, round_id) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "workload": workload,
                    "round": round_id,
                }) + "\n")


# --------------------------------------------------------------------- #
# Operation accounting
# --------------------------------------------------------------------- #

class Ops:
    """Counts operations attempted and failed, keeping failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def run(self, what: str, fn, *args):
        """Run one operation; an exception fails it and yields ``None``.

        Returns ``(result, seconds)``.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # the benchmark must report, not die, on a bad op
            self.fail(f"{what}: {traceback.format_exc(limit=3)}")
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def check(self, what: str, ok: bool) -> bool:
        """Record a failed check against the operation it validates."""
        if not ok:
            self.fail(f"check failed: {what}")
        return ok


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #

median = statistics.median


def percentile(values, q: float) -> float | None:
    """The ``q`` quantile, or None with fewer than ten samples beyond it."""
    ordered = sorted(values)
    beyond = math.floor(len(ordered) * (1.0 - q))
    if beyond < 10:
        return None
    return ordered[len(ordered) - beyond - 1]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median — the driver's repeatability statistic."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def timed_rounds(budget_s: float, min_rounds: int, one_round) -> int:
    """Repeat ``one_round(index)`` for ``budget_s`` seconds.

    ``gc.collect()`` runs between rounds (GC stays enabled inside them).
    At least ``min_rounds`` are made even when one overruns the budget.
    """
    started = time.perf_counter()
    index = 0
    while index < min_rounds or time.perf_counter() - started < budget_s:
        gc.collect()
        one_round(index)
        index += 1
    return index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Result-document validation (the subset of JSON Schema schema.json uses)
# --------------------------------------------------------------------- #

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


def validate(value, schema: dict, root: dict | None = None,
             where: str = "$") -> list[str]:
    """Problems found checking ``value`` against ``schema`` (empty = valid)."""
    root = schema if root is None else root
    if "$ref" in schema:
        schema = root["definitions"][schema["$ref"].rsplit("/", 1)[1]]
    problems = []
    kind = schema.get("type")
    if kind and (not isinstance(value, _TYPES[kind])
                 or (kind != "boolean" and isinstance(value, bool))):
        return [f"{where}: expected {kind}, got {type(value).__name__}"]
    if "enum" in schema and value not in schema["enum"]:
        problems.append(f"{where}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        problems.append(f"{where}: {value!r} below {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                problems.append(f"{where}: missing {key!r}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            sub = properties.get(key, schema.get("additionalProperties"))
            if isinstance(sub, dict):
                problems += validate(item, sub, root, f"{where}.{key}")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            problems += validate(item, schema["items"], root,
                                 f"{where}[{index}]")
    return problems
