"""Shared machinery of the physical (batch) operators.

Both engines' operator trees (:mod:`repro.query.plan.vectorized`) are
pull-based — an operator's ``execute`` is a generator of batches drawn
from its children's — and inherit from :class:`PhysicalOperator`,
which owns the run-time bookkeeping behind ``EXPLAIN`` and
``EXPLAIN ANALYZE``:

* ``actual_rows`` — output cardinality of the most recent execution;
* ``actual_loops`` — how many times the operator's per-row work ran
  (index probes for a bind join, seeded input items for an expansion,
  1 for a one-shot scan or hash build);
* ``wall_ns`` — inclusive wall time of the subtree, measured only under
  ``analyze`` by wrapping the operator's iterator so every ``next()``
  is timed (the Postgres ``actual time`` convention: a parent's time
  includes its children's).

Executions go through :meth:`PhysicalOperator.run`, never ``execute``
directly: ``run`` returns the raw iterator when analyze is off, so the
hot path pays nothing for the timing machinery.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from .explain import ExplainNode

__all__ = ["PhysicalOperator"]


class PhysicalOperator:
    """Base class of the pull-based physical operators."""

    op = "Operator"

    def __init__(
        self,
        est_rows: float | None,
        children: tuple["PhysicalOperator", ...] = (),
    ):
        self.est_rows = est_rows
        self.children = children
        self.actual_rows: int | None = None
        self.actual_loops: int | None = None
        self.wall_ns: int = 0
        self._analyze = False

    def prepare(self, analyze: bool = False) -> None:
        """Reset run-time counters (recursively) before an execution.

        Plans are cached and re-executed, so the counters of the
        previous run are cleared here rather than inside ``execute`` —
        a subtree that is never pulled still reports 0 rows, not the
        stale count of an earlier run.
        """
        self._analyze = analyze
        self.actual_rows = 0
        self.actual_loops = 0
        self.wall_ns = 0
        for child in self.children:
            child.prepare(analyze)

    def execute(self, *args) -> Iterator:
        raise NotImplementedError

    def run(self, *args) -> Iterator:
        """The operator's iterator, timed when analyze is on."""
        iterator = self.execute(*args)
        if self._analyze:
            return self._timed(iterator)
        return iterator

    def _timed(self, iterator: Iterator) -> Iterator:
        while True:
            start = time.perf_counter_ns()
            try:
                item = next(iterator)
            except StopIteration:
                self.wall_ns += time.perf_counter_ns() - start
                return
            self.wall_ns += time.perf_counter_ns() - start
            yield item

    def detail(self) -> str:
        return ""

    def explain(self) -> ExplainNode:
        """Snapshot this subtree (estimates + last execution's actuals)."""
        node = ExplainNode(
            op=self.op,
            detail=self.detail(),
            est_rows=self.est_rows,
            actual_rows=self.actual_rows,
            children=tuple(child.explain() for child in self.children),
        )
        if self._analyze:
            node.actual_loops = self.actual_loops
            node.wall_ms = self.wall_ns / 1e6
        return node
