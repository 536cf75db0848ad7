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

Plans are *generic*: a constant the shape normaliser lifted is a
:class:`~repro.query.normalize.Param` slot, and :meth:`prepare` hands
every operator the execution's parameter vector.  What an execution
leaves behind is an :class:`Execution` — the per-operator counters as
flat tuples plus the parameters — from which ``EXPLAIN`` trees are
built only when a reader asks.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from .explain import ExplainNode

__all__ = ["Execution", "PhysicalOperator", "q_error"]


def q_error(estimated: float, actual: float) -> float:
    """The multiplicative estimation error, symmetric and >= 1.

    Both sides are floored at one row (the usual convention) so empty
    results don't divide by zero and tiny cardinalities don't dominate.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


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
        self.params = ()

    def prepare(self, analyze: bool = False, params=()) -> None:
        """Reset run-time counters (recursively) before an execution.

        Plans are cached and re-executed, so the counters of the
        previous run are cleared here rather than inside ``execute`` —
        a subtree that is never pulled still reports 0 rows, not the
        stale count of an earlier run.  ``params`` is the execution's
        parameter vector, which the operators read their lifted
        constants from.
        """
        self._analyze = analyze
        self.params = params
        self.actual_rows = 0
        self.actual_loops = 0
        self.wall_ns = 0
        for child in self.children:
            child.prepare(analyze, params)

    def walk(self):
        """Yield every operator of the subtree, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

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

    def detail(self, params=()) -> str:
        """The operator's EXPLAIN detail, with ``params`` filled in."""
        return ""


class Execution:
    """One run of a cached plan: per-operator actuals and the parameters.

    ``key`` is the plan's shape key and ``hit`` whether the plan came
    from the cache.  ``rows`` (and, under analyze, ``loops`` and
    ``wall_ns``) hold one entry per operator of ``plan.ops``, the plan
    root's subtree in pre-order, and ``worst`` the plan's worst
    q-error.  Taking this record is all an
    execution pays: :meth:`explain` derives the ``EXPLAIN`` tree from
    it, the plan and the parameters on demand, and the query's report
    (:func:`repro.obs.report_query`) derives the metrics.
    """

    __slots__ = (
        "key", "hit", "plan", "params", "rows", "loops", "wall_ns", "worst",
    )

    def __init__(self, key, hit: bool, plan, params, analyze: bool):
        self.key = key
        self.hit = hit
        self.plan = plan
        self.params = params
        ops = plan.ops
        self.rows = tuple([op.actual_rows for op in ops])
        self.loops = self.wall_ns = None
        if analyze:
            self.loops = tuple([op.actual_loops for op in ops])
            self.wall_ns = tuple([op.wall_ns for op in ops])
        #: Worst q-error over the operators with an estimate, or None.
        self.worst = max((
            q_error(op.est_rows, rows)
            for op, rows in zip(ops, self.rows) if op.est_rows is not None
        ), default=None)

    def explain(self) -> ExplainNode:
        """The plan's EXPLAIN tree with this execution's actuals."""
        index = iter(range(len(self.rows)))

        def build(op: PhysicalOperator) -> ExplainNode:
            i = next(index)
            node = ExplainNode(
                op.op, op.detail(self.params), op.est_rows, self.rows[i]
            )
            if self.loops is not None:
                node.actual_loops = self.loops[i]
                node.wall_ms = self.wall_ns[i] / 1e6
            node.children = tuple(build(child) for child in op.children)
            return node

        return build(self.plan.root)
