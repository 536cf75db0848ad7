"""The surface both query engines share: prepare, run, report once."""

from __future__ import annotations

import time
from functools import cache

from .. import obs
from ..errors import QueryError

__all__ = ["Engine"]


class Engine:
    """``query`` / ``explain`` / ``count``, shared by both engines.

    A subclass sets ``lang``, ``planner`` and ``statements`` and
    provides ``_prepare(text)`` (what to run, its parameters, what the
    tracker reads), ``_execute(query, params, analyze)`` (the rows and
    the engine's counters) and ``_assemble_explain(query, rows,
    executions)`` (the EXPLAIN tree).  Each call reports once, through
    :func:`repro.obs.report_query`.
    """

    lang = ""
    planner = None
    #: Statements prepared once per token shape (planned engines).
    statements = None

    def query(self, text: str) -> list[dict]:
        """Parse (once per token shape) and evaluate; returns the rows."""
        return self._run(text)[0]

    def count(self, text: str) -> int:
        """Number of result rows of a query."""
        return len(self.query(text))

    def explain(self, text: str, fmt: str = "text", analyze: bool = False):
        """Run a query and explain its physical plan.

        Returns the rendered tree as a string (``fmt="text"``) or a
        JSON-friendly dict (``fmt="json"``).  Planned operators show
        estimated cardinalities from the statistics catalog and actual
        ones from the run; what the engine evaluates by its fixed code
        (OPTIONAL, UNION, the clause tail) appears as logical nodes.
        With ``analyze`` the physical operators also report loop counts
        and inclusive per-operator wall time.
        """
        from .plan import render_text

        if self.planner is None:
            raise QueryError("EXPLAIN requires the planner to be enabled")
        if fmt not in ("text", "json"):
            raise QueryError(f"unknown explain format {fmt!r}")
        root = self._run(text, analyze)[1]()
        return root.to_dict() if fmt == "json" else render_text(root)

    def _run(self, text: str, analyze: bool = False):
        """The rows and a (cached) builder of the run's EXPLAIN tree;
        the run is reported once."""
        query, params, statement = self._prepare(text)
        start = time.perf_counter()
        rows, counters = self._execute(query, params, analyze)
        duration = time.perf_counter() - start
        executions, tree, plan = (), None, None
        if self.planner is not None:
            executions, n_rows = self.planner.last_executions, len(rows)
            assemble = self._assemble_explain
            tree = cache(lambda: assemble(query, n_rows, executions))
            plan = lambda: tree().to_dict()
        obs.report_query(
            self.lang, text, statement, duration, len(rows), executions,
            plan, counters,
        )
        return rows, tree
