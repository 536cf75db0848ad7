"""Cost-based planning of SPARQL basic graph patterns.

The planner replaces the reference evaluator's per-binding greedy
heuristic with plan-time join ordering: starting from the cheapest
standalone pattern, it greedily appends the connected pattern with the
smallest estimated per-binding cardinality, choosing between an index
nested-loop probe (``BatchBindJoin``, the reference evaluator's
strategy) and a ``BatchHashJoin`` on the shared variables by a simple
per-row cost model.  Disconnected patterns become hash-join cartesian
products instead of per-binding rescans.  Plans are built from, and
executed by, the batch operators of :mod:`repro.query.plan.vectorized`.

A SELECT whose group is the BGP alone (no OPTIONAL, UNION or FILTER;
not ASK or COUNT) projects its rows straight from the batch columns;
otherwise OPTIONAL, UNION, FILTER and projection run on the engine's
existing code over decoded bindings.  DISTINCT, ORDER BY and LIMIT
always do.  Planned and ``planner=False`` runs are result-identical by
test: the directed tests and the differential fuzz oracles assert it.
"""

from __future__ import annotations

from collections.abc import Iterator

from ...rdf.graph import Graph
from ...rdf.terms import Term
from ...lexer import resolve
from ..sparql.ast import SelectQuery
from .cache import CachingPlanner
from .explain import ExplainNode
from .stats import GraphCatalog
from .vectorized import build_batched_bgp

__all__ = ["SparqlPlanner", "explain_select"]

Binding = dict[str, Term]

# Relative per-row cost weights of the physical operators.  A bind-join
# probe pays an index lookup per input row; a hash join pays a one-off
# build over the standalone scan plus a cheap per-row probe.
COST_INDEX_PROBE = 4.0
COST_HASH_PROBE = 1.0
COST_HASH_BUILD = 2.0
COST_EMIT = 1.0


class SparqlPlanner(CachingPlanner):
    """Plans and executes basic graph patterns for one graph.

    Args:
        graph: the graph queried (statistics come from its counters).
        cache_size: LRU plan-cache capacity.
    """

    lang = "sparql"

    def __init__(self, graph: Graph, cache_size: int = 128):
        self.graph = graph
        super().__init__(GraphCatalog(graph), cache_size)
        #: (key, hit, plan, parameters, analyze) of the BGP awaiting its
        #: record, taken once the plan's iterator is fully consumed.
        self._running = None

    def execute_bgp(
        self, bgp: tuple, params=(), stats=None, analyze: bool = False,
        names=None,
    ) -> Iterator[Binding]:
        """Plan (once per shape) and run a BGP, yielding solution bindings.

        ``bgp`` is :func:`~repro.query.normalize.lift_bgp`'s ``(shape,
        parameters, lifted patterns)``; a parameter that is itself a
        prepared statement's slot takes its value from ``params``.
        With ``names``, each solution is a row of just those variables,
        decoded straight from the batch columns.
        """
        key, lifted_params, lifted = bgp
        plan, hit = self._plan(
            key, lambda: build_batched_bgp(self, lifted), patterns=len(lifted)
        )
        params = [resolve(value, params) for value in lifted_params]
        self._running = (key, hit, plan, params, analyze)
        plan.prepare(analyze, params)
        if stats is not None:
            # The plan-time join order plays the role of the reference
            # evaluator's per-binding greedy selections: surface the
            # same selectivity profile (bound positions per chosen
            # pattern) so traces stay comparable across the two arms.
            profile = plan.selectivity_profile
            stats.selections += len(profile)
            for concrete in profile:
                stats.selectivity[concrete] += 1
        return plan.run(stats, names)

    def finish(self) -> None:
        """Record the BGP run started by :meth:`execute_bgp` (consumed)."""
        if self._running is not None:
            self._record(*self._running)
            self._running = None


# --------------------------------------------------------------------- #
# EXPLAIN assembly and observability
# --------------------------------------------------------------------- #

def explain_select(
    query: SelectQuery,
    plan: ExplainNode | None,
    result_rows: int,
) -> ExplainNode:
    """Wrap a BGP plan tree with the query's logical tail.

    The wrapper nodes mirror the evaluator's fixed execution order:
    BGP -> UNION -> OPTIONAL -> FILTER -> projection/aggregation ->
    DISTINCT -> ORDER BY -> LIMIT.
    """
    if plan is None:
        node = ExplainNode("EmptyPattern", est_rows=1.0)
    else:
        node = plan
    if query.unions:
        node = ExplainNode(
            "Union", f"{len(query.unions)} alternatives", children=(node,)
        )
    for group in query.optionals:
        node = ExplainNode(
            "OptionalJoin", f"{len(group)} patterns", children=(node,)
        )
    if query.filters:
        node = ExplainNode(
            "Filter", f"{len(query.filters)} predicates", children=(node,)
        )
    if query.ask:
        node = ExplainNode("Ask", children=(node,))
    elif query.count is not None:
        node = ExplainNode("Aggregate", f"count(*) AS ?{query.count}", children=(node,))
    else:
        projected = [v.name for v in query.variables] or query.all_variables()
        node = ExplainNode(
            "Project", ", ".join(f"?{name}" for name in projected), children=(node,)
        )
        if query.distinct:
            node = ExplainNode("Distinct", children=(node,))
    if query.order_by:
        keys = ", ".join(
            f"?{key.var.name}{' DESC' if key.descending else ''}"
            for key in query.order_by
        )
        node = ExplainNode("Sort", keys, children=(node,))
    if query.limit is not None:
        node = ExplainNode("Limit", str(query.limit), children=(node,))
    node.actual_rows = result_rows
    return node
