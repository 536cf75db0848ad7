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

Everything downstream of the BGP (OPTIONAL, UNION, FILTER, projection,
DISTINCT, ORDER BY, LIMIT) is evaluated by the engine's existing code,
so planned and ``planner=False`` runs are result-identical by
construction; the differential fuzz oracle asserts it by test.
"""

from __future__ import annotations

from collections.abc import Iterator

from ... import obs
from ...rdf.graph import Graph
from ...rdf.terms import Term
from ..sparql.ast import SelectQuery, TriplePattern
from .cache import PlanCache
from .explain import ExplainNode
from .stats import FeedbackStore, GraphCatalog
from .vectorized import DEFAULT_BATCH_SIZE, BatchedBGP, build_batched_bgp

__all__ = [
    "SparqlPlanner",
    "explain_select",
    "flush_operator_obs",
]

Binding = dict[str, Term]

# Relative per-row cost weights of the physical operators.  A bind-join
# probe pays an index lookup per input row; a hash join pays a one-off
# build over the standalone scan plus a cheap per-row probe.
COST_INDEX_PROBE = 4.0
COST_HASH_PROBE = 1.0
COST_HASH_BUILD = 2.0
COST_EMIT = 1.0


class SparqlPlanner:
    """Plans and executes basic graph patterns for one graph.

    Args:
        graph: the graph queried (statistics come from its counters).
        cache_size: LRU plan-cache capacity.
    """

    def __init__(self, graph: Graph, cache_size: int = 128):
        self.graph = graph
        self.catalog = GraphCatalog(graph)
        self.cache = PlanCache(cache_size)
        #: Rows per batch of the plans built from here on.
        self.batch_size = DEFAULT_BATCH_SIZE
        #: Observed-cardinality feedback, keyed by plan-cache key.
        self.feedback = FeedbackStore("sparql")
        #: Explain snapshot of the last executed BGP plan (set by the
        #: evaluator once the plan's iterator is fully consumed).
        self.last_explain: ExplainNode | None = None
        self.last_plan: BatchedBGP | None = None
        #: Plan-cache key of the last planned BGP (feedback-store key).
        self.last_key: tuple | None = None
        #: Whether the last planned BGP came from the plan cache.
        self.last_cache_hit: bool | None = None
        obs.register_plan_cache("sparql", self.cache)

    def plan_bgp(self, patterns: list[TriplePattern]) -> BatchedBGP:
        """The (cached) physical plan for a basic graph pattern."""
        version = self.catalog.version
        key = (version, "\x1f".join(str(p) for p in patterns))
        plan = self.cache.get(key)
        hit = plan is not None
        if plan is None:
            plan = self._build(patterns)
            self.cache.put(key, plan, version=version)
        self.last_key = key
        self.last_cache_hit = hit
        if obs.enabled():
            with obs.span("sparql.plan", cache_hit=hit, patterns=len(patterns)):
                pass
        obs.get_metrics().counter(
            "repro_plan_cache_total", help="plan cache lookups"
        ).inc(1, engine="sparql", result="hit" if hit else "miss")
        return plan

    def execute_bgp(
        self,
        patterns: list[TriplePattern],
        stats=None,
        analyze: bool = False,
    ) -> Iterator[Binding]:
        """Plan and run a BGP, yielding solution bindings."""
        plan = self.plan_bgp(patterns)
        self.last_plan = plan
        plan.prepare(analyze)
        if stats is not None:
            # The plan-time join order plays the role of the reference
            # evaluator's per-binding greedy selections: surface the
            # same selectivity profile (bound positions per chosen
            # pattern) so traces stay comparable across the two arms.
            profile = plan.selectivity_profile
            stats.selections += len(profile)
            for concrete in profile:
                stats.selectivity[concrete] += 1
        return plan.run(stats)

    def _build(self, patterns: list[TriplePattern]) -> BatchedBGP:
        return build_batched_bgp(self, patterns)


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


def flush_operator_obs(lang: str, root: ExplainNode) -> None:
    """Emit per-operator spans and row counters after an execution.

    Physical operators interleave their work (each pulls batches from
    its child), so their timings are not separable; what *is* exact are
    the per-operator cardinalities, flushed here as zero-length spans
    under the current evaluate span plus a labelled metrics counter.
    """
    metrics = obs.get_metrics()
    counter = metrics.counter(
        "repro_plan_operator_rows_total",
        help="rows produced by physical plan operators",
    )
    for node in root.walk():
        if node.actual_rows is None:
            continue
        counter.inc(node.actual_rows, lang=lang, op=node.op)
        if obs.enabled():
            with obs.span(
                f"{lang}.plan.operator",
                op=node.op,
                detail=node.detail,
                est_rows=node.est_rows,
                actual_rows=node.actual_rows,
            ):
                pass
