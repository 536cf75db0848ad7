"""Cost-based query planning shared by the SPARQL and Cypher engines.

The package provides, for both engines:

* statistics catalogs (:mod:`~repro.query.plan.stats`) over the
  incrementally maintained counters of :class:`~repro.rdf.graph.Graph`
  and :class:`~repro.pg.store.PropertyGraphStore`;
* the two planners (:mod:`~repro.query.plan.sparql_plan`,
  :mod:`~repro.query.plan.cypher_plan`): join ordering, access-path
  choice, and hash join vs index nested-loop by a per-row cost model;
* the batch operators every plan is built from and executed by —
  columnar batches of interned ids, decoded at the plan boundary
  (:mod:`~repro.query.plan.vectorized`);
* an LRU cache of generic plans keyed by query shape (constants
  lifted into ``$n`` parameters) and catalog version
  (:mod:`~repro.query.plan.cache`);
* ``EXPLAIN`` trees with estimated and actual cardinalities
  (:mod:`~repro.query.plan.explain`).

The planner only replaces *how* basic graph patterns and MATCH paths
are enumerated; every downstream construct (filters, OPTIONAL, UNION,
projection, DISTINCT, ORDER BY, LIMIT, aggregation) runs through the
engines' existing code, keeping planned runs result-identical to the
``planner=False`` reference arm.
"""

from .cache import PlanCache
from .cypher_plan import CypherPlanner
from .explain import ExplainNode, render_text
from .operator import PhysicalOperator, q_error
from .sparql_plan import SparqlPlanner, explain_select
from .stats import GraphCatalog, SeedChoice, StoreCatalog
from .vectorized import (
    DEFAULT_BATCH_SIZE,
    BatchedBGP,
    BatchMatchPlan,
    build_batched_bgp,
    build_batched_match,
)

__all__ = [
    "BatchMatchPlan",
    "BatchedBGP",
    "CypherPlanner",
    "DEFAULT_BATCH_SIZE",
    "ExplainNode",
    "GraphCatalog",
    "PhysicalOperator",
    "PlanCache",
    "SeedChoice",
    "SparqlPlanner",
    "StoreCatalog",
    "build_batched_bgp",
    "build_batched_match",
    "explain_select",
    "q_error",
    "render_text",
]
