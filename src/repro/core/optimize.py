"""Compaction of non-parsimonious property graphs (the paper's open question).

Section 7 leaves open "how and when to optimize" the large PGs produced by
the non-parsimonious transformation.  Parsimonious ``F_dt`` is a fold of the
non-parsimonious one (Sec. 4.1.1), so the answer is that fold re-run over an
existing graph: each edge is resolved as the parsimonious add path resolves
its triple, and the same key/value decision
(:func:`~repro.core.schema_transform.foldable_predicates`, then
:meth:`~repro.core.mapping.PropertyMapping.key_for`) folds it into its
source's record or keeps it, extending the target schema as the add path
would.

Exact by construction, ``optimize(F_dt^np(G))`` equals ``F_dt^p(G)`` as a
graph, in ``mapping.json`` and in its conformance report, and ``M`` of it
is ``G``: the ``fold_exact`` fuzz oracle checks all four on every RDF case
kind, and ``benchmarks/bench_ablation_optimize.py`` the first three on
DBpedia.  So a pipeline can convert monotonically while the graph evolves
and compact when it settles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pg.model import PropertyGraph
from .config import DEFAULT_OPTIONS
from .data_transform import TransformedGraph
from .incremental import DeltaStats, IncrementalTransformer
from .inverse import schema_result_for
from .schema_transform import SchemaTransformResult


@dataclass
class OptimizationStats:
    """What one compaction pass changed."""

    edges_folded: int = 0
    literal_nodes_removed: int = 0


@dataclass
class OptimizedGraph:
    """A compacted graph with its new (parsimonious) schema and mapping."""

    graph: PropertyGraph
    schema_result: SchemaTransformResult
    stats: OptimizationStats


def optimize(transformed: TransformedGraph) -> OptimizedGraph:
    """Compact a (typically non-parsimonious) transformed graph in place.

    The parsimonious target ``(S_PG, F_st)`` is re-derived from the graph's
    own mapping (:func:`~repro.core.inverse.schema_result_for`), so no
    external schema is needed; one pass over the edges then folds them
    with :meth:`~repro.core.incremental.IncrementalTransformer.fold_edge`.

    Returns:
        The compacted graph together with the parsimonious schema result
        describing it.
    """
    source = transformed.mapping
    target = TransformedGraph(
        graph=transformed.graph,
        schema_result=schema_result_for(source, DEFAULT_OPTIONS),
        options=DEFAULT_OPTIONS,
    )
    fold, collected = IncrementalTransformer(target), DeltaStats()
    folded = sum(
        fold.fold_edge(edge, source.rel_types[edge.label()], collected)
        for edge in list(target.graph.edges.values())
    )
    return OptimizedGraph(
        graph=target.graph,
        schema_result=target.schema_result,
        stats=OptimizationStats(folded, collected.nodes_removed),
    )
