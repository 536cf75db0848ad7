"""Compaction of non-parsimonious property graphs (the paper's open question).

Section 7 leaves open "how and when to optimize" the large PGs produced by
the non-parsimonious transformation.  This module implements the natural
answer: once a graph's schema has stabilized, fold every literal-node
property that the *parsimonious* rules would have stored as a record key
back into node records, and garbage-collect the orphaned literal nodes.

The optimizer is exact: ``optimize(F_dt^np(G))`` is structurally identical
to ``F_dt^p(G)`` (checked by the test suite), so it can be applied at any
point of an incremental pipeline — convert monotonically while the graph
evolves, compact when it settles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pg.model import PropertyGraph
from .config import DEFAULT_OPTIONS, TransformOptions
from .data_transform import TransformedGraph, is_literal_node
from .inverse import pgschema_to_shacl
from .mapping import DTYPE_KEY, LANG_KEY, VALUE_KEY
from .schema_transform import SchemaTransformer, SchemaTransformResult


@dataclass
class OptimizationStats:
    """What one compaction pass changed."""

    edges_folded: int = 0
    literal_nodes_removed: int = 0
    record_values_created: int = 0


@dataclass
class OptimizedGraph:
    """A compacted graph with its new (parsimonious) schema and mapping."""

    graph: PropertyGraph
    schema_result: SchemaTransformResult
    stats: OptimizationStats


def optimize(
    transformed: TransformedGraph,
    options: TransformOptions | None = None,
) -> OptimizedGraph:
    """Compact a (typically non-parsimonious) transformed graph in place.

    The parsimonious schema transformation is re-derived from the graph's
    own mapping (via the inverse ``N``), so no external schema is needed.
    Edges whose relationship type the parsimonious rules realize as a
    record key — and whose target literal node carries the right datatype
    and no language tag — are folded into the source node's record; the
    literal node is removed once no edge references it.

    Args:
        transformed: the graph to compact (mutated in place).
        options: options for the re-derived parsimonious schema; the
            default is :data:`DEFAULT_OPTIONS`.

    Returns:
        The compacted graph together with the parsimonious schema result
        describing it.
    """
    options = options or DEFAULT_OPTIONS
    if not options.parsimonious:
        raise ValueError("optimization target must be a parsimonious configuration")

    shacl_schema = pgschema_to_shacl(transformed.mapping)
    target = SchemaTransformer(options).transform(shacl_schema)
    # The original transformation may have monotonically extended its
    # schema with fallback predicates (e.g. rdfs:subClassOf statements)
    # and external classes; re-create them in the target so the compacted
    # graph still conforms.
    for class_mapping in transformed.mapping.classes.values():
        if not class_mapping.from_shape:
            target.registry.ensure_external_class(class_mapping.class_iri)
    for predicate in transformed.mapping.fallback:
        target.registry.fallback_property(predicate)
    graph = transformed.graph
    stats = OptimizationStats()

    # Relationship type -> the key/value mapping that replaces it.
    foldable: dict[str, object] = {}
    for class_mapping in target.mapping.classes.values():
        for prop in class_mapping.properties.values():
            if prop.is_key_value():
                # The non-parsimonious graph used the same relationship
                # name the fallback edge realization would use: the
                # resolver derives both from the predicate IRI.
                foldable[prop.pg_key] = prop

    edges_to_delete: list[str] = []
    for edge in graph.edges.values():
        rel_type = next(iter(edge.labels), None)
        prop = foldable.get(rel_type)
        if prop is None:
            continue
        target_node = graph.nodes.get(edge.dst)
        if target_node is None:
            continue
        if (
            target_node.properties.get(DTYPE_KEY) != prop.datatype
            or LANG_KEY in target_node.properties
            or VALUE_KEY not in target_node.properties
        ):
            continue
        source_node = graph.nodes.get(edge.src)
        if source_node is None:
            continue
        source_node.append_property(prop.pg_key, target_node.properties[VALUE_KEY])
        stats.record_values_created += 1
        edges_to_delete.append(edge.id)
        stats.edges_folded += 1

    for edge_id in edges_to_delete:
        graph.remove_edge(edge_id)
    for node_id in [
        nid for nid, node in graph.nodes.items()
        if is_literal_node(node) and not graph.degree(nid)
    ]:
        graph.remove_isolated_node(node_id)
        stats.literal_nodes_removed += 1

    return OptimizedGraph(graph=graph, schema_result=target, stats=stats)
