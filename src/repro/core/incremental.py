"""Incremental (monotone) maintenance of a transformed property graph.

Section 4.2.1 / 5.4: when the source RDF graph evolves, S3PG converts only
the delta instead of re-running the whole transformation.  Because every
generated identifier is a deterministic function of the input terms (see
:mod:`repro.core.data_transform`), adding the conversion of
``G_delta`` to the conversion of ``G`` yields exactly the conversion of
``G ∪ G_delta`` — this is Definition 3.4, and the test suite checks it
structurally.  The bulk transformation is this add path run over an empty
property graph, so Algorithm 1's case analysis lives here once, with its
mirror for retraction.

Deletions are supported as the natural inverse: key/values and edges
introduced by removed triples are retracted, and literal/resource nodes
are garbage-collected once orphaned.  Deltas are expected to be
*effective* with respect to the source graph — an "added" triple must be
genuinely new and a "removed" triple genuinely present — since re-adding
an existing key/value triple would duplicate the value (the CDC pipeline
filters deltas down to their effective part before applying them).

When the maintained graph is served through a
:class:`~repro.pg.store.PropertyGraphStore`, pass the store to the
transformer: every mutation is then routed through the store's
index-consistent mutators, so the label/adjacency/property indexes, the
planner statistics (``rel_count``), and the store's mutation ``version``
advance with each delta.  Without this, plan-cache entries keyed on the
old catalog version would keep serving plans costed against stale
statistics.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..errors import TransformError
from ..namespaces import RDF_TYPE
from ..pg.model import PGNode
from ..pg.store import PropertyGraphStore
from ..rdf.terms import IRI, Literal, Triple
from .config import TransformOptions
from .data_transform import (
    DataTransformStats,
    TransformedGraph,
    edge_id_for,
    encode_literal_value,
    is_literal_node,
    literal_node_id,
    node_id_for,
)
from .mapping import (
    DTYPE_KEY,
    IRI_KEY,
    LANG_KEY,
    RESOURCE_LABEL,
    VALUE_KEY,
    PropertyMapping,
)

_TYPE = IRI(RDF_TYPE)


def _is_type(triple: Triple) -> bool:
    return triple.p == _TYPE and isinstance(triple.o, IRI)


@dataclass
class DeltaStats(DataTransformStats):
    """Counters for one incremental update.

    Additions are counted exactly as a bulk run counts them (it is the
    same add path); ``added_triples`` / ``nodes_added`` / ``edges_added``
    are views of those counters.
    """

    removed_triples: int = 0
    nodes_removed: int = 0
    edges_removed: int = 0

    @property
    def added_triples(self) -> int:
        return self.triples_processed

    @property
    def nodes_added(self) -> int:
        return self.entity_nodes + self.literal_nodes

    @property
    def edges_added(self) -> int:
        return self.edges


class IncrementalTransformer:
    """Applies RDF-level deltas to an existing :class:`TransformedGraph`.

    Args:
        transformed: a previous transformation result to maintain in place.
        store: optional :class:`PropertyGraphStore` wrapping the same
            graph; when given, all mutations go through the store so its
            indexes, planner statistics, and ``version`` stay consistent.
    """

    def __init__(
        self,
        transformed: TransformedGraph,
        store: PropertyGraphStore | None = None,
    ):
        self.transformed = transformed
        self.graph = transformed.graph
        # Every mutation goes to the sink; reads go to the graph.
        if store is None:
            self._sink = transformed.graph
        elif store.graph is transformed.graph:
            self._sink = store
        else:
            raise TransformError(
                "store must wrap the transformed graph it maintains"
            )
        self.mapping = transformed.mapping
        self.registry = transformed.schema_result.registry
        self.options: TransformOptions = transformed.options
        # (node label set, predicate) -> resolved mapping; real graphs have
        # few distinct label sets.  Entries stay valid while the transformer
        # lives: conversion only adds fallback predicates and shapeless
        # classes to the mapping, which never change a resolution made.
        self._resolved: dict[tuple[frozenset, str], PropertyMapping | None] = {}

    # ------------------------------------------------------------------ #
    # Resolution (shared by add, retract and probe)
    # ------------------------------------------------------------------ #

    def _label_for_class(self, class_iri: str) -> str | None:
        label = self.mapping.label_for_class(class_iri)
        if label is not None:
            return label
        if self.options.on_unknown == "error":
            raise TransformError(f"no shape targets class {class_iri}")
        if self.options.on_unknown == "skip":
            return None
        return self.registry.ensure_external_class(class_iri)

    def _resolve(
        self, labels: Iterable[str], predicate: str
    ) -> PropertyMapping | None:
        """How ``predicate`` is realised on a node carrying ``labels``,
        after the ``on_unknown`` policy (None: the triple is skipped)."""
        key = (frozenset(labels), predicate)
        try:
            return self._resolved[key]
        except KeyError:
            pass
        classes = [
            class_iri for class_iri in map(self.mapping.class_for_label, key[0])
            if class_iri is not None
        ]
        prop = self.mapping.property_for(classes, predicate)
        if prop is None:
            if self.options.on_unknown == "error":
                raise TransformError(
                    f"no property shape covers predicate {predicate} "
                    f"for subject types {sorted(classes)}"
                )
            if self.options.on_unknown == "fallback":
                prop = self.registry.fallback_property(predicate)
        self._resolved[key] = prop
        return prop

    def _rel_type(self, prop: PropertyMapping) -> str:
        """The relationship type realising ``prop`` as an edge (the
        predicate's fallback type for a key/value mapping)."""
        if prop.rel_type is not None:
            return prop.rel_type
        return self.registry.fallback_property(prop.predicate).rel_type

    # ------------------------------------------------------------------ #
    # Additions
    # ------------------------------------------------------------------ #

    def apply_additions(self, triples: Iterable[Triple]) -> DeltaStats:
        """Convert and merge a batch of added triples (monotone).

        The batch is processed with the same two-phase discipline as the
        full Algorithm 1: type triples first (so that new entities in the
        delta are known before their properties are converted).
        """
        stats = DeltaStats()
        self._apply(list(triples), stats)
        return stats

    def probe_additions(self, triples: Iterable[Triple]) -> None:
        """Resolve a batch of additions without mutating the graph.

        Raises:
            TransformError: when the batch contains a construct the
                mapping cannot resolve under ``on_unknown="error"`` — the
                same error :meth:`apply_additions` would raise mid-batch.
                Probing first keeps poison deltas from leaving the graph
                half-updated.
        """
        for triple in triples:
            if _is_type(triple):
                self._label_for_class(triple.o.value)
            else:
                node = self.graph.nodes.get(node_id_for(triple.s))
                labels = node.labels if node is not None else ()
                self._resolve(labels, triple.p.value)

    def _apply(self, triples: Iterable[Triple], stats: DataTransformStats) -> None:
        """Algorithm 1 over ``triples``, which is scanned twice: phase 1
        (lines 4-14) applies the type triples, phase 2 (lines 15-31) the
        rest, so every entity is labelled before its properties resolve."""
        for triple in triples:
            stats.triples_processed += 1
            if _is_type(triple):
                self._add_type(triple, stats)
        for triple in triples:
            if not _is_type(triple):
                self._add_property(triple, stats)

    def _add_type(self, triple: Triple, stats: DataTransformStats) -> None:
        node_id = node_id_for(triple.s)
        if node_id in self.graph.nodes:
            self._sink.remove_label(node_id, RESOURCE_LABEL)
        else:
            self._sink.add_node(node_id, (), {IRI_KEY: node_id})
            stats.entity_nodes += 1
        label = self._label_for_class(triple.o.value)
        if label is not None:
            self._sink.add_label(node_id, label)

    def _add_property(self, triple: Triple, stats: DataTransformStats) -> None:
        node = self._resource_node(node_id_for(triple.s), stats)
        prop = self._resolve(node.labels, triple.p.value)
        if prop is None:
            stats.skipped += 1
            return
        obj = triple.o
        if (
            isinstance(obj, Literal)
            and prop.is_key_value()
            and obj.datatype == prop.datatype
        ):
            # Lines 21-23: parsimonious key/value storage.  The literal must
            # carry the datatype the schema mapped the key to; off-schema
            # values fall through to the literal node below.  A second
            # value for a max-1 key promotes the entry to an array, which
            # keeps the transformation lossless and makes the cardinality
            # violation visible to PG-Schema conformance checking.
            value = encode_literal_value(obj)
            current = node.properties.get(prop.pg_key)
            if isinstance(current, list):
                value = current + [value]
            elif current is not None:
                value = [current, value]
            self._sink.set_node_property(node.id, prop.pg_key, value)
            stats.key_values += 1
            return
        if isinstance(obj, Literal):
            # Lines 25-31: multi-type / heterogeneous values become typed
            # literal nodes.
            dst_id = self._literal_node(obj, stats)
        else:
            # Line 16: an IRI object is an edge to its entity node, or to a
            # generic resource node when it has no type.
            dst_id = self._resource_node(node_id_for(obj), stats).id
        rel_type = self._rel_type(prop)
        edge_id = edge_id_for(node.id, rel_type, dst_id)
        if edge_id not in self.graph.edges:
            self._sink.add_edge(
                node.id, dst_id, labels={rel_type}, edge_id=edge_id
            )
            stats.edges += 1

    def _resource_node(self, node_id: str, stats: DataTransformStats) -> PGNode:
        """The node ``node_id``; a generic resource node when it is new."""
        node = self.graph.nodes.get(node_id)
        if node is None:
            node = self._sink.add_node(
                node_id, {RESOURCE_LABEL}, {IRI_KEY: node_id}
            )
            stats.entity_nodes += 1
        return node

    def _literal_node(self, literal: Literal, stats: DataTransformStats) -> str:
        node_id = literal_node_id(literal)
        if node_id not in self.graph.nodes:
            record: dict[str, object] = {
                VALUE_KEY: encode_literal_value(literal),
                DTYPE_KEY: literal.datatype,
            }
            if literal.language is not None:
                record[LANG_KEY] = literal.language
            label = self.registry.ensure_literal_type(literal.datatype).label
            self._sink.add_node(node_id, {label}, record)
            stats.literal_nodes += 1
        return node_id

    # ------------------------------------------------------------------ #
    # Deletions
    # ------------------------------------------------------------------ #

    def apply_deletions(self, triples: Iterable[Triple]) -> DeltaStats:
        """Retract the PG elements introduced by the given triples."""
        stats = DeltaStats()
        self._retract(triples, stats)
        return stats

    def _retract(self, triples: Iterable[Triple], stats: DeltaStats) -> None:
        for triple in triples:
            stats.removed_triples += 1
            node = self.graph.nodes.get(node_id_for(triple.s))
            if node is None:
                continue
            if _is_type(triple):
                self._retract_type(node, triple.o.value, stats)
            else:
                self._retract_property(node, triple, stats)

    def _retract_type(self, node: PGNode, class_iri: str, stats: DeltaStats) -> None:
        label = self.mapping.label_for_class(class_iri)
        if label is not None:
            self._sink.remove_label(node.id, label)
        self._gc_node(node.id, stats)
        # A de-typed entity that still carries data must fall back to the
        # generic resource label, exactly as a from-scratch transformation
        # of the remaining triples would label it.
        if node.id in self.graph.nodes and not node.labels:
            self._sink.add_label(node.id, RESOURCE_LABEL)

    def _retract_property(
        self, node: PGNode, triple: Triple, stats: DeltaStats
    ) -> None:
        prop = self._resolve(node.labels, triple.p.value)
        obj = triple.o
        # prop is None for a triple skipped on the way in: only the subject
        # node it may have created is left to collect.
        if prop is None:
            pass
        elif (
            isinstance(obj, Literal)
            and prop.is_key_value()
            and obj.datatype == prop.datatype
            and prop.pg_key in node.properties
        ):
            self._remove_value(node, prop.pg_key, encode_literal_value(obj))
        else:
            if isinstance(obj, Literal):
                dst_id = literal_node_id(obj)
            else:
                dst_id = node_id_for(obj)
            edge_id = edge_id_for(node.id, self._rel_type(prop), dst_id)
            if edge_id in self.graph.edges:
                self._sink.remove_edge(edge_id)
                stats.edges_removed += 1
            self._gc_node(dst_id, stats)
        # The subject may have been an untyped resource node kept alive
        # only by this triple; collect it too (a from-scratch transform of
        # the remaining triples would not materialize it).
        self._gc_node(node.id, stats)

    def _remove_value(self, node: PGNode, key: str, value: object) -> None:
        current = node.properties[key]
        if not isinstance(current, list):
            if current == value:
                self._sink.delete_node_property(node.id, key)
            return
        if value not in current:
            return
        rest = list(current)
        rest.remove(value)
        if not rest:
            self._sink.delete_node_property(node.id, key)
        else:
            # A from-scratch transform stores a single value as a scalar.
            self._sink.set_node_property(
                node.id, key, rest[0] if len(rest) == 1 else rest
            )

    def _gc_node(self, node_id: str, stats: DeltaStats) -> None:
        """Remove a node once it carries no information of its own."""
        node = self.graph.nodes.get(node_id)
        if node is None or self.graph.degree(node_id):
            return
        if not is_literal_node(node) and (
            node.labels - {RESOURCE_LABEL} or node.properties.keys() - {IRI_KEY}
        ):
            return
        self._sink.remove_node(node_id)
        stats.nodes_removed += 1


def apply_delta(
    transformed: TransformedGraph,
    added: Iterable[Triple] = (),
    removed: Iterable[Triple] = (),
    store: PropertyGraphStore | None = None,
) -> DeltaStats:
    """Apply an (added, removed) delta to a transformed graph in place."""
    incremental = IncrementalTransformer(transformed, store=store)
    stats = DeltaStats()
    incremental._retract(removed, stats)
    incremental._apply(list(added), stats)
    return stats
