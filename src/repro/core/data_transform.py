"""Data transformation ``F_dt`` — Algorithm 1 of the paper.

The two-phase streaming algorithm:

* **Phase 1** (entities to PG nodes): scan the triple stream for
  ``rdf:type`` statements, building the entity-type map ``Psi_ETD``; then
  materialize one PG node per entity, with its types as labels and its IRI
  stored as the ``iri`` record key.
* **Phase 2** (properties to key/values and edges): scan the non-type
  triples; objects that are known entities become edges (line 16 ff.);
  single-valued literals of key/value-mapped properties become record
  attributes (lines 21-23, parsimonious mode only); everything else —
  multi-type homogeneous or heterogeneous values — becomes a typed
  *literal node* connected by an edge (lines 25-31).

All generated identifiers are deterministic functions of the input terms
(node id = IRI, literal node id = hash of (datatype, language, lexical),
edge id = ``src|rel|dst``), which is what makes the transformation
monotone: converting a delta produces exactly the sub-graph that a full
re-conversion would add (Definition 3.4).
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from ..errors import TransformError
from ..namespaces import RDF_TYPE
from ..pg.model import PGNode, PropertyGraph
from ..pgschema.model import BOOLEAN, FLOAT, INTEGER, content_type_for_datatype
from ..rdf.graph import Graph
from ..rdf.terms import IRI, BlankNode, Literal, Object, Subject, Triple
from .config import DEFAULT_OPTIONS, TransformOptions
from .mapping import (
    DTYPE_KEY,
    IRI_KEY,
    LANG_KEY,
    RESOURCE_LABEL,
    VALUE_KEY,
)
from .schema_transform import SchemaTransformResult

_TYPE = IRI(RDF_TYPE)
_INT_RE = re.compile(r"^[+-]?\d+$")


def node_id_for(term: Subject) -> str:
    """The deterministic PG node id for an entity (IRI or blank node)."""
    if isinstance(term, IRI):
        return term.value
    return f"_:{term.label}"


def literal_node_id(literal: Literal) -> str:
    """The deterministic PG node id for a literal value node.

    Literal nodes are deduplicated per (datatype, language, lexical), so
    re-converting the same triple can never create a second node.  The id
    embeds the three components directly (injective, no hashing cost);
    lexical forms beyond 64 characters fall back to a digest suffix to
    bound id length.
    """
    lexical = literal.lexical
    if len(lexical) > 64:
        digest = hashlib.sha1(lexical.encode("utf-8")).hexdigest()[:16]
        lexical = lexical[:48] + "#" + digest
    return f"lit:{literal.datatype}|{literal.language or ''}|{lexical}"


def edge_id_for(src: str, rel_type: str, dst: str) -> str:
    """The deterministic PG edge id for ``(src)-[rel_type]->(dst)``."""
    return f"{src}|{rel_type}|{dst}"


def encode_literal_value(literal: Literal, typed: bool = True) -> object:
    """The PG property value for a literal.

    Integers/booleans/floats become native values when the lexical form
    round-trips exactly (so the inverse mapping can reconstruct the
    original lexical form); otherwise the raw string is kept.
    """
    if not typed:
        return literal.lexical
    content = content_type_for_datatype(literal.datatype)
    lexical = literal.lexical
    if content == INTEGER and _INT_RE.match(lexical):
        value = int(lexical)
        if str(value) == lexical:
            return value
    elif content == BOOLEAN and lexical in ("true", "false"):
        return lexical == "true"
    elif content == FLOAT:
        try:
            value = float(lexical)
        except ValueError:
            return lexical
        if str(value) == lexical:
            return value
    return lexical


@dataclass
class DataTransformStats:
    """Counters reported by one data-transformation run."""

    triples_processed: int = 0
    entity_nodes: int = 0
    literal_nodes: int = 0
    edges: int = 0
    key_values: int = 0
    skipped: int = 0


@dataclass
class TransformedGraph:
    """The pair ``(PG, F_dt)`` of Problem 2, with run statistics."""

    graph: PropertyGraph
    schema_result: SchemaTransformResult
    options: TransformOptions
    stats: DataTransformStats = field(default_factory=DataTransformStats)

    @property
    def pg_schema(self):
        """The PG-Schema the output conforms to."""
        return self.schema_result.pg_schema

    @property
    def mapping(self):
        """The schema mapping ``F_st``."""
        return self.schema_result.mapping


class DataTransformer:
    """Implements Algorithm 1 over a schema-transformation result.

    Args:
        schema_result: output of :func:`repro.core.schema_transform.transform_schema`.
        options: must agree with the options used for the schema transform
            (in particular the parsimonious flag).
    """

    def __init__(
        self,
        schema_result: SchemaTransformResult,
        options: TransformOptions = DEFAULT_OPTIONS,
    ):
        self.schema_result = schema_result
        self.options = options
        self.mapping = schema_result.mapping
        self.registry = schema_result.registry
        if self.mapping.parsimonious != options.parsimonious:
            raise TransformError(
                "schema was transformed with a different parsimonious setting"
            )

    # ------------------------------------------------------------------ #

    def transform(self, source: Graph | Iterable[Triple]) -> TransformedGraph:
        """Run the two-phase algorithm over ``source``.

        ``source`` is iterated twice, once per phase — a :class:`Graph`,
        a list, or a re-iterable over a file (Algorithm 1's input model:
        two streaming scans, no triple list in memory).  A one-shot
        iterator (e.g. a generator) cannot be scanned twice and is
        materialized first.
        """
        if isinstance(source, Iterator):
            source = list(source)

        pg = PropertyGraph()
        stats = DataTransformStats()
        result = TransformedGraph(
            graph=pg, schema_result=self.schema_result,
            options=self.options, stats=stats,
        )

        # Phase 1 - Entities to PG nodes (Algorithm 1, lines 4-14).
        entity_types: dict[Subject, list[IRI]] = {}
        for triple in source:
            stats.triples_processed += 1
            if triple.p == _TYPE and isinstance(triple.o, IRI):
                entity_types.setdefault(triple.s, []).append(triple.o)
        for entity, types in entity_types.items():
            self._create_entity_node(pg, entity, types, stats)

        # Phase 2 - Properties to key/values and edges (lines 15-31).
        # Resolution of (subject types, predicate) -> property mapping is
        # memoized: real graphs have few distinct type combinations.
        type_keys: dict[Subject, tuple[str, ...]] = {
            entity: tuple(sorted(t.value for t in types))
            for entity, types in entity_types.items()
        }
        resolution_cache: dict[tuple[tuple[str, ...], str], object] = {}
        for triple in source:
            if triple.p == _TYPE and isinstance(triple.o, IRI):
                continue
            self._convert_property_triple(
                pg, triple, entity_types, type_keys, resolution_cache, stats
            )
        return result

    # ------------------------------------------------------------------ #
    # Phase 1 helpers
    # ------------------------------------------------------------------ #

    def _create_entity_node(
        self,
        pg: PropertyGraph,
        entity: Subject,
        types: list[IRI],
        stats: DataTransformStats,
    ) -> PGNode:
        node_id = node_id_for(entity)
        if pg.has_node(node_id):
            node = pg.get_node(node_id)
        else:
            node = pg.add_node(node_id, properties={IRI_KEY: node_id})
            stats.entity_nodes += 1
        for type_iri in sorted(types, key=lambda t: t.value):
            label = self._label_for_type(type_iri)
            if label is not None:
                node.labels.add(label)
        return node

    def _label_for_type(self, type_iri: IRI) -> str | None:
        label = self.mapping.label_for_class(type_iri.value)
        if label is not None:
            return label
        if self.options.on_unknown == "error":
            raise TransformError(f"no shape targets class {type_iri.value}")
        if self.options.on_unknown == "skip":
            return None
        return self.registry.ensure_external_class(type_iri.value)

    # ------------------------------------------------------------------ #
    # Phase 2 helpers
    # ------------------------------------------------------------------ #

    def _convert_property_triple(
        self,
        pg: PropertyGraph,
        triple: Triple,
        entity_types: dict[Subject, list[IRI]],
        type_keys: dict[Subject, tuple[str, ...]],
        resolution_cache: dict,
        stats: DataTransformStats,
    ) -> None:
        subject_node = self._subject_node(pg, triple.s, stats)
        types = type_keys.get(triple.s, ())
        cache_key = (types, triple.p.value)
        if cache_key in resolution_cache:
            prop = resolution_cache[cache_key]
        else:
            prop = self.mapping.property_for(list(types), triple.p.value)
            resolution_cache[cache_key] = prop
        if prop is None:
            if self.options.on_unknown == "error":
                raise TransformError(
                    f"no property shape covers predicate {triple.p.value} "
                    f"for subject types {types}"
                )
            if self.options.on_unknown == "skip":
                stats.skipped += 1
                return
            prop = self.registry.fallback_property(triple.p.value)

        obj = triple.o
        # Line 16: objects that exist as typed entities always become edges.
        if isinstance(obj, (IRI, BlankNode)) and obj in entity_types:
            rel_type = prop.rel_type or self.registry.fallback_property(
                triple.p.value
            ).rel_type
            self._add_edge(pg, subject_node.id, rel_type, node_id_for(obj), stats)
            return
        # Lines 21-23: parsimonious key/value storage for single-valued
        # literal properties.  The literal must carry the datatype the
        # schema mapped the key to (Algorithm 1 checks the data type
        # against E_s(t.p)); off-schema values fall through to the fully
        # preserving literal-node representation below.  A second value
        # for a max-1 key promotes the record entry to an array, which
        # keeps the transformation lossless and makes the cardinality
        # violation visible to PG-Schema conformance checking.
        if (
            prop.is_key_value()
            and isinstance(obj, Literal)
            and obj.datatype == prop.datatype
        ):
            value = encode_literal_value(obj, self.options.typed_literal_values)
            subject_node.append_property(prop.pg_key, value)
            stats.key_values += 1
            return
        # Lines 25-31: multi-type / heterogeneous values become typed
        # literal nodes (or generic resource nodes for untyped IRIs).
        rel_type = prop.rel_type
        if rel_type is None:
            rel_type = self.registry.fallback_property(triple.p.value).rel_type
        if isinstance(obj, Literal):
            target_id = self._literal_node(pg, obj, stats)
        else:
            target_id = self._resource_node(pg, obj, stats)
        self._add_edge(pg, subject_node.id, rel_type, target_id, stats)

    def _subject_node(
        self, pg: PropertyGraph, subject: Subject, stats: DataTransformStats
    ) -> PGNode:
        node_id = node_id_for(subject)
        if pg.has_node(node_id):
            return pg.get_node(node_id)
        # A subject with no rdf:type statement: a generic resource node.
        node = pg.add_node(
            node_id, labels={RESOURCE_LABEL}, properties={IRI_KEY: node_id}
        )
        stats.entity_nodes += 1
        return node

    def _resource_node(
        self, pg: PropertyGraph, obj: Subject, stats: DataTransformStats
    ) -> str:
        node_id = node_id_for(obj)
        if not pg.has_node(node_id):
            pg.add_node(
                node_id, labels={RESOURCE_LABEL}, properties={IRI_KEY: node_id}
            )
            stats.entity_nodes += 1
        return node_id

    def _literal_node(
        self, pg: PropertyGraph, literal: Literal, stats: DataTransformStats
    ) -> str:
        node_id = literal_node_id(literal)
        if pg.has_node(node_id):
            return node_id
        info = self.registry.ensure_literal_type(literal.datatype)
        properties: dict[str, object] = {
            VALUE_KEY: encode_literal_value(literal, self.options.typed_literal_values),
            DTYPE_KEY: literal.datatype,
        }
        if literal.language is not None:
            properties[LANG_KEY] = literal.language
        pg.add_node(node_id, labels={info.label}, properties=properties)
        stats.literal_nodes += 1
        return node_id

    def _add_edge(
        self,
        pg: PropertyGraph,
        src: str,
        rel_type: str,
        dst: str,
        stats: DataTransformStats,
    ) -> None:
        edge_id = edge_id_for(src, rel_type, dst)
        if edge_id in pg.edges:
            return
        pg.add_edge(src, dst, labels={rel_type}, edge_id=edge_id)
        stats.edges += 1


def transform_data(
    source: Graph | Iterable[Triple],
    schema_result: SchemaTransformResult,
    options: TransformOptions = DEFAULT_OPTIONS,
) -> TransformedGraph:
    """Module-level convenience wrapper for :class:`DataTransformer`."""
    return DataTransformer(schema_result, options).transform(source)
