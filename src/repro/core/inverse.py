"""Inverse mappings ``M : PG -> G`` and ``N : S_PG -> S_G`` (Prop. 4.1).

Information preservation (Definition 3.1) requires computable mappings
that reconstruct the original RDF graph from the transformed property
graph and the original SHACL schema from the transformed PG-Schema.  Both
mappings are driven by the schema mapping ``F_st`` (which Problem 1
defines as part of the transformation output).

``M`` reconstruction rules:

* entity node labels -> ``rdf:type`` triples (label -> class via ``F_st``);
* ``iri`` record key -> the subject term (``_:`` prefix marks blank nodes);
* other record keys -> literal triples with the datatype recorded by the
  schema mapping; array values expand to one triple each;
* edges to entity/resource nodes -> object triples (rel type -> predicate);
* edges to literal nodes -> literal triples rebuilt from the node's
  ``value`` / ``dtype`` / ``lang`` record.
"""

from __future__ import annotations

from array import array
from pathlib import Path

from ..errors import TransformError
from ..namespaces import RDF_TYPE, XSD
from ..pg.csv_io import read_csv
from ..pg.model import PGNode, PropertyGraph
from ..rdf.graph import Graph
from ..rdf.terms import IRI, BlankNode, Literal, Object, Subject
from ..shacl.model import (
    UNBOUNDED,
    ClassType,
    LiteralType,
    NodeShape,
    NodeShapeRef,
    PropertyShape,
    ShapeSchema,
    ValueType,
)
from ..storage.intern import Memo, TermInterner
from .config import DEFAULT_OPTIONS, MONOTONE_OPTIONS, TransformOptions
from .data_transform import TransformedGraph, is_literal_node
from .mapping import (
    DTYPE_KEY,
    IRI_KEY,
    LANG_KEY,
    MODE_KEY_VALUE,
    RESOURCE_LABEL,
    SchemaMapping,
    VALUE_KEY,
)
from .schema_transform import SchemaTransformer, SchemaTransformResult

_TYPE = IRI(RDF_TYPE)


def scalar_to_lexical(value: object) -> str:
    """The RDF lexical form of a PG scalar value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _subject_term(node: PGNode) -> Subject:
    iri_value = node.properties.get(IRI_KEY)
    if not isinstance(iri_value, str):
        raise TransformError(f"node {node.id} has no usable iri property")
    if iri_value.startswith("_:"):
        return BlankNode(iri_value[2:])
    return IRI(iri_value)


def _literal_term(node: PGNode) -> Literal:
    dtype = node.properties[DTYPE_KEY]
    lexical = scalar_to_lexical(node.properties[VALUE_KEY])
    lang = node.properties.get(LANG_KEY)
    if lang is not None:
        return Literal(lexical, language=str(lang))
    return Literal(lexical, str(dtype))


def pg_to_rdf(graph: PropertyGraph, mapping: SchemaMapping) -> Graph:
    """The computable mapping ``M``: rebuild the RDF graph from the PG.

    Each term is built once: per node, label, record key, rel type,
    literal node and (lexical, datatype) record value.  Statements are
    collected as slots into that term table, the distinct slots are
    interned in first-appearance order, and the ids are indexed in bulk.

    Raises:
        TransformError: when the PG contains elements the mapping cannot
            attribute to an RDF construct (never happens for S3PG output).
    """
    # Record keys map to a single (predicate, datatype) by construction;
    # precompute the table instead of scanning the mapping per node key.
    key_datatypes: dict[str, str] = {}
    for class_mapping in mapping.classes.values():
        for prop in class_mapping.properties.values():
            if prop.pg_key is not None and prop.datatype is not None:
                key_datatypes.setdefault(prop.pg_key, prop.datatype)

    table: list[Object] = [_TYPE]  # slot -> term; slot 0 is rdf:type

    def slot(term: Object) -> int:
        table.append(term)
        return len(table) - 1

    def class_slot(label: str) -> int:
        class_iri = mapping.class_for_label(label)
        if class_iri is None:
            raise TransformError(f"label {label!r} has no class mapping")
        return slot(IRI(class_iri))

    def key_slot(key: str) -> tuple[int, str]:
        predicate = mapping.predicate_for_key(key)
        if predicate is None:
            raise TransformError(f"record key {key!r} has no predicate mapping")
        return slot(IRI(predicate)), key_datatypes.get(key, XSD.string)

    def rel_slot(rel_type: str) -> int:
        predicate = mapping.predicate_for_rel(rel_type)
        if predicate is None:
            raise TransformError(f"relationship {rel_type!r} has no predicate mapping")
        return slot(IRI(predicate))

    classes, keys, rels = Memo(class_slot), Memo(key_slot), Memo(rel_slot)
    values = Memo(lambda lexical_datatype: slot(Literal(*lexical_datatype)))
    literals = Memo(lambda node_id: slot(_literal_term(graph.nodes[node_id])))
    subjects: dict[str, int] = {}
    flat: list[int] = []  # the statements' slots, s -> p -> o
    emit = flat.extend
    for node in graph.nodes.values():
        if is_literal_node(node):
            continue
        s = subjects[node.id] = slot(_subject_term(node))
        for label in node.labels:
            if label != RESOURCE_LABEL:
                emit((s, 0, classes[label]))
        for key, value in node.properties.items():
            if key == IRI_KEY:
                continue
            p, datatype = keys[key]
            for item in value if isinstance(value, list) else (value,):
                emit((s, p, values[scalar_to_lexical(item), datatype]))
    for edge in graph.edges.values():
        p = rels[edge.label()]
        s = subjects.get(edge.src)
        if s is None:
            raise TransformError(f"edge {edge.id} starts at a literal node")
        # Every non-literal node is in ``subjects``.
        o = subjects.get(edge.dst)
        emit((s, p, literals[edge.dst] if o is None else o))
    terms = TermInterner()
    ids = {i: terms.intern(table[i]) for i in dict.fromkeys(flat)}
    return Graph._from_ids(terms, array("q", map(ids.__getitem__, flat)))


def pgschema_to_shacl(mapping: SchemaMapping) -> ShapeSchema:
    """The computable mapping ``N``: rebuild the SHACL schema from ``F_st``.

    Only mappings that originate from node shapes are reconstructed;
    auxiliary types created for classes without shapes or for fallback
    predicates have no SHACL counterpart by construction.
    """
    schema = ShapeSchema()
    for class_mapping in mapping.classes.values():
        if not class_mapping.from_shape:
            continue
        property_shapes: list[PropertyShape] = []
        for predicate in class_mapping.local_predicates:
            prop = class_mapping.properties[predicate]
            value_types: list[ValueType] = []
            if prop.mode == MODE_KEY_VALUE:
                value_types.append(LiteralType(prop.datatype))
            else:
                for datatype in prop.literal_targets:
                    value_types.append(LiteralType(datatype))
                for class_iri in prop.resource_targets:
                    value_types.append(ClassType(class_iri))
                for shape_name in prop.shape_targets:
                    value_types.append(NodeShapeRef(shape_name))
            property_shapes.append(
                PropertyShape(
                    path=predicate,
                    value_types=tuple(value_types),
                    min_count=prop.min_count,
                    max_count=prop.max_count,
                )
            )
        schema.add(
            NodeShape(
                name=class_mapping.shape_name,
                target_class=(
                    class_mapping.class_iri
                    if class_mapping.class_iri != class_mapping.shape_name
                    else None
                ),
                extends=class_mapping.parents,
                property_shapes=property_shapes,
            )
        )
    return schema


def property_shapes_equivalent(a: PropertyShape, b: PropertyShape) -> bool:
    """Equality up to the ordering of ``sh:or`` alternatives."""
    return (
        a.path == b.path
        and a.min_count == b.min_count
        and a.max_count == b.max_count
        and set(a.value_types) == set(b.value_types)
    )


def shape_schemas_equivalent(a: ShapeSchema, b: ShapeSchema) -> bool:
    """Equality of shape schemas up to ordering of shapes/alternatives."""
    if set(a.names()) != set(b.names()):
        return False
    for name in a.names():
        shape_a, shape_b = a[name], b[name]
        if shape_a.target_class != shape_b.target_class:
            return False
        if set(shape_a.extends) != set(shape_b.extends):
            return False
        props_a = {phi.path: phi for phi in shape_a.property_shapes}
        props_b = {phi.path: phi for phi in shape_b.property_shapes}
        if set(props_a) != set(props_b):
            return False
        for path, phi_a in props_a.items():
            if not property_shapes_equivalent(phi_a, props_b[path]):
                return False
    return True


def schema_result_for(
    mapping: SchemaMapping, options: TransformOptions
) -> SchemaTransformResult:
    """``(S_PG, F_st)`` re-derived from a mapping under ``options``.

    ``N`` recovers the shape schema, ``F_st`` transforms it, and the
    external classes and fallback predicates the mapping's own run minted
    are re-registered, so the result covers every graph that run produced.
    """
    result = SchemaTransformer(options).transform(pgschema_to_shacl(mapping))
    for class_mapping in mapping.classes.values():
        if not class_mapping.from_shape:
            result.registry.ensure_external_class(class_mapping.class_iri)
    for predicate in mapping.fallback:
        result.registry.fallback_property(predicate)
    return result


def rebuild_transformed(pgdir, mapping_path) -> TransformedGraph:
    """Rebuild a :class:`TransformedGraph` from CSV + ``mapping.json`` artifacts.

    The mapping records the model flavour (parsimonious or monotone) and
    everything :func:`schema_result_for` needs.  Used by ``repro compact``,
    ``repro serve``, and checkpoint resume.
    """
    mapping = SchemaMapping.from_json(
        Path(mapping_path).read_text(encoding="utf-8")
    )
    options = DEFAULT_OPTIONS if mapping.parsimonious else MONOTONE_OPTIONS
    return TransformedGraph(
        graph=read_csv(pgdir),
        schema_result=schema_result_for(mapping, options),
        options=options,
    )
