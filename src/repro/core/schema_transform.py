"""Schema transformation ``F_st``: SHACL shapes to PG-Schema (Section 4.1).

Implements the rule catalogue of Figure 5 / Table 1 over the Figure 3
taxonomy:

* node shape with ``sh:targetClass``          -> node type (+ ``iri`` key);
* ``sh:node`` hierarchy                        -> type inheritance (``&``);
* single-type literal property                 -> key/value record property
  (parsimonious mode; cardinality drives OPTIONAL / ARRAY per Table 1);
* single-type non-literal property             -> edge type + PG-Key
  cardinality constraint;
* multi-type homogeneous literal property      -> literal node types per
  datatype + edge type with alternative targets;
* multi-type homogeneous non-literal property  -> edge type with alternative
  node-type targets;
* multi-type heterogeneous property            -> edge type whose targets mix
  class node types and literal node types (Figure 5f).

In non-parsimonious mode *every* property becomes an edge type, which keeps
the transformation monotone under schema evolution (Section 4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TransformError
from ..namespaces import local_name
from ..pgschema.keys import CardinalityKey, UniqueKey
from ..pgschema.keys import UNBOUNDED as PG_UNBOUNDED
from ..pgschema.model import (
    ANY,
    EdgeType,
    NodeType,
    PGSchema,
    PropertySpec,
    STRING,
    content_type_for_datatype,
)
from ..rdf.namespace import PrefixMap
from ..rdf.terms import Literal
from ..shacl.model import (
    UNBOUNDED,
    ClassType,
    LiteralType,
    NodeShapeRef,
    PropertyShape,
    ShapeSchema,
)
from .config import DEFAULT_OPTIONS, TransformOptions
from .mapping import (
    ClassMapping,
    DTYPE_KEY,
    IRI_KEY,
    LANG_KEY,
    LiteralTypeInfo,
    MODE_EDGE,
    MODE_KEY_VALUE,
    PropertyMapping,
    RESOURCE_LABEL,
    RESOURCE_TYPE,
    SchemaMapping,
    VALUE_KEY,
)
from .naming import NameResolver, sanitize, type_name_for

_LANG_STRING = Literal.LANG_STRING


@dataclass
class SchemaTransformResult:
    """The pair ``(S_PG, F_st)`` required by Problem 1.

    Also carries the :class:`TypeRegistry` so that the data transformation
    can monotonically extend the schema (fallback types) with naming that
    stays consistent with the schema transformation.
    """

    pg_schema: PGSchema
    mapping: SchemaMapping
    registry: "TypeRegistry" = None  # set by SchemaTransformer.transform


class TypeRegistry:
    """Shared mutable view over (PG-Schema, mapping, names).

    Both the schema transformer and the data transformer extend the schema
    through this registry — the data transformer only when running with
    ``on_unknown="fallback"`` on triples not covered by any shape, which is
    a monotone extension of ``S_PG`` (new types only, Proposition 4.3).
    """

    def __init__(self, pg_schema: PGSchema, mapping: SchemaMapping, resolver: NameResolver):
        self.pg_schema = pg_schema
        self.mapping = mapping
        self.resolver = resolver
        self._ensure_resource_type()

    def _ensure_resource_type(self) -> None:
        if RESOURCE_TYPE not in self.pg_schema.node_types:
            self.pg_schema.add_node_type(
                NodeType(
                    name=RESOURCE_TYPE,
                    labels={RESOURCE_LABEL},
                    properties={IRI_KEY: PropertySpec(IRI_KEY, STRING)},
                )
            )

    def ensure_literal_type(self, datatype: str) -> LiteralTypeInfo:
        """The literal node type for ``datatype``, creating it on demand.

        Figure 5d: ``(gYearType: YEAR {iri: "http://...#gYear"})``.
        """
        info = self.mapping.literal_types.get(datatype)
        if info is not None:
            return info
        content = content_type_for_datatype(datatype)
        local = sanitize(local_name(datatype))
        label = content if content != ANY else local.upper()
        type_name = type_name_for(local)
        if type_name in self.pg_schema.node_types:
            type_name = f"{type_name}_{len(self.mapping.literal_types)}"
        node_type = NodeType(
            name=type_name,
            labels={label},
            properties={
                VALUE_KEY: PropertySpec(VALUE_KEY, content),
                DTYPE_KEY: PropertySpec(DTYPE_KEY, STRING, optional=True),
                LANG_KEY: PropertySpec(LANG_KEY, STRING, optional=True),
            },
            annotations={IRI_KEY: datatype},
            is_literal_type=True,
        )
        self.pg_schema.add_node_type(node_type)
        info = LiteralTypeInfo(
            datatype=datatype, type_name=type_name, label=label, content_type=content
        )
        self.mapping.add_literal_type(info)
        return info

    def ensure_external_class(self, class_iri: str) -> str:
        """A node type for a class that has no shape; returns its label.

        Used when a property shape's ``sh:class`` names a class that is not
        the target of any node shape (allowed by Definition 2.3: the object
        only needs to be an instance of the class).
        """
        existing = self.mapping.label_for_class(class_iri)
        if existing is not None:
            return existing
        label = self.resolver.name_for(class_iri)
        type_name = type_name_for(label)
        if type_name not in self.pg_schema.node_types:
            self.pg_schema.add_node_type(
                NodeType(
                    name=type_name,
                    labels={label},
                    properties={IRI_KEY: PropertySpec(IRI_KEY, STRING)},
                    annotations={IRI_KEY: class_iri},
                )
            )
        self.mapping.add_class(
            ClassMapping(
                class_iri=class_iri,
                shape_name=class_iri,
                node_type_name=type_name,
                label=label,
                from_shape=False,
            )
        )
        return label

    def ensure_edge_type(self, rel_type: str, predicate: str, source_type: str | None,
                         target_types: list[str]) -> EdgeType:
        """Get or monotonically extend the edge type for ``rel_type``."""
        name = type_name_for(rel_type)
        edge_type = self.pg_schema.edge_types.get(name)
        if edge_type is None:
            edge_type = EdgeType(
                name=name,
                label=rel_type,
                source_types=(),
                target_types=(),
                annotations={IRI_KEY: predicate},
            )
            self.pg_schema.add_edge_type(edge_type)
        if source_type is not None and source_type not in edge_type.source_types:
            edge_type.source_types = tuple(
                sorted({*edge_type.source_types, source_type})
            )
        new_targets = set(edge_type.target_types) | set(target_types)
        if new_targets != set(edge_type.target_types):
            edge_type.target_types = tuple(sorted(new_targets))
        return edge_type

    def fallback_property(self, predicate: str) -> PropertyMapping:
        """A generic edge-mode mapping for a predicate no shape covers."""
        existing = self.mapping.fallback.get(predicate)
        if existing is not None:
            return existing
        rel_type = self.resolver.name_for(predicate)
        self.ensure_edge_type(rel_type, predicate, None, [])
        prop = PropertyMapping(
            predicate=predicate,
            mode=MODE_EDGE,
            rel_type=rel_type,
            min_count=0,
            max_count=UNBOUNDED,
        )
        self.mapping.add_fallback(prop)
        return prop


def foldable_predicates(shape_schema: ShapeSchema) -> dict[str, str]:
    """The parsimonious fold rule: predicate -> the datatype of its key.

    A predicate is stored as a record key when every property shape on it
    admits exactly one literal datatype, the same one everywhere, and that
    datatype is not ``rdf:langString``.  The rule is global: if any shape
    needs an edge for a predicate (multi-type, heterogeneous, or another
    datatype elsewhere), every shape uses the edge.  Otherwise an entity
    carrying several types — or a query phrased against a superclass —
    would resolve the same predicate to different representations.
    """
    datatypes: dict[str, str | None] = {}
    for _, phi in shape_schema.all_property_shapes():
        sole = phi.sole_literal_type()
        datatype = (
            None if sole is None or sole.datatype == _LANG_STRING else sole.datatype
        )
        if datatypes.setdefault(phi.path, datatype) != datatype:
            datatypes[phi.path] = None
    return {p: d for p, d in datatypes.items() if d is not None}


class SchemaTransformer:
    """Transforms a :class:`ShapeSchema` into ``(S_PG, F_st)``.

    Args:
        options: transformation options (parsimonious mode etc.).
        prefixes: prefix table used for deterministic naming.
    """

    def __init__(
        self,
        options: TransformOptions = DEFAULT_OPTIONS,
        prefixes: PrefixMap | None = None,
    ):
        self.options = options
        self.prefixes = prefixes or PrefixMap.with_defaults()

    def transform(self, shape_schema: ShapeSchema) -> SchemaTransformResult:
        """Run ``F_st`` over ``shape_schema``.

        Raises:
            TransformError: when shapes reference unknown shapes.
        """
        shape_schema.validate_references()
        resolver = NameResolver(self.prefixes)
        pg_schema = PGSchema()
        mapping = SchemaMapping(parsimonious=self.options.parsimonious)
        registry = TypeRegistry(pg_schema, mapping, resolver)

        self._foldable = (
            foldable_predicates(shape_schema) if self.options.parsimonious else {}
        )

        # Pass 1: allocate node types and labels for every shape so that
        # forward references (inheritance, shape refs) resolve.
        shape_labels: dict[str, str] = {}
        shape_type_names: dict[str, str] = {}
        for shape in shape_schema:
            anchor = shape.target_class or shape.name
            label = resolver.name_for(anchor)
            shape_labels[shape.name] = label
            shape_type_names[shape.name] = type_name_for(label)

        for shape in shape_schema:
            node_type = NodeType(
                name=shape_type_names[shape.name],
                labels={shape_labels[shape.name]},
                properties={IRI_KEY: PropertySpec(IRI_KEY, STRING)},
                parents=tuple(shape_type_names[p] for p in shape.extends),
                annotations={IRI_KEY: shape.target_class or shape.name},
            )
            pg_schema.add_node_type(node_type)
            pg_schema.add_key(UniqueKey(shape_labels[shape.name], IRI_KEY))

        # Pass 2: property shapes.
        class_mappings: dict[str, ClassMapping] = {}
        for shape in shape_schema:
            label = shape_labels[shape.name]
            type_name = shape_type_names[shape.name]
            node_type = pg_schema.node_type(type_name)
            properties: dict[str, PropertyMapping] = {}
            for phi in shape.property_shapes:
                prop = self._transform_property(
                    phi, shape_schema, shape_labels, label, type_name,
                    node_type, registry, resolver, pg_schema,
                )
                properties[phi.path] = prop
            class_mappings[shape.name] = ClassMapping(
                class_iri=shape.target_class or shape.name,
                shape_name=shape.name,
                node_type_name=type_name,
                label=label,
                parents=shape.extends,
                properties=properties,
                local_predicates=tuple(properties),
            )

        # Fold inherited property mappings into each class mapping so that
        # F_dt can resolve predicates without walking the hierarchy.
        for shape in shape_schema:
            mapping_entry = class_mappings[shape.name]
            for parent in shape_schema.ancestors(shape.name):
                for predicate, prop in class_mappings[parent].properties.items():
                    mapping_entry.properties.setdefault(predicate, prop)
            mapping.add_class(mapping_entry)

        return SchemaTransformResult(
            pg_schema=pg_schema, mapping=mapping, registry=registry
        )

    # ------------------------------------------------------------------ #

    def _transform_property(
        self,
        phi: PropertyShape,
        shape_schema: ShapeSchema,
        shape_labels: dict[str, str],
        label: str,
        type_name: str,
        node_type: NodeType,
        registry: TypeRegistry,
        resolver: NameResolver,
        pg_schema: PGSchema,
    ) -> PropertyMapping:
        datatype = self._foldable.get(phi.path)
        if datatype is not None:
            return self._as_key_value(phi, datatype, node_type, resolver)
        return self._as_edge(
            phi, shape_schema, shape_labels, label, type_name, registry,
            resolver, pg_schema,
        )

    def _as_key_value(
        self,
        phi: PropertyShape,
        datatype: str,
        node_type: NodeType,
        resolver: NameResolver,
    ) -> PropertyMapping:
        """Table 1: single-type literal -> record property."""
        pg_key = resolver.name_for(phi.path)
        content = content_type_for_datatype(datatype)
        array = phi.max_count == UNBOUNDED or phi.max_count > 1
        spec = PropertySpec(
            key=pg_key,
            content_type=content,
            optional=phi.min_count == 0,
            array=array,
            array_min=phi.min_count if array else 0,
            array_max=(
                None if not array or phi.max_count == UNBOUNDED else int(phi.max_count)
            ),
        )
        node_type.add_property(spec)
        # Record the provenance of the key so that the PG-Schema text alone
        # suffices to reconstruct the SHACL property shape (used by N).
        node_type.annotations[f"{pg_key}__iri"] = phi.path
        node_type.annotations[f"{pg_key}__datatype"] = datatype
        return PropertyMapping(
            predicate=phi.path,
            mode=MODE_KEY_VALUE,
            pg_key=pg_key,
            datatype=datatype,
            min_count=phi.min_count,
            max_count=phi.max_count,
            array=array,
        )

    def _as_edge(
        self,
        phi: PropertyShape,
        shape_schema: ShapeSchema,
        shape_labels: dict[str, str],
        label: str,
        type_name: str,
        registry: TypeRegistry,
        resolver: NameResolver,
        pg_schema: PGSchema,
    ) -> PropertyMapping:
        """Figure 5 c-f: property -> edge type with alternative targets."""
        rel_type = resolver.name_for(phi.path)
        literal_targets: dict[str, str] = {}
        resource_targets: dict[str, str] = {}
        shape_targets: dict[str, str] = {}
        target_type_names: list[str] = []
        for vt in phi.value_types:
            if isinstance(vt, LiteralType):
                info = registry.ensure_literal_type(vt.datatype)
                literal_targets[vt.datatype] = info.label
                target_type_names.append(info.type_name)
            elif isinstance(vt, ClassType):
                target_shape = shape_schema.shape_for_class(vt.cls)
                if target_shape is not None:
                    target_label = shape_labels[target_shape.name]
                    target_type_names.append(type_name_for(target_label))
                else:
                    target_label = registry.ensure_external_class(vt.cls)
                    target_type_names.append(type_name_for(target_label))
                resource_targets[vt.cls] = target_label
            elif isinstance(vt, NodeShapeRef):
                target_label = shape_labels.get(vt.shape)
                if target_label is None:
                    raise TransformError(
                        f"property {phi.path} references unknown shape {vt.shape}"
                    )
                shape_targets[vt.shape] = target_label
                target_type_names.append(type_name_for(target_label))
            else:  # pragma: no cover - exhaustive
                raise TransformError(f"unknown value type {vt!r}")
        registry.ensure_edge_type(rel_type, phi.path, type_name, target_type_names)
        target_labels = tuple(
            sorted(
                {
                    *literal_targets.values(),
                    *resource_targets.values(),
                    *shape_targets.values(),
                }
            )
        )
        pg_schema.add_key(
            CardinalityKey(
                source_label=label,
                edge_label=rel_type,
                lower=phi.min_count,
                upper=PG_UNBOUNDED if phi.max_count == UNBOUNDED else phi.max_count,
                target_labels=target_labels,
            )
        )
        return PropertyMapping(
            predicate=phi.path,
            mode=MODE_EDGE,
            rel_type=rel_type,
            literal_targets=literal_targets,
            resource_targets=resource_targets,
            shape_targets=shape_targets,
            min_count=phi.min_count,
            max_count=phi.max_count,
        )


def transform_schema(
    shape_schema: ShapeSchema,
    options: TransformOptions = DEFAULT_OPTIONS,
    prefixes: PrefixMap | None = None,
) -> SchemaTransformResult:
    """Module-level convenience wrapper for :class:`SchemaTransformer`."""
    return SchemaTransformer(options, prefixes).transform(shape_schema)
