"""The schema-transformation mapping ``F_st`` (Problem 1).

Problem 1 asks for the *pair* ``(S_PG, F_st)``: the transformed PG-Schema
plus the mapping between the two schemas.  :class:`SchemaMapping` is that
mapping, and it is what the data transformation (``F_dt[F_st]``), the
inverse mappings ``M``/``N`` (Proposition 4.1), and the SPARQL-to-Cypher
query translator all consume.

The mapping is JSON-serializable so that a transformation can be persisted
and resumed (required for the incremental/monotone workflow of Sec. 5.4).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import TransformError
from ..shacl.model import UNBOUNDED

#: Property realized as a key/value attribute inside the node record.
MODE_KEY_VALUE = "key_value"
#: Property realized as an edge (to resource nodes, literal nodes, or both).
MODE_EDGE = "edge"

#: The property key holding the original IRI on every resource node.
IRI_KEY = "iri"
#: The property key holding the literal value on literal nodes.
VALUE_KEY = "value"
#: The property key holding the datatype IRI on literal nodes.
DTYPE_KEY = "dtype"
#: The property key holding the language tag on literal nodes.
LANG_KEY = "lang"
#: Label of generic resource nodes for IRIs with no known type.
RESOURCE_LABEL = "Resource"
#: Node type name of the generic resource type.
RESOURCE_TYPE = "resourceType"


@dataclass(frozen=True)
class LiteralTypeInfo:
    """How one literal datatype is realized as a PG node type.

    Attributes:
        datatype: the datatype IRI (e.g. ``xsd:gYear``).
        type_name: the PG-Schema node type name (e.g. ``gYearType``).
        label: the node label instances carry (e.g. ``YEAR``).
        content_type: PG content type of the ``value`` property.
    """

    datatype: str
    type_name: str
    label: str
    content_type: str


@dataclass
class PropertyMapping:
    """How one property shape ``phi`` is realized in the property graph.

    Attributes:
        predicate: the property IRI ``tau_p``.
        mode: :data:`MODE_KEY_VALUE` or :data:`MODE_EDGE`.
        pg_key: record key (key/value mode only).
        rel_type: relationship label (edge mode only).
        datatype: the single literal datatype (key/value mode only).
        literal_targets: datatype IRI -> label of the literal node type,
            for edge mode with literal alternatives.
        resource_targets: class IRI -> node label, for edge mode with
            ``sh:class`` alternatives.
        shape_targets: node shape name -> node label, for edge mode with
            ``sh:node`` (shape reference) alternatives.
        min_count / max_count: the cardinality pair ``C_p``.
        array: key/value mode with max > 1 (values stored as an array).
    """

    predicate: str
    mode: str
    pg_key: str | None = None
    rel_type: str | None = None
    datatype: str | None = None
    literal_targets: dict[str, str] = field(default_factory=dict)
    resource_targets: dict[str, str] = field(default_factory=dict)
    shape_targets: dict[str, str] = field(default_factory=dict)
    min_count: int = 0
    max_count: float = UNBOUNDED
    array: bool = False

    def is_key_value(self) -> bool:
        """True for key/value (record attribute) realization."""
        return self.mode == MODE_KEY_VALUE

    def key_for(self, datatype: str) -> str | None:
        """The record key a literal of ``datatype`` folds into, or None when
        it stays an edge to a literal node — the per-literal half of the
        parsimonious fold (:func:`~repro.core.schema_transform.foldable_predicates`
        is the schema half).  A language-tagged literal's datatype is
        ``rdf:langString``, never foldable, so the datatype alone decides.
        """
        if self.mode == MODE_KEY_VALUE and datatype == self.datatype:
            return self.pg_key
        return None

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "predicate": self.predicate,
            "mode": self.mode,
            "pg_key": self.pg_key,
            "rel_type": self.rel_type,
            "datatype": self.datatype,
            "literal_targets": self.literal_targets,
            "resource_targets": self.resource_targets,
            "shape_targets": self.shape_targets,
            "min_count": self.min_count,
            "max_count": None if self.max_count == UNBOUNDED else self.max_count,
            "array": self.array,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PropertyMapping":
        """Inverse of :meth:`to_dict`."""
        return cls(
            predicate=data["predicate"],
            mode=data["mode"],
            pg_key=data.get("pg_key"),
            rel_type=data.get("rel_type"),
            datatype=data.get("datatype"),
            literal_targets=dict(data.get("literal_targets", {})),
            resource_targets=dict(data.get("resource_targets", {})),
            shape_targets=dict(data.get("shape_targets", {})),
            min_count=data.get("min_count", 0),
            max_count=(
                UNBOUNDED if data.get("max_count") is None else data["max_count"]
            ),
            array=data.get("array", False),
        )


@dataclass
class ClassMapping:
    """How one node shape / target class maps to a PG node type.

    Attributes:
        class_iri: the RDF class ``tau_s``.
        shape_name: the SHACL node shape name ``s``.
        node_type_name: the PG-Schema node type name.
        label: the PG label instances carry.
        parents: parent shape names (inheritance).
        properties: predicate IRI -> :class:`PropertyMapping` (effective,
            i.e. including inherited property shapes).
        local_predicates: the predicates whose property shapes were
            declared locally on this node shape (needed by the inverse
            mapping ``N`` to reconstruct the original schema exactly).
        from_shape: True when this mapping was created from a node shape;
            False for classes only referenced by ``sh:class`` constraints.
    """

    class_iri: str
    shape_name: str
    node_type_name: str
    label: str
    parents: tuple[str, ...] = ()
    properties: dict[str, PropertyMapping] = field(default_factory=dict)
    local_predicates: tuple[str, ...] = ()
    from_shape: bool = True

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "class_iri": self.class_iri,
            "shape_name": self.shape_name,
            "node_type_name": self.node_type_name,
            "label": self.label,
            "parents": list(self.parents),
            "properties": {k: v.to_dict() for k, v in self.properties.items()},
            "local_predicates": list(self.local_predicates),
            "from_shape": self.from_shape,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassMapping":
        """Inverse of :meth:`to_dict`."""
        return cls(
            class_iri=data["class_iri"],
            shape_name=data["shape_name"],
            node_type_name=data["node_type_name"],
            label=data["label"],
            parents=tuple(data.get("parents", ())),
            properties={
                k: PropertyMapping.from_dict(v)
                for k, v in data.get("properties", {}).items()
            },
            local_predicates=tuple(data.get("local_predicates", ())),
            from_shape=data.get("from_shape", True),
        )


class SchemaMapping:
    """The full mapping ``F_st : S_G -> S_PG``.

    Lookup directions provided:

    * class IRI -> :class:`ClassMapping` (forward, used by ``F_dt``);
    * PG label -> class IRI (backward, used by ``M`` and the translator);
    * relationship type -> predicate IRI (backward);
    * record key -> predicate IRI per label (backward);
    * datatype IRI -> :class:`LiteralTypeInfo` (both directions).
    """

    def __init__(self, parsimonious: bool = True):
        self.parsimonious = parsimonious
        self.classes: dict[str, ClassMapping] = {}
        self.literal_types: dict[str, LiteralTypeInfo] = {}
        self.class_labels: dict[str, str] = {}  # label -> class IRI
        self.rel_types: dict[str, str] = {}  # rel label -> predicate IRI
        self.pg_keys: dict[str, str] = {}  # record key -> predicate IRI
        self.fallback: dict[str, PropertyMapping] = {}  # predicate -> mapping

    # ------------------------------------------------------------------ #

    def add_class(self, mapping: ClassMapping) -> None:
        """Register a class mapping and its backward indexes."""
        self.classes[mapping.class_iri] = mapping
        self.class_labels[mapping.label] = mapping.class_iri
        for prop in mapping.properties.values():
            self._index_property(prop)

    def _index_property(self, prop: PropertyMapping) -> None:
        if prop.rel_type is not None:
            existing = self.rel_types.get(prop.rel_type)
            if existing is not None and existing != prop.predicate:
                raise TransformError(
                    f"relationship type {prop.rel_type!r} maps to two predicates: "
                    f"{existing} and {prop.predicate}"
                )
            self.rel_types[prop.rel_type] = prop.predicate
        if prop.pg_key is not None:
            existing = self.pg_keys.get(prop.pg_key)
            if existing is not None and existing != prop.predicate:
                raise TransformError(
                    f"record key {prop.pg_key!r} maps to two predicates: "
                    f"{existing} and {prop.predicate}"
                )
            self.pg_keys[prop.pg_key] = prop.predicate

    def add_literal_type(self, info: LiteralTypeInfo) -> None:
        """Register a literal node type."""
        self.literal_types[info.datatype] = info

    def add_fallback(self, prop: PropertyMapping) -> None:
        """Register a mapping for a predicate not covered by any shape."""
        self.fallback[prop.predicate] = prop
        self._index_property(prop)

    # ------------------------------------------------------------------ #
    # Forward lookups (used by F_dt)
    # ------------------------------------------------------------------ #

    def class_mapping(self, class_iri: str) -> ClassMapping | None:
        """The mapping for ``class_iri``, or None."""
        return self.classes.get(class_iri)

    def property_for(self, class_iris: list[str], predicate: str) -> PropertyMapping | None:
        """Resolve how ``predicate`` is modeled for an entity whose types
        are ``class_iris`` (first matching class in sorted order wins,
        which makes resolution deterministic)."""
        for class_iri in sorted(class_iris):
            mapping = self.classes.get(class_iri)
            if mapping is not None:
                prop = mapping.properties.get(predicate)
                if prop is not None:
                    return prop
        # No class context (untyped subject, or predicate declared on a
        # different shape): fall back to any shape declaring the predicate.
        for class_iri in sorted(self.classes):
            prop = self.classes[class_iri].properties.get(predicate)
            if prop is not None:
                return prop
        return self.fallback.get(predicate)

    def label_for_class(self, class_iri: str) -> str | None:
        """The PG label assigned to ``class_iri``, or None."""
        mapping = self.classes.get(class_iri)
        return mapping.label if mapping else None

    # ------------------------------------------------------------------ #
    # Backward lookups (used by M, N, and the query translator)
    # ------------------------------------------------------------------ #

    def class_for_label(self, label: str) -> str | None:
        """The class IRI a label stands for, or None."""
        return self.class_labels.get(label)

    def predicate_for_rel(self, rel_type: str) -> str | None:
        """The predicate IRI a relationship type stands for, or None."""
        return self.rel_types.get(rel_type)

    def predicate_for_key(self, record_key: str) -> str | None:
        """The predicate IRI a record key stands for, or None."""
        return self.pg_keys.get(record_key)

    def literal_info_for_label(self, label: str) -> LiteralTypeInfo | None:
        """The literal type whose node label is ``label``, or None."""
        for info in self.literal_types.values():
            if info.label == label:
                return info
        return None

    def datatype_for_key(self, record_key: str) -> str | None:
        """The literal datatype of a key/value property, searching all
        class mappings (they agree by construction)."""
        for mapping in self.classes.values():
            for prop in mapping.properties.values():
                if prop.pg_key == record_key and prop.datatype is not None:
                    return prop.datatype
        return None

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        """Serialize the mapping (round-trips through :meth:`from_json`)."""
        payload = {
            "parsimonious": self.parsimonious,
            "classes": {k: v.to_dict() for k, v in self.classes.items()},
            "literal_types": {
                k: {
                    "datatype": v.datatype,
                    "type_name": v.type_name,
                    "label": v.label,
                    "content_type": v.content_type,
                }
                for k, v in self.literal_types.items()
            },
            "fallback": {k: v.to_dict() for k, v in self.fallback.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SchemaMapping":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        mapping = cls(parsimonious=payload.get("parsimonious", True))
        for info in payload.get("literal_types", {}).values():
            mapping.add_literal_type(LiteralTypeInfo(**info))
        for class_data in payload.get("classes", {}).values():
            mapping.add_class(ClassMapping.from_dict(class_data))
        for prop_data in payload.get("fallback", {}).values():
            mapping.add_fallback(PropertyMapping.from_dict(prop_data))
        return mapping

    def __repr__(self) -> str:
        return (
            f"<SchemaMapping classes={len(self.classes)} "
            f"literal_types={len(self.literal_types)} "
            f"parsimonious={self.parsimonious}>"
        )
