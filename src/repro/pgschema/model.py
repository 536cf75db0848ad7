"""PG-Schema model (Definition 2.5): node types, edge types, hierarchies.

A PG-Schema ``S_PG = (N_S, E_S, nu_S, eta_S, gamma_S, K_S)``:

* ``N_S`` — node type names, each mapping (via ``nu_S``) to the labels and
  property record the type allows;
* ``E_S`` — edge type names, each mapping (via ``eta_S``) to tuples of
  (source type, edge label/record, target type); we represent the
  alternatives as source/target *sets*, matching the paper's
  ``(:a)-[t]->(:x | :y | :z)`` notation (Figure 5 d/e/f);
* ``gamma_S`` — inheritance between node types (the ``&`` operator);
* ``K_S`` — PG-Keys constraints (see :mod:`repro.pgschema.keys`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from ..errors import SchemaError
from ..namespaces import XSD

#: PG content types (the data types of node/edge properties).
STRING = "STRING"
INTEGER = "INTEGER"
FLOAT = "FLOAT"
BOOLEAN = "BOOLEAN"
DATE = "DATE"
DATETIME = "DATETIME"
YEAR = "YEAR"
ANY = "ANY"

#: Mapping from XSD datatype IRIs to PG content types (Figure 5 d/f).
XSD_TO_CONTENT_TYPE: dict[str, str] = {
    XSD.string: STRING,
    XSD.normalizedString: STRING,
    XSD.token: STRING,
    XSD.anyURI: STRING,
    XSD.integer: INTEGER,
    XSD.int: INTEGER,
    XSD.long: INTEGER,
    XSD.short: INTEGER,
    XSD.byte: INTEGER,
    XSD.nonNegativeInteger: INTEGER,
    XSD.positiveInteger: INTEGER,
    XSD.decimal: FLOAT,
    XSD.double: FLOAT,
    XSD.float: FLOAT,
    XSD.boolean: BOOLEAN,
    XSD.date: DATE,
    XSD.dateTime: DATETIME,
    XSD.gYear: YEAR,
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString": STRING,
}


def content_type_for_datatype(datatype_iri: str) -> str:
    """The PG content type for an XSD datatype IRI (``ANY`` if unknown)."""
    return XSD_TO_CONTENT_TYPE.get(datatype_iri, ANY)


@dataclass(frozen=True)
class PropertySpec:
    """A typed property in a node/edge record (Table 1 conversions).

    Attributes:
        key: property name.
        content_type: one of the PG content types (``STRING``, ...).
        optional: whether the property may be absent (``OPTIONAL`` prefix).
        array: whether the value is an array (``... ARRAY {m, n}``).
        array_min: minimum array length (only when ``array``).
        array_max: maximum array length; ``None`` means unbounded.
    """

    key: str
    content_type: str = STRING
    optional: bool = False
    array: bool = False
    array_min: int = 0
    array_max: int | None = None

    def render(self) -> str:
        """Render in PG-Schema DDL property syntax (Table 1)."""
        prefix = "OPTIONAL " if self.optional else ""
        if not self.array:
            return f"{prefix}{self.key}: {self.content_type}"
        if self.array_min == 0 and self.array_max is None:
            bounds = "{}"
        elif self.array_max is None:
            bounds = f"{{{self.array_min},*}}"
        else:
            bounds = f"{{{self.array_min},{self.array_max}}}"
        return f"{prefix}{self.key}: {self.content_type} ARRAY {bounds}"


@dataclass
class NodeType:
    """A node type in ``N_S`` with its formal base type.

    Attributes:
        name: the type name (e.g. ``personType``).
        labels: labels a conforming node must carry (usually one).
        properties: allowed/required property record, keyed by name.
        parents: node types this type inherits from (``gamma_S``).
        abstract: abstract types cannot have direct instances.
        annotations: fixed property values (e.g. literal node types carry
            ``iri = "http://...#string"`` per Figure 5d).
        is_literal_type: True for node types that represent literal values
            (created for multi-type properties; they carry a ``value``
            property holding the literal).
    """

    name: str
    labels: set[str] = field(default_factory=set)
    properties: dict[str, PropertySpec] = field(default_factory=dict)
    parents: tuple[str, ...] = ()
    abstract: bool = False
    annotations: dict[str, str] = field(default_factory=dict)
    is_literal_type: bool = False

    def add_property(self, spec: PropertySpec) -> None:
        """Insert/replace a property spec."""
        self.properties[spec.key] = spec

    def __repr__(self) -> str:
        return (
            f"NodeType({self.name!r}, labels={sorted(self.labels)}, "
            f"props={list(self.properties)}, parents={list(self.parents)})"
        )


@dataclass
class EdgeType:
    """An edge type in ``E_S``.

    Attributes:
        name: the type name (e.g. ``worksForType``).
        label: the relationship label conforming edges must carry.
        source_types: names of allowed source node types.
        target_types: names of allowed target node types (alternatives,
            the ``(:a | :b)`` notation of Figure 5).
        properties: allowed edge record (e.g. the ``iri`` annotation).
        annotations: fixed property values (e.g. ``iri = "http://x.y/dob"``).
    """

    name: str
    label: str
    source_types: tuple[str, ...] = ()
    target_types: tuple[str, ...] = ()
    properties: dict[str, PropertySpec] = field(default_factory=dict)
    annotations: dict[str, str] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"EdgeType({self.name!r}, ({'|'.join(self.source_types)})-"
            f"[{self.label}]->({'|'.join(self.target_types)}))"
        )


class PGSchema:
    """The schema ``S_PG``: named node types, edge types, and PG-Keys."""

    def __init__(self) -> None:
        self._node_types: dict[str, NodeType] = {}
        self._edge_types: dict[str, EdgeType] = {}
        from .keys import PGKey  # local import to avoid a cycle

        self.keys: list[PGKey] = []

    # ------------------------------------------------------------------ #

    def add_node_type(self, node_type: NodeType) -> NodeType:
        """Insert or replace a node type."""
        self._node_types[node_type.name] = node_type
        return node_type

    def add_edge_type(self, edge_type: EdgeType) -> EdgeType:
        """Insert or replace an edge type."""
        self._edge_types[edge_type.name] = edge_type
        return edge_type

    def add_key(self, key) -> None:
        """Append a PG-Keys constraint."""
        self.keys.append(key)

    @property
    def node_types(self) -> dict[str, NodeType]:
        """``N_S`` with ``nu_S`` folded in (name -> NodeType)."""
        return self._node_types

    @property
    def edge_types(self) -> dict[str, EdgeType]:
        """``E_S`` with ``eta_S`` folded in (name -> EdgeType)."""
        return self._edge_types

    def node_type(self, name: str) -> NodeType:
        """Look up a node type; raises SchemaError when absent."""
        try:
            return self._node_types[name]
        except KeyError:
            raise SchemaError(f"unknown node type {name!r}") from None

    def edge_type(self, name: str) -> EdgeType:
        """Look up an edge type; raises SchemaError when absent."""
        try:
            return self._edge_types[name]
        except KeyError:
            raise SchemaError(f"unknown edge type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._node_types or name in self._edge_types

    def ancestors(self, name: str) -> list[str]:
        """Transitive parents of a node type (``gamma_S`` closure).

        Raises:
            SchemaError: on a cycle or a dangling parent reference.
        """
        result: list[str] = []
        seen: set[str] = {name}
        stack = list(self.node_type(name).parents)
        while stack:
            parent = stack.pop(0)
            if parent in seen:
                raise SchemaError(f"node type inheritance cycle at {parent!r}")
            if parent not in self._node_types:
                raise SchemaError(f"node type {name!r} inherits unknown {parent!r}")
            seen.add(parent)
            result.append(parent)
            stack.extend(self.node_type(parent).parents)
        return result

    def descendants(self, name: str) -> list[str]:
        """Node types that (transitively) inherit from ``name``."""
        return [
            other
            for other in self._node_types
            if other != name and name in self.ancestors(other)
        ]

    def effective_properties(self, name: str) -> dict[str, PropertySpec]:
        """Local properties plus all inherited ones (local wins)."""
        result = dict(self.node_type(name).properties)
        for parent in self.ancestors(name):
            for key, spec in self.node_type(parent).properties.items():
                result.setdefault(key, spec)
        return result

    def effective_labels(self, name: str) -> set[str]:
        """Labels of the type plus all inherited labels."""
        labels = set(self.node_type(name).labels)
        for parent in self.ancestors(name):
            labels.update(self.node_type(parent).labels)
        return labels

    def edge_types_with_label(self, label: str) -> Iterator[EdgeType]:
        """All edge types carrying relationship label ``label``."""
        return (t for t in self._edge_types.values() if t.label == label)

    def validate_references(self) -> None:
        """Check every parent / endpoint reference resolves.

        Raises:
            SchemaError: on the first dangling reference.
        """
        for node_type in self._node_types.values():
            for parent in node_type.parents:
                if parent not in self._node_types:
                    raise SchemaError(
                        f"node type {node_type.name!r} inherits unknown {parent!r}"
                    )
        for edge_type in self._edge_types.values():
            for endpoint in (*edge_type.source_types, *edge_type.target_types):
                if endpoint not in self._node_types:
                    raise SchemaError(
                        f"edge type {edge_type.name!r} references unknown "
                        f"node type {endpoint!r}"
                    )

    def __repr__(self) -> str:
        return (
            f"<PGSchema node_types={len(self._node_types)} "
            f"edge_types={len(self._edge_types)} keys={len(self.keys)}>"
        )
