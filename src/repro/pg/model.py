"""Property graph model (Definition 2.4).

A property graph ``PG = (N, E, rho, lambda, pi)``: nodes ``N``, edges ``E``
(disjoint from ``N``), a total function ``rho`` mapping edges to ordered
node pairs, a labelling ``lambda`` assigning finite label sets to nodes and
edges, and a record function ``pi`` assigning key/value records.

Property values are the usual PG scalar types (str, int, float, bool) or
homogeneous arrays thereof (lists); arrays are what the parsimonious
transformation produces for ``[·..N]`` cardinalities (Table 1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Union

from ..errors import GraphError

#: Scalar property value types supported by the PG data model.
Scalar = Union[str, int, float, bool]
#: A property value: a scalar or a homogeneous array of scalars.
PropertyValue = Union[Scalar, list]


def _check_property_value(key: str, value: object) -> None:
    if isinstance(value, bool) or isinstance(value, (str, int, float)):
        return
    if isinstance(value, list):
        for item in value:
            if not isinstance(item, (str, int, float, bool)):
                raise GraphError(
                    f"array property {key!r} contains non-scalar {item!r}"
                )
        return
    raise GraphError(f"unsupported property value for {key!r}: {value!r}")


@dataclass
class PGNode:
    """A node with multiple labels and a key/value record.

    Attributes:
        id: unique node identifier within its graph.
        labels: the label set ``lambda(n)`` (may be empty).
        properties: the record ``pi(n)``.
    """

    id: str
    labels: set[str] = field(default_factory=set)
    properties: dict[str, PropertyValue] = field(default_factory=dict)

    def set_property(self, key: str, value: PropertyValue) -> None:
        """Assign a property, validating the value type."""
        _check_property_value(key, value)
        self.properties[key] = value

    def append_property(self, key: str, value: Scalar) -> None:
        """Append ``value`` to an array property, promoting a scalar.

        Used when a max-cardinality > 1 literal property receives its second
        value: ``x`` becomes ``[x, value]``.
        """
        _check_property_value(key, value)
        existing = self.properties.get(key)
        if existing is None:
            self.properties[key] = value
        elif isinstance(existing, list):
            existing.append(value)
        else:
            self.properties[key] = [existing, value]

    def has_label(self, label: str) -> bool:
        """True when ``label`` is in this node's label set."""
        return label in self.labels

    def __repr__(self) -> str:
        return f"PGNode({self.id!r}, labels={sorted(self.labels)}, props={len(self.properties)})"


@dataclass
class PGEdge:
    """A directed edge with labels and a record.

    Attributes:
        id: unique edge identifier within its graph.
        src: source node id (``rho(e)[0]``).
        dst: target node id (``rho(e)[1]``).
        labels: the label set ``lambda(e)``; usually a single relationship type.
        properties: the record ``pi(e)``.
    """

    id: str
    src: str
    dst: str
    labels: set[str] = field(default_factory=set)
    properties: dict[str, PropertyValue] = field(default_factory=dict)

    def set_property(self, key: str, value: PropertyValue) -> None:
        """Assign a property, validating the value type."""
        _check_property_value(key, value)
        self.properties[key] = value

    def label(self) -> str:
        """The relationship type (first label); raises if unlabelled."""
        for lab in self.labels:
            return lab
        raise GraphError(f"edge {self.id} has no label")

    def __repr__(self) -> str:
        return (
            f"PGEdge({self.id!r}, {self.src!r}->{self.dst!r}, "
            f"labels={sorted(self.labels)})"
        )


@dataclass(frozen=True)
class PGStats:
    """Transformed-graph statistics in the layout of Table 5."""

    n_nodes: int
    n_edges: int
    n_rel_types: int
    n_labels: int
    n_node_properties: int
    n_edge_properties: int

    def as_row(self) -> dict[str, int]:
        """The Table 5 columns (plus extra detail columns)."""
        return {
            "# of Nodes": self.n_nodes,
            "# of Edges": self.n_edges,
            "# of Rel Types": self.n_rel_types,
            "# of Node Labels": self.n_labels,
            "# of Node Properties": self.n_node_properties,
            "# of Edge Properties": self.n_edge_properties,
        }


class PropertyGraph:
    """A mutable property graph: Definition 2.4 plus indexing-free storage.

    Invariants maintained:

    * node and edge identifier spaces are disjoint;
    * every edge endpoint refers to an existing node (``rho`` is total).

    For label- and property-indexed access (as a graph DBMS would provide)
    wrap the graph in :class:`repro.pg.store.PropertyGraphStore`.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, PGNode] = {}
        self._edges: dict[str, PGEdge] = {}
        # Incidence index: node id -> ids of edges touching it (in or out).
        self._incidence: dict[str, set[str]] = {}
        self._edge_counter = 0
        self._node_counter = 0

    # ------------------------------------------------------------------ #
    # Nodes
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> dict[str, PGNode]:
        """The node map (id -> node). Treat as read-only."""
        return self._nodes

    @property
    def edges(self) -> dict[str, PGEdge]:
        """The edge map (id -> edge). Treat as read-only."""
        return self._edges

    def fresh_node_id(self, prefix: str = "n") -> str:
        """Mint an unused node identifier."""
        while True:
            self._node_counter += 1
            candidate = f"{prefix}{self._node_counter}"
            if candidate not in self._nodes and candidate not in self._edges:
                return candidate

    def fresh_edge_id(self, prefix: str = "e") -> str:
        """Mint an unused edge identifier."""
        while True:
            self._edge_counter += 1
            candidate = f"{prefix}{self._edge_counter}"
            if candidate not in self._edges and candidate not in self._nodes:
                return candidate

    def add_node(
        self,
        node_id: str | None = None,
        labels: Iterable[str] = (),
        properties: dict[str, PropertyValue] | None = None,
    ) -> PGNode:
        """Create and insert a node; returns the new node.

        Raises:
            GraphError: when ``node_id`` is already used.
        """
        if node_id is None:
            node_id = self.fresh_node_id()
        if node_id in self._nodes or node_id in self._edges:
            raise GraphError(f"identifier {node_id!r} already in use")
        node = PGNode(id=node_id, labels=set(labels))
        if properties:
            for key, value in properties.items():
                node.set_property(key, value)
        self._nodes[node_id] = node
        return node

    def get_node(self, node_id: str) -> PGNode:
        """The node with ``node_id``; raises GraphError when absent."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"no node with id {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        """True when a node with this id exists."""
        return node_id in self._nodes

    def add_label(self, node_id: str, label: str) -> None:
        """Add a label to an existing node (no-op when already present)."""
        self.get_node(node_id).labels.add(label)

    def remove_label(self, node_id: str, label: str) -> None:
        """Drop a label from an existing node (no-op when absent)."""
        self.get_node(node_id).labels.discard(label)

    def set_node_property(self, node_id: str, key: str, value: PropertyValue) -> None:
        """Assign a property of an existing node, validating the value."""
        self.get_node(node_id).set_property(key, value)

    def delete_node_property(self, node_id: str, key: str) -> None:
        """Remove a property of an existing node (no-op when absent)."""
        self.get_node(node_id).properties.pop(key, None)

    def remove_node(self, node_id: str) -> None:
        """Delete a node and all its incident edges (O(degree))."""
        if node_id not in self._nodes:
            raise GraphError(f"no node with id {node_id!r}")
        for edge_id in list(self._incidence.get(node_id, ())):
            self.remove_edge(edge_id)
        self._incidence.pop(node_id, None)
        del self._nodes[node_id]

    def remove_isolated_node(self, node_id: str) -> None:
        """Delete a node that has no incident edges.

        O(1).  Raises GraphError when edges still touch the node, so
        the ``rho`` totality invariant cannot be silently broken.
        """
        if node_id not in self._nodes:
            raise GraphError(f"no node with id {node_id!r}")
        if self._incidence.get(node_id):
            raise GraphError(f"node {node_id!r} still has incident edges")
        self._incidence.pop(node_id, None)
        del self._nodes[node_id]

    # ------------------------------------------------------------------ #
    # Edges
    # ------------------------------------------------------------------ #

    def add_edge(
        self,
        src: str,
        dst: str,
        labels: Iterable[str] = (),
        properties: dict[str, PropertyValue] | None = None,
        edge_id: str | None = None,
    ) -> PGEdge:
        """Create and insert an edge ``src -> dst``.

        Raises:
            GraphError: when an endpoint does not exist or the id is taken.
        """
        if src not in self._nodes:
            raise GraphError(f"edge source {src!r} does not exist")
        if dst not in self._nodes:
            raise GraphError(f"edge target {dst!r} does not exist")
        if edge_id is None:
            edge_id = self.fresh_edge_id()
        if edge_id in self._edges or edge_id in self._nodes:
            raise GraphError(f"identifier {edge_id!r} already in use")
        edge = PGEdge(id=edge_id, src=src, dst=dst, labels=set(labels))
        if properties:
            for key, value in properties.items():
                edge.set_property(key, value)
        self._edges[edge_id] = edge
        self._incidence.setdefault(src, set()).add(edge_id)
        self._incidence.setdefault(dst, set()).add(edge_id)
        return edge

    def get_edge(self, edge_id: str) -> PGEdge:
        """The edge with ``edge_id``; raises GraphError when absent."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise GraphError(f"no edge with id {edge_id!r}") from None

    def remove_edge(self, edge_id: str) -> None:
        """Delete an edge, keeping the incidence index consistent."""
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            raise GraphError(f"no edge with id {edge_id!r}")
        for endpoint in (edge.src, edge.dst):
            incident = self._incidence.get(endpoint)
            if incident is not None:
                incident.discard(edge_id)
                if not incident:
                    del self._incidence[endpoint]

    def incident_edges(self, node_id: str) -> Iterator[PGEdge]:
        """All edges touching ``node_id`` in either direction (O(degree))."""
        return (self._edges[eid] for eid in self._incidence.get(node_id, ()))

    def degree(self, node_id: str) -> int:
        """Number of edges touching ``node_id`` (O(1))."""
        return len(self._incidence.get(node_id, ()))

    def out_edges(self, node_id: str) -> Iterator[PGEdge]:
        """All edges whose source is ``node_id`` (O(degree))."""
        return (e for e in self.incident_edges(node_id) if e.src == node_id)

    def in_edges(self, node_id: str) -> Iterator[PGEdge]:
        """All edges whose target is ``node_id`` (O(degree))."""
        return (e for e in self.incident_edges(node_id) if e.dst == node_id)

    # ------------------------------------------------------------------ #
    # Whole-graph views
    # ------------------------------------------------------------------ #

    def node_count(self) -> int:
        """|N|."""
        return len(self._nodes)

    def edge_count(self) -> int:
        """|E|."""
        return len(self._edges)

    def labels(self) -> set[str]:
        """All node labels in use."""
        result: set[str] = set()
        for node in self._nodes.values():
            result.update(node.labels)
        return result

    def relationship_types(self) -> set[str]:
        """All edge labels in use (Neo4j's 'relationship types')."""
        result: set[str] = set()
        for edge in self._edges.values():
            result.update(edge.labels)
        return result

    def nodes_with_label(self, label: str) -> Iterator[PGNode]:
        """All nodes carrying ``label`` (linear scan)."""
        return (n for n in self._nodes.values() if label in n.labels)

    def stats(self) -> PGStats:
        """Compute the Table 5 statistics."""
        return PGStats(
            n_nodes=len(self._nodes),
            n_edges=len(self._edges),
            n_rel_types=len(self.relationship_types()),
            n_labels=len(self.labels()),
            n_node_properties=sum(len(n.properties) for n in self._nodes.values()),
            n_edge_properties=sum(len(e.properties) for e in self._edges.values()),
        )

    def canonical_form(self) -> tuple:
        """A hashable canonical form for structural equality.

        Two graphs with the same nodes (id, labels, properties) and edges
        (src, dst, labels) have the same canonical form; array property
        values compare as multisets (insertion order is irrelevant).
        """
        def canon_props(properties: dict[str, PropertyValue]) -> tuple:
            items = []
            for key in sorted(properties):
                value = properties[key]
                if isinstance(value, list):
                    items.append((key, ("array", *sorted(map(repr, value)))))
                else:
                    items.append((key, ("scalar", repr(value))))
            return tuple(items)

        nodes = tuple(
            sorted(
                (n.id, tuple(sorted(n.labels)), canon_props(n.properties))
                for n in self._nodes.values()
            )
        )
        edges = tuple(
            sorted(
                (e.src, e.dst, tuple(sorted(e.labels)), canon_props(e.properties))
                for e in self._edges.values()
            )
        )
        return (nodes, edges)

    def structurally_equal(self, other: "PropertyGraph") -> bool:
        """True when both graphs have the same canonical form."""
        return self.canonical_form() == other.canonical_form()

    def copy(self) -> "PropertyGraph":
        """A deep copy of the graph."""
        clone = PropertyGraph()
        for node in self._nodes.values():
            clone.add_node(
                node.id,
                labels=set(node.labels),
                properties={
                    k: list(v) if isinstance(v, list) else v
                    for k, v in node.properties.items()
                },
            )
        for edge in self._edges.values():
            clone.add_edge(
                edge.src,
                edge.dst,
                labels=set(edge.labels),
                properties={
                    k: list(v) if isinstance(v, list) else v
                    for k, v in edge.properties.items()
                },
                edge_id=edge.id,
            )
        clone._edge_counter = self._edge_counter
        clone._node_counter = self._node_counter
        return clone

    def __repr__(self) -> str:
        return f"<PropertyGraph |N|={len(self._nodes)} |E|={len(self._edges)}>"
