"""An indexed property-graph store — the 'graph DBMS' substrate.

:class:`PropertyGraphStore` wraps a :class:`PropertyGraph` with the indexes
a database such as Neo4j maintains: a label index, adjacency lists grouped
by relationship type, and optional property (key, value) indexes.  The
Cypher engine evaluates against this store, and the *loading* phase of the
Table 4 experiment is exactly the :func:`PropertyGraphStore.bulk_load`
call (deserialize + index build), mirroring a bulk CSV import.

Physically the indexes are dictionary-encoded (:mod:`repro.storage`):
node/edge identifiers and labels/relationship types are interned to dense
integer ids, and every bucket is an
:class:`~repro.storage.postings.IntPostings` (sorted ``array('q')``)
rather than a ``set``/``list`` of strings.  Strings only appear at the
public API boundary.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

from ..storage.intern import Interner
from ..storage.postings import IntPostings
from .model import PGEdge, PGNode, PropertyGraph, PropertyValue, Scalar


class PropertyGraphStore:
    """Label-, type-, and property-indexed access over a property graph.

    Args:
        graph: the graph to index; an empty one is created by default.
        property_indexes: property keys to index on nodes, e.g. ``("iri",)``.
    """

    def __init__(
        self,
        graph: PropertyGraph | None = None,
        property_indexes: Iterable[str] = ("iri",),
    ):
        self.graph = graph or PropertyGraph()
        self._indexed_keys = tuple(property_indexes)
        #: Node/edge identifier ⇄ dense int dictionary.
        self._names = Interner()
        #: Label / relationship-type ⇄ dense int dictionary.
        self._labels = Interner()
        # label id -> postings of node ids
        self._label_index: dict[int, IntPostings] = {}
        # node id -> rel-type id -> postings of edge ids
        self._out: dict[int, dict[int, IntPostings]] = {}
        self._in: dict[int, dict[int, IntPostings]] = {}
        # (property key, scalar value) -> postings of node ids
        self._property_index: dict[tuple[str, Scalar], IntPostings] = {}
        #: Edges per relationship type id (planner statistics).
        self._rel_count: dict[int, int] = {}
        #: Mutation counter (plan/statistics cache invalidation).
        self._version = 0
        # Version-tagged caches for the vectorized executor's batch
        # adjacency API (see endpoint_arrays / node_id_array).
        self._endpoints: tuple[int, array, array] | None = None
        self._node_ids: tuple[int, array] | None = None
        if graph is not None:
            self.rebuild_indexes()

    # ------------------------------------------------------------------ #
    # Index maintenance
    # ------------------------------------------------------------------ #

    def rebuild_indexes(self) -> None:
        """Recompute every index from the underlying graph (bulk build)."""
        self._label_index.clear()
        self._out.clear()
        self._in.clear()
        self._property_index.clear()
        self._rel_count.clear()
        self._version += 1
        for node in self.graph.nodes.values():
            self._index_node(node)
        for edge in self.graph.edges.values():
            self._index_edge(edge)

    def _index_node(self, node: PGNode) -> None:
        nid = self._names.intern(node.id)
        intern_label = self._labels.intern
        for label in node.labels:
            li = intern_label(label)
            bucket = self._label_index.get(li)
            if bucket is None:
                bucket = self._label_index[li] = IntPostings()
            bucket.add(nid)
        for key in self._indexed_keys:
            value = node.properties.get(key)
            if isinstance(value, (str, int, float, bool)):
                bucket = self._property_index.get((key, value))
                if bucket is None:
                    bucket = self._property_index[(key, value)] = IntPostings()
                bucket.add(nid)

    def _index_edge(self, edge: PGEdge) -> None:
        names = self._names.intern
        eid = names(edge.id)
        src = names(edge.src)
        dst = names(edge.dst)
        intern_label = self._labels.intern
        for label in edge.labels:
            li = intern_label(label)
            for adjacency, endpoint in ((self._out, src), (self._in, dst)):
                by_type = adjacency.get(endpoint)
                if by_type is None:
                    by_type = adjacency[endpoint] = {}
                bucket = by_type.get(li)
                if bucket is None:
                    bucket = by_type[li] = IntPostings()
                bucket.add(eid)
            self._rel_count[li] = self._rel_count.get(li, 0) + 1

    def _unindex_node(self, node: PGNode) -> None:
        nid = self._names.lookup(node.id)
        if nid is None:
            return
        lookup_label = self._labels.lookup
        for label in node.labels:
            li = lookup_label(label)
            bucket = self._label_index.get(li) if li is not None else None
            if bucket is not None:
                bucket.discard(nid)
                if not bucket:
                    del self._label_index[li]
        for key in self._indexed_keys:
            value = node.properties.get(key)
            if isinstance(value, (str, int, float, bool)):
                bucket = self._property_index.get((key, value))
                if bucket is not None:
                    bucket.discard(nid)
                    if not bucket:
                        del self._property_index[(key, value)]

    def _unindex_edge(self, edge: PGEdge) -> None:
        names = self._names.lookup
        eid = names(edge.id)
        src = names(edge.src)
        dst = names(edge.dst)
        lookup_label = self._labels.lookup
        for label in edge.labels:
            li = lookup_label(label)
            if li is None:
                continue
            for adjacency, endpoint in ((self._out, src), (self._in, dst)):
                by_type = adjacency.get(endpoint)
                if by_type is None:
                    continue
                bucket = by_type.get(li)
                if bucket is not None and eid is not None and eid in bucket:
                    bucket.discard(eid)
                    if not bucket:
                        del by_type[li]
                if not by_type:
                    del adjacency[endpoint]
            remaining = self._rel_count.get(li, 0) - 1
            if remaining > 0:
                self._rel_count[li] = remaining
            else:
                self._rel_count.pop(li, None)

    # ------------------------------------------------------------------ #
    # Mutation (kept index-consistent)
    # ------------------------------------------------------------------ #

    def add_node(
        self,
        node_id: str | None = None,
        labels: Iterable[str] = (),
        properties: dict[str, PropertyValue] | None = None,
    ) -> PGNode:
        """Insert a node and index it."""
        node = self.graph.add_node(node_id, labels, properties)
        self._index_node(node)
        self._version += 1
        return node

    def add_edge(
        self,
        src: str,
        dst: str,
        labels: Iterable[str] = (),
        properties: dict[str, PropertyValue] | None = None,
        edge_id: str | None = None,
    ) -> PGEdge:
        """Insert an edge and index it."""
        edge = self.graph.add_edge(src, dst, labels, properties, edge_id)
        self._index_edge(edge)
        self._version += 1
        return edge

    def add_label(self, node_id: str, label: str) -> None:
        """Add a label to an existing node, keeping the label index fresh
        (no-op when already present)."""
        node = self.graph.get_node(node_id)
        if label in node.labels:
            return
        node.labels.add(label)
        li = self._labels.intern(label)
        bucket = self._label_index.get(li)
        if bucket is None:
            bucket = self._label_index[li] = IntPostings()
        bucket.add(self._names.intern(node_id))
        self._version += 1

    def remove_label(self, node_id: str, label: str) -> None:
        """Drop a label from an existing node, keeping the label index fresh."""
        node = self.graph.get_node(node_id)
        if label not in node.labels:
            return
        node.labels.discard(label)
        li = self._labels.lookup(label)
        nid = self._names.lookup(node_id)
        bucket = self._label_index.get(li) if li is not None else None
        if bucket is not None and nid is not None:
            bucket.discard(nid)
            if not bucket:
                del self._label_index[li]
        self._version += 1

    def set_node_property(self, node_id: str, key: str, value: PropertyValue) -> None:
        """Update a node property, keeping property indexes consistent."""
        node = self.graph.get_node(node_id)
        old = node.properties.get(key)
        indexed = key in self._indexed_keys
        nid = self._names.intern(node_id) if indexed else None
        if indexed and isinstance(old, (str, int, float, bool)):
            bucket = self._property_index.get((key, old))
            if bucket is not None:
                bucket.discard(nid)
        node.set_property(key, value)
        if indexed and isinstance(value, (str, int, float, bool)):
            bucket = self._property_index.get((key, value))
            if bucket is None:
                bucket = self._property_index[(key, value)] = IntPostings()
            bucket.add(nid)
        self._version += 1

    def delete_node_property(self, node_id: str, key: str) -> None:
        """Remove a node property, keeping property indexes consistent."""
        node = self.graph.get_node(node_id)
        if key not in node.properties:
            return
        old = node.properties[key]
        if key in self._indexed_keys and isinstance(old, (str, int, float, bool)):
            bucket = self._property_index.get((key, old))
            nid = self._names.lookup(node_id)
            if bucket is not None and nid is not None:
                bucket.discard(nid)
                if not bucket:
                    del self._property_index[(key, old)]
        del node.properties[key]
        self._version += 1

    def remove_edge(self, edge_id: str) -> None:
        """Delete an edge, updating adjacency and statistics incrementally."""
        edge = self.graph.get_edge(edge_id)
        self._unindex_edge(edge)
        self.graph.remove_edge(edge_id)
        self._version += 1

    def remove_node(self, node_id: str) -> None:
        """Delete a node and its incident edges, indexes kept incremental.

        O(degree), like :meth:`PropertyGraph.remove_node`.
        """
        node = self.graph.get_node(node_id)
        for edge in list(self.graph.incident_edges(node_id)):
            self._unindex_edge(edge)
        self._unindex_node(node)
        self.graph.remove_node(node_id)
        self._version += 1

    def bulk_load(self, graph: PropertyGraph) -> None:
        """Replace the stored graph and rebuild all indexes.

        This models the *loading* phase (L) of Table 4: the transformed
        graph is handed to the DBMS, which ingests it and builds its
        internal indexes before it can serve queries.
        """
        self.graph = graph
        self.rebuild_indexes()

    # ------------------------------------------------------------------ #
    # Indexed reads
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Mutation counter; changes on every index-affecting mutation."""
        return self._version

    def catalog_snapshot(self) -> dict:
        """An order-free view of the derived indexes and statistics.

        Two stores over structurally equal graphs must produce equal
        snapshots regardless of the mutation history that built them —
        the invariant incremental maintenance has to preserve.  Keys and
        identifiers are decoded back to strings, so snapshots compare
        across stores with different interning histories.
        """
        label = self._labels.value
        name = self._names.value
        return {
            "rel_count": {label(li): n for li, n in self._rel_count.items()},
            "labels": {
                label(li): frozenset(name(i) for i in ids)
                for li, ids in self._label_index.items()
                if ids
            },
            "properties": {
                key: frozenset(name(i) for i in ids)
                for key, ids in self._property_index.items()
                if ids
            },
            "out": {
                name(node): {
                    label(li): sorted(name(i) for i in ids)
                    for li, ids in adjacency.items()
                    if ids
                }
                for node, adjacency in self._out.items()
                if any(adjacency.values())
            },
            "in": {
                name(node): {
                    label(li): sorted(name(i) for i in ids)
                    for li, ids in adjacency.items()
                    if ids
                }
                for node, adjacency in self._in.items()
                if any(adjacency.values())
            },
        }

    def catalog_discrepancies(self) -> list[str]:
        """Sections of the maintained catalogs that a fresh bulk rebuild
        over the same graph would populate differently (empty = consistent)."""
        fresh = PropertyGraphStore(
            self.graph, property_indexes=self._indexed_keys
        )
        mine, theirs = self.catalog_snapshot(), fresh.catalog_snapshot()
        return [
            f"{section} catalog diverges from a fresh rebuild"
            for section in mine
            if mine[section] != theirs[section]
        ]

    @property
    def indexed_keys(self) -> tuple[str, ...]:
        """Property keys covered by the (key, value) index."""
        return self._indexed_keys

    def node_count(self) -> int:
        """Number of nodes in the stored graph."""
        return self.graph.node_count()

    def edge_count(self) -> int:
        """Number of edges in the stored graph."""
        return self.graph.edge_count()

    def rel_type_count(self, rel_type: str) -> int:
        """Number of edges carrying ``rel_type`` (O(1))."""
        li = self._labels.lookup(rel_type)
        return self._rel_count.get(li, 0) if li is not None else 0

    def property_hits(self, key: str, value: Scalar) -> int | None:
        """Indexed hit count for ``key = value``; None when not indexed."""
        if key not in self._indexed_keys:
            return None
        if not isinstance(value, (str, int, float, bool)):
            return 0
        return len(self._property_index.get((key, value), ()))

    def nodes_with_label(self, label: str) -> Iterator[PGNode]:
        """All nodes carrying ``label`` (index lookup)."""
        li = self._labels.lookup(label)
        if li is None:
            return
        name = self._names.value
        nodes = self.graph.nodes
        for nid in self._label_index.get(li, ()):
            yield nodes[name(nid)]

    def count_label(self, label: str) -> int:
        """Number of nodes carrying ``label``."""
        li = self._labels.lookup(label)
        return len(self._label_index.get(li, ())) if li is not None else 0

    def nodes_by_property(self, key: str, value: Scalar) -> Iterator[PGNode]:
        """All nodes with ``properties[key] == value``.

        Uses the property index when ``key`` is indexed; otherwise scans.
        """
        if key in self._indexed_keys:
            name = self._names.value
            nodes = self.graph.nodes
            for nid in self._property_index.get((key, value), ()):
                yield nodes[name(nid)]
            return
        for node in self.graph.nodes.values():
            if node.properties.get(key) == value:
                yield node

    def node_by_property(self, key: str, value: Scalar) -> PGNode | None:
        """An arbitrary single node with the given property value, or None."""
        for node in self.nodes_by_property(key, value):
            return node
        return None

    def out_edges(self, node_id: str, rel_type: str | None = None) -> Iterator[PGEdge]:
        """Outgoing edges of a node, optionally restricted to one type."""
        yield from self._adjacent_edges(self._out, node_id, rel_type)

    def in_edges(self, node_id: str, rel_type: str | None = None) -> Iterator[PGEdge]:
        """Incoming edges of a node, optionally restricted to one type."""
        yield from self._adjacent_edges(self._in, node_id, rel_type)

    def _adjacent_edges(
        self, adjacency: dict, node_id: str, rel_type: str | None
    ) -> Iterator[PGEdge]:
        nid = self._names.lookup(node_id)
        by_type = adjacency.get(nid) if nid is not None else None
        if by_type is None:
            return
        name = self._names.value
        edges = self.graph.edges
        if rel_type is not None:
            li = self._labels.lookup(rel_type)
            if li is None:
                return
            for eid in by_type.get(li, ()):
                yield edges[name(eid)]
            return
        seen: set[int] = set()
        for edge_ids in by_type.values():
            for eid in edge_ids:
                if eid not in seen:
                    seen.add(eid)
                    yield edges[name(eid)]

    # ------------------------------------------------------------------ #
    # Batch (vectorized) read API
    # ------------------------------------------------------------------ #

    def endpoint_arrays(self) -> tuple[array, array]:
        """``(src, dst)`` node ids indexed by edge name-id.

        The vectorized :class:`~repro.query.plan.vectorized.BatchExpand`
        resolves an edge's far endpoint with one array index instead of
        decoding the edge object.  Built lazily, cached per store
        version (any index-affecting mutation invalidates it).
        """
        cached = self._endpoints
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2]
        n = len(self._names)
        src = array("q", bytes(8 * n))
        dst = array("q", bytes(8 * n))
        lookup = self._names.lookup
        for edge in self.graph.edges.values():
            eid = lookup(edge.id)
            s = lookup(edge.src)
            d = lookup(edge.dst)
            if eid is not None and s is not None and d is not None:
                src[eid] = s
                dst[eid] = d
        self._endpoints = (self._version, src, dst)
        return src, dst

    def node_id_array(self) -> array:
        """Every node's name-id as one ``array('q')`` (full-scan seeds).

        Cached per store version, like :meth:`endpoint_arrays`.
        """
        cached = self._node_ids
        if cached is not None and cached[0] == self._version:
            return cached[1]
        lookup = self._names.lookup
        ids = array("q")
        for node_id in self.graph.nodes:
            nid = lookup(node_id)
            if nid is not None:
                ids.append(nid)
        self._node_ids = (self._version, ids)
        return ids

    def edges_with_type(self, rel_type: str) -> Iterator[PGEdge]:
        """All edges of a given relationship type."""
        for edge in self.graph.edges.values():
            if rel_type in edge.labels:
                yield edge

    def degree(self, node_id: str, rel_type: str | None = None) -> int:
        """Outgoing degree of a node."""
        return sum(1 for _ in self.out_edges(node_id, rel_type))

    def warm_up(self) -> int:
        """Touch every node and edge once (models ``apoc.warmup.run``).

        Returns the number of elements visited.
        """
        visited = 0
        for node in self.graph.nodes.values():
            visited += 1 if node.id else 0
        for edge in self.graph.edges.values():
            visited += 1 if edge.id else 0
        return visited

    def __repr__(self) -> str:
        return (
            f"<PropertyGraphStore |N|={self.graph.node_count()} "
            f"|E|={self.graph.edge_count()} labels={len(self._label_index)}>"
        )
