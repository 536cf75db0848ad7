"""NeoSemantics (n10s) baseline: a faithful reimplementation of its mapping.

NeoSemantics is Neo4j's RDF importer.  Its documented behaviour, which we
reproduce here, differs from S3PG in ways that make the transformation
*lossy* (Section 5.2):

* ``rdf:type`` objects become node labels; every resource node carries a
  ``uri`` property (n10s's key — note: not ``iri``).
* triples with IRI objects become relationships (creating an untyped
  ``Resource`` node for unseen IRIs);
* triples with literal objects become node properties; with
  ``handleMultival=ARRAY`` multiple values accumulate into an array —
  but **datatypes are erased** (``keepCustomDataTypes=false``) and
  **language tags are dropped** (``keepLangTag=false``), so distinct RDF
  literals that collide after erasure (e.g. ``"1999"^^xsd:gYear`` vs
  ``"1999"``) are merged, and the array is value-deduplicated;
* the transformation writes through the database (transactional load), so
  transformation and loading cannot be separated — matching Table 4 where
  NeoSemantics reports a single combined time.

Accuracy consequences measured in the paper (Tables 6-7) follow directly:
100% on single-type and homogeneous non-literal properties, and a small
loss (90-100%) on heterogeneous/multi-type literal properties.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core.data_transform import encode_literal_value
from ..core.naming import NameResolver
from ..namespaces import RDF_TYPE
from ..pg.model import PGNode, PropertyGraph
from ..pg.store import PropertyGraphStore
from ..rdf.graph import Graph
from ..rdf.terms import IRI, BlankNode, Literal, Subject, Triple

_TYPE = IRI(RDF_TYPE)

#: The record key NeoSemantics uses for the resource IRI.
URI_KEY = "uri"
#: Label assigned to resources with no rdf:type.
RESOURCE_LABEL = "Resource"


@dataclass
class NeoSemanticsStats:
    """Counters for one import run."""

    triples: int = 0
    nodes: int = 0
    relationships: int = 0
    properties_set: int = 0
    values_merged: int = 0  # distinct literals collapsed by type erasure
    commits: int = 0
    wal_bytes: int = 0
    wal_checksum: int = 0


@dataclass
class NeoSemanticsResult:
    """Output of a NeoSemantics-style import."""

    store: PropertyGraphStore
    resolver: NameResolver
    stats: NeoSemanticsStats = field(default_factory=NeoSemanticsStats)
    combined_seconds: float = 0.0

    @property
    def graph(self) -> PropertyGraph:
        """The imported property graph."""
        return self.store.graph


class NeoSemanticsTransformer:
    """Imports RDF triples the way n10s does (see module docstring).

    Args:
        handle_multival: ``"ARRAY"`` (accumulate values) or
            ``"OVERWRITE"`` (keep only the last value seen, n10s default —
            dramatically lossy; the paper's comparison uses ARRAY).
    """

    def __init__(
        self,
        handle_multival: str = "ARRAY",
        commit_size: int = 2_000,
        wal_dir: str | None = None,
    ):
        if handle_multival not in ("ARRAY", "OVERWRITE"):
            raise ValueError("handle_multival must be ARRAY or OVERWRITE")
        self.handle_multival = handle_multival
        self.commit_size = commit_size
        self.wal_dir = wal_dir

    def transform(self, source: Graph | Iterable[Triple]) -> NeoSemanticsResult:
        """Run the import.  Transformation and loading are one pass that
        writes through the (indexed) store, as n10s writes through Neo4j's
        transactional layer: every statement creates serialized change
        records in the transaction state, and every commit flushes them to
        a write-ahead log with an fsync."""
        start = time.perf_counter()
        resolver = NameResolver()
        store = PropertyGraphStore(property_indexes=(URI_KEY,))
        stats = NeoSemanticsStats()
        tx_state: dict[int, str] = {}
        with tempfile.NamedTemporaryFile(
            mode="w", encoding="utf-8", prefix="n10s-wal-",
            suffix=".log", dir=self.wal_dir, delete=True,
        ) as wal:
            for triple in source:
                stats.triples += 1
                self._import_triple(store, resolver, triple, stats)
                # Transaction state: one serialized change record per
                # write command, kept until commit (read-your-own-writes).
                tx_state[len(tx_state)] = json.dumps(
                    {"s": str(triple.s), "p": triple.p.value, "o": str(triple.o)}
                )
                if len(tx_state) >= self.commit_size:
                    self._commit(wal, tx_state, stats)
                    tx_state = {}
            if tx_state:
                self._commit(wal, tx_state, stats)
        elapsed = time.perf_counter() - start
        return NeoSemanticsResult(
            store=store, resolver=resolver, stats=stats, combined_seconds=elapsed
        )

    @staticmethod
    def _commit(wal, tx_state: dict[int, str], stats: NeoSemanticsStats) -> None:
        """A Neo4j-style transaction commit: write the batch's change
        records to the WAL, checksum them, and fsync the log."""
        record = "\n".join(tx_state.values())
        stats.wal_bytes += len(record)
        stats.wal_checksum = zlib.crc32(record.encode("utf-8"), stats.wal_checksum)
        wal.write(record)
        wal.write("\n")
        wal.flush()
        os.fsync(wal.fileno())
        stats.commits += 1

    # ------------------------------------------------------------------ #

    def _node_for(
        self,
        store: PropertyGraphStore,
        subject: Subject,
        stats: NeoSemanticsStats,
    ) -> PGNode:
        node_id = subject.value if isinstance(subject, IRI) else f"_:{subject.label}"
        if store.graph.has_node(node_id):
            return store.graph.get_node(node_id)
        node = store.add_node(
            node_id, labels={RESOURCE_LABEL}, properties={URI_KEY: node_id}
        )
        stats.nodes += 1
        return node

    def _import_triple(
        self,
        store: PropertyGraphStore,
        resolver: NameResolver,
        triple: Triple,
        stats: NeoSemanticsStats,
    ) -> None:
        subject_node = self._node_for(store, triple.s, stats)
        if triple.p == _TYPE and isinstance(triple.o, IRI):
            store.add_label(subject_node.id, resolver.name_for(triple.o.value))
            return
        if isinstance(triple.o, (IRI, BlankNode)):
            target_node = self._node_for(store, triple.o, stats)
            rel_type = resolver.name_for(triple.p.value)
            edge_id = f"{subject_node.id}|{rel_type}|{target_node.id}"
            if edge_id not in store.graph.edges:
                store.add_edge(
                    subject_node.id, target_node.id, labels={rel_type},
                    edge_id=edge_id,
                )
                stats.relationships += 1
            return
        # Literal object: node property with datatype erasure.
        key = resolver.name_for(triple.p.value)
        value = self._erase(triple.o)
        existing = subject_node.properties.get(key)
        if self.handle_multival == "OVERWRITE":
            subject_node.properties[key] = value
            stats.properties_set += 1
            return
        if existing is None:
            subject_node.properties[key] = value
        elif isinstance(existing, list):
            if value in existing:
                stats.values_merged += 1
            else:
                existing.append(value)
        else:
            if existing == value:
                stats.values_merged += 1
            else:
                subject_node.properties[key] = [existing, value]
        stats.properties_set += 1

    @staticmethod
    def _erase(literal: Literal) -> object:
        """n10s value conversion: native types, custom datatypes and
        language tags erased."""
        return encode_literal_value(literal)


def neosemantics_transform(
    source: Graph | Iterable[Triple],
    handle_multival: str = "ARRAY",
) -> NeoSemanticsResult:
    """Module-level convenience wrapper."""
    return NeoSemanticsTransformer(handle_multival).transform(source)


# --------------------------------------------------------------------- #
# Query generation (the paper's Q22-style NeoSemantics Cypher variants)
# --------------------------------------------------------------------- #

def cypher_for_class_property(
    resolver: NameResolver, class_iri: str, predicate: str
) -> str:
    """The NeoSemantics Cypher for ``SELECT ?e ?v { ?e a C ; p ?v }``.

    Matches the paper's published NeoSemantics variant of Q22: a UNION ALL
    of the relationship form and the UNWIND-over-property form.
    """
    label = resolver.name_for(class_iri)
    key = resolver.name_for(predicate)
    return (
        f"MATCH (node:{label})-[:{key}]->(tn)\n"
        f"RETURN node.uri AS node_uri, tn.uri AS v\n"
        f"UNION ALL\n"
        f"MATCH (node:{label})\n"
        f"UNWIND node.{key} AS v\n"
        f"RETURN node.uri AS node_uri, v"
    )
