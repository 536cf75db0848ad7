"""rdf2pg baseline: schema-dependent direct database mapping.

Reimplements the *direct database mapping* variant of rdf2pg [Angles,
Thakkar, Tomaszuk; IEEE Access 2020] that the paper compares against.
rdf2pg derives a relational-style typed database schema from the graph's
schema and maps each property to exactly **one** realization:

* properties whose schema mentions any non-literal (object) type become
  **edges only** — literal values of the same property are dropped (the
  dominant loss mode on multi-type heterogeneous properties, down to ~30%
  accuracy in Table 6);
* properties with only literal types become **typed attributes** with a
  single declared datatype (the majority/first datatype in the schema) —
  values of other datatypes and language-tagged values are dropped (the
  loss mode on multi-type homogeneous literal properties, 84-99%);
* blank-node subjects and objects are not representable in the direct
  database mapping and are skipped.

Architecturally faithful pipeline: in-memory transformation producing a
YARS-PG serialization (rdf2pg's native output), then a CSV conversion
(the paper's "enhanced Neo4JWriter") that is bulk-loaded — so the
transformation does more passes and holds more intermediate state than
S3PG, which is why it is slower (Table 4) and heavier on RAM.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core.data_transform import encode_literal_value
from ..core.naming import NameResolver
from ..namespaces import RDF_TYPE
from ..pg.csv_io import export_csv, import_csv
from ..pg.model import PGNode, PropertyGraph
from ..pg.store import PropertyGraphStore
from ..pg.yarspg import export_yarspg
from ..rdf.graph import Graph
from ..rdf.terms import IRI, BlankNode, Literal, Triple
from ..shacl.model import LiteralType, ShapeSchema

_TYPE = IRI(RDF_TYPE)

#: Attribute realization: property values stored as typed node attributes.
ATTRIBUTE = "attribute"
#: Edge realization: property values stored as relationships.
EDGE = "edge"


@dataclass
class Rdf2pgStats:
    """Counters for one rdf2pg run, including what was dropped."""

    triples: int = 0
    nodes: int = 0
    edges: int = 0
    attributes: int = 0
    dropped_literals: int = 0
    dropped_iris: int = 0
    dropped_bnodes: int = 0
    dropped_lang_tagged: int = 0
    dropped_wrong_datatype: int = 0


@dataclass
class PropertyRealization:
    """The single realization rdf2pg chose for one predicate."""

    predicate: str
    kind: str  # ATTRIBUTE | EDGE
    primary_datatype: str | None = None


@dataclass
class Rdf2pgResult:
    """Output of an rdf2pg run, with intermediate serializations."""

    store: PropertyGraphStore
    resolver: NameResolver
    realizations: dict[str, PropertyRealization]
    stats: Rdf2pgStats = field(default_factory=Rdf2pgStats)
    transform_seconds: float = 0.0
    load_seconds: float = 0.0
    yarspg_size: int = 0

    @property
    def graph(self) -> PropertyGraph:
        """The loaded property graph."""
        return self.store.graph


class Rdf2pgTransformer:
    """The schema-dependent direct database mapping (see module docstring).

    Args:
        shape_schema: the schema rdf2pg derives its typed database schema
            from (the original uses RDFS; feeding it the same SHACL shapes
            the paper extracts keeps the comparison fair).
    """

    def __init__(self, shape_schema: ShapeSchema):
        self.shape_schema = shape_schema
        self._realizations = self._decide_realizations(shape_schema)

    @staticmethod
    def _decide_realizations(schema: ShapeSchema) -> dict[str, PropertyRealization]:
        """One typed realization per predicate, derived from the schema.

        The declared attribute type is the *first* literal type of the
        property's shape — shape extractors (and hand-written schemas)
        list the dominant datatype first.
        """
        first_datatype: dict[str, str] = {}
        has_non_literal: dict[str, bool] = {}
        for _, phi in schema.all_property_shapes():
            for vt in phi.value_types:
                if isinstance(vt, LiteralType):
                    first_datatype.setdefault(phi.path, vt.datatype)
                else:
                    has_non_literal[phi.path] = True
        realizations: dict[str, PropertyRealization] = {}
        for predicate, datatype in first_datatype.items():
            if has_non_literal.get(predicate):
                realizations[predicate] = PropertyRealization(predicate, EDGE)
            else:
                realizations[predicate] = PropertyRealization(
                    predicate, ATTRIBUTE, primary_datatype=datatype
                )
        for predicate in has_non_literal:
            realizations.setdefault(predicate, PropertyRealization(predicate, EDGE))
        return realizations

    def realization_for(self, predicate: str) -> PropertyRealization:
        """The realization for ``predicate`` (defaults to EDGE when the
        schema does not mention it, as unseen predicates link resources)."""
        return self._realizations.get(
            predicate, PropertyRealization(predicate, EDGE)
        )

    # ------------------------------------------------------------------ #

    def transform(self, source: Graph | Iterable[Triple]) -> Rdf2pgResult:
        """Run transformation (to YARS-PG + CSV) and bulk load."""
        start = time.perf_counter()
        resolver = NameResolver(use_prefixes=True)
        pg = PropertyGraph()
        stats = Rdf2pgStats()
        if isinstance(source, Graph):
            triples: Iterable[Triple] = source
        else:
            triples = list(source)
        for triple in triples:
            stats.triples += 1
            self._map_triple(pg, resolver, triple, stats)
        # rdf2pg's native output is a YARS-PG document; the enhanced
        # Neo4JWriter then converts to CSV for efficient bulk loading.
        yarspg_text = export_yarspg(pg)
        nodes_csv, edges_csv = export_csv(pg)
        transform_seconds = time.perf_counter() - start

        start = time.perf_counter()
        loaded = import_csv(nodes_csv, edges_csv)
        store = PropertyGraphStore(property_indexes=("iri",))
        store.bulk_load(loaded)
        load_seconds = time.perf_counter() - start

        return Rdf2pgResult(
            store=store,
            resolver=resolver,
            realizations=dict(self._realizations),
            stats=stats,
            transform_seconds=transform_seconds,
            load_seconds=load_seconds,
            yarspg_size=len(yarspg_text),
        )

    # ------------------------------------------------------------------ #

    def _node_for(self, pg: PropertyGraph, iri: IRI, stats: Rdf2pgStats) -> PGNode:
        node_id = iri.value
        if pg.has_node(node_id):
            return pg.get_node(node_id)
        node = pg.add_node(node_id, labels=set(), properties={"iri": node_id})
        stats.nodes += 1
        return node

    def _map_triple(
        self,
        pg: PropertyGraph,
        resolver: NameResolver,
        triple: Triple,
        stats: Rdf2pgStats,
    ) -> None:
        if isinstance(triple.s, BlankNode) or isinstance(triple.o, BlankNode):
            stats.dropped_bnodes += 1
            return
        subject_node = self._node_for(pg, triple.s, stats)
        if triple.p == _TYPE and isinstance(triple.o, IRI):
            subject_node.labels.add(resolver.name_for(triple.o.value))
            return
        realization = self.realization_for(triple.p.value)
        if realization.kind == EDGE:
            if isinstance(triple.o, Literal):
                # Literal value of an object property: unrepresentable in
                # the direct database mapping -> dropped.
                stats.dropped_literals += 1
                return
            target_node = self._node_for(pg, triple.o, stats)
            rel_type = resolver.name_for(triple.p.value)
            edge_id = f"{subject_node.id}|{rel_type}|{target_node.id}"
            if edge_id not in pg.edges:
                pg.add_edge(
                    subject_node.id, target_node.id, labels={rel_type},
                    edge_id=edge_id,
                )
                stats.edges += 1
            return
        # ATTRIBUTE realization.
        if not isinstance(triple.o, Literal):
            # IRI value of a datatype property: unrepresentable -> dropped.
            stats.dropped_iris += 1
            return
        if triple.o.language is not None:
            stats.dropped_lang_tagged += 1
            return
        if triple.o.datatype != realization.primary_datatype:
            stats.dropped_wrong_datatype += 1
            return
        key = resolver.name_for(triple.p.value)
        subject_node.append_property(
            key, encode_literal_value(triple.o)
        )
        stats.attributes += 1


def rdf2pg_transform(
    source: Graph | Iterable[Triple], shape_schema: ShapeSchema
) -> Rdf2pgResult:
    """Module-level convenience wrapper."""
    return Rdf2pgTransformer(shape_schema).transform(source)


# --------------------------------------------------------------------- #
# Query generation
# --------------------------------------------------------------------- #

def cypher_for_class_property(
    result: Rdf2pgResult, class_iri: str, predicate: str
) -> str:
    """The rdf2pg Cypher for ``SELECT ?e ?v { ?e a C ; p ?v }``.

    The realization dictates the single available access path: an edge
    match for object properties, an UNWIND over the typed attribute for
    datatype properties.
    """
    label = result.resolver.name_for(class_iri)
    key = result.resolver.name_for(predicate)
    realization = result.realizations.get(predicate)
    if realization is not None and realization.kind == ATTRIBUTE:
        return (
            f"MATCH (node:{label})\n"
            f"UNWIND node.{key} AS v\n"
            f"RETURN node.iri AS node_iri, v"
        )
    return (
        f"MATCH (node:{label})-[:{key}]->(tn)\n"
        f"RETURN node.iri AS node_iri, tn.iri AS v"
    )
