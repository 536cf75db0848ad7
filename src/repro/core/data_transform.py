"""Data transformation ``F_dt`` — Algorithm 1 of the paper.

The two-phase streaming algorithm:

* **Phase 1** (entities to PG nodes): scan the triple stream for
  ``rdf:type`` statements; each one materializes (or labels) the PG node
  of its subject, so an entity ends with its types as labels and its IRI
  stored as the ``iri`` record key — the entity-type map ``Psi_ETD`` is
  the labelled node set itself.
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
re-conversion would add (Definition 3.4).  Monotonicity is also how the
algorithm is implemented: :class:`DataTransformer` runs the incremental
add path of :mod:`repro.core.incremental` over an empty property graph.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from ..errors import TransformError
from ..pg.model import PGNode, PropertyGraph
from ..pgschema.model import BOOLEAN, FLOAT, INTEGER, content_type_for_datatype
from ..rdf.graph import Graph
from ..rdf.terms import IRI, Literal, Subject, Triple
from .config import DEFAULT_OPTIONS, TransformOptions
from .mapping import DTYPE_KEY, IRI_KEY, VALUE_KEY
from .schema_transform import SchemaTransformResult

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


def is_literal_node(node: PGNode) -> bool:
    """True for a literal value node, decided by its record (never by its
    id, whose ``lit:`` prefix an entity IRI may share): literal nodes carry
    a value and its datatype and, unlike entity and resource nodes, no IRI."""
    properties = node.properties
    return (
        VALUE_KEY in properties
        and DTYPE_KEY in properties
        and IRI_KEY not in properties
    )


def edge_id_for(src: str, rel_type: str, dst: str) -> str:
    """The deterministic PG edge id for ``(src)-[rel_type]->(dst)``."""
    return f"{src}|{rel_type}|{dst}"


def encode_literal_value(literal: Literal) -> object:
    """The PG property value for a literal.

    Integers/booleans/floats become native values when the lexical form
    round-trips exactly (so the inverse mapping can reconstruct the
    original lexical form); otherwise the raw string is kept.
    """
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

    Bulk conversion is the incremental add path folded over an empty
    property graph (Prop. 4.3): :meth:`transform` hands its input to
    :class:`~repro.core.incremental.IncrementalTransformer`, so the
    paper's case analysis is written once for both.

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
        if schema_result.mapping.parsimonious != options.parsimonious:
            raise TransformError(
                "schema was transformed with a different parsimonious setting"
            )

    def transform(self, source: Graph | Iterable[Triple]) -> TransformedGraph:
        """Run the two-phase algorithm over ``source``.

        ``source`` is iterated twice, once per phase — a :class:`Graph`,
        a list, or a re-iterable over a file (Algorithm 1's input model:
        two streaming scans, no triple list in memory).  A one-shot
        iterator (e.g. a generator) cannot be scanned twice and is
        materialized first.
        """
        # Imported here: the incremental module builds on this one.
        from .incremental import IncrementalTransformer

        if isinstance(source, Iterator):
            source = list(source)
        result = TransformedGraph(
            graph=PropertyGraph(), schema_result=self.schema_result,
            options=self.options,
        )
        IncrementalTransformer(result)._apply(source, result.stats)
        return result


def transform_data(
    source: Graph | Iterable[Triple],
    schema_result: SchemaTransformResult,
    options: TransformOptions = DEFAULT_OPTIONS,
) -> TransformedGraph:
    """Module-level convenience wrapper for :class:`DataTransformer`."""
    return DataTransformer(schema_result, options).transform(source)
