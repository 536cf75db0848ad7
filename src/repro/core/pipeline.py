"""End-to-end S3PG pipeline: the library's main entry point.

Typical use::

    from repro import transform
    result = transform(rdf_graph, shape_schema)
    result.graph          # the property graph
    result.pg_schema      # the PG-Schema
    result.mapping        # F_st
    result.timings        # phase timings (schema / data seconds)

followed by optional loading into a store::

    store = result.load()      # indexed PropertyGraphStore

and incremental maintenance::

    from repro.core.incremental import apply_delta
    apply_delta(result.transformed, added=new_triples)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import obs
from ..pg.store import PropertyGraphStore
from ..pgschema.model import PGSchema
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..shacl.model import ShapeSchema
from .config import DEFAULT_OPTIONS, TransformOptions
from .data_transform import DataTransformer, TransformedGraph
from .mapping import SchemaMapping
from .schema_transform import SchemaTransformer, SchemaTransformResult


@dataclass
class TransformResult:
    """Everything produced by one S3PG run."""

    transformed: TransformedGraph
    schema_result: SchemaTransformResult
    options: TransformOptions
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def graph(self):
        """The output property graph."""
        return self.transformed.graph

    @property
    def pg_schema(self) -> PGSchema:
        """The output PG-Schema ``S_PG``."""
        return self.schema_result.pg_schema

    @property
    def mapping(self) -> SchemaMapping:
        """The schema mapping ``F_st``."""
        return self.schema_result.mapping

    @property
    def stats(self):
        """Data-transformation counters."""
        return self.transformed.stats

    def load(self, property_indexes: tuple[str, ...] = ("iri",)) -> PropertyGraphStore:
        """Load the output graph into an indexed store (the 'L' phase of
        Table 4), recording the load time under ``timings["load_s"]``."""
        start = time.perf_counter()
        store = PropertyGraphStore(property_indexes=property_indexes)
        store.bulk_load(self.graph)
        self.timings["load_s"] = time.perf_counter() - start
        return store


class S3PG:
    """The Standardized SHACL Shapes-based PG Transformation.

    Args:
        options: parsimonious / non-parsimonious mode and related knobs.
        prefixes: prefix table used for deterministic PG naming.
    """

    def __init__(
        self,
        options: TransformOptions = DEFAULT_OPTIONS,
        prefixes: PrefixMap | None = None,
    ):
        self.options = options
        self.prefixes = prefixes

    def transform_schema(self, shape_schema: ShapeSchema) -> SchemaTransformResult:
        """Run only ``F_st`` (Problem 1)."""
        return SchemaTransformer(self.options, self.prefixes).transform(shape_schema)

    def transform(self, graph: Graph, shape_schema: ShapeSchema) -> TransformResult:
        """Run the full pipeline: ``F_st`` then ``F_dt`` (Problems 1 & 2).

        Args:
            graph: the RDF instance data.
            shape_schema: the SHACL shape schema.
        """
        timings: dict[str, float] = {}
        with obs.span(
            "s3pg.transform", parsimonious=self.options.parsimonious
        ) as root:
            with obs.timed_span("s3pg.schema_transform") as schema_span:
                schema_result = self.transform_schema(shape_schema)
            timings["schema_s"] = schema_span.duration_s

            with obs.timed_span("s3pg.data_transform") as data_span:
                transformed = DataTransformer(
                    schema_result, self.options
                ).transform(graph)
            timings["data_s"] = data_span.duration_s
            timings["transform_s"] = timings["schema_s"] + timings["data_s"]

            n_nodes = transformed.graph.node_count()
            n_edges = transformed.graph.edge_count()
            root.set("triples", len(graph))
            root.set("nodes", n_nodes)
            root.set("edges", n_edges)
        _publish_transform_metrics(len(graph), n_nodes, n_edges, timings)
        return TransformResult(
            transformed=transformed,
            schema_result=schema_result,
            options=self.options,
            timings=timings,
        )


def _publish_transform_metrics(
    triples: int, n_nodes: int, n_edges: int, timings: dict[str, float]
) -> None:
    """Flush one transform run's totals into the global metrics registry."""
    metrics = obs.get_metrics()
    metrics.counter(
        "repro_transform_runs_total", help="completed S3PG transformations"
    ).inc()
    metrics.counter(
        "repro_transform_triples_total", help="RDF triples transformed"
    ).inc(triples)
    metrics.counter(
        "repro_transform_nodes_total", help="property-graph nodes produced"
    ).inc(n_nodes)
    metrics.counter(
        "repro_transform_edges_total", help="property-graph edges produced"
    ).inc(n_edges)
    seconds = metrics.histogram(
        "repro_transform_seconds", help="per-phase transform wall time"
    )
    seconds.observe(timings["schema_s"], phase="schema")
    seconds.observe(timings["data_s"], phase="data")


def transform(
    graph: Graph,
    shape_schema: ShapeSchema,
    options: TransformOptions = DEFAULT_OPTIONS,
    prefixes: PrefixMap | None = None,
) -> TransformResult:
    """Transform an RDF graph + SHACL schema into a PG + PG-Schema."""
    return S3PG(options, prefixes).transform(graph, shape_schema)
