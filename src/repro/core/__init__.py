"""The paper's contribution: S3PG schema & data transformation, inverses,
and incremental (monotone) maintenance."""

from .config import DEFAULT_OPTIONS, MONOTONE_OPTIONS, TransformOptions
from .data_transform import (
    DataTransformer,
    DataTransformStats,
    TransformedGraph,
    edge_id_for,
    encode_literal_value,
    is_literal_node,
    literal_node_id,
    node_id_for,
    transform_data,
)
from .incremental import DeltaStats, IncrementalTransformer, apply_delta
from .inverse import (
    pg_to_rdf,
    pgschema_to_shacl,
    property_shapes_equivalent,
    rebuild_transformed,
    scalar_to_lexical,
    shape_schemas_equivalent,
)
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
from .g2gml import render_g2gml
from .naming import NameResolver, sanitize, type_name_for
from .optimize import OptimizationStats, OptimizedGraph, optimize
from .pipeline import S3PG, TransformResult, transform
from .schema_evolution import (
    SchemaDeltaStats,
    SchemaEvolutionConflict,
    apply_schema_delta,
    merge_shape_schemas,
)
from .streaming import transform_file
from .schema_transform import (
    SchemaTransformer,
    SchemaTransformResult,
    TypeRegistry,
    transform_schema,
)

__all__ = [
    "ClassMapping",
    "DEFAULT_OPTIONS",
    "DTYPE_KEY",
    "DataTransformStats",
    "DataTransformer",
    "DeltaStats",
    "IRI_KEY",
    "IncrementalTransformer",
    "LANG_KEY",
    "LiteralTypeInfo",
    "MODE_EDGE",
    "MODE_KEY_VALUE",
    "MONOTONE_OPTIONS",
    "NameResolver",
    "OptimizationStats",
    "OptimizedGraph",
    "PropertyMapping",
    "RESOURCE_LABEL",
    "RESOURCE_TYPE",
    "S3PG",
    "SchemaDeltaStats",
    "SchemaEvolutionConflict",
    "SchemaMapping",
    "SchemaTransformResult",
    "SchemaTransformer",
    "TransformOptions",
    "TransformResult",
    "TransformedGraph",
    "TypeRegistry",
    "VALUE_KEY",
    "apply_delta",
    "apply_schema_delta",
    "edge_id_for",
    "encode_literal_value",
    "is_literal_node",
    "literal_node_id",
    "merge_shape_schemas",
    "node_id_for",
    "optimize",
    "pg_to_rdf",
    "pgschema_to_shacl",
    "property_shapes_equivalent",
    "rebuild_transformed",
    "render_g2gml",
    "sanitize",
    "scalar_to_lexical",
    "shape_schemas_equivalent",
    "transform",
    "transform_data",
    "transform_file",
    "transform_schema",
    "type_name_for",
]
