"""Monotone schema evolution: applying shape-schema deltas to ``F_st``.

Proposition 4.3 extends monotonicity to the schema: when new node/property
shapes are added, ``F_st(S_G ∪ S_GΔ) = F_st(S_G) ∪ F_st(S_GΔ)`` — the
existing PG-Schema is only *extended*, never recomputed.  This module
implements that delta application, together with the paper's caveat: under
the **parsimonious** model an added shape can change the realization of an
already-converted predicate (e.g. a single-type string property gaining an
integer alternative must become an edge), which breaks schema monotonicity;
the non-parsimonious model never re-realizes anything.

:func:`apply_schema_delta` therefore:

* extends the PG-Schema and mapping with the new shapes' types and keys;
* under the non-parsimonious model, guarantees the result equals a full
  re-transformation of the merged schema (tested);
* under the parsimonious model, *detects* realization conflicts and raises
  :class:`SchemaEvolutionConflict` listing the predicates that would need
  re-conversion — the signal the paper says should push evolving graphs to
  the non-parsimonious model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TransformError
from ..shacl.model import NodeShape, ShapeSchema
from .schema_transform import (
    SchemaTransformer,
    SchemaTransformResult,
    foldable_predicates,
)


class SchemaEvolutionConflict(TransformError):
    """An added shape changes the realization of already-converted data.

    Attributes:
        predicates: the predicate IRIs whose parsimonious key/value
            realization is no longer valid under the merged schema.
    """

    def __init__(self, predicates: list[str]):
        super().__init__(
            "schema delta changes the realization of already-converted "
            f"predicates (re-conversion or the non-parsimonious model "
            f"required): {', '.join(sorted(predicates))}"
        )
        self.predicates = sorted(predicates)


@dataclass
class SchemaDeltaStats:
    """What one schema-delta application added."""

    node_types_added: int = 0
    edge_types_touched: int = 0
    keys_added: int = 0
    shapes_added: list[str] = field(default_factory=list)


def merge_shape_schemas(base: ShapeSchema, delta: ShapeSchema) -> ShapeSchema:
    """The union ``S_G ∪ S_GΔ`` (delta shapes replace same-named ones)."""
    merged = ShapeSchema(list(base))
    for shape in delta:
        merged.add(shape)
    return merged


def apply_schema_delta(
    result: SchemaTransformResult,
    base_schema: ShapeSchema,
    delta: ShapeSchema,
) -> SchemaDeltaStats:
    """Extend ``result`` (in place) with the transformation of ``delta``.

    Args:
        result: a previous :func:`transform_schema` output to extend.
        base_schema: the shape schema ``result`` was produced from.
        delta: the added node shapes ``S_GΔ``.

    Raises:
        SchemaEvolutionConflict: when the parsimonious model's existing
            key/value realizations become invalid under the merged schema.
        TransformError: when the delta redefines an existing shape
            (monotone evolution only *adds*).
    """
    for shape in delta:
        if shape.name in base_schema:
            raise TransformError(
                f"schema delta redefines existing shape {shape.name!r}; "
                "monotone evolution only adds shapes"
            )

    merged = merge_shape_schemas(base_schema, delta)
    options = _options_for(result)
    transformer = SchemaTransformer(options)

    if options.parsimonious:
        _check_parsimonious_conflicts(base_schema, merged)

    # Transform the merged schema with a fresh transformer, then graft the
    # *new* elements into the existing result.  Because naming is a
    # deterministic function of IRIs, the fresh result's elements for old
    # shapes coincide with the existing ones; only additions are applied.
    fresh = transformer.transform(merged)
    stats = SchemaDeltaStats()

    for name, node_type in fresh.pg_schema.node_types.items():
        if name not in result.pg_schema.node_types:
            result.pg_schema.add_node_type(node_type)
            stats.node_types_added += 1
    for name, edge_type in fresh.pg_schema.edge_types.items():
        existing = result.pg_schema.edge_types.get(name)
        if existing is None:
            result.pg_schema.add_edge_type(edge_type)
            stats.edge_types_touched += 1
        else:
            merged_sources = tuple(sorted(
                {*existing.source_types, *edge_type.source_types}
            ))
            merged_targets = tuple(sorted(
                {*existing.target_types, *edge_type.target_types}
            ))
            if (merged_sources != existing.source_types
                    or merged_targets != existing.target_types):
                existing.source_types = merged_sources
                existing.target_types = merged_targets
                stats.edge_types_touched += 1
    existing_keys = set(map(repr, result.pg_schema.keys))
    for key in fresh.pg_schema.keys:
        if repr(key) not in existing_keys:
            result.pg_schema.add_key(key)
            stats.keys_added += 1

    for class_iri, class_mapping in fresh.mapping.classes.items():
        if class_iri not in result.mapping.classes:
            result.mapping.add_class(class_mapping)
        else:
            # Existing classes may gain inherited property mappings from
            # new parents (not possible for monotone deltas) — or simply
            # stay as they are.  Refresh effective properties additively.
            existing_mapping = result.mapping.classes[class_iri]
            for predicate, prop in class_mapping.properties.items():
                existing_mapping.properties.setdefault(predicate, prop)
    for datatype, info in fresh.mapping.literal_types.items():
        if datatype not in result.mapping.literal_types:
            result.mapping.add_literal_type(info)

    stats.shapes_added = [shape.name for shape in delta]
    return stats


def _options_for(result: SchemaTransformResult):
    from .config import DEFAULT_OPTIONS, MONOTONE_OPTIONS

    return DEFAULT_OPTIONS if result.mapping.parsimonious else MONOTONE_OPTIONS


def _check_parsimonious_conflicts(base: ShapeSchema, merged: ShapeSchema) -> None:
    """Detect predicates whose key/value realization the delta invalidates:
    the fold rule's answer for them differs on the merged schema."""
    folded = foldable_predicates(merged)
    conflicts = [
        predicate for predicate, datatype in foldable_predicates(base).items()
        if folded.get(predicate) != datatype
    ]
    if conflicts:
        raise SchemaEvolutionConflict(conflicts)
