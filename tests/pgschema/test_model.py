"""Unit tests for the PG-Schema model (Definition 2.5)."""

import pytest

from repro.errors import SchemaError
from repro.namespaces import XSD
from repro.pgschema import (
    ANY,
    BOOLEAN,
    DATE,
    EdgeType,
    FLOAT,
    INTEGER,
    NodeType,
    PGSchema,
    PropertySpec,
    STRING,
    YEAR,
    content_type_for_datatype,
)


class TestContentTypes:
    @pytest.mark.parametrize(
        "datatype,expected",
        [
            (XSD.string, STRING),
            (XSD.integer, INTEGER),
            (XSD.int, INTEGER),
            (XSD.double, FLOAT),
            (XSD.decimal, FLOAT),
            (XSD.boolean, BOOLEAN),
            (XSD.date, DATE),
            (XSD.gYear, YEAR),
            ("http://custom/dt", ANY),
        ],
    )
    def test_mapping(self, datatype, expected):
        assert content_type_for_datatype(datatype) == expected


class TestPropertySpec:
    def test_render_plain(self):
        assert PropertySpec("name", STRING).render() == "name: STRING"

    def test_render_optional(self):
        assert PropertySpec("name", STRING, optional=True).render() == (
            "OPTIONAL name: STRING"
        )

    def test_render_unbounded_array(self):
        spec = PropertySpec("name", STRING, array=True)
        assert spec.render() == "name: STRING ARRAY {}"

    def test_render_bounded_array(self):
        spec = PropertySpec("name", STRING, array=True, array_min=1, array_max=5)
        assert spec.render() == "name: STRING ARRAY {1,5}"

    def test_render_min_only_array(self):
        spec = PropertySpec("name", STRING, array=True, array_min=2)
        assert spec.render() == "name: STRING ARRAY {2,*}"


def build_schema() -> PGSchema:
    schema = PGSchema()
    schema.add_node_type(NodeType(
        "personType", labels={"Person"},
        properties={"name": PropertySpec("name", STRING)},
    ))
    schema.add_node_type(NodeType(
        "studentType", labels={"Student"},
        properties={"regNo": PropertySpec("regNo", STRING)},
        parents=("personType",),
    ))
    schema.add_node_type(NodeType(
        "gsType", labels={"GS"}, parents=("studentType",),
    ))
    schema.add_edge_type(EdgeType(
        "knowsType", label="knows",
        source_types=("personType",), target_types=("personType",),
    ))
    return schema


class TestHierarchy:
    def test_ancestors(self):
        schema = build_schema()
        assert schema.ancestors("gsType") == ["studentType", "personType"]

    def test_descendants(self):
        schema = build_schema()
        assert set(schema.descendants("personType")) == {"studentType", "gsType"}
        assert schema.descendants("gsType") == []

    def test_ancestors_cycle_raises(self):
        schema = PGSchema()
        schema.add_node_type(NodeType("a", parents=("b",)))
        schema.add_node_type(NodeType("b", parents=("a",)))
        with pytest.raises(SchemaError):
            schema.ancestors("a")

    def test_ancestors_missing_parent_raises(self):
        schema = PGSchema()
        schema.add_node_type(NodeType("a", parents=("gone",)))
        with pytest.raises(SchemaError):
            schema.ancestors("a")

    def test_effective_properties_inherit(self):
        schema = build_schema()
        effective = schema.effective_properties("gsType")
        assert set(effective) == {"name", "regNo"}

    def test_effective_properties_local_override(self):
        schema = build_schema()
        schema.node_type("studentType").add_property(
            PropertySpec("name", STRING, optional=True)
        )
        effective = schema.effective_properties("studentType")
        assert effective["name"].optional

    def test_effective_labels(self):
        schema = build_schema()
        assert schema.effective_labels("gsType") == {"Person", "Student", "GS"}


class TestLookups:
    def test_node_type_lookup(self):
        schema = build_schema()
        assert schema.node_type("personType").labels == {"Person"}
        with pytest.raises(SchemaError):
            schema.node_type("missing")

    def test_edge_type_lookup(self):
        schema = build_schema()
        assert schema.edge_type("knowsType").label == "knows"
        with pytest.raises(SchemaError):
            schema.edge_type("missing")

    def test_contains(self):
        schema = build_schema()
        assert "personType" in schema and "knowsType" in schema
        assert "nope" not in schema

    def test_edge_types_with_label(self):
        schema = build_schema()
        assert [t.name for t in schema.edge_types_with_label("knows")] == ["knowsType"]


class TestReferenceValidation:
    def test_valid_schema_passes(self):
        build_schema().validate_references()

    def test_dangling_parent(self):
        schema = build_schema()
        schema.add_node_type(NodeType("x", parents=("gone",)))
        with pytest.raises(SchemaError):
            schema.validate_references()

    def test_dangling_edge_endpoint(self):
        schema = build_schema()
        schema.add_edge_type(EdgeType("bad", label="b", source_types=("gone",)))
        with pytest.raises(SchemaError):
            schema.validate_references()
