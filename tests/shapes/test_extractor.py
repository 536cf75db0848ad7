"""Tests for the QSE-style shape extractor."""

import pytest

from repro.fuzz import reference_extract_shapes
from repro.namespaces import RDF_TYPE, XSD
from repro.rdf import IRI, Literal, Triple, parse_turtle
from repro.shacl import (
    ClassType,
    LiteralType,
    PropertyShapeKind,
    UNBOUNDED,
    validate,
)
from repro.shapes import ExtractionConfig, extract_shapes

PREFIX = "@prefix : <http://x/> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
PREFIX += "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"


def extract(body: str, config: ExtractionConfig | None = None):
    return extract_shapes(parse_turtle(PREFIX + body), config)


class TestBasicExtraction:
    def test_node_shape_per_class(self):
        schema = extract(':a a :A . :b a :B .')
        assert len(schema) == 2
        assert schema.shape_for_class("http://x/A") is not None

    def test_single_literal_property(self):
        schema = extract(':a a :A ; :name "v" .')
        phi = schema.shape_for_class("http://x/A").property_shapes[0]
        assert phi.value_types == (LiteralType(XSD.string),)
        assert phi.cardinality() == (1, 1)

    def test_optional_property_when_not_universal(self):
        schema = extract(':a a :A ; :name "v" . :b a :A .')
        phi = schema.shape_for_class("http://x/A").property_shapes[0]
        assert phi.min_count == 0

    def test_multi_valued_property_unbounded(self):
        schema = extract(':a a :A ; :name "v", "w" .')
        phi = schema.shape_for_class("http://x/A").property_shapes[0]
        assert phi.max_count == UNBOUNDED

    def test_class_constraint_from_typed_target(self):
        schema = extract(':a a :A ; :rel :b . :b a :B .')
        phi = schema.shape_for_class("http://x/A").property_shapes[0]
        assert phi.value_types == (ClassType("http://x/B"),)

    def test_untyped_target_contributes_nothing(self):
        schema = extract(':a a :A ; :rel :ghost ; :name "n" .')
        shape = schema.shape_for_class("http://x/A")
        assert shape.property_shape_for("http://x/rel") is None

    def test_heterogeneous_detection(self):
        schema = extract(':a a :A ; :mix "text", :b . :b a :B .')
        phi = schema.shape_for_class("http://x/A").property_shape_for("http://x/mix")
        assert phi.kind() == PropertyShapeKind.MULTI_HETERO

    def test_language_tags_become_langstring(self):
        from repro.rdf import Literal

        schema = extract(':a a :A ; :label "x"@en .')
        phi = schema.shape_for_class("http://x/A").property_shapes[0]
        assert phi.value_types == (LiteralType(Literal.LANG_STRING),)

    def test_most_specific_type_wins(self):
        schema = extract("""
        :Sub rdfs:subClassOf :Super .
        :a a :A ; :rel :b .
        :b a :Sub, :Super .
        """)
        phi = schema.shape_for_class("http://x/A").property_shape_for("http://x/rel")
        assert phi.value_types == (ClassType("http://x/Sub"),)

    def test_value_types_ordered_by_support(self):
        schema = extract("""
        :a a :A ; :d "2020-01-01"^^xsd:date .
        :b a :A ; :d "2020-01-02"^^xsd:date .
        :c a :A ; :d "x" .
        """)
        phi = schema.shape_for_class("http://x/A").property_shape_for("http://x/d")
        assert phi.value_types[0] == LiteralType(XSD.date)


class TestHierarchy:
    BODY = """
    :Student rdfs:subClassOf :Person .
    :p a :Person ; :name "P" .
    :s a :Student, :Person ; :name "S" ; :reg "1" .
    """

    def test_subclass_becomes_extends(self):
        schema = extract(self.BODY)
        student = schema.shape_for_class("http://x/Student")
        person = schema.shape_for_class("http://x/Person")
        assert person.name in student.extends

    def test_duplicate_inherited_property_removed(self):
        schema = extract(self.BODY)
        student = schema.shape_for_class("http://x/Student")
        assert student.property_shape_for("http://x/name") is None
        assert student.property_shape_for("http://x/reg") is not None

    def test_hierarchy_disabled(self):
        schema = extract(self.BODY, ExtractionConfig(derive_hierarchy=False))
        student = schema.shape_for_class("http://x/Student")
        assert student.extends == ()
        assert student.property_shape_for("http://x/name") is not None


class TestThresholds:
    def test_min_class_support(self):
        schema = extract(":a a :A . :b a :B . :b2 a :B .",
                         ExtractionConfig(min_class_support=2))
        assert schema.shape_for_class("http://x/A") is None
        assert schema.shape_for_class("http://x/B") is not None

    def test_min_property_support(self):
        body = ':a a :A ; :rare "v" .' + "".join(
            f" :e{i} a :A ." for i in range(9)
        )
        schema = extract(body, ExtractionConfig(min_property_support=0.5))
        assert schema.shape_for_class("http://x/A").property_shapes == []

    def test_min_type_confidence_prunes_outliers(self):
        body = ':a a :A ; :d "x1", "x2", "x3", "x4" . :a :d "2020-01-01"^^xsd:date .'
        schema = extract(body, ExtractionConfig(min_type_confidence=0.4))
        phi = schema.shape_for_class("http://x/A").property_shape_for("http://x/d")
        assert phi.value_types == (LiteralType(XSD.string),)


class TestExtractedSchemaQuality:
    def test_data_validates_against_extracted_shapes(self, small_dbpedia):
        """QSE guarantee: the graph conforms to its own extracted shapes."""
        report = validate(small_dbpedia.graph, small_dbpedia.shapes)
        assert report.conforms, [str(v) for v in report.violations[:3]]

    def test_extraction_is_deterministic(self, small_dbpedia):
        from repro.shacl import serialize_shacl

        a = serialize_shacl(extract_shapes(small_dbpedia.graph))
        b = serialize_shacl(extract_shapes(small_dbpedia.graph))
        assert a == b


def same_as_reference(graph, config: ExtractionConfig | None = None):
    """Extraction over interned postings equals the decoded reference:
    same shapes in the same order, same ``value_types`` order, bounds."""
    got = extract_shapes(graph, config)
    assert list(got) == list(reference_extract_shapes(graph, config))
    return got


class TestMatchesReference:
    """Inputs the fuzz generator does not make, held to the reference."""

    BODY = """
    :Sub rdfs:subClassOf :Super .
    :a a :A ; :name "a" ; :rel :b, :c, :ghost ; :tags "x", "y" .
    :a2 a :A ; :name "a2"@en ; :rel :c .
    :b a :Sub, :Super . :c a :Super .
    """

    def test_snapshot_backed_graph(self, tmp_path):
        from repro.storage import load_snapshot, save_snapshot

        path = tmp_path / "g.snap"
        save_snapshot(parse_turtle(PREFIX + self.BODY), path)
        schema = same_as_reference(load_snapshot(path))
        rel = schema.shape_for_class("http://x/A").property_shape_for("http://x/rel")
        assert rel.value_types == (ClassType("http://x/Super"), ClassType("http://x/Sub"))
        assert rel.cardinality() == (1, UNBOUNDED)

    def test_mutated_buckets_with_unsorted_extra(self):
        graph = parse_turtle(PREFIX + self.BODY + " :z a :A ; :rel :c .")
        a, rel, late = IRI("http://x/a"), IRI("http://x/rel"), IRI("http://x/late")
        graph.add(Triple(late, IRI(RDF_TYPE), IRI("http://x/Sub")))
        graph.add(Triple(a, rel, late))  # an id below the bucket's tail
        graph.add(Triple(IRI("http://x/z"), rel, IRI("http://x/b")))
        graph.remove(Triple(a, IRI("http://x/name"), Literal("a")))
        assert any(
            objects._extra for by_p in graph._spo.values() for objects in by_p.values()
        )
        schema = same_as_reference(graph)
        shape = schema.shape_for_class("http://x/A")
        assert shape.property_shape_for("http://x/name").min_count == 0

    @pytest.mark.parametrize("config", [
        ExtractionConfig(),
        ExtractionConfig(min_class_support=2),
        ExtractionConfig(derive_hierarchy=False),
    ], ids=["cycle-shaped", "cycle-unshaped", "no-hierarchy"])
    def test_subclass_cycle(self, config):
        graph = parse_turtle(PREFIX + """
        :A rdfs:subClassOf :B . :B rdfs:subClassOf :A . :A rdfs:subClassOf :A .
        :e a :E ; :rel :v . :e2 a :E ; :rel :v . :v a :A, :B .
        """)
        schema = same_as_reference(graph, config)
        # Each type is a superclass of the other: neither is most specific.
        assert schema.shape_for_class("http://x/E").property_shapes == []
        # Shaped, the edge that would close the cycle is skipped and the
        # first one in edge order is kept.
        a, b = (schema.shape_for_class(f"http://x/{c}") for c in "AB")
        if a is not None and config.derive_hierarchy:
            assert (a.extends, b.extends) == ((b.name,), ())

    def test_rdf_type_object_literal_or_blank(self):
        graph = parse_turtle(PREFIX + """
        :e a "C", [ :q 1 ], :E ; :rel :v . :v a "D", :D .
        """)
        schema = same_as_reference(graph)
        assert [s.target_class for s in schema] == ["http://x/D", "http://x/E"]
        rel = schema.shape_for_class("http://x/E").property_shape_for("http://x/rel")
        assert rel.value_types == (ClassType("http://x/D"),)

    @pytest.mark.parametrize("support", [0, 1])
    def test_class_only_in_subclass_of(self, support):
        graph = parse_turtle(PREFIX + ":Orphan rdfs:subClassOf :A . :a a :A .")
        schema = same_as_reference(graph, ExtractionConfig(min_class_support=support))
        assert (schema.shape_for_class("http://x/Orphan") is not None) == (support == 0)

    def test_typed_blank_node_values(self):
        graph = parse_turtle(PREFIX + """
        :a a :A ; :rel [ a :B ], [ a :B, :C ], [ :q 1 ] .
        """)
        schema = same_as_reference(graph)
        rel = schema.shape_for_class("http://x/A").property_shape_for("http://x/rel")
        assert rel.value_types == (ClassType("http://x/B"), ClassType("http://x/C"))

    def test_language_tags_and_plain_string_on_one_predicate(self):
        graph = parse_turtle(PREFIX + ':a a :A ; :label "x"@en, "x"@fr, "x" .')
        schema = same_as_reference(graph)
        phi = schema.shape_for_class("http://x/A").property_shape_for("http://x/label")
        assert phi.value_types == (
            LiteralType(Literal.LANG_STRING), LiteralType(XSD.string))
        assert phi.cardinality() == (1, UNBOUNDED)

    def test_untyped_iri_among_typed_values(self):
        graph = parse_turtle(PREFIX + """
        :a a :A ; :rel :ghost, :b . :a2 a :A ; :rel :ghost . :b a :B .
        """)
        config = ExtractionConfig(min_type_confidence=0.4)
        same_as_reference(graph)
        schema = same_as_reference(graph, config)
        # Untyped values count toward the total: :B covers 1 of 3 values.
        assert schema.shape_for_class("http://x/A").property_shapes == []
