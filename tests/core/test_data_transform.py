"""Unit tests for the data transformation F_dt (Algorithm 1)."""

import pytest

from repro.core import (
    DEFAULT_OPTIONS,
    MONOTONE_OPTIONS,
    TransformOptions,
    DataTransformer,
    edge_id_for,
    encode_literal_value,
    is_literal_node,
    literal_node_id,
    node_id_for,
    transform_schema,
)
from repro.errors import TransformError
from repro.namespaces import XSD
from repro.rdf import BlankNode, IRI, Literal, parse_turtle
from repro.shacl import parse_shacl

PREFIXES = """
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
"""

SHAPES = PREFIXES + """
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :hobby ; sh:datatype xsd:string ; sh:minCount 0 ] ;
  sh:property [ sh:path :friend ; sh:nodeKind sh:IRI ; sh:class :Person ;
                sh:minCount 0 ] ;
  sh:property [ sh:path :dob ;
     sh:or ( [ sh:datatype xsd:date ] [ sh:datatype xsd:gYear ] ) ;
     sh:minCount 0 ] .
"""

DATA_PREFIX = (
    "@prefix : <http://x/> . "
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)


def run(data_body: str, options: TransformOptions = DEFAULT_OPTIONS,
        shapes_text: str = SHAPES):
    schema_result = transform_schema(parse_shacl(shapes_text), options)
    transformer = DataTransformer(schema_result, options)
    return transformer.transform(parse_turtle(DATA_PREFIX + data_body))


class TestIdentifiers:
    def test_node_id_for_iri(self):
        assert node_id_for(IRI("http://x/a")) == "http://x/a"

    def test_node_id_for_bnode(self):
        assert node_id_for(BlankNode("b1")) == "_:b1"

    def test_literal_node_id_deterministic(self):
        a = literal_node_id(Literal("1999", XSD.gYear))
        b = literal_node_id(Literal("1999", XSD.gYear))
        assert a == b and a.startswith("lit:")

    def test_literal_node_id_distinguishes_datatype_and_lang(self):
        ids = {
            literal_node_id(Literal("v")),
            literal_node_id(Literal("v", XSD.gYear)),
            literal_node_id(Literal("v", language="en")),
        }
        assert len(ids) == 3

    def test_long_lexical_bounded(self):
        lid = literal_node_id(Literal("x" * 500))
        assert len(lid) < 200

    def test_long_lexicals_do_not_collide(self):
        a = literal_node_id(Literal("x" * 100 + "a"))
        b = literal_node_id(Literal("x" * 100 + "b"))
        assert a != b

    def test_edge_id(self):
        assert edge_id_for("s", "rel", "o") == "s|rel|o"

    def test_literal_nodes_recognised_by_record_not_id(self):
        result = run(
            '<lit:x> a :Person ; :name "X" ; :dob "1999"^^xsd:gYear .'
        )
        entity = result.graph.get_node("lit:x")
        value = result.graph.get_node(literal_node_id(Literal("1999", XSD.gYear)))
        assert not is_literal_node(entity)
        assert is_literal_node(value)


class TestEncodeLiteralValue:
    def test_integer_native(self):
        assert encode_literal_value(Literal("42", XSD.integer)) == 42

    def test_non_canonical_integer_stays_lexical(self):
        assert encode_literal_value(Literal("007", XSD.integer)) == "007"

    def test_boolean_native(self):
        assert encode_literal_value(Literal("true", XSD.boolean)) is True

    def test_float_round_trip_guard(self):
        assert encode_literal_value(Literal("2.5", XSD.double)) == 2.5
        assert encode_literal_value(Literal("2.50", XSD.double)) == "2.50"

    def test_string_kept(self):
        assert encode_literal_value(Literal("abc")) == "abc"


class TestPhase1Entities:
    def test_entity_nodes_with_labels_and_iri(self):
        result = run(':p a :Person ; :name "P" .')
        node = result.graph.get_node("http://x/p")
        assert node.labels == {"Person"}
        assert node.properties["iri"] == "http://x/p"

    def test_multiple_types_multiple_labels(self):
        shapes = SHAPES + """
        shapes:Student a sh:NodeShape ; sh:targetClass :Student ;
          sh:node shapes:Person .
        """
        result = run(':p a :Person, :Student ; :name "P" .', shapes_text=shapes)
        assert result.graph.get_node("http://x/p").labels == {"Person", "Student"}

    def test_blank_node_entity(self):
        result = run('_:b a :Person ; :name "B" .')
        node = result.graph.get_node("_:b")
        assert node.properties["iri"] == "_:b"

    def test_stats_counters(self):
        result = run(':p a :Person ; :name "P" ; :hobby "chess", "go" .')
        assert result.stats.entity_nodes == 1
        assert result.stats.key_values == 3
        assert result.stats.triples_processed == 4


class TestKeyValues:
    def test_single_literal_stored_as_record_key(self):
        result = run(':p a :Person ; :name "P" .')
        assert result.graph.get_node("http://x/p").properties["name"] == "P"

    def test_multi_valued_array(self):
        result = run(':p a :Person ; :hobby "chess", "go" .')
        hobby = result.graph.get_node("http://x/p").properties["hobby"]
        assert sorted(hobby) == ["chess", "go"]

    def test_cardinality_overflow_promotes_to_array(self):
        # Two names where the schema allows one: keep both (lossless),
        # letting conformance checking flag the violation.
        result = run(':p a :Person ; :name "A", "B" .')
        assert sorted(result.graph.get_node("http://x/p").properties["name"]) == [
            "A", "B",
        ]

    def test_datatype_mismatch_routes_to_literal_node(self):
        result = run(':p a :Person ; :name "5"^^xsd:integer .')
        node = result.graph.get_node("http://x/p")
        assert "name" not in node.properties
        assert result.stats.literal_nodes == 1

    def test_lang_tagged_value_routes_to_literal_node(self):
        result = run(':p a :Person ; :name "P"@en .')
        assert result.stats.literal_nodes == 1
        lit_nodes = [n for n in result.graph.nodes.values()
                     if n.properties.get("lang") == "en"]
        assert len(lit_nodes) == 1


class TestEdges:
    def test_entity_object_becomes_edge(self):
        result = run("""
        :a a :Person ; :name "A" ; :friend :b .
        :b a :Person ; :name "B" .
        """)
        edge = result.graph.get_edge("http://x/a|friend|http://x/b")
        assert edge.labels == {"friend"}

    def test_duplicate_edges_not_created(self):
        result = run("""
        :a a :Person ; :name "A" ; :friend :b .
        :b a :Person ; :name "B" .
        """)
        assert result.stats.edges == 1

    def test_untyped_iri_object_becomes_resource_node(self):
        result = run(':a a :Person ; :name "A" ; :friend :ghost .')
        ghost = result.graph.get_node("http://x/ghost")
        assert ghost.labels == {"Resource"}

    def test_untyped_subject_becomes_resource_node(self):
        result = run(':ghost :friend :other .')
        assert result.graph.get_node("http://x/ghost").labels == {"Resource"}


class TestLiteralNodes:
    def test_multi_type_literal_becomes_node(self):
        result = run(':a a :Person ; :name "A" ; :dob "1999"^^xsd:gYear .')
        lit_id = literal_node_id(Literal("1999", XSD.gYear))
        node = result.graph.get_node(lit_id)
        assert node.labels == {"YEAR"}
        assert node.properties["value"] == "1999"
        assert node.properties["dtype"] == XSD.gYear

    def test_literal_nodes_deduplicated(self):
        result = run("""
        :a a :Person ; :name "A" ; :dob "1999"^^xsd:gYear .
        :b a :Person ; :name "B" ; :dob "1999"^^xsd:gYear .
        """)
        assert result.stats.literal_nodes == 1
        assert result.stats.edges == 2


class TestUnknownHandling:
    def test_fallback_converts_unknown_predicate(self):
        result = run(':a a :Person ; :name "A" ; :unknown "v" .')
        assert result.stats.literal_nodes == 1

    def test_fallback_converts_unknown_class(self):
        result = run(":a a :Mystery .")
        node = result.graph.get_node("http://x/a")
        assert node.labels == {"Mystery"}

    def test_skip_mode_drops_unknown(self):
        options = TransformOptions(on_unknown="skip")
        result = run(':a a :Person ; :name "A" ; :unknown "v" .', options)
        assert result.stats.skipped == 1
        assert result.stats.literal_nodes == 0

    def test_error_mode_raises(self):
        options = TransformOptions(on_unknown="error")
        with pytest.raises(TransformError):
            run(':a a :Person ; :name "A" ; :unknown "v" .', options)

    def test_invalid_on_unknown_rejected(self):
        with pytest.raises(ValueError):
            TransformOptions(on_unknown="whatever")


class TestNonParsimonious:
    def test_all_literals_become_nodes(self):
        result = run(':p a :Person ; :name "P" .', MONOTONE_OPTIONS)
        node = result.graph.get_node("http://x/p")
        assert "name" not in node.properties
        assert result.stats.literal_nodes == 1
        assert result.stats.edges == 1

    def test_mismatched_options_rejected(self):
        schema_result = transform_schema(parse_shacl(SHAPES), DEFAULT_OPTIONS)
        with pytest.raises(TransformError):
            DataTransformer(schema_result, MONOTONE_OPTIONS)
