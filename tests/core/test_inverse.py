"""Tests for the inverse mappings M and N (information preservation)."""

import pytest

from repro.core import (
    DEFAULT_OPTIONS,
    MONOTONE_OPTIONS,
    pg_to_rdf,
    pgschema_to_shacl,
    property_shapes_equivalent,
    scalar_to_lexical,
    shape_schemas_equivalent,
    transform,
)
from repro.core.data_transform import is_literal_node
from repro.core.inverse import _literal_term, _subject_term
from repro.core.mapping import IRI_KEY, RESOURCE_LABEL
from repro.datasets import university_graph, university_shapes
from repro.errors import TransformError
from repro.fuzz import generate_case, graph_layout
from repro.namespaces import RDF_TYPE, XSD
from repro.rdf import IRI, Graph, Literal, Triple, graphs_equal_modulo_bnodes, parse_turtle
from repro.shacl import LiteralType, PropertyShape, parse_shacl


def _per_triple_m(pg, mapping) -> Graph:
    """``M`` statement by statement, one ``Graph.add`` each, in M's order:
    per node its type triples and record entries, then every edge."""
    graph, subjects = Graph(), {}
    for node in pg.nodes.values():
        if is_literal_node(node):
            continue
        s = subjects[node.id] = _subject_term(node)
        for label in node.labels:
            if label != RESOURCE_LABEL:
                graph.add(Triple(s, IRI(RDF_TYPE), IRI(mapping.class_for_label(label))))
        for key, value in node.properties.items():
            if key == IRI_KEY:
                continue
            p = IRI(mapping.predicate_for_key(key))
            datatype = mapping.datatype_for_key(key) or XSD.string
            for item in value if isinstance(value, list) else [value]:
                graph.add(Triple(s, p, Literal(scalar_to_lexical(item), datatype)))
    for edge in pg.edges.values():
        dst = pg.nodes[edge.dst]
        o = _literal_term(dst) if is_literal_node(dst) else _subject_term(dst)
        graph.add(Triple(subjects[edge.src], IRI(mapping.predicate_for_rel(edge.label())), o))
    return graph


class TestScalarToLexical:
    def test_booleans(self):
        assert scalar_to_lexical(True) == "true"
        assert scalar_to_lexical(False) == "false"

    def test_numbers(self):
        assert scalar_to_lexical(42) == "42"
        assert scalar_to_lexical(2.5) == "2.5"

    def test_strings(self):
        assert scalar_to_lexical("x") == "x"


class TestM:
    def test_university_round_trip(self, uni_graph, uni_shapes, uni_result):
        reconstructed = pg_to_rdf(uni_result.graph, uni_result.mapping)
        assert graphs_equal_modulo_bnodes(uni_graph, reconstructed)

    def test_non_parsimonious_round_trip(self, uni_graph, uni_shapes):
        result = transform(uni_graph, uni_shapes, options=MONOTONE_OPTIONS)
        reconstructed = pg_to_rdf(result.graph, result.mapping)
        assert graphs_equal_modulo_bnodes(uni_graph, reconstructed)

    def test_round_trip_with_typed_values(self):
        shapes = parse_shacl("""
        @prefix sh: <http://www.w3.org/ns/shacl#> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        @prefix : <http://x/> .
        @prefix shapes: <http://x/shapes#> .
        shapes:A a sh:NodeShape ; sh:targetClass :A ;
          sh:property [ sh:path :n ; sh:datatype xsd:integer ;
                        sh:minCount 1 ; sh:maxCount 1 ] ;
          sh:property [ sh:path :flag ; sh:datatype xsd:boolean ;
                        sh:minCount 0 ; sh:maxCount 1 ] .
        """)
        graph = parse_turtle("""
        @prefix : <http://x/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        :a a :A ; :n 42 ; :flag true .
        """)
        result = transform(graph, shapes)
        assert graphs_equal_modulo_bnodes(graph, pg_to_rdf(result.graph, result.mapping))

    def test_round_trip_with_fallback_triples(self, uni_shapes):
        graph = parse_turtle("""
        @prefix : <http://example.org/university#> .
        :bob a :Person ; :name "Bob" ; :unknownProp "value" ; :links :somewhere .
        """)
        result = transform(graph, uni_shapes)
        assert graphs_equal_modulo_bnodes(graph, pg_to_rdf(result.graph, result.mapping))

    def test_unknown_label_raises(self, uni_result):
        pg = uni_result.graph.copy()
        pg.add_node("rogue", labels={"NotMapped"}, properties={"iri": "http://x/r"})
        with pytest.raises(TransformError):
            pg_to_rdf(pg, uni_result.mapping)

    def test_missing_iri_property_raises(self, uni_result):
        pg = uni_result.graph.copy()
        pg.add_node("rogue", labels=set())
        with pytest.raises(TransformError):
            pg_to_rdf(pg, uni_result.mapping)

    @pytest.mark.parametrize("value", [1, []])
    def test_unknown_record_key_raises(self, uni_result, value):
        pg = uni_result.graph.copy()
        pg.add_node("rogue", properties={"iri": "http://x/r", "zzz": value})
        with pytest.raises(TransformError, match="record key 'zzz' has no predicate mapping"):
            pg_to_rdf(pg, uni_result.mapping)

    def test_unknown_rel_type_raises(self, uni_result):
        pg = uni_result.graph.copy()
        pg.add_node("a", properties={"iri": "http://x/a"})
        pg.add_edge("a", "a", labels={"zzz"})
        with pytest.raises(TransformError, match="relationship 'zzz' has no predicate mapping"):
            pg_to_rdf(pg, uni_result.mapping)

    def test_edge_from_literal_node_raises(self, uni_result):
        pg = uni_result.graph.copy()
        rel = next(iter(uni_result.mapping.rel_types))
        pg.add_node("lit", properties={"value": 1, "dtype": XSD.integer})
        pg.add_edge("lit", "lit", labels={rel}, edge_id="e")
        with pytest.raises(TransformError, match="edge e starts at a literal node"):
            pg_to_rdf(pg, uni_result.mapping)

    @pytest.mark.parametrize("index", [i for i in range(30) if i % 5 < 3])
    @pytest.mark.parametrize("options", [DEFAULT_OPTIONS, MONOTONE_OPTIONS])
    def test_bulk_build_is_the_per_triple_add(self, index, options):
        case = generate_case(1, index)
        result = transform(Graph(case.triples), case.schema, options)
        back = pg_to_rdf(result.graph, result.mapping)
        assert graph_layout(back) == graph_layout(
            _per_triple_m(result.graph, result.mapping))


class TestN:
    def test_university_round_trip(self, uni_shapes, uni_result):
        reconstructed = pgschema_to_shacl(uni_result.mapping)
        assert shape_schemas_equivalent(uni_shapes, reconstructed)

    def test_non_parsimonious_round_trip(self, uni_graph, uni_shapes):
        result = transform(uni_graph, uni_shapes, options=MONOTONE_OPTIONS)
        reconstructed = pgschema_to_shacl(result.mapping)
        assert shape_schemas_equivalent(uni_shapes, reconstructed)

    def test_external_classes_excluded(self, uni_shapes):
        graph = parse_turtle("""
        @prefix : <http://example.org/university#> .
        :x a :UnshapedClass .
        """)
        result = transform(graph, uni_shapes)
        reconstructed = pgschema_to_shacl(result.mapping)
        assert shape_schemas_equivalent(uni_shapes, reconstructed)


class TestEquivalenceHelpers:
    def test_property_shape_order_insensitive(self):
        a = PropertyShape("http://x/p", (LiteralType(XSD.string), LiteralType(XSD.date)))
        b = PropertyShape("http://x/p", (LiteralType(XSD.date), LiteralType(XSD.string)))
        assert property_shapes_equivalent(a, b)

    def test_property_shape_cardinality_sensitive(self):
        a = PropertyShape("http://x/p", (LiteralType(XSD.string),), 0, 1)
        b = PropertyShape("http://x/p", (LiteralType(XSD.string),), 1, 1)
        assert not property_shapes_equivalent(a, b)

    def test_schema_name_set_sensitive(self, uni_shapes):
        from repro.shacl import ShapeSchema

        assert not shape_schemas_equivalent(uni_shapes, ShapeSchema())
