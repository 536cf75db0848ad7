"""Tests for the automated SPARQL-to-Cypher translator."""

import pytest

from repro.core import scalar_to_lexical, transform
from repro.errors import TranslationError
from repro.pg import PropertyGraphStore
from repro.query import CypherEngine, SparqlEngine, translate_sparql_to_cypher
from repro.rdf import parse_turtle
from repro.shacl import parse_shacl

SHAPES = parse_shacl("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
shapes:Album a sh:NodeShape ; sh:targetClass :Album ;
  sh:property [ sh:path :title ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :year ; sh:datatype xsd:integer ;
                sh:minCount 0 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :writer ;
    sh:or ( [ sh:nodeKind sh:IRI ; sh:class :Person ]
            [ sh:datatype xsd:string ] ) ; sh:minCount 0 ] .
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] .
""")

GRAPH = parse_turtle("""
@prefix : <http://x/> .
:a1 a :Album ; :title "One" ; :year 2001 ; :writer :w1, "Guest Writer" .
:a2 a :Album ; :title "Two" ; :writer "Solo" .
:w1 a :Person ; :name "Billy" .
""")

PROLOG = "PREFIX : <http://x/> "


@pytest.fixture(scope="module")
def setup():
    result = transform(GRAPH, SHAPES)
    return result, SparqlEngine(GRAPH), CypherEngine(PropertyGraphStore(result.graph))


def assert_equivalent(setup, sparql: str):
    result, sparql_engine, cypher_engine = setup
    cypher = translate_sparql_to_cypher(sparql, result.mapping)
    gt = sparql_engine.query(sparql)
    pg_rows = cypher_engine.query(cypher)
    gt_norm = sorted(
        tuple(str(row[key]) for key in sorted(row)) for row in gt
    )
    pg_norm = sorted(
        tuple(scalar_to_lexical(row[key]) for key in sorted(row)) for row in pg_rows
    )
    assert gt_norm == pg_norm, cypher
    return cypher


class TestEquivalence:
    def test_type_only_query(self, setup):
        assert_equivalent(setup, PROLOG + "SELECT ?e WHERE { ?e a :Album . }")

    def test_key_value_property(self, setup):
        cypher = assert_equivalent(
            setup, PROLOG + "SELECT ?e ?t WHERE { ?e a :Album ; :title ?t . }"
        )
        assert "UNWIND" in cypher

    def test_heterogeneous_property(self, setup):
        cypher = assert_equivalent(
            setup, PROLOG + "SELECT ?e ?w WHERE { ?e a :Album ; :writer ?w . }"
        )
        assert "COALESCE" in cypher

    def test_join_query(self, setup):
        assert_equivalent(
            setup,
            PROLOG + "SELECT ?e ?n WHERE { ?e a :Album ; :writer ?w . "
                     "?w a :Person ; :name ?n . }",
        )

    def test_filter_on_key_value(self, setup):
        assert_equivalent(
            setup,
            PROLOG + 'SELECT ?e WHERE { ?e a :Album ; :title ?t . FILTER(?t = "Two") }',
        )

    def test_numeric_filter(self, setup):
        assert_equivalent(
            setup,
            PROLOG + "SELECT ?e ?y WHERE { ?e a :Album ; :year ?y . FILTER(?y > 2000) }",
        )

    def test_constant_literal_object(self, setup):
        assert_equivalent(
            setup, PROLOG + 'SELECT ?e WHERE { ?e a :Album ; :writer "Solo" . }'
        )

    def test_constant_iri_object(self, setup):
        assert_equivalent(
            setup, PROLOG + "SELECT ?e WHERE { ?e :writer :w1 . }"
        )

    def test_constant_subject(self, setup):
        assert_equivalent(
            setup, PROLOG + "SELECT ?w WHERE { :a1 :writer ?w . }"
        )

    def test_typed_constant_subject_is_one_path(self, setup):
        """``<s> a C ; p ?o`` names the constant once: one connected path
        on one variable carrying C's label, not two disconnected ones."""
        from repro.query import parse_cypher

        cypher = assert_equivalent(
            setup, PROLOG + "SELECT ?w WHERE { :a1 a :Album ; :writer ?w . }"
        )
        match = parse_cypher(cypher).parts[0].clauses[0]
        assert len(match.paths) == 1, cypher
        assert match.paths[0].start.labels and cypher.count(".iri = ") == 1

    def test_count_query(self, setup):
        assert_equivalent(
            setup,
            PROLOG + "SELECT (COUNT(*) AS ?n) WHERE { ?e a :Album ; :writer ?w . }",
        )

    def test_distinct(self, setup):
        assert_equivalent(
            setup,
            PROLOG + "SELECT DISTINCT ?e WHERE { ?e a :Album ; :writer ?w . }",
        )

    def test_untyped_subject_query(self, setup):
        assert_equivalent(
            setup, PROLOG + "SELECT ?e ?t WHERE { ?e :title ?t . }"
        )

    def test_shared_value_variable_joins(self, setup):
        """Two key/value patterns on the same value variable must join on
        equal values; a second ``UNWIND ... AS t`` would silently rebind
        ``t`` and produce the cartesian product instead."""
        result, sparql_engine, _ = setup
        sparql = PROLOG + "SELECT ?a ?b WHERE { ?a :title ?t . ?b :title ?t . }"
        assert len(sparql_engine.query(sparql)) == 2  # each album with itself
        cypher = assert_equivalent(setup, sparql)
        assert cypher.count("UNWIND") == 2
        assert "WITH * WHERE" in cypher


class TestUnsupportedConstructs:
    def test_variable_predicate_rejected(self, setup):
        result, _, _ = setup
        with pytest.raises(TranslationError):
            translate_sparql_to_cypher(
                PROLOG + "SELECT ?e WHERE { ?e ?p ?o . }", result.mapping
            )

    def test_variable_class_rejected(self, setup):
        result, _, _ = setup
        with pytest.raises(TranslationError):
            translate_sparql_to_cypher(
                PROLOG + "SELECT ?e WHERE { ?e a ?c . }", result.mapping
            )

    def test_unknown_class_rejected(self, setup):
        result, _, _ = setup
        with pytest.raises(TranslationError):
            translate_sparql_to_cypher(
                PROLOG + "SELECT ?e WHERE { ?e a :Ghost . }", result.mapping
            )

    def test_unknown_predicate_rejected(self, setup):
        result, _, _ = setup
        with pytest.raises(TranslationError):
            translate_sparql_to_cypher(
                PROLOG + "SELECT ?e WHERE { ?e :ghost ?v . }", result.mapping
            )

    def test_unsupported_filter_rejected(self, setup):
        result, _, _ = setup
        with pytest.raises(TranslationError):
            translate_sparql_to_cypher(
                PROLOG + "SELECT ?e WHERE { ?e a :Album ; :title ?t . "
                         "FILTER(isLiteral(?t)) }",
                result.mapping,
            )


class TestConstantEncoding:
    def test_typed_constant_matches_native_value(self):
        result = transform(GRAPH, SHAPES)
        engine = CypherEngine(PropertyGraphStore(result.graph))
        sparql = PROLOG + "SELECT ?e WHERE { ?e a :Album ; :year 2001 . }"
        cypher = translate_sparql_to_cypher(sparql, result.mapping)
        assert len(engine.query(cypher)) == 1


class TestStringEscapes:
    """A string constant means the same value in N-Triples, SPARQL and
    the translated Cypher: all three decode ECHAR and ``\\u`` escapes
    with the one unescape of :mod:`repro.lexer`."""

    # "C:\temp" (one backslash) and "line1<newline>line2"
    DATA = (
        '<http://x/a> <http://x/path> "C:\\\\temp" .\n'
        '<http://x/b> <http://x/path> "line1\\nline2" .\n'
        '<http://x/c> <http://x/path> "C:\\\\\\\\temp" .\n'
    )

    @pytest.fixture(scope="class", params=[True, False], ids=["parsimonious",
                                                              "non-parsimonious"])
    def engines(self, request):
        from repro.core.config import TransformOptions
        from repro.rdf.ntriples import parse_ntriples
        from repro.shapes.extractor import extract_shapes

        graph = parse_ntriples(self.DATA)
        options = TransformOptions(parsimonious=request.param)
        result = transform(graph, extract_shapes(graph), options)
        store = PropertyGraphStore(result.graph)
        return result.mapping, SparqlEngine(graph), CypherEngine(store)

    def _subjects(self, engines, constant: str) -> tuple[list, list]:
        mapping, sparql_engine, cypher_engine = engines
        sparql = f"SELECT ?s WHERE {{ ?s <http://x/path> {constant} . }}"
        cypher = translate_sparql_to_cypher(sparql, mapping)
        return (
            sorted(str(row["s"]) for row in sparql_engine.query(sparql)),
            sorted(str(row["s"]) for row in cypher_engine.query(cypher)),
        )

    def test_backslash_survives_translation(self, engines):
        sparql, cypher = self._subjects(engines, '"C:\\\\temp"')
        assert sparql == cypher == ["http://x/a"]

    def test_sparql_decodes_echar(self, engines):
        # Hand-written answer: both arms agreed on 0 rows before the fix.
        sparql, cypher = self._subjects(engines, '"line1\\nline2"')
        assert sparql == cypher == ["http://x/b"]

    def test_sparql_decodes_unicode_escapes(self, engines):
        sparql, cypher = self._subjects(engines, '"C:\\u005C\\u005Ctemp"')
        assert sparql == cypher == ["http://x/c"]
