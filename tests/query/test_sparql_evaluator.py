"""Unit tests for SPARQL evaluation over the indexed triple store."""

import pytest

from repro.query.sparql import SparqlEngine
from repro.rdf import parse_turtle

GRAPH = parse_turtle("""
@prefix : <http://x/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
:a a :Person ; :name "Ann" ; :age 30 ; :knows :b, :c .
:b a :Person ; :name "Bob" ; :age 25 ; :knows :c .
:c a :Person, :Admin ; :name "Cat" ; :age 41 .
:d a :Robot ; :name "Ann" .
""")

PROLOG = "PREFIX : <http://x/> "


@pytest.fixture(scope="module")
def engine():
    return SparqlEngine(GRAPH)


class TestBasicMatching:
    def test_type_query(self, engine):
        assert engine.count(PROLOG + "SELECT ?e WHERE { ?e a :Person . }") == 3

    def test_join_across_patterns(self, engine):
        rows = engine.query(PROLOG + "SELECT ?x ?y WHERE { ?x :knows ?y . ?y a :Admin . }")
        assert {str(r["x"]) for r in rows} == {"http://x/a", "http://x/b"}

    def test_constant_object(self, engine):
        rows = engine.query(PROLOG + 'SELECT ?e WHERE { ?e :name "Ann" . }')
        assert {str(r["e"]) for r in rows} == {"http://x/a", "http://x/d"}

    def test_constant_subject(self, engine):
        rows = engine.query(PROLOG + "SELECT ?v WHERE { :a :knows ?v . }")
        assert len(rows) == 2

    def test_shared_variable_join(self, engine):
        # entities that know someone with the same age as themselves: none
        rows = engine.query(
            PROLOG + "SELECT ?x WHERE { ?x :age ?n . ?x :knows ?y . ?y :age ?n . }"
        )
        assert rows == []

    def test_no_match_returns_empty(self, engine):
        assert engine.query(PROLOG + "SELECT ?e WHERE { ?e a :Alien . }") == []

    def test_cartesian_product_when_disconnected(self, engine):
        rows = engine.query(
            PROLOG + "SELECT ?x ?y WHERE { ?x a :Robot . ?y a :Admin . }"
        )
        assert len(rows) == 1


class TestModifiers:
    def test_distinct(self, engine):
        without = engine.query(PROLOG + "SELECT ?x WHERE { ?x :knows ?y . }")
        with_distinct = engine.query(
            PROLOG + "SELECT DISTINCT ?x WHERE { ?x :knows ?y . }"
        )
        assert len(without) == 3 and len(with_distinct) == 2

    def test_limit(self, engine):
        rows = engine.query(PROLOG + "SELECT ?e WHERE { ?e a :Person . } LIMIT 2")
        assert len(rows) == 2

    def test_count_star(self, engine):
        rows = engine.query(
            PROLOG + "SELECT (COUNT(*) AS ?n) WHERE { ?e a :Person . }"
        )
        assert rows[0]["n"].to_python() == 3

    def test_select_star_binds_all(self, engine):
        rows = engine.query(PROLOG + "SELECT * WHERE { ?x :knows ?y . }")
        assert set(rows[0]) == {"x", "y"}


class TestFilters:
    def test_numeric_comparison(self, engine):
        rows = engine.query(
            PROLOG + "SELECT ?e WHERE { ?e :age ?n . FILTER(?n > 28) }"
        )
        assert {str(r["e"]) for r in rows} == {"http://x/a", "http://x/c"}

    def test_equality_on_string(self, engine):
        rows = engine.query(
            PROLOG + 'SELECT ?e WHERE { ?e :name ?n . FILTER(?n = "Bob") }'
        )
        assert len(rows) == 1

    def test_inequality_on_string(self, engine):
        rows = engine.query(
            PROLOG + 'SELECT ?e WHERE { ?e :name ?n . FILTER(?n != "Bob") }'
        )
        assert {str(r["e"]) for r in rows} == {
            "http://x/a", "http://x/c", "http://x/d"}

    def test_inequality_on_integer(self, engine):
        rows = engine.query(
            PROLOG + "SELECT ?e WHERE { ?e :age ?n . FILTER(?n != 30) }"
        )
        assert {str(r["e"]) for r in rows} == {"http://x/b", "http://x/c"}

    def test_boolean_and(self, engine):
        rows = engine.query(
            PROLOG + "SELECT ?e WHERE { ?e :age ?n . FILTER(?n > 20 && ?n < 30) }"
        )
        assert len(rows) == 1

    def test_boolean_or(self, engine):
        rows = engine.query(
            PROLOG + "SELECT ?e WHERE { ?e :age ?n . FILTER(?n < 26 || ?n > 40) }"
        )
        assert len(rows) == 2

    def test_negation(self, engine):
        rows = engine.query(
            PROLOG + "SELECT ?e WHERE { ?e :age ?n . FILTER(!(?n = 30)) }"
        )
        assert len(rows) == 2

    def test_is_literal(self, engine):
        rows = engine.query(
            PROLOG + "SELECT ?e ?v WHERE { ?e :knows ?v . FILTER(isLiteral(?v)) }"
        )
        assert rows == []

    def test_is_iri(self, engine):
        rows = engine.query(
            PROLOG + "SELECT ?e ?v WHERE { ?e :knows ?v . FILTER(isIRI(?v)) }"
        )
        assert len(rows) == 3

    def test_regex(self, engine):
        rows = engine.query(
            PROLOG + 'SELECT ?e WHERE { ?e :name ?n . FILTER(REGEX(?n, "^A")) }'
        )
        assert len(rows) == 2

    def test_str_comparison(self, engine):
        rows = engine.query(
            PROLOG + 'SELECT ?e WHERE { ?e :knows ?v . FILTER(STR(?v) = "http://x/c") }'
        )
        assert len(rows) == 2

    def test_incomparable_types_filter_to_false(self, engine):
        rows = engine.query(
            PROLOG + 'SELECT ?e WHERE { ?e :name ?n . FILTER(?n > 100) }'
        )
        assert rows == []
