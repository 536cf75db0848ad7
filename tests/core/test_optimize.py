"""Tests for non-parsimonious graph compaction (paper future work)."""

import pytest

from repro.core import (
    DEFAULT_OPTIONS,
    MONOTONE_OPTIONS,
    S3PG,
    apply_delta,
    optimize,
    pg_to_rdf,
)
from repro.datasets import university_graph, university_shapes
from repro.pgschema import check_conformance
from repro.rdf import graphs_equal_modulo_bnodes, parse_turtle


@pytest.fixture
def nonpars(uni_graph, uni_shapes):
    return S3PG(MONOTONE_OPTIONS).transform(uni_graph, uni_shapes)


class TestExactness:
    def test_equals_direct_parsimonious_transform(self, uni_graph, uni_shapes, nonpars):
        pars = S3PG(DEFAULT_OPTIONS).transform(uni_graph, uni_shapes)
        optimized = optimize(nonpars.transformed)
        assert optimized.graph.structurally_equal(pars.graph)

    def test_equals_parsimonious_on_synthetic_data(self, small_dbpedia):
        nonpars = S3PG(MONOTONE_OPTIONS).transform(
            small_dbpedia.graph, small_dbpedia.shapes
        )
        pars = S3PG(DEFAULT_OPTIONS).transform(
            small_dbpedia.graph, small_dbpedia.shapes
        )
        optimized = optimize(nonpars.transformed)
        assert optimized.graph.structurally_equal(pars.graph)

    def test_optimized_graph_conforms_to_new_schema(self, nonpars):
        optimized = optimize(nonpars.transformed)
        report = check_conformance(
            optimized.graph, optimized.schema_result.pg_schema
        )
        assert report.conforms, [str(v) for v in report.violations[:3]]

    def test_information_still_preserved(self, uni_graph, nonpars):
        optimized = optimize(nonpars.transformed)
        reconstructed = pg_to_rdf(optimized.graph, optimized.schema_result.mapping)
        assert graphs_equal_modulo_bnodes(uni_graph, reconstructed)


class TestStats:
    def test_folding_counted(self, nonpars):
        optimized = optimize(nonpars.transformed)
        assert optimized.stats.edges_folded > 0
        assert optimized.stats.edges_folded == optimized.stats.record_values_created
        assert optimized.stats.literal_nodes_removed > 0

    def test_shared_literal_nodes_survive_if_still_referenced(self, uni_shapes):
        # Two entities share a heterogeneous literal value; folding only
        # removes nodes with no remaining references.
        graph = parse_turtle("""
        @prefix : <http://example.org/university#> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        :a a :Person ; :name "X" ; :dob "1999"^^xsd:gYear .
        :b a :Person ; :name "Y" ; :dob "1999"^^xsd:gYear .
        """)
        result = S3PG(MONOTONE_OPTIONS).transform(graph, uni_shapes)
        optimized = optimize(result.transformed)
        # dob is genuinely multi-typed in the schema: its literal node
        # must NOT be folded.
        assert any(
            node.properties.get("value") == "1999"
            for node in optimized.graph.nodes.values()
        )


    def test_typed_entity_under_lit_scheme_is_kept(self, uni_shapes):
        # Only literal *nodes* are garbage after folding; an entity whose
        # IRI happens to start with "lit:" keeps its node and its type.
        graph = parse_turtle("""
        @prefix : <http://example.org/university#> .
        <lit:x> a :Person .
        :b a :Person .
        """)
        result = S3PG(MONOTONE_OPTIONS).transform(graph, uni_shapes)
        optimized = optimize(result.transformed)
        assert optimized.graph.has_node("lit:x")
        pars = S3PG(DEFAULT_OPTIONS).transform(graph, uni_shapes)
        assert optimized.graph.structurally_equal(pars.graph)
        back = pg_to_rdf(optimized.graph, optimized.schema_result.mapping)
        assert graphs_equal_modulo_bnodes(graph, back)


class TestPipelineIntegration:
    def test_convert_incrementally_then_compact(self, uni_graph, uni_shapes):
        """The intended usage: monotone conversion while evolving, then
        compaction once the schema stabilizes."""
        result = S3PG(MONOTONE_OPTIONS).transform(uni_graph, uni_shapes)
        delta = parse_turtle("""
        @prefix : <http://example.org/university#> .
        :carol a :Person ; :name "Carol" .
        """)
        apply_delta(result.transformed, added=delta)
        optimized = optimize(result.transformed)
        pars = S3PG(DEFAULT_OPTIONS).transform(uni_graph | delta, uni_shapes)
        assert optimized.graph.structurally_equal(pars.graph)

    def test_rejects_non_parsimonious_target(self, nonpars):
        with pytest.raises(ValueError):
            optimize(nonpars.transformed, options=MONOTONE_OPTIONS)

    def test_idempotent_on_parsimonious_input(self, uni_graph, uni_shapes):
        pars = S3PG(DEFAULT_OPTIONS).transform(uni_graph, uni_shapes)
        before = pars.graph.canonical_form()
        optimized = optimize(pars.transformed)
        assert optimized.graph.canonical_form() == before
        assert optimized.stats.edges_folded == 0


class TestFallbackCarryOver:
    def test_fallback_predicates_survive_compaction(self, small_dbpedia):
        """Class-level triples (rdfs:subClassOf) converted via fallback
        must still conform after compaction."""
        result = S3PG(MONOTONE_OPTIONS).transform(
            small_dbpedia.graph, small_dbpedia.shapes
        )
        optimized = optimize(result.transformed)
        report = check_conformance(
            optimized.graph, optimized.schema_result.pg_schema
        )
        assert report.conforms, [str(v) for v in report.violations[:3]]
