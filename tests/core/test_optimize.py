"""Tests for non-parsimonious graph compaction (paper future work)."""

import pytest

from repro.cli import main
from repro.core import (
    DEFAULT_OPTIONS,
    MONOTONE_OPTIONS,
    S3PG,
    apply_delta,
    optimize,
    pg_to_rdf,
)
from repro.pgschema import check_conformance
from repro.rdf import (
    graphs_equal_modulo_bnodes,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
)
from repro.shacl import serialize_shacl
from repro.shapes import ExtractionConfig, extract_shapes


@pytest.fixture
def nonpars(uni_graph, uni_shapes):
    return S3PG(MONOTONE_OPTIONS).transform(uni_graph, uni_shapes)


@pytest.fixture(scope="module")
def pruned_shapes(small_dbpedia):
    """A support-pruned schema the data outruns: some values of key/value
    predicates carry another datatype and stay edges in both modes."""
    return extract_shapes(small_dbpedia.graph, ExtractionConfig(
        min_class_support=3, min_property_support=0.6, min_type_confidence=0.3,
    ))


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


class TestPrunedSchema:
    """Edges the fold leaves alone must be registered in the target schema
    exactly as the parsimonious transform registers them."""

    def test_compaction_round_trips_through_m(self, small_dbpedia, pruned_shapes):
        graph = small_dbpedia.graph
        nonpars = S3PG(MONOTONE_OPTIONS).transform(graph, pruned_shapes)
        pars = S3PG(DEFAULT_OPTIONS).transform(graph, pruned_shapes)
        optimized = optimize(nonpars.transformed)
        mapping = optimized.schema_result.mapping
        assert mapping.to_json() == pars.mapping.to_json()
        assert graphs_equal_modulo_bnodes(graph, pg_to_rdf(optimized.graph, mapping))

    def test_cli_compact_then_to_rdf(self, small_dbpedia, pruned_shapes,
                                     tmp_path, capsys):
        data, shapes = tmp_path / "kg.nt", tmp_path / "shapes.ttl"
        data.write_text(serialize_ntriples(small_dbpedia.graph), encoding="utf-8")
        shapes.write_text(serialize_shacl(pruned_shapes), encoding="utf-8")
        nonpars, compacted = tmp_path / "np", tmp_path / "compacted"
        back = tmp_path / "back.nt"
        assert main([
            "transform", str(data), "--shapes", str(shapes), "-o", str(nonpars),
            "--non-parsimonious",
        ]) == 0
        assert main([
            "compact", str(nonpars), str(nonpars / "mapping.json"),
            "-o", str(compacted),
        ]) == 0
        assert main([
            "to-rdf", str(compacted), str(compacted / "mapping.json"),
            "-o", str(back),
        ]) == 0
        assert graphs_equal_modulo_bnodes(
            parse_ntriples(back), small_dbpedia.graph
        )
