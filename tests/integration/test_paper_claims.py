"""Integration tests: the paper's end-to-end claims at small scale.

These tests exercise the full pipeline the way the evaluation section
does — generate data, extract shapes, transform with all three methods,
query, and compare — asserting the qualitative results of Sections 5.1-5.4.
"""

import pytest

from repro.core import MONOTONE_OPTIONS, S3PG, pg_to_rdf, transform
from repro.datasets import dbpedia_workload
from repro.eval import (
    accuracy_experiment,
    load_dataset,
    monotonicity_experiment,
    run_all_transformations,
)
from repro.pgschema import check_conformance
from repro.rdf import graphs_equal_modulo_bnodes, parse_turtle
from repro.shacl import validate


@pytest.fixture(scope="module")
def bundle():
    return load_dataset("dbpedia2022", scale=0.12)


@pytest.fixture(scope="module")
def runs(bundle):
    return run_all_transformations(bundle)


class TestInformationPreservation:
    def test_s3pg_round_trips_the_whole_dataset(self, bundle):
        result = transform(bundle.graph, bundle.shapes)
        reconstructed = pg_to_rdf(result.graph, result.mapping)
        assert graphs_equal_modulo_bnodes(bundle.graph, reconstructed)

    def test_baselines_cannot_round_trip(self, bundle, runs):
        """The baselines drop triples; their PGs are strictly smaller."""
        s3pg_nodes = runs.s3pg_run.pg_stats.n_nodes
        assert runs.rdf2pg_run.pg_stats.n_nodes < s3pg_nodes
        assert runs.rdf2pg_result.stats.dropped_literals > 0


class TestSemanticsPreservation:
    def test_conforming_graph_conforming_pg(self, bundle):
        assert validate(bundle.graph, bundle.shapes).conforms
        result = transform(bundle.graph, bundle.shapes)
        assert check_conformance(result.graph, result.pg_schema).conforms

    def test_violating_graph_violating_pg(self, uni_shapes):
        """G ⊭ S_G implies F_dt(G) ⊭ S_PG (Definition 3.3, both ways)."""
        bad = parse_turtle("""
        @prefix : <http://example.org/university#> .
        :x a :Professor ; :name "NoDept" .
        """)  # Professor requires exactly one worksFor
        assert not validate(bad, uni_shapes).conforms
        result = transform(bad, uni_shapes)
        assert not check_conformance(result.graph, result.pg_schema).conforms


class TestQueryPreservation:
    def test_s3pg_answers_complete_for_every_workload_query(self, bundle, runs):
        workload = dbpedia_workload(bundle.spec)
        rows = accuracy_experiment(bundle, workload, runs)
        for row in rows:
            assert row.per_method["S3PG"].accuracy_percent == 100.0, row.qid
            assert row.per_method["S3PG"].spurious == 0, row.qid

    def test_baselines_lose_answers_on_heterogeneous_queries(self, bundle, runs):
        workload = dbpedia_workload(bundle.spec)
        rows = accuracy_experiment(bundle, workload, runs)
        hetero = [r for r in rows if r.category == "MT-Hetero (L+NL)"]
        assert min(r.per_method["rdf2pg"].accuracy_percent for r in hetero) < 90.0


class TestMonotonicity:
    def test_section_5_4_experiment(self, bundle):
        report = monotonicity_experiment(bundle)
        assert report.delta_matches_full
        assert report.n_added > 0 and report.n_removed > 0

    def test_non_parsimonious_output_has_no_record_values(self, bundle):
        result = S3PG(MONOTONE_OPTIONS).transform(bundle.graph, bundle.shapes)
        for node in result.graph.nodes.values():
            keys = set(node.properties) - {"iri", "value", "dtype", "lang"}
            assert not keys, node.id


class TestTransformedGraphShape:
    def test_s3pg_produces_more_rel_types(self, runs):
        assert (
            runs.s3pg_run.pg_stats.n_rel_types
            >= runs.neosem_run.pg_stats.n_rel_types
        )

    def test_baselines_agree_with_each_other(self, runs):
        assert runs.neosem_run.pg_stats.n_nodes == runs.rdf2pg_run.pg_stats.n_nodes
        assert runs.neosem_run.pg_stats.n_edges == runs.rdf2pg_run.pg_stats.n_edges
