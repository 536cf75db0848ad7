"""Tests for the end-to-end S3PG pipeline API."""

import importlib

import pytest

from repro import DEFAULT_OPTIONS, MONOTONE_OPTIONS, S3PG, transform
from repro.cli import main
from repro.pgschema import check_conformance
from repro.pg import PropertyGraphStore


def test_bulk_transform_has_one_execution_strategy(uni_graph, uni_shapes, capsys):
    """The sharded engine and every way of selecting it are gone; these
    are the two exceptions ``benchmarks/e2e`` catches to omit ``engine.*``."""
    removed_keyword = {"parallel": 1}
    with pytest.raises(TypeError):
        transform(uni_graph, uni_shapes, **removed_keyword)
    with pytest.raises(TypeError):
        S3PG().transform(uni_graph, uni_shapes, **removed_keyword)
    with pytest.raises(ImportError):
        importlib.import_module(".engine", package="repro")
    removed_flag = "--" + "workers"
    for command in ("transform", "profile"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "x.nt", removed_flag, "2"])
        assert excinfo.value.code == 2
        assert removed_flag in capsys.readouterr().err


class TestTransformApi:
    def test_result_exposes_all_artifacts(self, uni_result):
        assert uni_result.graph.node_count() > 0
        assert len(uni_result.pg_schema.node_types) > 0
        assert uni_result.mapping.parsimonious is True
        assert uni_result.stats.triples_processed > 0

    def test_timings_recorded(self, uni_result):
        assert set(uni_result.timings) >= {"schema_s", "data_s", "transform_s"}
        assert uni_result.timings["transform_s"] >= uni_result.timings["data_s"]

    def test_load_builds_indexed_store(self, uni_graph, uni_shapes):
        result = transform(uni_graph, uni_shapes)
        store = result.load()
        assert isinstance(store, PropertyGraphStore)
        assert "load_s" in result.timings
        assert store.node_by_property(
            "iri", "http://example.org/university#bob"
        ) is not None

    def test_schema_only_entry_point(self, uni_shapes):
        schema_result = S3PG().transform_schema(uni_shapes)
        assert "uni_PersonType" in schema_result.pg_schema.node_types

    def test_output_conforms_to_schema(self, uni_result):
        assert check_conformance(uni_result.graph, uni_result.pg_schema).conforms

    def test_non_parsimonious_output_conforms(self, uni_graph, uni_shapes):
        result = transform(uni_graph, uni_shapes, options=MONOTONE_OPTIONS)
        assert check_conformance(result.graph, result.pg_schema).conforms

    def test_figure2_example_shape(self, uni_result):
        """The Figure 2c output: bob carries Person/Student/GS labels and
        takesCourse links to both a course node and a literal node."""
        bob = uni_result.graph.get_node("http://example.org/university#bob")
        assert {"uni_Person", "uni_Student", "uni_GraduateStudent"} <= bob.labels
        takes = [
            e for e in uni_result.graph.edges.values()
            if e.src == bob.id and "uni_takesCourse" in e.labels
        ]
        assert len(takes) == 2
        labels = {
            frozenset(uni_result.graph.nodes[e.dst].labels) for e in takes
        }
        assert frozenset({"STRING"}) in labels  # 'Intro to Logic' literal node

    def test_default_options_are_parsimonious(self):
        assert DEFAULT_OPTIONS.parsimonious and not MONOTONE_OPTIONS.parsimonious
