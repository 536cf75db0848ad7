"""Tests for the file-based streaming transformation."""

import pytest

from repro.core import (
    DEFAULT_OPTIONS,
    MONOTONE_OPTIONS,
    S3PG,
    DataTransformer,
    transform_schema,
)
from repro.core.streaming import transform_file
from repro.datasets import university_graph, university_shapes
from repro.pg import PropertyGraph
from repro.rdf import write_ntriples


@pytest.fixture
def nt_path(tmp_path):
    path = tmp_path / "uni.nt"
    write_ntriples(university_graph(), path)
    return path


class TestStreaming:
    def test_matches_in_memory_transform(self, nt_path):
        shapes = university_shapes()
        schema_result = transform_schema(shapes)
        streamed = transform_file(nt_path, schema_result)
        in_memory = S3PG().transform(university_graph(), shapes)
        assert streamed.graph.structurally_equal(in_memory.graph)

    def test_matches_in_memory_non_parsimonious(self, nt_path):
        shapes = university_shapes()
        schema_result = transform_schema(shapes, MONOTONE_OPTIONS)
        streamed = transform_file(nt_path, schema_result, MONOTONE_OPTIONS)
        in_memory = S3PG(MONOTONE_OPTIONS).transform(university_graph(), shapes)
        assert streamed.graph.structurally_equal(in_memory.graph)

    def test_triples_counted_once(self, nt_path):
        schema_result = transform_schema(university_shapes())
        streamed = transform_file(nt_path, schema_result)
        assert streamed.stats.triples_processed == len(university_graph())

    def test_on_synthetic_dataset(self, tmp_path, small_dbpedia):
        path = tmp_path / "dbp.nt"
        write_ntriples(small_dbpedia.graph, path)
        schema_result = transform_schema(small_dbpedia.shapes)
        streamed = transform_file(path, schema_result, DEFAULT_OPTIONS)
        in_memory = S3PG().transform(small_dbpedia.graph, small_dbpedia.shapes)
        assert streamed.graph.structurally_equal(in_memory.graph)

    def test_missing_file_raises(self, monkeypatch):
        """The first scan opens the file, so nothing is built before it fails."""
        created = []
        monkeypatch.setattr(
            PropertyGraph, "add_node",
            lambda self, *args, **kwargs: created.append(args),
        )
        schema_result = transform_schema(university_shapes())
        with pytest.raises(FileNotFoundError):
            transform_file("/nonexistent/file.nt", schema_result)
        assert created == []


class _CountingSource:
    """A re-iterable that counts its scans and refuses to be sized/copied."""

    def __init__(self, triples):
        self._triples = tuple(triples)
        self.scans = 0

    def __iter__(self):
        self.scans += 1
        yield from self._triples

    def __len__(self):
        raise AssertionError("source was materialized")


class TestOneLoop:
    """File, generator and Graph inputs all run DataTransformer.transform."""

    @pytest.mark.parametrize("options", [DEFAULT_OPTIONS, MONOTONE_OPTIONS])
    def test_reiterable_is_scanned_twice_never_listed(self, options):
        graph = university_graph()
        source = _CountingSource(graph)
        transformer = DataTransformer(
            transform_schema(university_shapes(), options), options
        )
        streamed = transformer.transform(source)
        assert source.scans == 2
        assert streamed.stats.triples_processed == len(graph)
        assert streamed.graph.structurally_equal(
            transformer.transform(graph).graph
        )

    @pytest.mark.parametrize("options", [DEFAULT_OPTIONS, MONOTONE_OPTIONS])
    def test_one_shot_generator_matches_graph(self, options):
        graph = university_graph()
        transformer = DataTransformer(
            transform_schema(university_shapes(), options), options
        )
        one_shot = (triple for triple in graph)
        assert (
            transformer.transform(one_shot).graph.canonical_form()
            == transformer.transform(graph).graph.canonical_form()
        )


class TestStreamingEdgeCases:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.nt"
        path.write_text("", encoding="utf-8")
        streamed = transform_file(path, transform_schema(university_shapes()))
        assert streamed.stats.triples_processed == 0
        assert streamed.graph.node_count() == 0
        assert streamed.graph.edge_count() == 0

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "comments.nt"
        path.write_text(
            "# leading comment\n"
            "\n"
            "<http://ex/s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://ex/C> .\n"
            "   \n"
            "# trailing comment\n",
            encoding="utf-8",
        )
        streamed = transform_file(path, transform_schema(university_shapes()))
        assert streamed.stats.triples_processed == 1
        assert streamed.graph.node_count() == 1

    def test_blank_node_subjects(self, tmp_path):
        path = tmp_path / "bnodes.nt"
        path.write_text(
            "_:b0 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://ex/C> .\n"
            '_:b0 <http://ex/name> "Anon" .\n'
            "_:b1 <http://ex/knows> _:b0 .\n",
            encoding="utf-8",
        )
        streamed = transform_file(path, transform_schema(university_shapes()))
        assert streamed.stats.triples_processed == 3
        # _:b0 is typed (external class), _:b1 is an untyped Resource, and
        # the off-schema name statement materializes a literal node.
        assert streamed.graph.has_node("_:b0")
        assert streamed.graph.get_node("_:b0").labels == {"C"}
        assert streamed.graph.has_node("_:b1")
        assert streamed.graph.get_node("_:b1").labels == {"Resource"}
        assert streamed.graph.node_count() == 3
        assert streamed.graph.edge_count() == 2

    def test_file_matches_in_memory_phase_by_phase(self, nt_path):
        """The streamed result equals the in-memory DataTransformer's:
        same phase-1 nodes, same phase-2 edges/records, same counters."""
        from repro.core import DataTransformer

        schema_result = transform_schema(university_shapes())
        streamed = transform_file(nt_path, schema_result)
        in_memory = DataTransformer(
            transform_schema(university_shapes()), DEFAULT_OPTIONS
        ).transform(university_graph())
        # Phase 1: identical node ids and label sets.
        assert set(streamed.graph.nodes) == set(in_memory.graph.nodes)
        for node_id, node in streamed.graph.nodes.items():
            assert node.labels == in_memory.graph.nodes[node_id].labels
        # Phase 2: identical edges and records.
        assert set(streamed.graph.edges) == set(in_memory.graph.edges)
        assert streamed.graph.structurally_equal(in_memory.graph)
        assert streamed.stats == in_memory.stats
