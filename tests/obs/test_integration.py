"""End-to-end observability: traced runs across the instrumented layers.

Covers the acceptance path of the subsystem: a traced ``repro transform``
must produce a Chrome trace with the CLI, parser and pipeline spans plus
a Prometheus exposition with the parse and transform counters.
"""

from __future__ import annotations

import json

import pytest

from repro import obs, transform
from repro.cli import main
from repro.datasets import (
    UNIVERSITY_DATA_TTL,
    university_graph,
    university_shapes,
)
from repro.query.cypher.evaluator import CypherEngine
from repro.query.sparql.evaluator import SparqlEngine
from repro.query.translate import translate_sparql_to_cypher
from repro.pg.store import PropertyGraphStore
from repro.rdf import serialize_ntriples
from repro.shacl.validator import validate as shacl_validate

_SPARQL = """
PREFIX uni: <http://example.org/university#>
SELECT ?name WHERE { ?s a uni:Student . ?s uni:name ?name }
"""


def _names(tracer) -> dict[str, list]:
    names: dict[str, list] = {}
    for span in tracer.finished():
        names.setdefault(span.name, []).append(span)
    return names


class TestTracedTransform:
    def test_serial_transform_spans_and_metrics(self, uni_graph, uni_shapes):
        obs.configure()
        transform(uni_graph, uni_shapes)
        names = _names(obs.get_tracer())
        assert "s3pg.transform" in names
        assert "s3pg.schema_transform" in names
        assert "s3pg.data_transform" in names
        root = names["s3pg.transform"][0]
        for child_name in ("s3pg.schema_transform", "s3pg.data_transform"):
            assert names[child_name][0].parent_id == root.span_id
        assert root.attributes["triples"] == len(uni_graph)
        assert root.attributes["nodes"] > 0

        snapshot = obs.get_metrics().snapshot()
        assert snapshot["repro_transform_runs_total"]["series"][0]["value"] == 1
        assert (
            snapshot["repro_transform_triples_total"]["series"][0]["value"]
            == len(uni_graph)
        )
        phases = {
            tuple(series["labels"].items())
            for series in snapshot["repro_transform_seconds"]["series"]
        }
        assert (("phase", "schema"),) in phases
        assert (("phase", "data"),) in phases


class TestTracedValidatorAndQueries:
    def test_validator_spans_and_metrics(self, uni_graph, uni_shapes):
        obs.configure()
        report = shacl_validate(uni_graph, uni_shapes)
        names = _names(obs.get_tracer())
        span = names["shacl.validate"][0]
        assert span.attributes["entities"] == report.checked_entities
        assert span.attributes["memo_misses"] > 0

        snapshot = obs.get_metrics().snapshot()
        checks = snapshot["repro_validator_checks_total"]["series"]
        assert checks and all(s["labels"].get("shape") for s in checks)

    def test_query_engines_spans_and_metrics(self, uni_graph, uni_result):
        obs.configure()
        rows = SparqlEngine(uni_graph).query(_SPARQL)
        cypher = translate_sparql_to_cypher(_SPARQL, uni_result.mapping)
        CypherEngine(PropertyGraphStore(uni_result.graph)).query(cypher)

        names = _names(obs.get_tracer())
        sparql_span = names["sparql.evaluate"][0]
        assert sparql_span.attributes["rows"] == len(rows)
        assert sparql_span.attributes["bgp_matches"] > 0
        assert sum(sparql_span.attributes["selectivity_profile"]) > 0
        cypher_span = names["cypher.evaluate"][0]
        assert cypher_span.attributes["rows"] == len(rows)
        assert "cypher.match" in names
        assert "cypher.return" in names

        snapshot = obs.get_metrics().snapshot()
        langs = {
            series["labels"]["lang"]
            for series in snapshot["repro_query_runs_total"]["series"]
        }
        assert langs == {"sparql", "cypher"}


class TestCliArtifacts:
    @pytest.fixture
    def nt_file(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(
            serialize_ntriples(university_graph()), encoding="utf-8"
        )
        return path

    def test_traced_transform_cli(self, nt_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "transform", str(nt_file), "-o", str(tmp_path / "out"),
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        assert "wrote trace" in capsys.readouterr().out

        events = json.loads(trace_path.read_text(encoding="utf-8"))["traceEvents"]
        names = {event["name"] for event in events}
        assert {"cli.transform", "rdf.parse_ntriples", "s3pg.transform",
                "s3pg.data_transform"} <= names

        metrics_text = metrics_path.read_text(encoding="utf-8")
        for name in ("repro_transform_runs_total",
                     "repro_transform_triples_total",
                     "repro_parse_triples_total"):
            assert name in metrics_text, f"missing {name}"
        # The CLI must leave the process clean for the next invocation.
        assert not obs.enabled()
        assert obs.get_metrics().snapshot() == {}

    def test_jsonl_trace_and_json_metrics_suffixes(self, nt_file, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "transform", str(nt_file), "-o", str(tmp_path / "out"),
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]) == 0
        records = [
            json.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
        ]
        assert any(r["name"] == "s3pg.transform" for r in records)
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert "repro_transform_runs_total" in snapshot

    def test_profile_command(self, nt_file, capsys):
        code = main(["profile", str(nt_file), "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "self s" in out
        assert "s3pg.data_transform" in out
        assert not obs.enabled()

    def test_validate_with_metrics(self, tmp_path, capsys):
        from repro.datasets import UNIVERSITY_SHAPES_TTL

        data = tmp_path / "data.ttl"
        data.write_text(UNIVERSITY_DATA_TTL, encoding="utf-8")
        shapes = tmp_path / "shapes.ttl"
        shapes.write_text(UNIVERSITY_SHAPES_TTL, encoding="utf-8")
        metrics_path = tmp_path / "metrics.prom"
        main([
            "validate", str(data), str(shapes),
            "--metrics", str(metrics_path),
        ])
        text = metrics_path.read_text(encoding="utf-8")
        assert "repro_validator_checks_total" in text
        assert "repro_parse_shapes_total" in text


class TestProfileRendering:
    def test_render_profile_self_time(self):
        tracer = obs.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        table = obs.render_profile(tracer.finished(), top=10)
        lines = table.splitlines()
        assert lines[0].split() == ["span", "count", "total", "s",
                                    "self", "s", "self", "%"]
        assert len(lines) == 3
        rows = obs.aggregate_self_times(tracer.finished())
        outer = next(row for row in rows if row.name == "outer")
        inner = next(row for row in rows if row.name == "inner")
        assert outer.self_s == pytest.approx(
            outer.total_s - inner.total_s, rel=1e-6
        )

    def test_render_profile_empty(self):
        assert obs.render_profile([]) == "no spans recorded"
