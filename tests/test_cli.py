"""End-to-end tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import load_rdf, main
from repro.datasets import (
    UNIVERSITY_DATA_TTL,
    UNIVERSITY_SHAPES_TTL,
    university_graph,
)
from repro.rdf import serialize_ntriples


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.ttl"
    path.write_text(UNIVERSITY_DATA_TTL, encoding="utf-8")
    return path


@pytest.fixture
def nt_file(tmp_path):
    path = tmp_path / "data.nt"
    path.write_text(serialize_ntriples(university_graph()), encoding="utf-8")
    return path


@pytest.fixture
def shapes_file(tmp_path):
    path = tmp_path / "shapes.ttl"
    path.write_text(UNIVERSITY_SHAPES_TTL, encoding="utf-8")
    return path


class TestLoadRdf:
    def test_turtle_by_default(self, data_file):
        assert len(load_rdf(data_file)) == len(university_graph())

    def test_ntriples_by_extension(self, nt_file):
        assert len(load_rdf(nt_file)) == len(university_graph())


class TestTransform:
    def test_with_shapes(self, data_file, shapes_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "transform", str(data_file), "--shapes", str(shapes_file),
            "-o", str(out),
        ])
        assert code == 0
        assert (out / "nodes.csv").exists()
        assert (out / "edges.csv").exists()
        assert (out / "schema.pgs").exists()
        mapping = json.loads((out / "mapping.json").read_text())
        assert mapping["parsimonious"] is True

    def test_without_shapes_extracts(self, data_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["transform", str(data_file), "-o", str(out)]) == 0
        assert "extracted" in capsys.readouterr().out

    def test_non_parsimonious_flag(self, data_file, shapes_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "transform", str(data_file), "--shapes", str(shapes_file),
            "-o", str(out), "--non-parsimonious",
        ])
        assert code == 0
        mapping = json.loads((out / "mapping.json").read_text())
        assert mapping["parsimonious"] is False

    def test_g2gml_output(self, data_file, shapes_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "transform", str(data_file), "--shapes", str(shapes_file),
            "-o", str(out), "--g2gml",
        ])
        assert code == 0
        assert "PREFIX rdf:" in (out / "mapping.g2g").read_text()

    def test_conformance_of_transform_output(self, data_file, shapes_file,
                                              tmp_path, capsys):
        out = tmp_path / "out"
        main(["transform", str(data_file), "--shapes", str(shapes_file),
              "-o", str(out)])
        code = main(["conformance", str(out), str(out / "schema.pgs")])
        assert code == 0
        assert "conforms" in capsys.readouterr().out


class TestExtractShapes:
    def test_to_stdout(self, data_file, capsys):
        assert main(["extract-shapes", str(data_file)]) == 0
        assert "sh:NodeShape" in capsys.readouterr().out

    def test_to_file(self, data_file, tmp_path):
        out = tmp_path / "shapes.ttl"
        assert main(["extract-shapes", str(data_file), "-o", str(out)]) == 0
        assert "sh:NodeShape" in out.read_text()


class TestValidate:
    def test_conforming(self, data_file, shapes_file, capsys):
        assert main(["validate", str(data_file), str(shapes_file)]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_violating_returns_nonzero(self, tmp_path, shapes_file, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text(
            "@prefix : <http://example.org/university#> .\n:x a :Person .\n",
            encoding="utf-8",
        )
        assert main(["validate", str(bad), str(shapes_file)]) == 1
        assert "violation" in capsys.readouterr().out


class TestStats:
    def test_stats(self, data_file, capsys):
        assert main(["stats", str(data_file)]) == 0
        assert "# of triples" in capsys.readouterr().out

    def test_shape_stats(self, shapes_file, capsys):
        assert main(["shape-stats", str(shapes_file)]) == 0
        assert "# of NS" in capsys.readouterr().out


class TestQuery:
    SPARQL = (
        "PREFIX uni: <http://example.org/university#> "
        "SELECT ?s WHERE { ?s a uni:Person . }"
    )

    def test_sparql_on_rdf(self, data_file, capsys):
        assert main(["query", str(data_file), self.SPARQL]) == 0
        assert "2 row(s)" in capsys.readouterr().out

    def test_via_pg_translation(self, data_file, capsys):
        assert main(["query", str(data_file), self.SPARQL, "--via-pg"]) == 0
        out = capsys.readouterr().out
        assert "translated Cypher" in out
        assert "2 row(s)" in out

    def test_query_from_file(self, data_file, tmp_path, capsys):
        qfile = tmp_path / "q.rq"
        qfile.write_text(self.SPARQL, encoding="utf-8")
        assert main(["query", str(data_file), f"@{qfile}"]) == 0

    @pytest.mark.parametrize(
        "flags", [["--exec-mode", "batched"], ["--no-planner"]]
    )
    def test_removed_execution_flags_are_unknown(self, data_file, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", str(data_file), self.SPARQL, *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("via_pg", [[], ["--via-pg"]])
    @pytest.mark.parametrize("flag", ["--explain", "--analyze"])
    def test_explain_prints_batch_operators(self, data_file, via_pg, flag, capsys):
        query = (
            "PREFIX uni: <http://example.org/university#> "
            "SELECT ?s ?d WHERE { ?s a uni:Student ; uni:advisedBy ?p . "
            "?p uni:worksFor ?d . }"
        )
        assert main(["query", str(data_file), query, flag, *via_pg]) == 0
        operators = [
            line for line in capsys.readouterr().out.splitlines()
            if "Batch" in line
        ]
        assert operators
        for line in operators:
            assert "est=" in line and "act=" in line
            assert ("loops=" in line and "time=" in line) == (flag == "--analyze")


class TestGenerate:
    def test_generate_dataset(self, tmp_path, capsys):
        out = tmp_path / "kg.nt"
        code = main(["generate", "dbpedia2020", "-o", str(out), "--scale", "0.1"])
        assert code == 0
        assert out.exists()
        assert "triples" in capsys.readouterr().out


class TestErrors:
    def test_missing_file_reports_error(self, capsys):
        assert main(["stats", "/nonexistent/file.ttl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text("this is not turtle", encoding="utf-8")
        assert main(["stats", str(bad)]) == 2


class TestToRdfAndCompact:
    def _transform(self, data_file, shapes_file, tmp_path, extra=()):
        out = tmp_path / "pgout"
        assert main([
            "transform", str(data_file), "--shapes", str(shapes_file),
            "-o", str(out), *extra,
        ]) == 0
        return out

    def test_to_rdf_round_trips(self, data_file, shapes_file, tmp_path, capsys):
        out = self._transform(data_file, shapes_file, tmp_path)
        nt_out = tmp_path / "back.nt"
        assert main([
            "to-rdf", str(out), str(out / "mapping.json"), "-o", str(nt_out),
        ]) == 0
        from repro.rdf import graphs_equal_modulo_bnodes, parse_ntriples

        assert graphs_equal_modulo_bnodes(
            parse_ntriples(nt_out), university_graph()
        )

    def test_compact_produces_conforming_output(self, data_file, shapes_file,
                                                tmp_path, capsys):
        out = self._transform(
            data_file, shapes_file, tmp_path, extra=("--non-parsimonious",)
        )
        compacted = tmp_path / "compacted"
        assert main([
            "compact", str(out), str(out / "mapping.json"),
            "-o", str(compacted),
        ]) == 0
        assert "folded" in capsys.readouterr().out
        assert main([
            "conformance", str(compacted), str(compacted / "schema.pgs"),
        ]) == 0


class TestServe:
    @pytest.fixture
    def delta_log(self, tmp_path):
        from repro.cdc import Delta, write_delta_log
        from repro.rdf.ntriples import parse_line

        graph = university_graph()
        triples = sorted(graph, key=str)
        # Stream the last few triples instead of baking them into the base.
        streamed, base = triples[-4:], triples[:-4]
        base_path = tmp_path / "base.nt"
        base_path.write_text(serialize_ntriples(base), encoding="utf-8")
        log = tmp_path / "deltas.jsonl"
        write_delta_log(
            [Delta(i + 1, added=(t,)) for i, t in enumerate(streamed)], log
        )
        return base_path, log

    def test_serve_once_replays_and_reports(self, delta_log, shapes_file,
                                            tmp_path, capsys):
        base, log = delta_log
        assert main([
            "serve", "--source", str(log), "--data", str(base),
            "--shapes", str(shapes_file), "--once",
        ]) == 0
        out = capsys.readouterr().out
        assert "applied 4 delta(s)" in out
        assert "standing report" in out

    def test_serve_checkpoint_resume(self, delta_log, shapes_file,
                                     tmp_path, capsys):
        base, log = delta_log
        ckpt = tmp_path / "ckpt"
        args = [
            "serve", "--source", str(log), "--data", str(base),
            "--shapes", str(shapes_file), "--once",
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(args) == 0
        capsys.readouterr()
        # Second run resumes from the watermark: nothing left to apply.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "applied 0 delta(s)" in out

    def test_serve_exports_metrics(self, delta_log, shapes_file,
                                   tmp_path, capsys):
        from repro.obs import get_metrics

        get_metrics().reset()  # counters persist across in-process runs
        base, log = delta_log
        metrics = tmp_path / "metrics.json"
        assert main([
            "serve", "--source", str(log), "--data", str(base),
            "--shapes", str(shapes_file), "--once",
            "--metrics", str(metrics),
        ]) == 0
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        applied = [
            s for s in snapshot["repro_cdc_deltas_total"]["series"]
            if s["labels"].get("status") == "applied"
        ]
        assert applied and applied[0]["value"] == 4
        assert snapshot["repro_cdc_delta_latency_seconds"]["series"][0]["count"] == 4
