"""The CDC pipeline: batching, effectivity, retry/quarantine, metrics."""

import asyncio
import json

import pytest

from repro.cdc import (
    CDCConfig,
    CDCPipeline,
    Delta,
    JsonlChangefeed,
    MemoryChangefeed,
    replay_deltas,
    write_delta_log,
)
from repro.core import S3PG, TransformOptions
from repro.fuzz import fresh_memo_snapshot
from repro.obs import get_metrics
from repro.pg import PropertyGraphStore
from repro.rdf import parse_turtle
from repro.rdf.ntriples import parse_line
from repro.shacl import DeltaValidator, parse_shacl
from repro.shacl.validator import validate as shacl_validate

SHAPES = parse_shacl("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :friend ; sh:nodeKind sh:IRI ; sh:class :Person ;
                sh:minCount 0 ] .
""")

PREFIX = "@prefix : <http://x/> .\n"
BASE = PREFIX + ':a a :Person ; :name "A" ; :friend :b .\n:b a :Person ; :name "B" .'


def t(line: str):
    return parse_line(line)


ADD_C_TYPE = t("<http://x/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .")
ADD_C_NAME = t('<http://x/c> <http://x/name> "C" .')
ADD_BC_EDGE = t("<http://x/b> <http://x/friend> <http://x/c> .")
REMOVE_AB_EDGE = t("<http://x/a> <http://x/friend> <http://x/b> .")


def make_pipeline(validate=True, options=None, **kwargs):
    graph = parse_turtle(BASE)
    result = S3PG(options) if options else S3PG()
    result = result.transform(graph, SHAPES)
    store = PropertyGraphStore(result.graph)
    validator = DeltaValidator(SHAPES, graph) if validate else None
    config = kwargs.pop("config", CDCConfig(max_linger_s=0.0))
    pipeline = CDCPipeline(
        result.transformed, graph, store=store, validator=validator,
        config=config, **kwargs,
    )
    return pipeline, result, graph


class TestApply:
    def test_stream_matches_from_scratch(self):
        pipeline, result, graph = make_pipeline()
        stats = replay_deltas(pipeline, [
            Delta(1, added=(ADD_C_TYPE, ADD_C_NAME)),
            Delta(2, added=(ADD_BC_EDGE,), removed=(REMOVE_AB_EDGE,)),
        ])
        assert stats.deltas_applied == 2
        from_scratch = S3PG().transform(graph.copy(), SHAPES)
        assert result.graph.structurally_equal(from_scratch.graph)
        assert pipeline.store.catalog_discrepancies() == []

    def test_watermark_advances_and_skips_replayed(self):
        pipeline, _, _ = make_pipeline()
        replay_deltas(pipeline, [Delta(1, added=(ADD_C_TYPE,))])
        assert pipeline.watermark == 1
        stats = replay_deltas(pipeline, [
            Delta(1, added=(ADD_C_TYPE,)),  # duplicate of an applied seq
            Delta(2, added=(ADD_C_NAME,)),
        ])
        assert stats.deltas_skipped == 1
        assert pipeline.watermark == 2

    def test_noneffective_ops_are_noops(self):
        pipeline, result, _ = make_pipeline()
        before = result.graph.canonical_form()
        stats = replay_deltas(pipeline, [
            # Re-add of a present triple + remove of an absent one.
            Delta(1, added=(t('<http://x/a> <http://x/name> "A" .'),),
                  removed=(ADD_C_NAME,)),
        ])
        assert stats.deltas_applied == 1
        assert stats.triples_added == 0 and stats.triples_removed == 0
        assert result.graph.canonical_form() == before

    def test_standing_report_tracks_violations(self):
        pipeline, _, graph = make_pipeline()
        assert pipeline.validator.conforms
        replay_deltas(pipeline, [
            Delta(1, removed=(t('<http://x/b> <http://x/name> "B" .'),)),
        ])
        assert not pipeline.validator.conforms
        full = shacl_validate(graph, SHAPES)
        assert pipeline.validator.conforms == full.conforms
        assert pipeline.validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)


class TestBatching:
    def test_max_batch_size_splits_batches(self):
        pipeline, _, _ = make_pipeline(
            config=CDCConfig(max_batch_size=2, max_linger_s=0.0)
        )
        stats = replay_deltas(pipeline, [Delta(i) for i in range(1, 6)])
        assert stats.deltas_applied == 5
        assert stats.batches == 3

    def test_multi_delta_batch_shares_one_revalidation_pass(self):
        # One batch: :c arrives nameless and is linked b -> c -> a, then
        # the a -> b edge goes and comes back, closing a -> b -> c -> a.
        # The validator sees the merged lists (the edge in both of them).
        pipeline, _, graph = make_pipeline(
            config=CDCConfig(max_batch_size=8, max_linger_s=0.0)
        )
        ca_edge = t("<http://x/c> <http://x/friend> <http://x/a> .")
        stats = replay_deltas(pipeline, [
            Delta(1, added=(ADD_C_TYPE, ADD_BC_EDGE)),
            Delta(2, removed=(REMOVE_AB_EDGE,)),
            Delta(3, added=(REMOVE_AB_EDGE, ca_edge)),
        ])
        assert stats.deltas_applied == 3 and stats.batches == 1
        assert stats.focus_rechecked == 3
        snapshot = pipeline.validator.snapshot()
        assert snapshot == fresh_memo_snapshot(SHAPES, graph)
        assert all(snapshot[f"http://x/{node}"] for node in "abc")

    def test_linger_merges_trickled_deltas(self):
        pipeline, _, _ = make_pipeline(
            config=CDCConfig(max_batch_size=64, max_linger_s=5.0)
        )

        async def scenario():
            feed = MemoryChangefeed()

            async def producer():
                for i in range(1, 4):
                    await feed.put(Delta(i))
                    await asyncio.sleep(0.01)
                feed.close()

            _, stats = await asyncio.gather(producer(), pipeline.run(feed))
            return stats

        stats = asyncio.run(scenario())
        assert stats.deltas_applied == 3
        assert stats.batches == 1  # linger absorbed the trickle

    def test_bounded_queue_counts_backpressure(self):
        pipeline, _, _ = make_pipeline(
            config=CDCConfig(max_batch_size=1, max_linger_s=0.0, queue_maxsize=1)
        )
        stats = replay_deltas(pipeline, [Delta(i) for i in range(1, 8)])
        assert stats.deltas_applied == 7
        assert stats.backpressure_waits > 0


class TestQuarantine:
    def _poison_pipeline(self, tmp_path, max_retries=0):
        options = TransformOptions(parsimonious=False, on_unknown="error")
        return make_pipeline(
            validate=False,
            options=options,
            quarantine_path=tmp_path / "dead.jsonl",
            config=CDCConfig(
                max_linger_s=0.0, max_retries=max_retries, retry_base_s=0.001
            ),
        )

    def test_poison_delta_is_quarantined_not_fatal(self, tmp_path):
        pipeline, result, graph = self._poison_pipeline(tmp_path)
        poison = Delta(1, added=(t("<http://x/a> <http://x/mystery> <http://x/b> ."),))
        stats = replay_deltas(pipeline, [poison, Delta(2, added=(ADD_C_TYPE,))])
        assert stats.deltas_quarantined == 1
        assert stats.deltas_applied == 1  # the stream continued
        records = [
            json.loads(line)
            for line in (tmp_path / "dead.jsonl").read_text().splitlines()
        ]
        assert records[0]["seq"] == 1
        assert "mystery" in records[0]["payload"]
        # Nothing from the poison delta leaked into the graph or source.
        from_scratch = S3PG(
            TransformOptions(parsimonious=False, on_unknown="error")
        ).transform(graph.copy(), SHAPES)
        assert result.graph.structurally_equal(from_scratch.graph)

    def test_retries_before_quarantine(self, tmp_path):
        pipeline, _, _ = self._poison_pipeline(tmp_path, max_retries=2)
        poison = Delta(1, added=(t("<http://x/a> <http://x/mystery> <http://x/b> ."),))
        stats = replay_deltas(pipeline, [poison])
        assert stats.retries == 2
        assert stats.deltas_quarantined == 1
        record = json.loads((tmp_path / "dead.jsonl").read_text())
        assert record["attempts"] == 3

    def test_undecodable_line_is_quarantined(self, tmp_path):
        log = tmp_path / "deltas.jsonl"
        write_delta_log([Delta(1, added=(ADD_C_TYPE,))], log)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        pipeline, _, _ = make_pipeline(
            validate=False, quarantine_path=tmp_path / "dead.jsonl"
        )
        stats = asyncio.run(pipeline.run(JsonlChangefeed(log)))
        assert stats.deltas_applied == 1
        assert stats.deltas_quarantined == 1


class TestMetrics:
    def test_cdc_metrics_populated(self):
        get_metrics().reset()
        pipeline, _, _ = make_pipeline()
        replay_deltas(pipeline, [Delta(1, added=(ADD_C_TYPE, ADD_C_NAME))])
        snapshot = get_metrics().snapshot()
        latency = snapshot["repro_cdc_delta_latency_seconds"]["series"][0]
        assert latency["count"] == 1
        deltas = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot["repro_cdc_deltas_total"]["series"]
        }
        assert deltas[(("status", "applied"),)] == 1
        assert snapshot["repro_cdc_staleness_seconds"]["series"][0]["value"] > 0
        assert (
            snapshot["repro_cdc_revalidated_focus_total"]["series"][0]["value"]
            > 0
        )
        get_metrics().reset()
