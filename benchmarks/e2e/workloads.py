"""The five workloads.  Each is a closed loop: one client, one thread.

A workload object lives in one fresh process (``worker.py``) and sees
only the generated input files.  Its life is::

    setup()      parse inputs, build what the rounds need, one warm-up
    measure(s)   repeat rounds for ``s`` seconds, checks after each
    finish()     end-of-run checks (and end-of-run timings)
    extras()     traced run only: per-layer numbers that need more work

Every call into a library layer goes through ``self.t.call(span, fn,
...)`` so the traced run sees it; end-to-end timings are taken by the
workload itself around whole operations.  ``summarize`` (a static
method, used by the parent on samples pooled over processes) turns raw
samples into named end-to-end metrics.

``repro`` is imported inside methods: the parent imports this module for
``summarize`` alone and must be able to before the library is loaded.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import time
from pathlib import Path

from harness import CDC_WARMUP, median, percentile, timed_rounds


class Workload:
    """Common state: inputs, tracer, op accounting, samples and facts."""

    #: Fewest measured rounds whatever the time budget.
    min_rounds = 2

    def __init__(self, inputs: Path, work: Path, tracer, ops, part: int,
                 parts: int):
        self.inputs, self.work = inputs, work
        self.t, self.ops = tracer, ops
        self.part, self.parts = part, parts
        #: name -> list of float samples (pooled over processes later).
        self.samples: dict[str, list[float]] = {}
        #: name -> number or small JSON value describing the input/output.
        self.facts: dict[str, object] = {}
        #: per-layer metrics (traced run), name -> number.
        self.layer: dict[str, float] = {}
        #: traced extras that could not run, name -> reason.
        self.omitted: dict[str, str] = {}

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def measure(self, budget_s: float) -> None:
        # The traced run alternates traced and untraced rounds, so the
        # span bookkeeping's own cost is measured in the same process.
        def one(index: int) -> None:
            self.t.enabled = traced and index % 2 == 0
            self.t.round_id = index
            start = time.perf_counter()
            with self.t.span("round"):
                self.round(index)
            self.sample("wall_traced_s" if self.t.enabled else "wall_plain_s",
                        time.perf_counter() - start)

        traced = self.t.enabled
        try:
            self.facts["rounds"] = timed_rounds(
                budget_s, 4 if traced else self.min_rounds, one)
        finally:
            self.t.enabled = traced
            self.t.round_id = -1

    def finish(self) -> None:
        pass

    def extras(self) -> None:
        pass

    @contextlib.contextmanager
    def side_rounds(self):
        """Rounds of a traced extra: no spans, samples kept apart."""
        kept, self.samples = self.samples, {}
        self.t.enabled = False
        try:
            yield
        finally:
            self.t.enabled = True
            self.samples = kept

    def span_median(self, metric: str, span: str) -> None:
        durations = self.t.durations(span)
        if durations:
            self.layer[metric] = median(durations)

    def trace_overhead(self) -> None:
        traced = self.samples.get("wall_traced_s")
        plain = self.samples.get("wall_plain_s")
        if traced and plain:
            self.layer["harness.trace_overhead_ratio"] = (
                median(traced) / median(plain))
        self.layer["harness.unattributed_share"] = (
            self.t.unattributed_share("round"))


# --------------------------------------------------------------------- #
# bulk_migrate
# --------------------------------------------------------------------- #

class BulkMigrate(Workload):
    """RDF + shapes in, queryable PG out; then verify; then restart."""

    def setup(self) -> None:
        self.nt = self.inputs / "data.nt"
        self.csv_dir = self.work / "csv"
        self.snap = self.work / "graph.snap"
        self.facts["nt_bytes"] = self.nt.stat().st_size
        self.round(-1)  # warm-up, discarded
        self.samples.clear()

    def round(self, index: int) -> None:
        from repro.core import S3PG, pg_to_rdf
        from repro.pg import PropertyGraphStore
        from repro.pg.csv_io import read_csv, write_csv
        from repro.pgschema.conformance import check_conformance
        from repro.rdf import graphs_equal_modulo_bnodes
        from repro.rdf.ntriples import parse_ntriples
        from repro.shacl.validator import validate
        from repro.shapes.extractor import extract_shapes
        from repro.storage import load_snapshot, save_snapshot

        call, ops = self.t.call, self.ops
        state: dict = {}

        def convert_load():
            graph = call("rdf.parse", parse_ntriples, self.nt)
            shapes = call("shapes.extract", extract_shapes, graph)
            result = call("core.transform", S3PG().transform, graph, shapes)
            call("pg.csv_write", write_csv, result.graph, self.csv_dir)
            loaded = call("pg.csv_read", read_csv, self.csv_dir)
            store = call("pg.store_build", PropertyGraphStore, loaded)
            state.update(graph=graph, shapes=shapes, result=result,
                         loaded=loaded, store=store)

        def verify():
            graph, result = state["graph"], state["result"]
            report = call("shacl.validate", validate, graph, state["shapes"])
            conformance = call("pgschema.conformance", check_conformance,
                               result.graph, result.pg_schema)
            back = call("core.inverse", pg_to_rdf, result.graph,
                        result.mapping)
            same = call("rdf.isomorphic", graphs_equal_modulo_bnodes,
                        back, graph)
            return report.conforms, conformance.conforms, same

        def restart():
            graph = state["graph"]
            state["snap_bytes"] = call("storage.snapshot_save", save_snapshot,
                                       graph, self.snap)
            restored = call("storage.snapshot_load", load_snapshot, self.snap)
            scanned = call("storage.snapshot_scan",
                           lambda: sum(1 for _ in restored.triples()))
            again = call("pg.csv_read", read_csv, self.csv_dir)
            store = call("pg.store_build", PropertyGraphStore, again)
            return restored, scanned, store

        _, convert_s = ops.run("convert_load", convert_load)
        if "store" not in state:
            return  # convert+load raised: nothing to verify or restart
        graph, result = state["graph"], state["result"]
        ops.check("CSV round trip structurally_equal",
                  state["loaded"].structurally_equal(result.graph))
        verdicts, verify_s = ops.run("verify", verify)
        if verdicts is not None:
            for what, ok in zip(("G |= S_G", "PG |= S_PG", "M(F_dt(G)) ~ G"),
                                verdicts):
                if not ops.check(what, ok):
                    break
        restarted, restart_s = ops.run("restart", restart)
        if restarted is not None:
            restored, scanned, store = restarted
            ops.check("snapshot-loaded graph == parsed graph",
                      scanned == len(graph) and restored == graph
                      and store.node_count() == result.graph.node_count())
        self.sample("convert_load_s", convert_s)
        self.sample("verify_s", verify_s)
        self.sample("restart_s", restart_s)
        self.sample("round_s", convert_s + verify_s + restart_s)
        self.sample("core.schema_transform_s", result.timings["schema_s"])
        self.sample("core.data_transform_s", result.timings["data_s"])
        self.facts.update(
            triples=len(graph),
            node_shapes=len(list(state["shapes"])),
            property_shapes=sum(len(s.property_shapes) for s in state["shapes"]),
            pg_nodes=result.graph.node_count(),
            pg_edges=result.graph.edge_count(),
            csv_bytes=sum(p.stat().st_size for p in self.csv_dir.iterdir()),
            snap_bytes=state.get("snap_bytes", 0),
        )
        self.last = state

    def extras(self) -> None:
        facts, layer = self.facts, self.layer
        for metric, span in (
            ("rdf.parse_s", "rdf.parse"),
            ("rdf.isomorphic_s", "rdf.isomorphic"),
            ("shapes.extract_s", "shapes.extract"),
            ("core.inverse_s", "core.inverse"),
            ("pg.csv_write_s", "pg.csv_write"),
            ("pg.csv_read_s", "pg.csv_read"),
            ("pg.store_build_s", "pg.store_build"),
            ("pgschema.conformance_s", "pgschema.conformance"),
            ("shacl.validate_s", "shacl.validate"),
            ("storage.snapshot_save_s", "storage.snapshot_save"),
            ("storage.snapshot_load_s", "storage.snapshot_load"),
            ("storage.snapshot_scan_s", "storage.snapshot_scan"),
        ):
            self.span_median(metric, span)
        for name in ("core.schema_transform_s", "core.data_transform_s"):
            layer[name] = median(self.samples[name])
        layer.update({
            "rdf.triples": facts["triples"],
            "shapes.node_shapes": facts["node_shapes"],
            "shapes.property_shapes": facts["property_shapes"],
            "core.pg_nodes": facts["pg_nodes"],
            "core.pg_edges": facts["pg_edges"],
            "pg.csv_bytes_per_nt_byte": facts["csv_bytes"] / facts["nt_bytes"],
            "storage.snap_bytes_per_nt_byte":
                facts["snap_bytes"] / facts["nt_bytes"],
        })
        self.trace_overhead()
        self._engine_extras()

    def _engine_extras(self) -> None:
        """ROADMAP 3b's decision-rule numbers, on this workload's input.

        ``parallel=`` and ``repro.engine`` are slated for removal; when
        either is gone the metrics are omitted, the run still passes.
        """
        from repro.core import S3PG

        graph, shapes = self.last["graph"], self.last["shapes"]
        serial = median(self.t.durations("core.transform"))
        try:
            timings = {}
            for workers in (1, 2):
                gc.collect()
                start = time.perf_counter()
                result = self.t.call(f"engine.transform_w{workers}",
                                     S3PG().transform, graph, shapes,
                                     parallel=workers)
                timings[workers] = time.perf_counter() - start
        except (TypeError, ImportError) as exc:
            for name in ("w1_overhead_ratio", "w2_speedup", "partition_s",
                         "execute_s", "merge_s"):
                self.omitted[f"engine.{name}"] = f"parallel engine gone: {exc}"
            return
        self.layer["engine.w1_overhead_ratio"] = timings[1] / serial
        self.layer["engine.w2_speedup"] = serial / timings[2]
        for phase in ("partition", "execute", "merge"):
            value = result.timings.get(f"engine_{phase}_s")
            if value is None:
                self.omitted[f"engine.{phase}_s"] = "phase timing not reported"
            else:
                self.layer[f"engine.{phase}_s"] = value

    @staticmethod
    def summarize(samples: dict, facts: dict) -> dict:
        stages = {name: median(samples[name])
                  for name in ("convert_load_s", "verify_s", "restart_s")}
        triples_per_s = facts["triples"] / stages["convert_load_s"]
        return {
            "round_ms": median(samples["round_s"]) * 1e3,
            "work_per_s": triples_per_s,
            "slowest_op_ms": max(stages.values()) * 1e3,
            "bulk_triples_per_s": triples_per_s,
            "bulk_verify_s": stages["verify_s"],
            "restart_s": stages["restart_s"],
        }


# --------------------------------------------------------------------- #
# query_join / query_scan / query_point
# --------------------------------------------------------------------- #

class QueryWorkload(Workload):
    """SPARQL on G and Cypher on F_dt(G), default-constructed engines."""

    #: Samples are kept per statement id, or per template for workloads
    #: whose statements are instances of a few templates.
    by_template = False
    #: Templates whose answer is cut by LIMIT: bags are not comparable.
    limited = ("limit10",)

    def setup(self) -> None:
        from repro.core import S3PG
        from repro.pg import PropertyGraphStore
        from repro.query import (CypherEngine, SparqlEngine,
                                 translate_sparql_to_cypher)
        from repro.rdf.ntriples import parse_ntriples
        from repro.shacl.parser import parse_shacl

        call = self.t.call
        self.graph = call("rdf.parse", parse_ntriples, self.inputs / "data.nt")
        shapes = call("shacl.parse_shapes", parse_shacl,
                      (self.inputs / "shapes.ttl").read_text(encoding="utf-8"))
        self.result = call("core.transform", S3PG().transform, self.graph,
                           shapes)
        self.store = call("pg.store_build", PropertyGraphStore,
                          self.result.graph)
        document = json.loads(
            (self.inputs / "queries.json").read_text(encoding="utf-8"))
        outside = set(document["outside_round"])
        # (id, category, sparql text, cypher text): translated pairs.
        self.pairs = [
            (q["id"], q["category"], q["text"],
             call("query.translate", translate_sparql_to_cypher, q["text"],
                  self.result.mapping))
            for q in document["sparql"]
        ]
        native = [(q["id"], q["category"], q["text"])
                  for q in document["cypher_native"]]
        self.native = [q for q in native if q[0] not in outside]
        self.outside = [q for q in native if q[0] in outside]
        self.engines = (SparqlEngine(self.graph), CypherEngine(self.store))
        self.facts.update(
            triples=len(self.graph),
            pg_nodes=self.result.graph.node_count(),
            pg_edges=self.result.graph.edge_count(),
            statements_per_round=2 * len(self.pairs) + len(self.native),
            categories={q[0]: q[1] for q in self.pairs + native},
        )
        self.round(-1)  # warm-up: first executions, cold plan cache
        #: statement -> seconds of its first, cold-cache execution.  Empty
        #: for templates: their samples are means over many statements.
        self.first = {} if self.by_template else {
            name: values[0] for name, values in self.samples.items()
            if name.startswith("stmt/")}
        self.samples.clear()
        self.cache_before = self._cache_counts()

    def _cache_counts(self) -> tuple[int, int]:
        hits = misses = 0
        for engine in self.engines:
            cache = getattr(getattr(engine, "planner", None), "cache", None)
            if cache is not None:
                stats = cache.stats()
                hits, misses = hits + stats["hits"], misses + stats["misses"]
        return hits, misses

    def round(self, index: int, engines=None) -> tuple[float, float]:
        from repro.eval.metrics import (normalize_cypher_rows,
                                        normalize_sparql_rows)

        sparql, cypher = engines or self.engines
        call, ops = self.t.call, self.ops
        sparql_s = cypher_s = 0.0
        rows_out = 0
        answers = {}
        latencies: dict[str, list[float]] = {}

        def note(engine: str, qid: str, category: str, seconds: float) -> None:
            key = category if self.by_template else qid
            latencies.setdefault(f"stmt/{engine}/{key}", []).append(seconds)

        for qid, category, text, _ in self.pairs:
            rows, seconds = ops.run(f"sparql {qid}",
                                    call, "query.sparql", sparql.query, text)
            sparql_s += seconds
            note("sparql", qid, category, seconds)
            answers[qid] = rows
        for qid, category, _, text in self.pairs:
            rows, seconds = ops.run(f"cypher {qid}",
                                    call, "query.cypher", cypher.query, text)
            cypher_s += seconds
            note("cypher", qid, category, seconds)
            expected = answers[qid]
            if rows is None or expected is None:
                continue
            rows_out += len(rows) + len(expected)
            if category in self.limited:
                ops.check(f"{qid}: same row count under LIMIT",
                          len(rows) == len(expected) and len(rows) > 0)
            else:
                ops.check(f"{qid}: SPARQL bag == translated Cypher bag",
                          call("harness.check", lambda: (
                              normalize_sparql_rows(expected)
                              == normalize_cypher_rows(rows))))
                if self.by_template:  # built from a triple that exists
                    ops.check(f"{qid}: non-empty", len(rows) > 0)
        for qid, category, text in self.native:
            rows, seconds = ops.run(f"cypher {qid}",
                                    call, "query.cypher", cypher.query, text)
            cypher_s += seconds
            note("cypher", qid, category, seconds)
            if rows is not None:
                rows_out += len(rows)
                ops.check(f"{qid}: non-empty", len(rows) > 0)
        for qid, category, text in self.outside:
            rows, seconds = ops.run(f"cypher {qid}",
                                    call, "query.cypher", cypher.query, text)
            note("cypher", qid, category, seconds)
            if rows is not None:
                ops.check(f"{qid}: non-empty", len(rows) > 0)
        # One sample per statement per round; for a template, the mean
        # over its statements in this round.
        for name, values in latencies.items():
            self.sample(name, sum(values) / len(values))
        self.sample("sparql_round_s", sparql_s)
        self.sample("cypher_round_s", cypher_s)
        self.sample("round_s", sparql_s + cypher_s)
        self.facts["rows_per_round"] = rows_out
        return sparql_s, cypher_s

    def finish(self) -> None:
        hits, misses = self._cache_counts()
        hits, misses = hits - self.cache_before[0], misses - self.cache_before[1]
        self.facts["plan_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)

    # -- traced extras --------------------------------------------------- #

    def extras(self) -> None:
        from repro.query import parse_cypher, parse_sparql

        layer, facts = self.layer, self.facts
        for metric, span in (("rdf.parse_s", "rdf.parse"),
                             ("pg.store_build_s", "pg.store_build")):
            self.span_median(metric, span)
        layer["core.schema_transform_s"] = self.result.timings["schema_s"]
        layer["core.data_transform_s"] = self.result.timings["data_s"]
        layer["rdf.triples"] = facts["triples"]
        layer["core.pg_nodes"] = facts["pg_nodes"]
        layer["core.pg_edges"] = facts["pg_edges"]
        layer["query.translate_us"] = median(
            self.t.durations("query.translate")) * 1e6
        layer["query.sparql_parse_us"] = median(
            _time(parse_sparql, q[2]) for q in self.pairs) * 1e6
        layer["query.cypher_parse_us"] = median(
            _time(parse_cypher, text)
            for text in [q[3] for q in self.pairs]
            + [q[2] for q in self.native]) * 1e6
        layer["query.plan_cache_hit_ratio"] = facts["plan_cache_hit_ratio"]
        layer["query.rows_per_round"] = facts["rows_per_round"]
        medians = {name: median(values) * 1e3
                   for name, values in self.samples.items()
                   if name.startswith("stmt/")}
        # Cold first execution minus the warm median, summed: what a plan
        # cache saves.  Workloads that never hit the cache report 0.
        layer["query.first_exec_ms"] = sum(
            max(0.0, first * 1e3 - medians[name])
            for name, first in self.first.items())
        # Per statement (or template), and per Fig. 3 category as the
        # mean of the category's statement medians.
        groups: dict[str, list] = {}
        for name, value in medians.items():
            _, engine, key = name.split("/")
            layer[f"query.{engine}.{key}_ms"] = value
            category = facts["categories"].get(key)
            if category is not None:
                groups.setdefault(f"query.{engine}.{category}_ms",
                                  []).append(value)
        for name, values in groups.items():
            layer[name] = sum(values) / len(values)
        self.trace_overhead()
        self._exec_mode_extras()

    def _exec_mode_extras(self) -> None:
        """Round time per ``exec_mode``: which mode the default should be.

        ``exec_mode=`` is slated for removal (ROADMAP item 2); when the
        constructors no longer take it the metrics are omitted.
        """
        from repro.query import CypherEngine, SparqlEngine

        for mode in ("iterator", "batched", "adaptive"):
            try:
                engines = (SparqlEngine(self.graph, exec_mode=mode),
                           CypherEngine(self.store, exec_mode=mode))
            except (TypeError, ValueError) as exc:
                for side in ("sparql", "cypher"):
                    self.omitted[f"query.exec.{mode}.{side}_round_ms"] = (
                        f"exec_mode={mode!r} not accepted: {exc}")
                continue
            with self.side_rounds():
                self.round(-1, engines)  # warm-up
                rounds = [self.round(-1, engines) for _ in range(3)]
            self.layer[f"query.exec.{mode}.sparql_round_ms"] = (
                median(r[0] for r in rounds) * 1e3)
            self.layer[f"query.exec.{mode}.cypher_round_ms"] = (
                median(r[1] for r in rounds) * 1e3)

    @staticmethod
    def summarize(samples: dict, facts: dict) -> dict:
        statement_medians = [median(values) for name, values in samples.items()
                             if name.startswith("stmt/")]
        round_s = median(samples["round_s"])
        slowest_ms = max(statement_medians) * 1e3
        return {
            "round_ms": round_s * 1e3,
            "work_per_s": facts["statements_per_round"] / round_s,
            "slowest_op_ms": slowest_ms,
            "sparql_round_ms": median(samples["sparql_round_s"]) * 1e3,
            "cypher_round_ms": median(samples["cypher_round_s"]) * 1e3,
            "slowest_query_ms": slowest_ms,
        }


class QueryJoin(QueryWorkload):
    """University star/chain joins; repeated texts hit the plan cache."""

    min_rounds = 3

    def extras(self) -> None:
        super().extras()
        self._obs_extras()

    def _obs_extras(self) -> None:
        """A round with tracer + FlightRecorder + WorkloadTracker installed
        through ``repro.obs``'s public API, over the untraced round."""
        from repro import obs

        try:
            with self.side_rounds():
                plain = [sum(self.round(-1)) for _ in range(3)]
                obs.install_recorder()
                obs.install_workload()
                try:
                    self.round(-1)
                    observed = [sum(self.round(-1)) for _ in range(3)]
                finally:
                    obs.uninstall_workload()
                    obs.uninstall_recorder()
                    obs.disable()
        except AttributeError as exc:
            self.omitted["obs.enabled_overhead_ratio"] = (
                f"repro.obs API changed: {exc}")
            return
        self.layer["obs.enabled_overhead_ratio"] = (
            median(observed) / median(plain))


class QueryScan(QueryWorkload):
    """Class+property scans over all four Fig. 3 categories."""

    min_rounds = 3


class QueryPoint(QueryWorkload):
    """Bound-constant lookups; more texts than the plan cache holds."""

    by_template = True


def _time(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# --------------------------------------------------------------------- #
# cdc_stream
# --------------------------------------------------------------------- #

#: Deltas the traced run streams (and then replays layer by layer).
CDC_TRACED = 40


class CdcStream(Workload):
    """One delta in flight through ``CDCPipeline`` with a live validator."""

    def setup(self) -> None:
        from repro.cdc import read_delta_log

        self.base_text = (self.inputs / "base.nt").read_text(encoding="utf-8")
        self.shapes_text = (self.inputs / "shapes.ttl").read_text(
            encoding="utf-8")
        deltas = self.t.call("cdc.delta_codec", read_delta_log,
                             self.inputs / "deltas.jsonl")
        self.facts["log_deltas"] = len(deltas)
        per_part = len(deltas) // self.parts
        self.deltas = deltas[self.part * per_part:(self.part + 1) * per_part]
        self.state = self._build(self.base_text)
        self.applied: list = []
        self._stream(self.deltas[:CDC_WARMUP], sampled=False)

    def _build(self, base_text: str):
        """Base graph -> non-parsimonious PG, store, validator, pipeline."""
        from repro.cdc import CDCConfig, CDCPipeline
        from repro.core import MONOTONE_OPTIONS, S3PG
        from repro.pg import PropertyGraphStore
        from repro.rdf.ntriples import parse_ntriples
        from repro.shacl.parser import parse_shacl
        from repro.shacl.validator import DeltaValidator

        call = self.t.call
        graph = call("rdf.parse", parse_ntriples, base_text)
        shapes = call("shacl.parse_shapes", parse_shacl, self.shapes_text)
        result = call("core.transform", S3PG(MONOTONE_OPTIONS).transform,
                      graph, shapes)
        store = call("pg.store_build", PropertyGraphStore, result.graph)
        validator = call("shacl.delta_validator_build", DeltaValidator,
                         shapes, graph)
        pipeline = CDCPipeline(
            result.transformed, graph, store=store, validator=validator,
            config=CDCConfig(max_batch_size=1, max_linger_s=0.0))
        return {"graph": graph, "shapes": shapes, "result": result,
                "store": store, "validator": validator, "pipeline": pipeline}

    def _stream(self, deltas, sampled=True, state=None) -> list[float]:
        """Closed loop: put one delta, wait for its watermark, next."""
        from repro.cdc import MemoryChangefeed

        pipeline = (state or self.state)["pipeline"]
        latencies: list[float] = []

        async def client() -> None:
            feed = MemoryChangefeed(maxsize=1)
            consumer = asyncio.create_task(pipeline.run(feed))
            try:
                for delta in deltas:
                    quarantined = pipeline.stats.deltas_quarantined
                    self.ops.attempted += 1
                    put = time.perf_counter()
                    await feed.put(delta)
                    while (pipeline.watermark < delta.seq
                           and pipeline.stats.deltas_quarantined == quarantined
                           and not consumer.done()):
                        await asyncio.sleep(0)
                    latencies.append(time.perf_counter() - put)
                    if pipeline.watermark < delta.seq:
                        self.ops.fail(f"delta {delta.seq} quarantined or "
                                      "pipeline stopped")
                    elif state is None:
                        self.applied.append(delta)
            finally:
                feed.close()
                await consumer

        start = time.perf_counter()
        asyncio.run(client())
        if sampled:
            self.sample("pass_s", time.perf_counter() - start)
            self.sample("pass_deltas", len(latencies))
            for latency in latencies:
                self.sample("apply_s", latency)
        return latencies

    def measure(self, budget_s: float) -> None:
        """One pass over this process's slice of the delta log.

        Count-bound, not time-bound: the log is dealt so that a whole
        slice has the dataset's mix of cheap and fan-out deltas, and a
        pass cut short by the clock would change that mix.  The log is
        sized so the three slices take about ``run_seconds`` together.
        """
        todo = self.deltas[CDC_WARMUP:]
        if self.t.enabled:
            # Traced: a short pass; the layer replay in extras() uses the
            # same deltas on a second, identically built state.
            todo = todo[:CDC_TRACED]
        gc.collect()
        self._stream(todo)
        self.measured = todo
        self.facts["rounds"] = len(todo)  # a round is one delta

    def finish(self) -> None:
        from repro.cdc import load_checkpoint, save_checkpoint
        from repro.core import MONOTONE_OPTIONS, S3PG
        from repro.rdf.graph import Graph
        from repro.rdf.ntriples import parse_ntriples
        from repro.shacl.validator import DeltaValidator

        state, ops, call = self.state, self.ops, self.t.call
        graph, store, pipeline = state["graph"], state["store"], state["pipeline"]

        def gate(what: str, ok: bool) -> None:
            ops.attempted += 1
            ops.check(what, ok)

        expected = set(parse_ntriples(self.base_text))
        for delta in self.applied:
            expected.difference_update(delta.removed)
            expected.update(delta.added)
        gate("live source graph == base + applied deltas",
             set(graph) == expected)
        scratch = S3PG(MONOTONE_OPTIONS).transform(
            Graph(expected), state["shapes"]).graph
        gate("streamed store structurally_equal to from-scratch transform",
             store.graph.structurally_equal(scratch))
        gate("catalog_discrepancies() == []",
             store.catalog_discrepancies() == [])
        gate("validator.snapshot() equals a fresh DeltaValidator's",
             state["validator"].snapshot()
             == DeltaValidator(state["shapes"], graph).snapshot())
        gate("zero quarantined, all applied",
             pipeline.stats.deltas_quarantined == 0
             and pipeline.stats.deltas_applied == len(self.applied))
        checkpoint = self.work / "checkpoint"
        _, save_s = ops.run("save_checkpoint", call, "cdc.checkpoint_save",
                            save_checkpoint, checkpoint, pipeline)
        restored, load_s = ops.run("load_checkpoint", call,
                                   "cdc.checkpoint_load", load_checkpoint,
                                   checkpoint)
        if restored is not None:
            ops.check("load_checkpoint state equals the live one",
                      restored.watermark == pipeline.watermark
                      and restored.source_graph == graph
                      and restored.transformed.graph.structurally_equal(
                          store.graph))
        self.facts.update(
            triples=len(graph), checkpoint_save_s=save_s,
            checkpoint_load_s=load_s,
            focus_count=state["validator"].focus_count,
            focus_rechecked=pipeline.stats.focus_rechecked,
            batches=pipeline.stats.batches,
        )

    # -- traced extras --------------------------------------------------- #

    def extras(self) -> None:
        from repro.cdc import delta_from_json, delta_to_json

        layer, facts = self.layer, self.facts
        deltas = self.measured
        pipeline_mean = sum(self.samples["apply_s"]) / len(deltas)
        for metric, span in (
            ("rdf.parse_s", "rdf.parse"),
            ("pg.store_build_s", "pg.store_build"),
            ("shacl.delta_validator_build_s", "shacl.delta_validator_build"),
            ("cdc.checkpoint_save_s", "cdc.checkpoint_save"),
            ("cdc.checkpoint_load_s", "cdc.checkpoint_load"),
        ):
            self.span_median(metric, span)
        result = self.state["result"]
        layer["core.schema_transform_s"] = result.timings["schema_s"]
        layer["core.data_transform_s"] = result.timings["data_s"]
        layer["rdf.triples"] = facts["triples"]
        layer["core.pg_nodes"] = self.state["store"].node_count()
        layer["core.pg_edges"] = self.state["store"].edge_count()
        layer["shacl.focus_rechecked_per_delta"] = (
            facts["focus_rechecked"] / max(1, facts["batches"]))
        layer["shacl.recheck_fraction"] = facts["focus_rechecked"] / max(
            1, facts["focus_count"] * facts["batches"])
        layer["cdc.delta_codec_us"] = median(
            _time(lambda d=d: delta_from_json(delta_to_json(d)))
            for d in deltas) * 1e6

        # The same deltas through the layer entry points, in the order
        # CDCPipeline._apply_delta / _process_batch calls them.
        replay = self._build(self.base_text)
        with self.side_rounds():
            self._replay_layers(replay, self.deltas[:CDC_WARMUP])
        start = time.perf_counter()
        with self.t.span("round"):
            self._replay_layers(replay, deltas)
        replay_s = time.perf_counter() - start
        n, self_s = len(deltas), self.t.self_times()
        triples = sum(len(d) for d in deltas)
        layer["rdf.mutate_us_per_triple"] = (
            sum(self.t.durations("rdf.mutate")) / triples * 1e6)
        layer["core.incremental_probe_us_per_delta"] = (
            sum(self.t.durations("core.incremental_probe")) / n * 1e6)
        layer["core.incremental_apply_us_per_delta"] = (
            sum(self.t.durations("core.incremental_apply")) / n * 1e6)
        layer["shacl.delta_apply_ms_per_delta"] = (
            sum(self.t.durations("shacl.delta_apply")) / n * 1e3)
        layers_mean = sum(self_s.get(name, 0.0) for name in (
            "rdf.mutate", "core.incremental_probe", "core.incremental_apply",
            "shacl.delta_apply")) / n
        layer["cdc.pipeline_overhead_ms_per_delta"] = (
            (pipeline_mean - layers_mean) * 1e3)
        # No untraced twin of the replay exists; the pipeline pass over
        # the same deltas is the untraced wall.
        layer["harness.trace_overhead_ratio"] = replay_s / (pipeline_mean * n)
        layer["harness.unattributed_share"] = self.t.unattributed_share("round")
        self._size_scaling(deltas, pipeline_mean)

    def _replay_layers(self, state, deltas) -> None:
        from repro.core.incremental import IncrementalTransformer

        graph, validator = state["graph"], state["validator"]
        inc = state.setdefault("inc", IncrementalTransformer(
            state["result"].transformed, store=state["store"]))
        call = self.t.call
        for delta in deltas:
            call("core.incremental_probe", inc.probe_additions, delta.added)
            removed, added = call(
                "rdf.mutate", lambda d=delta: (
                    [t for t in d.removed if graph.remove(t)],
                    [t for t in d.added if graph.add(t)]))
            call("core.incremental_apply", lambda: (
                inc.apply_deletions(removed), inc.apply_additions(added)))
            call("shacl.delta_apply", validator.apply_delta,
                 added=added, removed=removed)

    def _size_scaling(self, deltas, pipeline_mean: float) -> None:
        """Mean apply time of the same deltas on a 4x base over the 1x base.

        The 4x base is the base plus three copies with renamed resource
        IRIs: disjoint from everything the deltas touch, so a cost that
        depends only on the delta gives 1.0.
        """
        marker = "<http://dbpedia.org/resource/"
        big = self.base_text + "".join(
            self.base_text.replace(marker, f"{marker}copy{i}/")
            for i in (1, 2, 3))
        with self.side_rounds():
            state = self._build(big)
            self._stream(self.deltas[:CDC_WARMUP], sampled=False, state=state)
            latencies = self._stream(deltas, sampled=False, state=state)
        self.layer["cdc.size_scaling_ratio"] = (
            sum(latencies) / len(latencies) / pipeline_mean)

    @staticmethod
    def summarize(samples: dict, facts: dict) -> dict:
        apply_ms = [s * 1e3 for s in samples["apply_s"]]
        deltas_per_s = sum(samples["pass_deltas"]) / sum(samples["pass_s"])
        p95 = percentile(apply_ms, 0.95)
        metrics = {
            "round_ms": median(apply_ms),  # a round is one delta
            "work_per_s": deltas_per_s,
            # A smoke run has too few samples for a p95: its slowest
            # operation is the slowest delta, and no p95 is reported.
            "slowest_op_ms": max(apply_ms) if p95 is None else p95,
            "cdc_deltas_per_s": deltas_per_s,
            "cdc_apply_p50_ms": median(apply_ms),
        }
        if p95 is not None:
            metrics["cdc_apply_p95_ms"] = p95
        return metrics


CLASSES = {
    "bulk_migrate": BulkMigrate,
    "query_join": QueryJoin,
    "query_scan": QueryScan,
    "query_point": QueryPoint,
    "cdc_stream": CdcStream,
}
