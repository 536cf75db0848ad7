"""Command-line interface: ``python -m repro <command> ...``.

Subcommands cover the full S3PG workflow on files:

* ``transform``       — RDF (+ SHACL) -> PG (CSV) + PG-Schema (DDL) + mapping
* ``extract-shapes``  — derive a SHACL document from instance data
* ``validate``        — SHACL-validate an RDF graph
* ``conformance``     — check a transformed PG against its PG-Schema
* ``stats``           — dataset statistics (Table 2 layout)
* ``shape-stats``     — shape statistics (Table 3 layout)
* ``query``           — run SPARQL on RDF, or translate + run on the PG
* ``to-rdf``          — reconstruct the RDF graph from a PG (inverse M)
* ``compact``         — fold a non-parsimonious PG into the parsimonious
  layout (the Section 7 optimizer)
* ``generate``        — emit one of the synthetic benchmark datasets
* ``snapshot``        — save/load/inspect binary graph snapshots
  (``.snap``): ``save`` serializes a parsed RDF graph, ``load`` mmaps
  one back (and reports the speedup over re-parsing), ``info`` prints
  the verified header
* ``fuzz``            — run the property-based fuzzing harness
  (round-trip, validation, differential, serializer, CDC oracles)
* ``profile``         — run a workload under tracing and print a top-N
  span self-time table
* ``serve``           — the always-on CDC service: consume a JSONL delta
  log, maintain the PG incrementally with delta-scoped SHACL
  revalidation, checkpoint, and (without ``--once``) tail the log
* ``obs``             — observability utilities: ``serve`` (standalone
  ops endpoint with ``/debug/statements`` per-statement statistics)

``transform``, ``validate``, ``query``, ``fuzz``, ``profile``, and
``serve`` accept ``--trace FILE`` (Chrome trace events for ``.json``, JSON-lines
for ``.jsonl``) and ``--metrics FILE`` (Prometheus text exposition, or
a JSON snapshot for ``.json``) to export the run's observability data.

RDF inputs may be N-Triples (``.nt``), a binary snapshot (``.snap``),
or Turtle (anything else).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, obs
from .core.config import TransformOptions
from .core.g2gml import render_g2gml
from .core.inverse import scalar_to_lexical
from .core.mapping import SchemaMapping
from .core.pipeline import S3PG
from .datasets.bio2rdf import bio2rdf_spec
from .datasets.common import generate
from .datasets.dbpedia import dbpedia2020_spec, dbpedia2022_spec
from .errors import ReproError
from .eval.tables import render_table
from .pg.csv_io import read_csv, write_csv
from .pgschema.conformance import check_conformance
from .pgschema.ddl import parse_pgschema_ddl, render_pgschema
from .query.cypher.evaluator import CypherEngine
from .query.sparql.evaluator import SparqlEngine
from .query.translate import translate_sparql_to_cypher
from .pg.store import PropertyGraphStore
from .rdf.graph import Graph
from .rdf.ntriples import parse_ntriples, write_ntriples
from .rdf.turtle import parse_turtle
from .shacl.parser import parse_shacl
from .shacl.serializer import serialize_shacl
from .shacl.stats import shape_stats
from .shacl.validator import validate as shacl_validate
from .shapes.extractor import ExtractionConfig, extract_shapes

_DATASETS = {
    "dbpedia2022": (dbpedia2022_spec, 400),
    "dbpedia2020": (dbpedia2020_spec, 200),
    "bio2rdf": (bio2rdf_spec, 300),
}


def load_rdf(path: str | Path) -> Graph:
    """Load an RDF document; snapshots for ``.snap``, N-Triples for
    ``.nt``, Turtle otherwise."""
    path = Path(path)
    if path.suffix == ".snap":
        from .storage import load_snapshot

        return load_snapshot(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".nt":
        return parse_ntriples(text)
    return parse_turtle(text)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the observability export flags to a subcommand."""
    parser.add_argument(
        "--trace", metavar="FILE",
        help="export a trace of this run (.json: Chrome trace events "
             "for Perfetto/chrome://tracing; .jsonl: JSON-lines)",
    )
    parser.add_argument(
        "--metrics", metavar="FILE",
        help="export this run's metrics (.json: snapshot; anything "
             "else, e.g. .prom: Prometheus text exposition)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S3PG: transform RDF knowledge graphs into property graphs",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    transform = sub.add_parser(
        "transform", help="transform RDF + SHACL into a PG + PG-Schema"
    )
    transform.add_argument("data", help="RDF instance data (.nt or Turtle)")
    transform.add_argument(
        "--shapes", help="SHACL document (Turtle); extracted from data if omitted"
    )
    transform.add_argument("-o", "--out", default="out", help="output directory")
    transform.add_argument(
        "--non-parsimonious", action="store_true",
        help="use the fully monotone (non-parsimonious) model",
    )
    transform.add_argument(
        "--on-unknown", choices=("fallback", "skip", "error"), default="fallback",
        help="handling of triples not covered by the shapes",
    )
    transform.add_argument(
        "--g2gml", action="store_true",
        help="additionally emit a G2GML mapping document",
    )
    _add_obs_arguments(transform)

    extract = sub.add_parser("extract-shapes", help="extract SHACL shapes from data")
    extract.add_argument("data")
    extract.add_argument("-o", "--out", help="output file (stdout if omitted)")
    extract.add_argument("--min-class-support", type=int, default=1)
    extract.add_argument("--min-property-support", type=float, default=0.0)
    extract.add_argument("--min-type-confidence", type=float, default=0.0)

    validate = sub.add_parser("validate", help="validate RDF data against SHACL shapes")
    validate.add_argument("data")
    validate.add_argument("shapes")
    validate.add_argument("--max-violations", type=int, default=20)
    _add_obs_arguments(validate)

    conformance = sub.add_parser(
        "conformance", help="check a transformed PG (CSV dir) against its PG-Schema"
    )
    conformance.add_argument("pgdir", help="directory with nodes.csv/edges.csv")
    conformance.add_argument("schema", help="PG-Schema DDL file")

    stats = sub.add_parser("stats", help="dataset statistics (Table 2 layout)")
    stats.add_argument("data")

    shape_stats_cmd = sub.add_parser(
        "shape-stats", help="SHACL shape statistics (Table 3 layout)"
    )
    shape_stats_cmd.add_argument("shapes")

    query = sub.add_parser("query", help="run a SPARQL query")
    query.add_argument("data", help="RDF instance data")
    query.add_argument("sparql", help="query text or @file")
    query.add_argument(
        "--via-pg", action="store_true",
        help="transform first, translate to Cypher, and run on the PG",
    )
    query.add_argument("--limit", type=int, default=20, help="rows to print")
    query.add_argument(
        "--explain", action="store_true",
        help="print the physical query plan (estimated and actual row "
             "counts) instead of the result rows",
    )
    query.add_argument(
        "--analyze", action="store_true",
        help="EXPLAIN ANALYZE: like --explain, additionally reporting "
             "per-operator loop counts and inclusive wall time",
    )
    query.add_argument(
        "--explain-format", choices=("text", "json"), default="text",
        help="EXPLAIN rendering (default: text)",
    )
    query.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="execute the query N times and report the mean latency "
             "(default 1)",
    )
    query.add_argument(
        "--warmup", type=int, default=0, metavar="N",
        help="untimed warm-up executions before the measured runs "
             "(default 0)",
    )
    _add_obs_arguments(query)

    to_rdf = sub.add_parser(
        "to-rdf", help="reconstruct RDF from a transformed PG (inverse M)"
    )
    to_rdf.add_argument("pgdir", help="directory with nodes.csv/edges.csv")
    to_rdf.add_argument("mapping", help="mapping.json from the transformation")
    to_rdf.add_argument("-o", "--out", required=True, help="output .nt file")

    compact = sub.add_parser(
        "compact", help="fold a non-parsimonious PG into the parsimonious layout"
    )
    compact.add_argument("pgdir", help="directory with nodes.csv/edges.csv")
    compact.add_argument("mapping", help="mapping.json from the transformation")
    compact.add_argument("-o", "--out", required=True, help="output directory")

    gen = sub.add_parser("generate", help="emit a synthetic benchmark dataset")
    gen.add_argument("dataset", choices=sorted(_DATASETS))
    gen.add_argument("-o", "--out", required=True, help="output .nt file")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=42)

    snapshot = sub.add_parser(
        "snapshot", help="save/load/inspect binary graph snapshots"
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_action", required=True)
    snap_save = snap_sub.add_parser(
        "save", help="serialize an RDF document into a .snap file"
    )
    snap_save.add_argument("data", help="RDF instance data (.nt or Turtle)")
    snap_save.add_argument("-o", "--out", required=True, help="output .snap file")
    snap_load = snap_sub.add_parser(
        "load", help="load a .snap file and report timing vs. the source"
    )
    snap_load.add_argument("snap", help=".snap file")
    snap_load.add_argument(
        "--compare", metavar="FILE",
        help="also parse this RDF document and report the load speedup",
    )
    snap_info = snap_sub.add_parser(
        "info", help="print the verified header of a .snap file"
    )
    snap_info.add_argument("snap", help=".snap file")

    fuzz = sub.add_parser(
        "fuzz", help="run the property-based fuzzing harness"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="base seed")
    fuzz.add_argument(
        "--cases", type=int, default=200, help="number of generated cases"
    )
    fuzz.add_argument(
        "--oracle", action="append", dest="oracles", metavar="NAME",
        help="run only this oracle (repeatable; default: all)",
    )
    fuzz.add_argument(
        "--corpus", default="tests/fuzz_corpus",
        help="directory for shrunk reproducers (default: tests/fuzz_corpus)",
    )
    fuzz.add_argument(
        "--no-corpus", action="store_true",
        help="do not write reproducer files",
    )
    fuzz.add_argument(
        "--max-failures", type=int, default=10,
        help="stop after this many failures",
    )
    fuzz.add_argument(
        "--replay", action="store_true",
        help="replay the reproducer corpus instead of generating cases",
    )
    fuzz.add_argument(
        "--list-oracles", action="store_true",
        help="list the available oracles and exit",
    )
    _add_obs_arguments(fuzz)

    profile = sub.add_parser(
        "profile",
        help="run a workload under tracing and print a span self-time table",
    )
    profile.add_argument("data", help="RDF instance data (.nt or Turtle)")
    profile.add_argument(
        "--shapes", help="SHACL document (Turtle); extracted from data if omitted"
    )
    profile.add_argument(
        "--query", metavar="SPARQL",
        help="additionally profile a SPARQL query (text or @file) on the "
             "RDF graph and its Cypher translation on the PG",
    )
    profile.add_argument(
        "--validate", action="store_true",
        help="additionally profile SHACL validation of the data",
    )
    profile.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the workload N times (default 1)",
    )
    profile.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="rows in the self-time table (default 15)",
    )
    _add_obs_arguments(profile)

    serve = sub.add_parser(
        "serve", help="run the always-on CDC ingest service on a delta log"
    )
    serve.add_argument(
        "--source", required=True, metavar="LOG",
        help="JSONL delta log to consume (see repro.cdc.changefeed)",
    )
    serve.add_argument(
        "--data", metavar="FILE",
        help="base RDF data transformed at startup (ignored when "
             "resuming from a checkpoint; empty graph if omitted)",
    )
    serve.add_argument(
        "--shapes", metavar="FILE",
        help="SHACL document (Turtle); extracted from the base data "
             "(or recovered from the checkpoint mapping) if omitted",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="replay the log to EOF and exit instead of tailing it",
    )
    serve.add_argument(
        "--batch-size", type=int, default=64, metavar="N",
        help="max deltas applied per batch (default 64)",
    )
    serve.add_argument(
        "--linger-ms", type=float, default=50.0, metavar="MS",
        help="max time a batch waits for more deltas (default 50)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=256, metavar="N",
        help="bounded ingest buffer; a full buffer backpressures the "
             "reader (default 256)",
    )
    serve.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="resume from (and write) watermarked checkpoints here",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="checkpoint every N applied deltas (default: only at exit)",
    )
    serve.add_argument(
        "--quarantine", metavar="FILE",
        help="dead-letter JSONL file for poison deltas",
    )
    serve.add_argument(
        "--no-validate", action="store_true",
        help="skip the standing SHACL conformance report",
    )
    serve.add_argument(
        "--non-parsimonious", action="store_true",
        help="use the fully monotone (non-parsimonious) model",
    )
    serve.add_argument(
        "--on-unknown", choices=("fallback", "skip", "error"), default="fallback",
        help="handling of triples not covered by the shapes",
    )
    serve.add_argument(
        "--ops-port", type=int, default=None, metavar="PORT",
        help="expose the live ops endpoint (/metrics, /healthz, /debug/*) "
             "on this port while serving (0 picks an ephemeral port; "
             "omitted = disabled)",
    )
    serve.add_argument(
        "--ops-host", default="127.0.0.1", metavar="HOST",
        help="bind address for the ops endpoint (default 127.0.0.1)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=100.0, metavar="MS",
        help="flight-recorder slow-op threshold in milliseconds "
             "(default 100; 0 captures everything)",
    )
    serve.add_argument(
        "--ops-grace-s", type=float, default=0.0, metavar="S",
        help="after a --once replay, keep the ops endpoint up for this "
             "many seconds so scrapers can collect final state "
             "(released early by /quitquitquit; default 0)",
    )
    _add_obs_arguments(serve)

    obs_cmd = sub.add_parser(
        "obs", help="observability utilities (standalone ops endpoint)"
    )
    obs_sub = obs_cmd.add_subparsers(
        dest="obs_command", required=True, metavar="ACTION"
    )
    obs_serve = obs_sub.add_parser(
        "serve",
        help="install the flight recorder and serve /metrics, /healthz, "
             "/debug/slow, /debug/trace over HTTP",
    )
    obs_serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="bind address (default 127.0.0.1)",
    )
    obs_serve.add_argument(
        "--port", type=int, default=9464, metavar="PORT",
        help="bind port (default 9464; 0 picks an ephemeral port)",
    )
    obs_serve.add_argument(
        "--slow-ms", type=float, default=100.0, metavar="MS",
        help="flight-recorder slow-op threshold (default 100; 0 captures "
             "everything)",
    )
    obs_serve.add_argument(
        "--span-buffer", type=int, default=4096, metavar="N",
        help="spans retained in the flight-recorder ring (default 4096)",
    )
    obs_serve.add_argument(
        "--slow-buffer", type=int, default=64, metavar="N",
        help="slow operations retained in the log (default 64)",
    )
    obs_serve.add_argument(
        "--data", metavar="FILE",
        help="optional RDF file; with --query, runs a warm-up workload "
             "so the first scrape already has query metrics",
    )
    obs_serve.add_argument(
        "--query", metavar="SPARQL",
        help="SPARQL text (or @file) executed --repeat times against "
             "--data at startup",
    )
    obs_serve.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="warm-up query repetitions (default 1)",
    )
    obs_serve.add_argument(
        "--duration", type=float, default=0.0, metavar="S",
        help="serve for this many seconds, then exit (default 0 = serve "
             "until /quitquitquit or Ctrl-C)",
    )

    return parser


# --------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------- #

def _cmd_transform(args: argparse.Namespace) -> int:
    graph = load_rdf(args.data)
    if args.shapes:
        shapes = parse_shacl(Path(args.shapes).read_text(encoding="utf-8"))
        print(f"loaded {len(shapes)} node shapes from {args.shapes}")
    else:
        shapes = extract_shapes(graph)
        print(f"extracted {len(shapes)} node shapes from the data")

    options = TransformOptions(
        parsimonious=not args.non_parsimonious, on_unknown=args.on_unknown
    )
    start = time.perf_counter()
    result = S3PG(options).transform(graph, shapes)
    elapsed = time.perf_counter() - start

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(result.graph, out)
    (out / "schema.pgs").write_text(
        render_pgschema(result.pg_schema), encoding="utf-8"
    )
    (out / "mapping.json").write_text(result.mapping.to_json(), encoding="utf-8")
    if args.g2gml:
        (out / "mapping.g2g").write_text(
            render_g2gml(result.mapping), encoding="utf-8"
        )

    stats = result.graph.stats()
    print(
        f"transformed {len(graph)} triples -> {stats.n_nodes} nodes / "
        f"{stats.n_edges} edges / {stats.n_rel_types} relationship types "
        f"in {elapsed:.2f}s"
    )
    print(f"wrote nodes.csv, edges.csv, schema.pgs, mapping.json to {out}/")
    return 0


def _cmd_extract_shapes(args: argparse.Namespace) -> int:
    graph = load_rdf(args.data)
    config = ExtractionConfig(
        min_class_support=args.min_class_support,
        min_property_support=args.min_property_support,
        min_type_confidence=args.min_type_confidence,
    )
    schema = extract_shapes(graph, config)
    text = serialize_shacl(schema)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(schema)} node shapes to {args.out}")
    else:
        print(text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    graph = load_rdf(args.data)
    shapes = parse_shacl(Path(args.shapes).read_text(encoding="utf-8"))
    report = shacl_validate(graph, shapes)
    if report.conforms:
        print(f"conforms ({report.checked_entities} entities checked)")
        return 0
    print(f"does not conform: {len(report.violations)} violation(s)")
    for violation in report.violations[: args.max_violations]:
        print(" ", violation)
    return 1


def _cmd_conformance(args: argparse.Namespace) -> int:
    pg = read_csv(args.pgdir)
    schema = parse_pgschema_ddl(Path(args.schema).read_text(encoding="utf-8"))
    report = check_conformance(pg, schema)
    if report.conforms:
        print(f"conforms ({pg.node_count()} nodes, {pg.edge_count()} edges)")
        return 0
    print(f"does not conform: {len(report.violations)} violation(s)")
    for violation in report.violations[:20]:
        print(" ", violation)
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_rdf(args.data)
    print(render_table([graph.stats().as_row()], title=f"Statistics of {args.data}"))
    return 0


def _cmd_shape_stats(args: argparse.Namespace) -> int:
    shapes = parse_shacl(Path(args.shapes).read_text(encoding="utf-8"))
    print(render_table(
        [shape_stats(shapes).as_row()], title=f"Shape statistics of {args.shapes}"
    ))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .eval.timing import time_callable

    graph = load_rdf(args.data)
    sparql = args.sparql
    if sparql.startswith("@"):
        sparql = Path(sparql[1:]).read_text(encoding="utf-8")
    repeat = max(1, args.repeat)
    warmup = max(0, args.warmup)
    if not args.via_pg:
        engine = SparqlEngine(graph)
        if args.explain or args.analyze:
            return _print_explain(
                engine, sparql, args.explain_format, args.analyze
            )
        for _ in range(warmup):
            engine.query(sparql)
        elapsed, rows = time_callable(engine.query, sparql, repeat=repeat)
        printable = [
            {key: str(value) for key, value in row.items()} for row in rows
        ]
    else:
        shapes = extract_shapes(graph)
        result = S3PG().transform(graph, shapes)
        cypher = translate_sparql_to_cypher(sparql, result.mapping)
        print("translated Cypher:")
        for line in cypher.splitlines():
            print("   ", line)
        engine = CypherEngine(PropertyGraphStore(result.graph))
        if args.explain or args.analyze:
            return _print_explain(
                engine, cypher, args.explain_format, args.analyze
            )
        for _ in range(warmup):
            engine.query(cypher)
        elapsed, rows = time_callable(engine.query, cypher, repeat=repeat)
        printable = [
            {key: scalar_to_lexical(value) if value is not None else ""
             for key, value in row.items()}
            for row in rows
        ]
    print(f"{len(rows)} row(s)")
    if repeat > 1 or warmup:
        print(
            f"mean latency {elapsed * 1000:.3f}ms over {repeat} run(s) "
            f"({warmup} warm-up)"
        )
    if printable:
        print(render_table(printable[: args.limit]))
    return 0


def _print_explain(engine, text: str, fmt: str, analyze: bool = False) -> int:
    """Run ``text`` through ``engine.explain`` and print the plan."""
    rendered = engine.explain(text, fmt=fmt, analyze=analyze)
    if fmt == "json":
        print(json.dumps(rendered, indent=2, sort_keys=True))
    else:
        print(rendered)
    return 0


def _cmd_to_rdf(args: argparse.Namespace) -> int:
    from .core.inverse import pg_to_rdf

    pg = read_csv(args.pgdir)
    mapping = SchemaMapping.from_json(
        Path(args.mapping).read_text(encoding="utf-8")
    )
    graph = pg_to_rdf(pg, mapping)
    count = write_ntriples(graph, args.out)
    print(f"reconstructed {count} triples -> {args.out}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from .core.inverse import rebuild_transformed
    from .core.optimize import optimize

    transformed = rebuild_transformed(args.pgdir, args.mapping)
    before = transformed.graph.stats()
    optimized = optimize(transformed)
    after = optimized.graph.stats()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(optimized.graph, out)
    (out / "schema.pgs").write_text(
        render_pgschema(optimized.schema_result.pg_schema), encoding="utf-8"
    )
    (out / "mapping.json").write_text(
        optimized.schema_result.mapping.to_json(), encoding="utf-8"
    )
    print(
        f"compacted {before.n_nodes}->{after.n_nodes} nodes, "
        f"{before.n_edges}->{after.n_edges} edges "
        f"({optimized.stats.edges_folded} edges folded); wrote {out}/"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec_fn, base = _DATASETS[args.dataset]
    graph = generate(
        spec_fn(), base_entities=max(1, int(base * args.scale)), seed=args.seed
    )
    count = write_ntriples(graph, args.out)
    print(f"wrote {count} triples to {args.out}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from .storage import load_snapshot, save_snapshot, snapshot_info

    if args.snapshot_action == "save":
        start = time.perf_counter()
        graph = load_rdf(args.data)
        parse_s = time.perf_counter() - start
        start = time.perf_counter()
        size = save_snapshot(graph, args.out)
        save_s = time.perf_counter() - start
        print(
            f"saved {len(graph)} triples ({size} bytes) to {args.out} "
            f"in {save_s:.3f}s (source loaded in {parse_s:.3f}s)"
        )
        return 0

    if args.snapshot_action == "info":
        info = snapshot_info(args.snap)
        for key in ("format_version", "file_size", "n_terms", "n_triples",
                    "graph_version", "crc32"):
            print(f"{key}: {info[key]}")
        return 0

    start = time.perf_counter()
    graph = load_snapshot(args.snap)
    load_s = time.perf_counter() - start
    print(f"loaded {len(graph)} triples from {args.snap} in {load_s:.4f}s")
    if args.compare:
        start = time.perf_counter()
        other = load_rdf(args.compare)
        parse_s = time.perf_counter() - start
        ratio = parse_s / load_s if load_s > 0 else float("inf")
        print(f"parsing {args.compare} took {parse_s:.4f}s ({ratio:.1f}x slower)")
        if other != graph:
            print(f"snapshot DIFFERS from parsed graph ({len(other)} triples parsed)")
            return 1
        print(f"snapshot matches parsed graph ({len(other)} triples)")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import ORACLES, replay_corpus, run_fuzz

    if args.list_oracles:
        for oracle in ORACLES.values():
            kinds = ", ".join(oracle.kinds)
            print(f"{oracle.name:28s} [{kinds}]  {oracle.description}")
        return 0

    if args.replay:
        failures = replay_corpus(args.corpus)
        if failures:
            print(f"{len(failures)} corpus reproducer(s) still failing:")
            for failure in failures:
                print(" ", failure)
            return 1
        count = len(list(Path(args.corpus).glob("*.json")))
        print(f"replayed {count} reproducer(s): all pass")
        return 0

    start = time.perf_counter()
    report = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        oracle_names=args.oracles,
        corpus_dir=None if args.no_corpus else args.corpus,
        max_failures=args.max_failures,
    )
    elapsed = time.perf_counter() - start
    runs = ", ".join(
        f"{name} x{count}" for name, count in sorted(report.oracle_runs.items())
    )
    print(
        f"fuzzed {report.cases} case(s) / {report.checks} oracle run(s) "
        f"in {elapsed:.1f}s (seed {report.seed})"
    )
    print(f"  {runs}")
    if report.ok:
        print("all properties hold")
        return 0
    print(f"{len(report.failures)} property violation(s):")
    for failure in report.failures:
        print(" ", failure)
    return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    graph = load_rdf(args.data)
    if args.shapes:
        shapes = parse_shacl(Path(args.shapes).read_text(encoding="utf-8"))
    else:
        shapes = extract_shapes(graph)

    sparql = args.query
    if sparql and sparql.startswith("@"):
        sparql = Path(sparql[1:]).read_text(encoding="utf-8")

    result = None
    for _ in range(max(1, args.repeat)):
        result = S3PG().transform(graph, shapes)
        if args.validate:
            shacl_validate(graph, shapes)
        if sparql:
            SparqlEngine(graph).query(sparql)
            cypher = translate_sparql_to_cypher(sparql, result.mapping)
            CypherEngine(PropertyGraphStore(result.graph)).query(cypher)

    tracer = obs.get_tracer()
    spans = tracer.finished() if tracer is not None else []
    stats = result.graph.stats()
    print(
        f"profiled {len(graph)} triples -> {stats.n_nodes} nodes / "
        f"{stats.n_edges} edges ({len(spans)} spans)"
    )
    print()
    print(obs.render_profile(spans, top=args.top))
    return 0


def _latency_quantiles_ms(samples: list[float], qs: tuple) -> list[float]:
    """Histogram-derived latency quantiles in milliseconds."""
    histogram = obs.histogram_from_samples(samples)
    return [q * 1000.0 for q in obs.quantiles_from_histogram(histogram, qs)]


def _cmd_obs_serve(args: argparse.Namespace) -> int:
    obs.install_recorder(
        span_capacity=args.span_buffer,
        slow_threshold_ms=args.slow_ms,
        slow_capacity=args.slow_buffer,
    )
    obs.install_workload()
    server = obs.OpsServer(host=args.host, port=args.port)
    try:
        host, port = server.start()
        print(f"ops endpoint on http://{host}:{port}")
        print(
            "routes: /metrics /healthz /debug/slow /debug/trace "
            "/debug/statements /quitquitquit"
        )
        if args.data and args.query:
            sparql = args.query
            if sparql.startswith("@"):
                sparql = Path(sparql[1:]).read_text(encoding="utf-8")
            engine = SparqlEngine(load_rdf(args.data))
            repeat = max(1, args.repeat)
            for _ in range(repeat):
                engine.query(sparql)
            print(f"warmed query metrics with {repeat} run(s)")
        timeout = args.duration if args.duration > 0 else None
        try:
            if server.wait(timeout):
                print("released by /quitquitquit")
            else:
                print(f"duration of {args.duration:g}s elapsed")
        except KeyboardInterrupt:
            print("interrupted")
    finally:
        server.stop()
        obs.uninstall_workload()
        obs.uninstall_recorder()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .cdc import CDCConfig, CDCPipeline, JsonlChangefeed
    from .cdc.checkpoint import has_checkpoint, load_checkpoint, save_checkpoint
    from .core.inverse import pgschema_to_shacl
    from .shacl.validator import DeltaValidator

    shapes = None
    if args.shapes:
        shapes = parse_shacl(Path(args.shapes).read_text(encoding="utf-8"))

    watermark = -1
    if args.checkpoint_dir and has_checkpoint(args.checkpoint_dir):
        state = load_checkpoint(args.checkpoint_dir)
        transformed, graph, watermark = (
            state.transformed, state.source_graph, state.watermark
        )
        if shapes is None:
            shapes = pgschema_to_shacl(transformed.mapping)
        print(
            f"resumed from {args.checkpoint_dir} at watermark {watermark} "
            f"({transformed.graph.node_count()} nodes, "
            f"{transformed.graph.edge_count()} edges)"
        )
    else:
        graph = load_rdf(args.data) if args.data else Graph()
        if shapes is None:
            shapes = extract_shapes(graph)
        options = TransformOptions(
            parsimonious=not args.non_parsimonious, on_unknown=args.on_unknown
        )
        result = S3PG(options).transform(graph, shapes)
        transformed = result.transformed
        print(
            f"transformed base graph: {len(graph)} triples -> "
            f"{transformed.graph.node_count()} nodes / "
            f"{transformed.graph.edge_count()} edges"
        )

    store = PropertyGraphStore(transformed.graph)
    validator = None if args.no_validate else DeltaValidator(shapes, graph)
    pipeline = CDCPipeline(
        transformed,
        graph,
        store=store,
        validator=validator,
        config=CDCConfig(
            max_batch_size=args.batch_size,
            max_linger_s=args.linger_ms / 1000.0,
            queue_maxsize=args.queue_size,
            checkpoint_every=args.checkpoint_every,
            validate=not args.no_validate,
        ),
        quarantine_path=args.quarantine,
        checkpoint_dir=args.checkpoint_dir,
        watermark=watermark,
    )

    ops_server = None
    if args.ops_port is not None:
        obs.install_workload()
        obs.install_recorder(slow_threshold_ms=args.slow_ms)
        ops_server = obs.OpsServer(
            host=args.ops_host,
            port=args.ops_port,
            health=pipeline.health_snapshot,
        )
        host, port = ops_server.start()
        print(f"ops endpoint on http://{host}:{port}")

    feed = JsonlChangefeed(
        args.source, start_after=watermark, follow=not args.once
    )
    mode = "replaying" if args.once else "tailing"
    print(f"{mode} {args.source} from watermark {watermark}")
    try:
        try:
            stats = asyncio.run(pipeline.run(feed))
        except KeyboardInterrupt:
            print("interrupted")
            if pipeline.checkpoint_dir is not None:
                save_checkpoint(pipeline.checkpoint_dir, pipeline)
                pipeline.stats.checkpoints += 1
            stats = pipeline.stats
        return _print_serve_summary(args, pipeline, stats, validator, ops_server)
    finally:
        if ops_server is not None:
            ops_server.stop()
            obs.uninstall_recorder()
            obs.uninstall_workload()


def _print_serve_summary(args, pipeline, stats, validator, ops_server) -> int:
    transformed = pipeline.transformed
    pg_stats = transformed.graph.stats()
    print(
        f"applied {stats.deltas_applied} delta(s) in {stats.batches} "
        f"batch(es) (+{stats.triples_added}/-{stats.triples_removed} "
        f"triples, {stats.deltas_skipped} skipped, "
        f"{stats.deltas_quarantined} quarantined, {stats.retries} retries)"
    )
    print(
        f"graph: {pg_stats.n_nodes} nodes / {pg_stats.n_edges} edges / "
        f"{pg_stats.n_rel_types} relationship types at watermark "
        f"{pipeline.watermark}"
    )
    if stats.latencies:
        p50_ms, p99_ms = _latency_quantiles_ms(stats.latencies, (0.5, 0.99))
        print(f"latency p50 {p50_ms:.2f}ms / p99 {p99_ms:.2f}ms")
    if validator is not None:
        verdict = "conforms" if validator.conforms else (
            f"{len(validator.report().violations)} violation(s)"
        )
        print(
            f"standing report: {verdict} over {validator.focus_count} focus "
            f"node(s) ({stats.focus_rechecked} rechecked incrementally)"
        )
    if stats.checkpoints:
        print(f"wrote {stats.checkpoints} checkpoint(s) to {args.checkpoint_dir}")
    if (
        ops_server is not None
        and args.once
        and args.ops_grace_s > 0
        and not ops_server.shutdown_requested.is_set()
    ):
        print(
            f"holding ops endpoint for up to {args.ops_grace_s:g}s "
            "(/quitquitquit releases early)"
        )
        ops_server.wait(args.ops_grace_s)
    return 0


_COMMANDS = {
    "transform": _cmd_transform,
    "extract-shapes": _cmd_extract_shapes,
    "validate": _cmd_validate,
    "conformance": _cmd_conformance,
    "stats": _cmd_stats,
    "shape-stats": _cmd_shape_stats,
    "query": _cmd_query,
    "generate": _cmd_generate,
    "snapshot": _cmd_snapshot,
    "to-rdf": _cmd_to_rdf,
    "compact": _cmd_compact,
    "fuzz": _cmd_fuzz,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "obs": _cmd_obs_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    tracing = bool(trace_path) or args.command == "profile"
    if tracing:
        obs.configure()
    try:
        if tracing or metrics_path:
            with obs.span(f"cli.{args.command}"):
                return _COMMANDS[args.command](args)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (e.g. `repro stats ... | head`); exit
        # quietly like a well-behaved unix tool.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    finally:
        if trace_path:
            tracer = obs.get_tracer()
            if tracer is not None:
                obs.write_trace(tracer.finished(), trace_path)
                _print_quietly(f"wrote trace ({len(tracer)} spans) to {trace_path}")
        if metrics_path:
            obs.write_metrics(obs.get_metrics(), metrics_path)
            _print_quietly(f"wrote metrics to {metrics_path}")
        if tracing:
            obs.disable()
        if tracing or metrics_path:
            obs.get_metrics().reset()


def _print_quietly(message: str) -> None:
    """Print, swallowing a broken pipe — these status lines run in the
    ``finally`` of :func:`main`, where a raise would mask the command's
    exit code when the reader went away (``repro ... | head``)."""
    try:
        print(message)
    except BrokenPipeError:
        pass


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
