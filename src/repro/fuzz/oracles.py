"""Executable statements of the paper's universally-quantified claims.

Each oracle takes a generated :class:`~repro.fuzz.generators.FuzzCase`
and returns ``None`` when the property holds or a human-readable failure
message when it does not.  Oracles never raise on a *property* failure;
an exception escaping an oracle is itself treated as a failure by the
runner (a crash is the strongest kind of counterexample).

The registry :data:`ORACLES` maps oracle names to :class:`Oracle`
entries; each entry declares which case kinds it consumes, so the runner
routes cases without the oracles having to re-check applicability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.config import DEFAULT_OPTIONS, MONOTONE_OPTIONS, TransformOptions
from ..core.inverse import pg_to_rdf, pgschema_to_shacl, scalar_to_lexical, \
    shape_schemas_equivalent
from ..core.optimize import optimize
from ..core.pipeline import transform
from ..errors import ParseError, TranslationError
from ..namespaces import RDF_TYPE, local_name
from ..pg.csv_io import export_csv, import_csv
from ..pg.model import PropertyGraph
from ..pg.store import PropertyGraphStore
from ..pg.yarspg import export_yarspg, import_yarspg
from ..pgschema.conformance import check_conformance
from ..query.cypher.evaluator import CypherEngine
from ..query.sparql.evaluator import SparqlEngine
from ..query.translate import translate_sparql_to_cypher
from ..rdf.graph import Graph, graphs_equal_modulo_bnodes
from ..rdf.terms import BlankNode, IRI
from ..rdf.ntriples import parse_ntriples, serialize_ntriples
from ..rdf.turtle import parse_turtle, serialize_turtle
from ..shacl.validator import validate as shacl_validate
from .generators import EX, FuzzCase

_BOTH_MODES: tuple[TransformOptions, ...] = (DEFAULT_OPTIONS, MONOTONE_OPTIONS)


def _mode(options: TransformOptions) -> str:
    return "parsimonious" if options.parsimonious else "monotone"


@dataclass(frozen=True)
class Oracle:
    """A named property checker over a subset of case kinds."""

    name: str
    kinds: tuple[str, ...]
    fn: Callable[[FuzzCase], str | None]
    description: str = ""


# --------------------------------------------------------------------- #
# Round-trip identity (Prop. 4.1): M(F_dt(G)) ≅ G and N(S_PG) ≅ S_G
# --------------------------------------------------------------------- #

def roundtrip_rdf(case: FuzzCase) -> str | None:
    graph = Graph(case.triples)
    for options in _BOTH_MODES:
        result = transform(graph, case.schema, options)
        back = pg_to_rdf(result.graph, result.mapping)
        if not graphs_equal_modulo_bnodes(graph, back):
            return (
                f"M(F_dt(G)) != G in {_mode(options)} mode "
                f"({len(graph)} in, {len(back)} back)"
            )
    return None


def roundtrip_schema(case: FuzzCase) -> str | None:
    for options in _BOTH_MODES:
        result = transform(Graph(), case.schema, options)
        recovered = pgschema_to_shacl(result.mapping)
        if not shape_schemas_equivalent(recovered, case.schema):
            return f"N(F_st(S)) != S in {_mode(options)} mode"
    return None


# --------------------------------------------------------------------- #
# Parsimonious is a fold (Sec. 4.1.1): optimize(F_dt^np(G)) = F_dt^p(G)
# --------------------------------------------------------------------- #

def fold_exact(case: FuzzCase) -> str | None:
    """Parsimonious ``F_dt`` is the fold of the non-parsimonious one:
    ``optimize(F_dt^np(G))`` equals ``F_dt^p(G)`` as a graph, ``M`` maps it
    back to ``G``, and the two agree in their conformance reports and
    their mappings (checked in that order, most severe first)."""
    graph = Graph(case.triples)
    pars = transform(graph, case.schema, DEFAULT_OPTIONS)
    folded = optimize(transform(graph, case.schema, MONOTONE_OPTIONS).transformed)
    target = folded.schema_result
    if not folded.graph.structurally_equal(pars.graph):
        return "optimize(F_dt^np(G)) != F_dt^p(G) as graphs"
    if not graphs_equal_modulo_bnodes(graph, pg_to_rdf(folded.graph, target.mapping)):
        return "M(optimize(F_dt^np(G))) != G"
    got = check_conformance(folded.graph, target.pg_schema)
    want = check_conformance(pars.graph, pars.pg_schema)
    if (got.conforms, sorted(map(str, got.violations))) != (
        want.conforms, sorted(map(str, want.violations))
    ):
        return (
            f"conformance of optimize(F_dt^np(G)) is {got.conforms} with "
            f"{len(got.violations)} violation(s), of F_dt^p(G) {want.conforms} "
            f"with {len(want.violations)}"
        )
    if target.mapping.to_json() != pars.mapping.to_json():
        return "optimize(F_dt^np(G)) and F_dt^p(G) have different mappings"
    return None


# --------------------------------------------------------------------- #
# Validation equivalence (Prop. 4.2): G ⊨ S_G ⇔ F_dt(G) ⊨ S_PG
# --------------------------------------------------------------------- #

def _in_equivalence_fragment(case: FuzzCase) -> bool:
    """Is the case inside the fragment where validation equivalence holds?

    The theorem relates an *open-world* SHACL check (only typed, targeted
    entities are inspected; extra properties are unconstrained) to a
    *closed-world* STRICT conformance check (every node and edge must
    match a type).  The two agree only on graphs that (a) type every
    entity — subjects and entity objects — and (b) use on each entity
    only predicates governed by its types' effective property shapes.
    The generator maintains both invariants; this guard keeps the
    shrinker from escaping them mid-reduction and landing on a
    by-design divergence.
    """
    typed: dict[object, list[str]] = {}
    for t in case.triples:
        if t.p.value == RDF_TYPE and isinstance(t.o, IRI):
            typed.setdefault(t.s, []).append(t.o.value)
    allowed: dict[object, set[str]] = {}
    for entity, classes in typed.items():
        paths: set[str] = set()
        for cls in classes:
            shape = case.schema.shape_for_class(cls)
            if shape is None:
                return False
            paths.update(
                ps.path
                for ps in case.schema.effective_property_shapes(shape.name)
            )
        allowed[entity] = paths
    for t in case.triples:
        if t.s not in typed:
            return False
        if t.p.value == RDF_TYPE:
            continue
        if t.p.value not in allowed[t.s]:
            return False
        if isinstance(t.o, (IRI, BlankNode)) and t.o not in typed:
            return False
    return True


def validation_equivalence(case: FuzzCase) -> str | None:
    graph = Graph(case.triples)
    if not _in_equivalence_fragment(case):
        return None
    rdf_report = shacl_validate(graph, case.schema)
    if case.kind == "valid" and not rdf_report.conforms:
        return (
            "generator produced a non-conforming 'valid' instance: "
            f"{rdf_report.violations[:2]}"
        )
    for options in _BOTH_MODES:
        result = transform(graph, case.schema, options)
        pg_report = check_conformance(result.graph, result.pg_schema)
        if rdf_report.conforms != pg_report.conforms:
            detail = (
                rdf_report.violations[:2]
                if not rdf_report.conforms
                else pg_report.violations[:2]
            )
            return (
                f"G |= S_G is {rdf_report.conforms} but F_dt(G) |= S_PG is "
                f"{pg_report.conforms} in {_mode(options)} mode "
                f"({case.note or 'no mutation'}; {detail})"
            )
    return None


# --------------------------------------------------------------------- #
# Query preservation (Def. 3.2): SPARQL vs translated Cypher
# --------------------------------------------------------------------- #

_PROLOG = f"PREFIX : <{EX}> "
_MAX_QUERIES = 8


def _workload(case: FuzzCase) -> list[str]:
    queries: list[str] = []
    schema = case.schema
    for shape in schema:
        cls = local_name(shape.target_class)
        queries.append(_PROLOG + f"SELECT ?e WHERE {{ ?e a :{cls} . }}")
        for phi in schema.effective_property_shapes(shape.name)[:2]:
            prop = local_name(phi.path)
            queries.append(
                _PROLOG
                + f"SELECT ?e ?v WHERE {{ ?e a :{cls} ; :{prop} ?v . }}"
            )
            queries.append(
                _PROLOG
                + f"SELECT (COUNT(*) AS ?n) WHERE {{ ?e a :{cls} ; "
                f":{prop} ?v . }}"
            )
    return queries[:_MAX_QUERIES]


def sparql_cypher_differential(case: FuzzCase) -> str | None:
    graph = Graph(case.triples)
    result = transform(graph, case.schema)
    sparql_engine = SparqlEngine(graph)
    cypher_engine = CypherEngine(PropertyGraphStore(result.graph))
    for sparql in _workload(case):
        try:
            cypher = translate_sparql_to_cypher(sparql, result.mapping)
        except TranslationError:
            continue
        gt = sorted(
            tuple(str(row[key]) for key in sorted(row))
            for row in sparql_engine.query(sparql)
        )
        pg = sorted(
            tuple(scalar_to_lexical(row[key]) for key in sorted(row))
            for row in cypher_engine.query(cypher)
        )
        if gt != pg:
            return (
                f"differential mismatch for {sparql!r}: SPARQL {len(gt)} "
                f"row(s) vs Cypher {len(pg)} row(s); first diff "
                f"{next((a for a in gt if a not in pg), None)!r} vs "
                f"{next((b for b in pg if b not in gt), None)!r}"
            )
    return None


# --------------------------------------------------------------------- #
# Serializer round-trips
# --------------------------------------------------------------------- #

def ntriples_roundtrip(case: FuzzCase) -> str | None:
    original = set(case.triples)
    text = serialize_ntriples(case.triples, sort=True)
    if set(parse_ntriples(text)) != original:
        return "N-Triples round-trip lost or altered triples"
    # The spec makes the whitespace before the terminator optional; a
    # "tight" document must parse to the same graph.
    tight = "\n".join(
        line[:-2] + "." if line.endswith(" .") else line
        for line in text.splitlines()
    )
    try:
        reparsed = set(parse_ntriples(tight))
    except ParseError as exc:
        return f"tight N-Triples document rejected: {exc}"
    if reparsed != original:
        return "tight N-Triples round-trip lost or altered triples"
    return None


def snapshot_roundtrip(case: FuzzCase) -> str | None:
    """save → load preserves the graph and its counters, byte-stably."""
    import os
    import tempfile

    from ..storage import load_snapshot, save_snapshot

    graph = Graph(case.triples)
    fd, path = tempfile.mkstemp(suffix=".snap")
    os.close(fd)
    try:
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        if set(loaded) != set(graph):
            return "snapshot round-trip lost or altered triples"
        for p in graph.predicate_set():
            if loaded.predicate_count(p) != graph.predicate_count(p):
                return f"snapshot changed predicate_count({p})"
            if loaded.predicate_distinct_subjects(p) != (
                graph.predicate_distinct_subjects(p)
            ):
                return f"snapshot changed predicate_distinct_subjects({p})"
        with open(path, "rb") as f:
            first = f.read()
        save_snapshot(loaded, path)
        with open(path, "rb") as f:
            second = f.read()
        if first != second:
            return "snapshot save → load → save is not byte-stable"
    finally:
        os.unlink(path)
    return None


def turtle_roundtrip(case: FuzzCase) -> str | None:
    original = set(case.triples)
    text = serialize_turtle(Graph(case.triples))
    try:
        reparsed = set(parse_turtle(text))
    except ParseError as exc:
        return f"serialized Turtle does not re-parse: {exc}"
    if reparsed != original:
        return "Turtle round-trip lost or altered triples"
    return None


def _case_graphs(case: FuzzCase) -> list[tuple[str, PropertyGraph]]:
    """The property graphs a serializer oracle checks for this case."""
    if case.pg is not None:
        return [("direct", case.pg)]
    graph = Graph(case.triples)
    return [
        (_mode(options), transform(graph, case.schema, options).graph)
        for options in _BOTH_MODES
    ]


def csv_roundtrip(case: FuzzCase) -> str | None:
    for tag, pg in _case_graphs(case):
        nodes_csv, edges_csv = export_csv(pg)
        back = import_csv(nodes_csv, edges_csv)
        if not pg.structurally_equal(back):
            return f"CSV round-trip changed the graph ({tag})"
    return None


def _yarspg_serializable(pg: PropertyGraph) -> bool:
    """The YARS-PG subset is line-oriented with raw double-quoted ids."""
    return all(
        '"' not in node.id and "\n" not in node.id
        for node in pg.nodes.values()
    )


def yarspg_roundtrip(case: FuzzCase) -> str | None:
    for tag, pg in _case_graphs(case):
        if not _yarspg_serializable(pg):
            continue
        back = import_yarspg(export_yarspg(pg))
        if not pg.structurally_equal(back):
            return f"YARS-PG round-trip changed the graph ({tag})"
    return None


# --------------------------------------------------------------------- #
# Parser robustness: malformed input must fail with ParseError only
# --------------------------------------------------------------------- #

def parser_robustness(case: FuzzCase) -> str | None:
    try:
        parse_ntriples(case.text)
    except ParseError as exc:
        if case.note.startswith("tight"):
            return f"valid tight-terminator document rejected: {exc}"
        return None
    except Exception as exc:  # noqa: BLE001 — the property under test
        return (
            f"parser crashed with {type(exc).__name__}: {exc} "
            f"({case.note})"
        )
    return None


# --------------------------------------------------------------------- #
# openCypher undirected-match semantics (query-preservation support)
# --------------------------------------------------------------------- #

def cypher_undirected(case: FuzzCase) -> str | None:
    result = transform(Graph(case.triples), case.schema)
    pg = result.graph
    engine = CypherEngine(PropertyGraphStore(pg))
    edge_labels = sorted({lab for e in pg.edges.values() for lab in e.labels})
    node_labels = sorted({lab for n in pg.nodes.values() for lab in n.labels})
    for rel_type in edge_labels[:3]:
        for label in node_labels[:3]:
            expected = 0
            for edge in pg.edges.values():
                if rel_type not in edge.labels:
                    continue
                if edge.src == edge.dst:
                    # openCypher yields a self-loop once per undirected
                    # match, not once per traversal direction.
                    expected += int(label in pg.nodes[edge.src].labels)
                else:
                    expected += int(label in pg.nodes[edge.src].labels)
                    expected += int(label in pg.nodes[edge.dst].labels)
            rows = engine.query(
                f"MATCH (a:{label})-[r:{rel_type}]-(b) RETURN count(*) AS n"
            )
            actual = rows[0]["n"] if rows else 0
            if actual != expected:
                return (
                    f"undirected MATCH (a:{label})-[:{rel_type}]-(b) "
                    f"returned {actual} row(s), expected {expected}"
                )
    return None


# --------------------------------------------------------------------- #
# Planner differential: planned execution == reference evaluation
# --------------------------------------------------------------------- #

def _bag(rows: list[dict], to_text: Callable[[object], str]) -> list[tuple]:
    return sorted(
        tuple(
            (key, None if row[key] is None else to_text(row[key]))
            for key in sorted(row)
        )
        for row in rows
    )


def _skewed_rdf(seed: int):
    """A hub-skewed graph + join query that defeats the static estimates.

    The ``links`` predicate averages ~1.5 objects per subject, but the
    subjects tagged ``"hot"`` are hubs with ``fan`` links each — the
    per-binding fanout estimate of the second join stage is low by more
    than 4x, so the plan runs with a join order and operator choice
    made on badly wrong cardinalities.  Deterministic in ``seed``.
    """
    import random

    from ..rdf.graph import Triple
    from ..rdf.terms import Literal

    rng = random.Random(seed ^ 0xADA9)
    hubs = rng.randint(6, 12)
    fan = rng.randint(25, 50)
    cold = rng.randint(300, 500)
    tag, links, name = IRI(EX + "tag"), IRI(EX + "links"), IRI(EX + "name")
    triples = []
    for i in range(hubs):
        s = IRI(EX + f"hub/{i}")
        triples.append(Triple(s, tag, Literal("hot")))
        for j in range(fan):
            triples.append(Triple(s, links, IRI(EX + f"obj/{j}")))
    for i in range(cold):
        triples.append(
            Triple(IRI(EX + f"cold/{i}"), links, IRI(EX + f"obj/{i % 20}"))
        )
    for j in range(fan):
        triples.append(Triple(IRI(EX + f"obj/{j}"), name, Literal(f"n{j}")))
    query = (
        f'SELECT ?s ?o ?n WHERE {{ ?s <{EX}tag> "hot" . '
        f"?s <{EX}links> ?o . ?o <{EX}name> ?n . }}"
    )
    return Graph(triples), query


def _skewed_pg(seed: int):
    """A hub-skewed property graph + multi-path MATCH (see _skewed_rdf)."""
    import random

    rng = random.Random(seed ^ 0xADAB)
    starts = rng.randint(4, 8)
    fan = rng.randint(40, 80)
    mids = rng.randint(100, 200)
    cold = rng.randint(300, 600)
    pg = PropertyGraph()
    for i in range(starts):
        pg.add_node(f"s{i}", {"Start"}, {"k": i})
    for i in range(mids):
        pg.add_node(f"m{i}", {"Mid"}, {"k": i})
    for i in range(40):
        pg.add_node(f"t{i}", {"Tail"}, {"k": i})
    for i in range(starts):
        for j in range(fan):
            pg.add_edge(f"s{i}", f"m{(i * 37 + j) % mids}", {"HOT"})
    for i in range(cold):
        pg.add_node(f"c{i}", {"Cold"}, {})
        pg.add_edge(f"c{i}", f"m{i % mids}", {"HOT"})
    for i in range(mids):
        pg.add_edge(f"m{i}", f"t{i % 40}", {"LINK"})
    query = (
        "MATCH (a:Start)-[:HOT]->(b), (b)-[:LINK]->(c:Tail) "
        "RETURN a.k, b.k, c.k"
    )
    return pg, query


def _divergence(reference, planned, query: str, to_text) -> str | None:
    """How ``planned``'s answer bag differs from ``reference``'s, if it does."""
    expected = _bag(reference.query(query), to_text)
    rows = _bag(planned.query(query), to_text)
    if rows != expected:
        return f"{len(rows)} vs {len(expected)} row(s)"
    return None


def planner_differential(case: FuzzCase) -> str | None:
    """Planned execution is result-identical to the reference evaluators.

    Runs the case's query workload through both engines twice — the
    ``planner=False`` reference arm and the planned batch operators —
    and requires bag-equal results.  The workload is LIMIT-free by
    construction: LIMIT without ORDER BY may truncate any subset of the
    answers, so differing-but-correct plans could legitimately disagree.
    A deterministic hub-skewed sibling dataset derived from the case
    seed repeats the comparison where the planner's estimates are wrong.
    """
    graph = Graph(case.triples)
    workload = _workload(case)
    reference, planned = SparqlEngine(graph, planner=False), SparqlEngine(graph)
    for sparql in workload:
        diff = _divergence(reference, planned, sparql, str)
        if diff:
            return f"planned SPARQL diverges from the reference for {sparql!r}: {diff}"
    for options in _BOTH_MODES:
        result = transform(graph, case.schema, options)
        store = PropertyGraphStore(result.graph)
        reference, planned = CypherEngine(store, planner=False), CypherEngine(store)
        for sparql in workload:
            try:
                cypher = translate_sparql_to_cypher(sparql, result.mapping)
            except TranslationError:
                continue
            diff = _divergence(reference, planned, cypher, scalar_to_lexical)
            if diff:
                return (
                    f"planned Cypher diverges from the reference in "
                    f"{_mode(options)} mode for {cypher!r}: {diff}"
                )
    graph, sparql = _skewed_rdf(case.seed)
    pg, cypher = _skewed_pg(case.seed)
    store = PropertyGraphStore(pg)
    for lang, reference, planned, query, to_text in (
        ("SPARQL", SparqlEngine(graph, planner=False), SparqlEngine(graph),
         sparql, str),
        ("Cypher", CypherEngine(store, planner=False), CypherEngine(store),
         cypher, scalar_to_lexical),
    ):
        diff = _divergence(reference, planned, query, to_text)
        if diff:
            return (
                f"planned {lang} diverges on the skewed catalog for seed "
                f"{case.seed}: {diff}"
            )
    return None


# --------------------------------------------------------------------- #
# CDC pipeline equivalence (Prop. 4.3 lifted to the service layer)
# --------------------------------------------------------------------- #

def _cdc_history(case: FuzzCase) -> tuple[list, list, set]:
    """A random delta history derived from the case.

    Returns ``(base_triples, deltas, final_triples)``: the stream starts
    from a transform of ``base_triples`` and must land on the transform
    of ``final_triples``.  The history deliberately includes re-adds of
    removed triples, duplicate adds, and removes of absent triples — the
    pipeline has to reduce every delta to its effective part.
    """
    import random

    from ..cdc import Delta

    pool = list(dict.fromkeys(case.triples))
    rng = random.Random(case.seed ^ 0x5CDC)
    rng.shuffle(pool)
    base = pool[: len(pool) // 2]
    pending = pool[len(pool) // 2:]
    current = set(base)
    removed_pool: list = []
    deltas: list = []
    for seq in range(1, rng.randint(4, 9)):
        added: list = []
        removed: list = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.45 and pending:
                added.append(pending.pop())
            elif roll < 0.60 and removed_pool:
                added.append(removed_pool.pop(rng.randrange(len(removed_pool))))
            elif roll < 0.85 and current:
                victim = rng.choice(sorted(current, key=str))
                if victim not in added:
                    removed.append(victim)
            elif roll < 0.95 and current:
                # Duplicate add of a triple that is already present.
                duplicate = rng.choice(sorted(current, key=str))
                if duplicate not in removed:
                    added.append(duplicate)
            elif removed_pool:
                # Remove of a triple that is already absent.
                absent = rng.choice(removed_pool)
                if absent not in added:
                    removed.append(absent)
        for t in removed:
            if t in current:
                current.discard(t)
                removed_pool.append(t)
        for t in added:
            current.add(t)
        if added or removed:
            deltas.append(
                Delta(seq=seq, added=tuple(added), removed=tuple(removed))
            )
    return base, deltas, current


def fresh_memo_snapshot(schema, graph: Graph) -> dict[str, list[str]]:
    """What ``DeltaValidator.snapshot()`` must equal, computed the slow way.

    Every targeted entity is checked per shape with a fresh memo and no
    standing verdict table: no verdict outlives the focus check that
    computed it, so none can be stale, and no affected set is involved.
    """
    from ..shacl.validator import ValidationReport, _EntityChecker

    checker = _EntityChecker(schema, graph, max_violations=10_000)
    targets = schema.target_classes()
    snapshot: dict[str, list[str]] = {}
    for cls in targets:
        for entity in graph.instances_of(IRI(cls)):
            lines: list[str] = []
            for shape_name in sorted(
                {targets[t.value] for t in graph.types_of(entity)
                 if t.value in targets}
            ):
                report = ValidationReport(conforms=True)
                checker.check(entity, shape_name, report, {})
                lines.extend(str(v) for v in report.violations)
            snapshot[str(entity)] = sorted(lines)
    return snapshot


def cdc_equivalence(case: FuzzCase) -> str | None:
    """Streaming a delta history through the CDC pipeline is equivalent
    to transforming the final graph from scratch, with the store
    catalogs and the standing SHACL report maintained exactly."""
    from ..cdc import CDCConfig, CDCPipeline, replay_deltas
    from ..shacl.validator import DeltaValidator

    base, deltas, final = _cdc_history(case)
    if not deltas:
        return None
    for options in _BOTH_MODES:
        graph = Graph(base)
        result = transform(graph, case.schema, options)
        store = PropertyGraphStore(result.graph)
        version_before = store.version
        validator = (
            DeltaValidator(case.schema, graph)
            if options is DEFAULT_OPTIONS
            else None
        )
        pipeline = CDCPipeline(
            result.transformed,
            graph,
            store=store,
            validator=validator,
            config=CDCConfig(max_linger_s=0.0),
        )
        if validator is None:
            replay_deltas(pipeline, deltas)
        else:
            # One delta per batch, the standing report held to the
            # reference after every one of them.
            for delta in deltas:
                replay_deltas(pipeline, [delta])
                if validator.snapshot() != fresh_memo_snapshot(
                    case.schema, graph
                ):
                    return (
                        "standing DeltaValidator report diverges from the "
                        f"fresh-memo reference after delta {delta.seq} of "
                        f"{len(deltas)}"
                    )
                full = shacl_validate(graph, case.schema)
                if validator.conforms != full.conforms:
                    return (
                        f"standing conforms={validator.conforms} but full "
                        f"revalidation says {full.conforms} after delta "
                        f"{delta.seq}"
                    )
        stats = pipeline.stats
        if set(graph) != final:
            return (
                f"tracked source graph diverged from the delta history in "
                f"{_mode(options)} mode"
            )
        scratch = transform(Graph(final), case.schema, options).graph
        if not store.graph.structurally_equal(scratch):
            return (
                f"pipelined PG != from-scratch F_dt(final) in "
                f"{_mode(options)} mode after {len(deltas)} delta(s) "
                f"({store.graph.node_count()} vs {scratch.node_count()} "
                f"nodes, {store.graph.edge_count()} vs "
                f"{scratch.edge_count()} edges)"
            )
        discrepancies = store.catalog_discrepancies()
        if discrepancies:
            return (
                f"store catalogs stale after streaming in {_mode(options)} "
                f"mode: {'; '.join(discrepancies)}"
            )
        if (stats.triples_added or stats.triples_removed) and (
            store.version == version_before
        ):
            return (
                f"store version did not advance over {stats.triples_added}"
                f"+{stats.triples_removed} effective triple(s) in "
                f"{_mode(options)} mode"
            )
    # The whole history as one batch: what ``max_batch_size > 1`` hands
    # the validator (a triple may sit in both lists).
    graph = Graph(base)
    validator = DeltaValidator(case.schema, graph)
    added: list = []
    removed: list = []
    for delta in deltas:
        removed.extend(t for t in delta.removed if graph.remove(t))
        added.extend(t for t in delta.added if graph.add(t))
    validator.apply_delta(added=added, removed=removed)
    if validator.snapshot() != fresh_memo_snapshot(case.schema, graph):
        return (
            "standing DeltaValidator report diverges from the fresh-memo "
            f"reference after {len(deltas)} delta(s) applied as one batch"
        )
    return None


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

_RDF_KINDS = ("valid", "mutated", "noise")

ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            "roundtrip_rdf", _RDF_KINDS, roundtrip_rdf,
            "M(F_dt(G)) ≅ G in both modes (information preservation)",
        ),
        Oracle(
            "roundtrip_schema", ("valid",), roundtrip_schema,
            "N(F_st(S)) ≅ S in both modes",
        ),
        Oracle(
            "fold_exact", _RDF_KINDS, fold_exact,
            "optimize(F_dt^np(G)) = F_dt^p(G) in graph, mapping and "
            "conformance, and M of it is G",
        ),
        Oracle(
            "validation_equivalence", ("valid", "mutated"),
            validation_equivalence,
            "G ⊨ S_G ⇔ F_dt(G) ⊨ S_PG (semantics preservation)",
        ),
        # Query preservation (Def. 3.2) presupposes G ⊨ S_G: on violating
        # instances the translated access paths legitimately miss data
        # (e.g. a retyped value lives on the fallback edge, not the key),
        # so the differential runs on conforming cases only.
        Oracle(
            "sparql_cypher_differential", ("valid",),
            sparql_cypher_differential,
            "translated Cypher returns the SPARQL answers (query preservation)",
        ),
        # Like the SPARQL/Cypher differential, the planner differential
        # runs on conforming instances: the queries themselves only need
        # translatability, but keeping the kinds aligned makes the two
        # oracles directly comparable per case.
        Oracle(
            "planner_differential", ("valid", "noise"),
            planner_differential,
            "planned execution returns the reference evaluators' answers "
            "(both engines, both modes, plus a hub-skewed catalog)",
        ),
        Oracle(
            "ntriples_roundtrip", _RDF_KINDS, ntriples_roundtrip,
            "parse(serialize(G)) = G for N-Triples, incl. tight terminators",
        ),
        Oracle(
            "turtle_roundtrip", _RDF_KINDS, turtle_roundtrip,
            "parse(serialize(G)) = G for Turtle",
        ),
        Oracle(
            "snapshot_roundtrip", _RDF_KINDS, snapshot_roundtrip,
            "load(save(G)) = G with exact counters, byte-stable resave",
        ),
        Oracle(
            "csv_roundtrip", ("valid", "noise", "pg"), csv_roundtrip,
            "import_csv(export_csv(PG)) structurally equals PG",
        ),
        Oracle(
            "yarspg_roundtrip", ("valid", "noise", "pg"), yarspg_roundtrip,
            "import_yarspg(export_yarspg(PG)) structurally equals PG",
        ),
        Oracle(
            "parser_robustness", ("text",), parser_robustness,
            "malformed N-Triples fail with ParseError, never crash",
        ),
        Oracle(
            "cypher_undirected", ("valid", "noise"), cypher_undirected,
            "undirected MATCH row counts follow openCypher semantics",
        ),
        Oracle(
            "cdc_equivalence", _RDF_KINDS, cdc_equivalence,
            "streamed deltas land on the from-scratch transform, with "
            "store catalogs and the standing SHACL report exact",
        ),
    )
}
