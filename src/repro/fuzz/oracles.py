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

import random
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Callable

from ..core.config import DEFAULT_OPTIONS, MONOTONE_OPTIONS, TransformOptions
from ..core.inverse import pg_to_rdf, pgschema_to_shacl, scalar_to_lexical, \
    shape_schemas_equivalent
from ..core.optimize import optimize
from ..core.pipeline import transform
from ..errors import ParseError, TranslationError
from ..namespaces import RDF_TYPE, RDFS, local_name
from ..pg.csv_io import export_csv, import_csv
from ..pg.model import PropertyGraph
from ..pg.store import PropertyGraphStore
from ..pg.yarspg import export_yarspg, import_yarspg
from ..pgschema.conformance import check_conformance
from ..query.cypher.evaluator import CypherEngine
from ..query.sparql.evaluator import SparqlEngine
from ..query.translate import translate_sparql_to_cypher
from ..rdf.graph import Graph, graphs_equal_modulo_bnodes
from ..rdf.terms import BlankNode, IRI, Literal, Triple
from ..rdf.ntriples import parse_line, parse_ntriples, serialize_ntriples
from ..rdf.turtle import parse_turtle, serialize_turtle
from ..shacl.model import UNBOUNDED, ClassType, LiteralType, PropertyShape
from ..shacl.validator import Violation, validate as shacl_validate
from ..shapes.extractor import ExtractionConfig, ShapeExtractor, extract_shapes
from .generators import EX, FuzzCase

_SUBCLASS_OF = IRI(RDFS.subClassOf)
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
# Shape extraction (the paper's QSE reference [33]) on interned ids
# --------------------------------------------------------------------- #

class _ReferenceExtractor(ShapeExtractor):
    """The counting pass on decoded terms, entity by entity: what the
    extractor's grouped counts over interned postings are held to.
    Naming, ``sh:or`` selection and the hierarchy pass are shared."""

    def _shaped_classes(self, graph: Graph) -> list[tuple[str, list]]:
        config = self.config
        shaped = []
        for cls in sorted(graph.classes(), key=lambda c: c.value):
            instances = list(graph.instances_of(cls))
            if len(instances) < config.min_class_support:
                continue
            values = defaultdict(list)  # predicate -> values per entity using it
            for entity in instances:
                for predicate in graph.predicates_of(entity):
                    if predicate.value != RDF_TYPE:
                        values[predicate].append(list(graph.objects(entity, predicate)))
            shapes = []
            for predicate in sorted(values, key=lambda p: p.value):
                users = values[predicate]
                if len(users) / len(instances) < config.min_property_support:
                    continue
                kinds = Counter(kind for objects in users for value in objects
                                for kind in _reference_kinds(graph, value))
                value_types = self._select_value_types(kinds, sum(map(len, users)))
                if value_types:
                    shapes.append(PropertyShape(
                        path=predicate.value,
                        value_types=value_types,
                        min_count=1 if len(users) == len(instances) else 0,
                        max_count=UNBOUNDED if any(len(o) > 1 for o in users) else 1,
                    ))
            shaped.append((cls.value, shapes))
        return shaped


def _reference_kinds(graph: Graph, value) -> list[tuple[str, str]]:
    if isinstance(value, Literal):
        if value.language is not None:
            return [("literal", Literal.LANG_STRING)]
        return [("literal", value.datatype)]
    types = graph.types_of(value)
    return sorted(
        ("class", t.value) for t in types
        if not any(t in graph.superclasses(other) for other in types if other != t)
    )


def reference_extract_shapes(graph: Graph, config: ExtractionConfig | None = None):
    """What :func:`~repro.shapes.extractor.extract_shapes` must equal,
    counted the slow way on decoded terms."""
    return _ReferenceExtractor(config).extract(graph)


def extraction_equivalence(case: FuzzCase) -> str | None:
    """Extraction on interned ids equals the decoded reference under the
    default config and one drawn per case, on the case as generated and
    with its schema's ``extends`` edges added as ``rdfs:subClassOf``
    triples (the only way cases reach the most-specific-type rule and
    the hierarchy pass)."""
    pick = random.Random(case.seed ^ 0x05E)
    drawn = ExtractionConfig(pick.randint(0, 3), pick.choice((0.0, 0.1, 0.5, 1.0)),
                             pick.choice((0.0, 0.2, 0.3, 0.5)), pick.random() < 0.8)
    target = {shape.name: IRI(shape.target_class) for shape in case.schema}
    subclass = [Triple(target[shape.name], _SUBCLASS_OF, target[parent])
                for shape in case.schema for parent in shape.extends]
    for label, extra in (("", []), (" with rdfs:subClassOf", subclass)):
        graph = Graph(case.triples + extra)
        for config in (ExtractionConfig(), drawn):
            got = list(extract_shapes(graph, config))
            want = list(reference_extract_shapes(graph, config))
            if got != want:
                diff = next(((a.name, a.extends, a.property_shapes, b.extends,
                              b.property_shapes) for a, b in zip(got, want) if a != b),
                            (len(got), len(want)))
                return f"extracted schema != reference{label} under {config}: {diff}"
    return None


# --------------------------------------------------------------------- #
# Query preservation (Def. 3.2): SPARQL vs translated Cypher
# --------------------------------------------------------------------- #

_PROLOG = f"PREFIX : <{EX}> "
_MAX_QUERIES = 8


def _bound_constant_queries(case: FuzzCase) -> tuple[list[str], list[str]]:
    """Point lookups on a typed IRI subject sampled from the case's own
    triples: a bound subject, the same subject typed, and the subject
    bound through ``FILTER(?e = <s>)`` — the shapes both planners turn
    into index seeks.

    The second list repeats the lookups for a second subject (with the
    same predicate and class when the case has one, else an IRI the
    case does not contain).  Run after the first on the same engine, it
    executes the statement prepared and the plan cached for the first
    subject with another constant.
    """
    types: dict[IRI, IRI] = {}
    for t in case.triples:
        if t.p.value == RDF_TYPE and isinstance(t.s, IRI) and isinstance(t.o, IRI):
            types.setdefault(t.s, t.o)
    facts = [t for t in case.triples if t.p.value != RDF_TYPE and t.s in types]
    if not facts:
        return [], []
    rng = random.Random(case.seed)
    fact = rng.choice(facts)
    twins = sorted(
        {t.s for t in facts
         if t.p == fact.p and t.s != fact.s and types[t.s] == types[fact.s]},
        key=str,
    )
    second = rng.choice(twins) if twins else IRI(EX + "absent")
    p, cls = fact.p.n3(), types[fact.s].n3()
    return tuple(
        [
            f"SELECT ?o WHERE {{ {s} {p} ?o . }}",
            f"SELECT ?o WHERE {{ {s} a {cls} ; {p} ?o . }}",
            f"SELECT ?e ?o WHERE {{ ?e {p} ?o . FILTER(?e = {s}) }}",
        ]
        for s in (fact.s.n3(), second.n3())
    )


def _workload(case: FuzzCase) -> list[str]:
    """At most ``_MAX_QUERIES`` queries, then one DISTINCT projection per
    shape, then the first class scan under ORDER BY with LIMIT 1 and
    LIMIT 2, then the constant swaps: the bound-constant lookups keep
    their slots, the per-shape scans fill the rest."""
    bound, swapped = _bound_constant_queries(case)
    queries: list[str] = []
    distinct: list[str] = []
    schema = case.schema
    for shape in schema:
        cls = local_name(shape.target_class)
        queries.append(_PROLOG + f"SELECT ?e WHERE {{ ?e a :{cls} . }}")
        phis = schema.effective_property_shapes(shape.name)[:2]
        if phis:
            distinct.append(
                _PROLOG + f"SELECT DISTINCT ?v WHERE {{ ?e a :{cls} ; "
                f":{local_name(phis[0].path)} ?v . }}"
            )
        for phi in phis:
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
    # Two statements that differ only in LIMIT's value: one entry each.
    ordered = [q + f" ORDER BY ?e LIMIT {n}" for q in queries[:1] for n in (1, 2)]
    return queries[:_MAX_QUERIES - len(bound)] + distinct + ordered + bound + swapped


def _first_swap(case: FuzzCase, workload: list[str]) -> int:
    """Index of the first constant-swapped lookup in ``workload``."""
    return len(workload) - len(_bound_constant_queries(case)[1])


def sparql_cypher_differential(case: FuzzCase) -> str | None:
    graph = Graph(case.triples)
    result = transform(graph, case.schema)
    sparql_engine = SparqlEngine(graph)
    cypher_engine = CypherEngine(PropertyGraphStore(result.graph))
    engines = (sparql_engine, cypher_engine)
    workload = _workload(case)
    first_swap = _first_swap(case, workload)
    for index, sparql in enumerate(workload):
        try:
            cypher = translate_sparql_to_cypher(sparql, result.mapping)
        except TranslationError:
            continue
        hits = [engine.statements.cache.hits for engine in engines]
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
        if index >= first_swap and any(
            engine.statements.cache.hits == before
            for engine, before in zip(engines, hits)
        ):
            return f"constant-swapped lookup {sparql!r} missed a statement cache"
    return None


# --------------------------------------------------------------------- #
# Serializer round-trips
# --------------------------------------------------------------------- #

def graph_layout(graph: Graph) -> tuple:
    """Everything a bulk-built graph must share with the same statements
    added one by one: the term table, each index's key order and
    postings, the counters with their key order, the size and version."""
    terms, spo, pos, osp, p_count, p_subjects = graph._storage()
    return (
        [terms.term(i) for i in range(len(terms))],
        *(
            [(k1, [(k2, list(b)) for k2, b in inner.items()])
             for k1, inner in index.items()]
            for index in (spo, pos, osp)
        ),
        list(p_count.items()),
        list(p_subjects.items()),
        len(graph),
        graph.version,
    )


def reference_parse(lines: Iterable[str]) -> Graph:
    """The reference :func:`parse_ntriples` must reproduce on a document's
    lines: the grammar's line parser, then one ``Graph.add`` per
    statement."""
    graph = Graph()
    for lineno, line in enumerate(lines, start=1):
        triple = parse_line(line, lineno)
        if triple is not None:
            graph.add(triple)
    return graph


def _parse_differential(text: str) -> str | None:
    """``parse_ntriples(text)`` against :func:`reference_parse`: the same
    :func:`graph_layout`, or the same ``ParseError``."""
    def outcome(build: Callable[[], Graph]) -> tuple[str, object]:
        try:
            return "a graph", graph_layout(build())
        except ParseError as exc:
            return f"ParseError({exc})", (exc.line, exc.column)

    got = outcome(lambda: parse_ntriples(text))
    want = outcome(lambda: reference_parse(text.splitlines()))
    if got != want:
        return (
            f"parse_ntriples gave {got[0]}, parse_line + Graph.add gave "
            f"{want[0]} (differing in structure or error position)"
        )
    return None


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
    return _parse_differential(text) or _parse_differential(tight)


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
    except Exception as exc:  # noqa: BLE001 — the property under test
        return (
            f"parser crashed with {type(exc).__name__}: {exc} "
            f"({case.note})"
        )
    return _parse_differential(case.text)


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


def _divergence(
    reference, planned, query: str, to_text, swap: bool = False
) -> str | None:
    """How ``planned``'s answer bag differs from ``reference``'s, if it
    does; a constant-``swap``ped lookup must also hit its statement cache."""
    expected = _bag(reference.query(query), to_text)
    hits = planned.statements.cache.hits
    rows = _bag(planned.query(query), to_text)
    if rows != expected:
        return f"{len(rows)} vs {len(expected)} row(s)"
    if swap and planned.statements.cache.hits == hits:
        return "the constant-swapped lookup missed the statement cache"
    return None


def planner_differential(case: FuzzCase) -> str | None:
    """Planned execution is result-identical to the reference evaluators.

    Runs the case's query workload through both engines twice — the
    ``planner=False`` reference arm and the planned batch operators —
    and requires bag-equal results.  The workload's LIMITs come with an
    ORDER BY over distinct IRIs: LIMIT alone may truncate any subset of
    the answers, so differing-but-correct plans could legitimately
    disagree.  The constant-swapped lookups must hit the planned
    engines' statement caches.
    A deterministic hub-skewed sibling dataset derived from the case
    seed repeats the comparison where the planner's estimates are wrong.
    """
    graph = Graph(case.triples)
    workload = _workload(case)
    first_swap = _first_swap(case, workload)
    reference, planned = SparqlEngine(graph, planner=False), SparqlEngine(graph)
    for index, sparql in enumerate(workload):
        diff = _divergence(reference, planned, sparql, str, index >= first_swap)
        if diff:
            return f"planned SPARQL diverges from the reference for {sparql!r}: {diff}"
    for options in _BOTH_MODES:
        result = transform(graph, case.schema, options)
        store = PropertyGraphStore(result.graph)
        reference, planned = CypherEngine(store, planner=False), CypherEngine(store)
        for index, sparql in enumerate(workload):
            try:
                cypher = translate_sparql_to_cypher(sparql, result.mapping)
            except TranslationError:
                continue
            diff = _divergence(
                reference, planned, cypher, scalar_to_lexical, index >= first_swap
            )
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
    # Then a reference cycle c <-> d, entered from e through path p at c
    # and q at d, then the other way round, one edge per delta: where a
    # check enters a cycle decides the verdicts it reads, and so which
    # results a scoped recheck may keep.
    targets = case.schema.target_classes()
    paths: dict = {}
    for t in sorted(current, key=str):
        if t.p.value == RDF_TYPE and isinstance(t.o, IRI) and t.o.value in targets:
            paths.setdefault(t.s, []).extend(
                IRI(phi.path)
                for phi in case.schema.effective_property_shapes(targets[t.o.value])
                if not all(vt.is_literal() for vt in phi.value_types))
    nodes = [n for n in sorted(paths, key=str) if paths[n]]
    entries = [n for n in nodes if len(set(paths[n])) > 1]
    if entries and len(nodes) > 2:
        pick = random.Random(case.seed ^ 0xC1C1E)
        e = pick.choice(entries)
        c, d = pick.sample([n for n in nodes if n != e], 2)
        p, q = pick.sample(sorted(set(paths[e]), key=str), 2)
        ring = [Triple(c, pick.choice(paths[c]), d), Triple(d, pick.choice(paths[d]), c)]
        enter = [Triple(e, p, c), Triple(e, q, d)]
        for added, removed in [([t], []) for t in ring + enter] + [([], enter)] + [
                ([Triple(e, p, d)], []), ([Triple(e, q, c)], [])]:
            added = tuple(t for t in added if t not in current)
            removed = tuple(t for t in removed if t in current)
            current.update(added)
            current.difference_update(removed)
            if added or removed:
                seq += 1
                deltas.append(Delta(seq=seq, added=added, removed=removed))
    return base, deltas, current


def fresh_memo_snapshot(schema, graph: Graph,
                        max_violations: int = 10_000) -> dict[str, list[str]]:
    """What ``DeltaValidator.snapshot()`` must equal, computed the slow way.

    The entity check of Definition 2.3 on decoded terms, the reference the
    validators' interned-id checker is held to: every targeted entity is
    checked per shape with a fresh memo, so no verdict outlives the focus
    check that computed it, and no verdict table or affected set is
    involved.  A key still being checked reads as conforming, which breaks
    reference cycles.  At most ``max_violations`` violations are kept per
    (entity, shape), in declaration order.
    """
    shape_of_class: dict[str, str] = {}  # the first shape declared for it
    for shape in schema:
        if shape.target_class is not None:
            shape_of_class.setdefault(shape.target_class, shape.name)

    def check(entity, shape_name: str, report: list | None, memo: dict) -> bool:
        if (entity, shape_name) in memo:
            return memo[entity, shape_name]
        memo[entity, shape_name] = True
        failures = []
        for phi in schema.effective_property_shapes(shape_name):
            values = list(graph.objects(entity, IRI(phi.path)))
            if not phi.min_count <= len(values) <= phi.max_count:
                upper = "*" if phi.max_count == float("inf") else int(phi.max_count)
                failures.append((phi.path, f"cardinality {len(values)} outside "
                                           f"[{phi.min_count}, {upper}]"))
            expected = str([str(v) for v in phi.value_types])
            failures.extend(
                (phi.path, f"value {value.n3()} matches none of {expected}")
                for value in values
                if not any(matches(value, vt, memo) for vt in phi.value_types))
        if report is not None:
            report.extend(Violation(str(entity), shape_name, path, message)
                          for path, message in failures)
        memo[entity, shape_name] = not failures
        return not failures

    def matches(value, vt, memo: dict) -> bool:
        if isinstance(vt, LiteralType):
            return isinstance(value, Literal) and value.datatype == vt.datatype
        if not isinstance(value, IRI):
            return False
        if isinstance(vt, ClassType):
            nested = shape_of_class.get(vt.cls)
            return graph.is_instance_of(value, IRI(vt.cls)) and (
                nested is None or check(value, nested, None, memo))
        return vt.shape in schema and check(value, vt.shape, None, memo)

    targets = schema.target_classes()
    snapshot: dict[str, list[str]] = {}
    for cls in targets:
        for entity in graph.instances_of(IRI(cls)):
            lines: list[str] = []
            for shape_name in sorted(
                {targets[t.value] for t in graph.types_of(entity)
                 if t.value in targets}
            ):
                report: list = []
                check(entity, shape_name, report, {})
                lines.extend(str(v) for v in report[:max_violations])
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
            "extraction_equivalence", _RDF_KINDS, extraction_equivalence,
            "QSE extraction counted on interned ids equals the decoded "
            "reference, with and without rdfs:subClassOf",
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
