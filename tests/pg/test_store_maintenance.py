"""Incremental index/statistics maintenance of :class:`PropertyGraphStore`.

Every mutating method must leave the store indistinguishable from a
freshly indexed store over the same graph — the planner's statistics
catalog depends on it.  The tests compare mutated stores against
``rebuild_indexes()`` snapshots, both for scripted edits and for a
seeded random mutation workload, and check that the SPARQL statistics
counters of :class:`~repro.rdf.graph.Graph` stay exact as well.
"""

from __future__ import annotations

import random

import pytest

from repro.pg.model import PropertyGraph
from repro.pg.store import PropertyGraphStore
from repro.query.plan import GraphCatalog, StoreCatalog
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Triple


def _index_snapshot(store: PropertyGraphStore):
    """Order-insensitive view of every index and statistic.

    Uses the public ``catalog_snapshot`` so the comparison is independent
    of the store's internal dictionary encoding (interned ids depend on
    mutation history; the decoded snapshot must not).
    """
    return store.catalog_snapshot()


def _assert_fresh(store: PropertyGraphStore):
    """The incrementally maintained indexes match a from-scratch build."""
    fresh = PropertyGraphStore(store.graph, store.indexed_keys)
    assert _index_snapshot(store) == _index_snapshot(fresh)
    assert store.catalog_discrepancies() == []


def _sample_store() -> PropertyGraphStore:
    store = PropertyGraphStore()
    a = store.add_node("a", ["Person"], {"iri": "ex:a", "name": "ada"})
    b = store.add_node("b", ["Person", "Student"], {"iri": "ex:b"})
    c = store.add_node("c", ["Dept"], {"iri": "ex:c"})
    store.add_edge(a.id, b.id, ["knows"], edge_id="e1")
    store.add_edge(b.id, c.id, ["memberOf"], edge_id="e2")
    store.add_edge(a.id, c.id, ["memberOf"], edge_id="e3")
    store.add_edge(a.id, a.id, ["knows"], edge_id="loop")
    return store


def test_remove_edge_matches_rebuild():
    store = _sample_store()
    store.remove_edge("e2")
    store.remove_edge("loop")
    _assert_fresh(store)
    assert store.rel_type_count("memberOf") == 1
    assert store.rel_type_count("knows") == 1


def test_remove_node_drops_incident_edges():
    store = _sample_store()
    store.remove_node("a")  # takes e1, e3 and the self-loop with it
    _assert_fresh(store)
    assert store.node_count() == 2
    assert store.edge_count() == 1
    assert store.rel_type_count("knows") == 0
    assert list(store.nodes_by_property("iri", "ex:a")) == []


def test_property_mutation_moves_index_bucket():
    store = _sample_store()
    store.set_node_property("a", "iri", "ex:a2")
    _assert_fresh(store)
    assert store.property_hits("iri", "ex:a") == 0
    assert store.property_hits("iri", "ex:a2") == 1
    # Non-scalar values leave the index (list-valued property).
    store.set_node_property("a", "iri", ["x", "y"])
    _assert_fresh(store)
    assert store.property_hits("iri", "ex:a2") == 0


def test_add_label_updates_label_index():
    store = _sample_store()
    store.add_label("c", "Organisation")
    _assert_fresh(store)
    assert {n.id for n in store.nodes_with_label("Organisation")} == {"c"}


def test_mutations_bump_version():
    store = _sample_store()
    seen = {store.version}
    store.add_node("x", ["Person"], {"iri": "ex:x"})
    seen.add(store.version)
    store.add_edge("x", "c", ["memberOf"], edge_id="e9")
    seen.add(store.version)
    store.set_node_property("x", "iri", "ex:x2")
    seen.add(store.version)
    store.remove_edge("e9")
    seen.add(store.version)
    store.remove_node("x")
    seen.add(store.version)
    assert len(seen) == 6  # strictly monotone: each mutation invalidates plans


def test_random_mutation_workload_stays_fresh():
    rng = random.Random(2024)
    store = PropertyGraphStore()
    node_ids: list[str] = []
    edge_ids: list[str] = []
    labels = ["Person", "Student", "Dept", "Course"]
    rels = ["knows", "memberOf", "takes"]
    for step in range(400):
        action = rng.random()
        if action < 0.35 or len(node_ids) < 2:
            node = store.add_node(
                f"n{step}", [rng.choice(labels)], {"iri": f"ex:{step}"}
            )
            node_ids.append(node.id)
        elif action < 0.65:
            edge = store.add_edge(
                rng.choice(node_ids), rng.choice(node_ids),
                [rng.choice(rels)], edge_id=f"e{step}",
            )
            edge_ids.append(edge.id)
        elif action < 0.75 and edge_ids:
            store.remove_edge(edge_ids.pop(rng.randrange(len(edge_ids))))
        elif action < 0.85 and node_ids:
            victim = node_ids.pop(rng.randrange(len(node_ids)))
            store.remove_node(victim)
            edge_ids = [e for e in edge_ids if e in store.graph.edges]
        elif node_ids:
            store.set_node_property(
                rng.choice(node_ids), "iri", f"ex:moved-{step}"
            )
    _assert_fresh(store)


# --------------------------------------------------------------------- #
# Statistics catalogs stay exact under mutation
# --------------------------------------------------------------------- #

def test_store_catalog_tracks_mutations():
    store = _sample_store()
    catalog = StoreCatalog(store)
    assert catalog.node_count() == 3
    assert catalog.edge_count() == 4
    version = catalog.version
    store.remove_node("a")
    assert catalog.version != version  # plan cache key changes
    assert catalog.node_count() == 2
    assert catalog.edge_count() == 1


def test_graph_statistics_match_recount():
    ex = "http://example.org/"
    rng = random.Random(7)
    graph = Graph()
    predicates = [IRI(f"{ex}p{i}") for i in range(4)]
    subjects = [IRI(f"{ex}s{i}") for i in range(6)]
    triples = []
    for _ in range(200):
        t = Triple(
            rng.choice(subjects), rng.choice(predicates),
            rng.choice(subjects + [Literal(str(rng.randrange(5)))]),
        )
        graph.add(t)
        triples.append(t)
    rng.shuffle(triples)
    for t in triples[:120]:
        graph.remove(t)
    for p in predicates:
        expected = {t for t in graph if t.p == p}
        assert graph.predicate_count(p) == len(expected)
        assert graph.predicate_distinct_subjects(p) == len(
            {t.s for t in expected}
        )
        assert graph.predicate_distinct_objects(p) == len(
            {t.o for t in expected}
        )


def test_randomized_counter_workload_matches_recount():
    """Counters survive duplicate adds, re-adds after remove, and
    ``update`` overlap: after a randomized workload every maintained
    statistic equals a full recount of the surviving triples."""
    ex = "http://example.org/"
    rng = random.Random(20240731)
    graph = Graph()
    predicates = [IRI(f"{ex}p{i}") for i in range(5)]
    subjects = [IRI(f"{ex}s{i}") for i in range(8)]
    objects = subjects + [Literal(str(i)) for i in range(6)]
    pool = [
        Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        for _ in range(150)
    ]
    for step in range(1200):
        action = rng.random()
        t = rng.choice(pool)
        if action < 0.45:
            graph.add(t)
        elif action < 0.55:
            graph.add(t)
            graph.add(t)  # duplicate add must not bump anything twice
        elif action < 0.8:
            graph.remove(t)
        elif action < 0.9:
            graph.remove(t)
            graph.add(t)  # re-add after remove restores exactly one count
        else:
            # Bulk update with overlap: some triples already present.
            graph.update(rng.sample(pool, rng.randrange(1, 10)))

    live = list(graph)
    assert len(graph) == len(set(live)) == len(live)
    by_p: dict[IRI, set[Triple]] = {}
    for t in live:
        by_p.setdefault(t.p, set()).add(t)
    for p in predicates:
        expected = by_p.get(p, set())
        assert graph.predicate_count(p) == len(expected)
        assert graph.predicate_distinct_subjects(p) == len({t.s for t in expected})
        assert graph.predicate_distinct_objects(p) == len({t.o for t in expected})
    assert graph.n_subjects() == len({t.s for t in live})
    assert graph.n_predicates() == len({t.p for t in live})
    assert graph.n_objects() == len({t.o for t in live})


def test_store_counters_survive_duplicate_and_readd_cycles():
    """Rel-type/label counters under re-adds, removes, and duplicate adds."""
    store = _sample_store()
    # Re-add after remove: counter returns to exactly its old value.
    store.remove_edge("e1")
    store.add_edge("a", "b", ["knows"], edge_id="e1")
    assert store.rel_type_count("knows") == 2
    # Duplicate label adds are idempotent in the index.
    store.add_label("a", "Person")
    store.add_label("a", "Person")
    assert sum(1 for n in store.nodes_with_label("Person") if n.id == "a") == 1
    _assert_fresh(store)


def test_graph_catalog_estimates_follow_mutations():
    ex = "http://example.org/"
    graph = Graph()
    p = IRI(f"{ex}p")
    for i in range(10):
        graph.add(Triple(IRI(f"{ex}s{i % 2}"), p, Literal(str(i))))
    catalog = GraphCatalog(graph)
    version = catalog.version
    from repro.query.sparql.ast import TriplePattern, Var

    pattern = TriplePattern(Var("s"), p, Var("o"))
    assert catalog.estimate_pattern(pattern, set()) == 10.0
    graph.remove(Triple(IRI(f"{ex}s0"), p, Literal("0")))
    assert catalog.version != version
    assert catalog.estimate_pattern(pattern, set()) == 9.0
    # Bound subject: triples-per-distinct-subject uniformity estimate.
    assert catalog.estimate_pattern(pattern, {"s"}) == pytest.approx(9 / 2)
