"""Tests for incremental (monotone) maintenance (Definition 3.4)."""

import pytest

from repro.core import (
    DEFAULT_OPTIONS,
    IncrementalTransformer,
    MONOTONE_OPTIONS,
    S3PG,
    apply_delta,
)
from repro.datasets import make_evolution_pair
from repro.fuzz.generators import generate_case
from repro.fuzz.oracles import _cdc_history
from repro.pg import PropertyGraphStore
from repro.rdf import Graph, parse_turtle
from repro.shacl import parse_shacl

SHAPES = parse_shacl("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :friend ; sh:nodeKind sh:IRI ; sh:class :Person ;
                sh:minCount 0 ] ;
  sh:property [ sh:path :note ;
     sh:or ( [ sh:datatype xsd:string ] [ sh:datatype xsd:integer ] ) ;
     sh:minCount 0 ] .
""")

PREFIX = "@prefix : <http://x/> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"

BASE = PREFIX + """
:a a :Person ; :name "A" ; :friend :b ; :note "n1" .
:b a :Person ; :name "B" .
"""


def full_transform(graph: Graph):
    return S3PG(MONOTONE_OPTIONS).transform(graph, SHAPES)


class TestAdditions:
    def test_added_entity_appears(self):
        result = full_transform(parse_turtle(BASE))
        delta = parse_turtle(PREFIX + ':c a :Person ; :name "C" .')
        stats = apply_delta(result.transformed, added=delta)
        assert result.graph.get_node("http://x/c").labels == {"Person"}
        assert stats.added_triples == 2

    def test_added_edge_appears(self):
        result = full_transform(parse_turtle(BASE))
        delta = parse_turtle(PREFIX + ":b :friend :a .")
        apply_delta(result.transformed, added=delta)
        assert "http://x/b|friend|http://x/a" in result.graph.edges

    def test_duplicate_addition_is_idempotent(self):
        result = full_transform(parse_turtle(BASE))
        before = result.graph.canonical_form()
        apply_delta(result.transformed, added=parse_turtle(BASE))
        assert result.graph.canonical_form() == before

    def test_addition_matches_full_transform(self):
        base = parse_turtle(BASE)
        delta = parse_turtle(PREFIX + """
        :c a :Person ; :name "C" ; :friend :a ; :note 5 .
        """)
        incremental = full_transform(base)
        apply_delta(incremental.transformed, added=delta)
        from_scratch = full_transform(base | delta)
        assert incremental.graph.structurally_equal(from_scratch.graph)

    def test_new_type_on_existing_resource_upgrades_it(self):
        result = full_transform(parse_turtle(PREFIX + ':a a :Person ; :name "A" ; :friend :c .'))
        assert result.graph.get_node("http://x/c").labels == {"Resource"}
        apply_delta(result.transformed, added=parse_turtle(PREFIX + ':c a :Person .'))
        assert result.graph.get_node("http://x/c").labels == {"Person"}


class TestDeletions:
    def test_removed_edge_disappears(self):
        result = full_transform(parse_turtle(BASE))
        apply_delta(result.transformed,
                    removed=parse_turtle(PREFIX + ":a :friend :b ."))
        assert "http://x/a|friend|http://x/b" not in result.graph.edges

    def test_removed_literal_value_gcs_orphan_node(self):
        result = full_transform(parse_turtle(BASE))
        n_before = result.graph.node_count()
        apply_delta(result.transformed,
                    removed=parse_turtle(PREFIX + ':a :note "n1" .'))
        assert result.graph.node_count() == n_before - 1

    def test_shared_literal_node_survives_partial_removal(self):
        base = parse_turtle(BASE + ':b :note "n1" .')
        result = full_transform(base)
        apply_delta(result.transformed,
                    removed=parse_turtle(PREFIX + ':a :note "n1" .'))
        # :b still references the "n1" literal node.
        assert any(
            n.properties.get("value") == "n1" for n in result.graph.nodes.values()
        )

    def test_deletion_matches_full_transform(self):
        base = parse_turtle(BASE)
        removed = parse_turtle(PREFIX + ':a :note "n1" .')
        incremental = full_transform(base)
        apply_delta(incremental.transformed, removed=removed)
        from_scratch = full_transform(base - removed)
        assert incremental.graph.structurally_equal(from_scratch.graph)

    def test_removing_type_label(self):
        result = full_transform(parse_turtle(BASE))
        apply_delta(result.transformed,
                    removed=parse_turtle(PREFIX + ":a a :Person ."))
        assert "Person" not in result.graph.get_node("http://x/a").labels

    def test_removing_unknown_triple_is_noop(self):
        result = full_transform(parse_turtle(BASE))
        before = result.graph.canonical_form()
        apply_delta(result.transformed,
                    removed=parse_turtle(PREFIX + ':zz :note "gone" .'))
        assert result.graph.canonical_form() == before


class TestMonotonicityProperty:
    def test_definition_3_4_on_synthetic_snapshots(self, small_dbpedia):
        pair = make_evolution_pair(small_dbpedia.graph, seed=5)
        assert pair.check_invariants()
        from repro.shapes import extract_shapes

        shapes = extract_shapes(pair.new | pair.old)
        s3pg = S3PG(MONOTONE_OPTIONS)
        old_result = s3pg.transform(pair.old, shapes)
        new_result = s3pg.transform(pair.new, shapes)
        apply_delta(old_result.transformed, added=pair.added, removed=pair.removed)
        assert old_result.graph.structurally_equal(new_result.graph)

    def test_union_decomposition(self):
        """F(G1 ∪ Δ) == F(G1) ∪ F(Δ) for disjoint additions."""
        g1 = parse_turtle(BASE)
        delta = parse_turtle(PREFIX + ':c a :Person ; :name "C" .')
        left = full_transform(g1 | delta)
        right = full_transform(g1)
        apply_delta(right.transformed, added=delta)
        assert left.graph.structurally_equal(right.graph)

    def test_incremental_transformer_reusable(self):
        result = full_transform(parse_turtle(BASE))
        inc = IncrementalTransformer(result.transformed)
        inc.apply_additions(parse_turtle(PREFIX + ':c a :Person ; :name "C" .'))
        inc.apply_additions(parse_turtle(PREFIX + ":c :friend :a ."))
        assert "http://x/c|friend|http://x/a" in result.graph.edges


class TestRemoveReAddRoundTrip:
    """Deletion followed by re-addition must land exactly where a
    from-scratch transform of the final graph lands (no resurrected
    stale state, no lost labels)."""

    def _roundtrip(self, fragment: str):
        base = parse_turtle(BASE)
        delta = parse_turtle(PREFIX + fragment)
        incremental = full_transform(base)
        apply_delta(incremental.transformed, removed=delta)
        apply_delta(incremental.transformed, added=delta)
        from_scratch = full_transform(base)
        assert incremental.graph.structurally_equal(from_scratch.graph)

    def test_literal_value_roundtrip(self):
        self._roundtrip(':a :note "n1" .')

    def test_name_property_roundtrip(self):
        self._roundtrip(':a :name "A" .')

    def test_type_roundtrip(self):
        self._roundtrip(":a a :Person .")

    def test_edge_roundtrip(self):
        self._roundtrip(":a :friend :b .")

    def test_detyped_node_keeps_resource_label(self):
        result = full_transform(parse_turtle(BASE))
        apply_delta(result.transformed,
                    removed=parse_turtle(PREFIX + ":b a :Person ."))
        # :b is still referenced by :a's friend edge, so it must remain
        # as an untyped Resource (what a from-scratch transform yields).
        node = result.graph.get_node("http://x/b")
        assert node.labels == {"Resource"}

    def test_edge_removal_gcs_orphaned_subject(self):
        graph = parse_turtle(PREFIX + ':a a :Person ; :name "A" ; :friend :b .')
        result = full_transform(graph)
        removed = parse_turtle(
            PREFIX + ':a a :Person . :a :name "A" . :a :friend :b .'
        )
        apply_delta(result.transformed, removed=removed)
        from_scratch = full_transform(graph - removed)
        assert result.graph.structurally_equal(from_scratch.graph)

    def test_multivalued_note_demotes_to_scalar(self):
        base = parse_turtle(BASE + ':a :note "n2" .')
        result = full_transform(base)
        removed = parse_turtle(PREFIX + ':a :note "n2" .')
        apply_delta(result.transformed, removed=removed)
        from_scratch = full_transform(base - removed)
        assert result.graph.structurally_equal(from_scratch.graph)


class TestStoreRouting:
    """A store passed to the transformer stays index- and
    statistics-consistent (regression: deltas used to bypass the store,
    leaving the planner catalogs and version counter stale)."""

    def _store_pair(self):
        from repro.pg import PropertyGraphStore

        result = full_transform(parse_turtle(BASE))
        store = PropertyGraphStore(result.graph)
        return result, store

    def test_store_version_advances_per_delta(self):
        result, store = self._store_pair()
        before = store.version
        apply_delta(result.transformed,
                    added=parse_turtle(PREFIX + ':c a :Person ; :name "C" .'),
                    store=store)
        assert store.version > before

    def test_catalogs_track_additions(self):
        result, store = self._store_pair()
        apply_delta(result.transformed,
                    added=parse_turtle(PREFIX + ':c a :Person ; :name "C" ; :friend :a .'),
                    store=store)
        assert store.catalog_discrepancies() == []
        assert store.rel_type_count("friend") == 2

    def test_catalogs_track_removals(self):
        result, store = self._store_pair()
        apply_delta(result.transformed,
                    removed=parse_turtle(PREFIX + ':a :friend :b . :a :note "n1" .'),
                    store=store)
        assert store.catalog_discrepancies() == []
        assert store.rel_type_count("friend") == 0

    def test_store_must_wrap_the_transformed_graph(self):
        from repro.errors import TransformError
        from repro.pg import PropertyGraphStore

        result = full_transform(parse_turtle(BASE))
        foreign = PropertyGraphStore()
        with pytest.raises(TransformError):
            IncrementalTransformer(result.transformed, store=foreign)


class TestLiteralSchemeIRIs:
    """An IRI under the ``lit:`` scheme names an entity, not a literal
    node: whether a node is a literal node is decided by its record."""

    BASE = PREFIX + "<lit:x> a :Person ; :friend :b . :b a :Person ."

    def _retract(self, fragment: str):
        base = parse_turtle(self.BASE)
        removed = parse_turtle(PREFIX + fragment)
        result = full_transform(base)
        apply_delta(result.transformed, removed=removed)
        assert result.graph.structurally_equal(full_transform(base - removed).graph)
        return result.graph.get_node("lit:x")

    def test_typed_node_survives_losing_its_only_edge(self):
        assert self._retract("<lit:x> :friend :b .").labels == {"Person"}

    def test_detyped_node_falls_back_to_resource_label(self):
        assert self._retract("<lit:x> a :Person .").labels == {"Resource"}


#: Fuzz cases with a schema and triples (the valid / mutated / noise kinds).
RDF_CASES = [
    case
    for case in (generate_case(seed, index) for seed in (0, 1) for index in range(10))
    if case.schema is not None
]


class TestOneMutationSurface:
    """The same delta history streamed through a bare graph and through a
    store lands on the same graph, the from-scratch transform, and fresh
    store catalogs: the two sinks take identical mutations."""

    @pytest.mark.parametrize(
        "options", [DEFAULT_OPTIONS, MONOTONE_OPTIONS], ids=["pars", "monotone"]
    )
    @pytest.mark.parametrize(
        "case", RDF_CASES, ids=lambda case: f"{case.kind}-{case.seed}"
    )
    def test_graph_and_store_sinks_agree(self, case, options):
        base, deltas, final = _cdc_history(case)
        bare = S3PG(options).transform(Graph(base), case.schema)
        stored = S3PG(options).transform(Graph(base), case.schema)
        store = PropertyGraphStore(stored.graph)
        transformers = (
            IncrementalTransformer(bare.transformed),
            IncrementalTransformer(stored.transformed, store=store),
        )
        tracked = Graph(base)
        for delta in deltas:
            removed = [t for t in delta.removed if tracked.remove(t)]
            added = [t for t in delta.added if tracked.add(t)]
            for incremental in transformers:
                incremental.apply_deletions(removed)
                incremental.apply_additions(added)
        scratch = S3PG(options).transform(Graph(final), case.schema)
        assert bare.graph.structurally_equal(stored.graph)
        assert bare.graph.structurally_equal(scratch.graph)
        assert store.catalog_discrepancies() == []


class TestProbeAdditions:
    def test_probe_accepts_known_triples(self):
        result = full_transform(parse_turtle(BASE))
        inc = IncrementalTransformer(result.transformed)
        inc.probe_additions(parse_turtle(PREFIX + ':c a :Person ; :name "C" .'))

    def test_probe_rejects_unknown_under_error_mode(self):
        from repro.core import TransformOptions
        from repro.errors import TransformError

        options = TransformOptions(parsimonious=False, on_unknown="error")
        result = S3PG(options).transform(parse_turtle(BASE), SHAPES)
        inc = IncrementalTransformer(result.transformed)
        with pytest.raises(TransformError):
            inc.probe_additions(parse_turtle(PREFIX + ":a :mystery :b ."))

    def test_probe_does_not_mutate(self):
        result = full_transform(parse_turtle(BASE))
        inc = IncrementalTransformer(result.transformed)
        before = result.graph.canonical_form()
        inc.probe_additions(parse_turtle(PREFIX + ':c a :Person ; :name "C" .'))
        assert result.graph.canonical_form() == before
