"""Delta-scoped revalidation: standing report == full revalidation.

The reference every snapshot is held to is ``fresh_memo_snapshot``: each
focus node checked from scratch, no table, no affected set.
"""

from repro.cdc import CDCConfig, CDCPipeline, Delta, replay_deltas
from repro.core import S3PG
from repro.fuzz import fresh_memo_snapshot
from repro.pg import PropertyGraphStore
from repro.rdf import IRI, parse_turtle
from repro.rdf.ntriples import parse_line
from repro.shacl import DeltaValidator, ShaclValidator, parse_shacl
from repro.shacl.validator import validate

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
BASE = PREFIX + """
:a a :Person ; :name "A" ; :friend :b .
:b a :Person ; :name "B" .
:c a :Person ; :name "C" .
"""


def t(line: str):
    return parse_line(line)


def apply(graph, validator, added=(), removed=()):
    """Mutate the tracked graph, then inform the validator."""
    for triple in removed:
        graph.remove(triple)
    for triple in added:
        graph.add(triple)
    return validator.apply_delta(added=added, removed=removed)


class TestStandingReport:
    def test_initially_matches_full_validation(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        full = validate(graph, SHAPES)
        assert validator.conforms == full.conforms is True
        assert validator.focus_count == full.checked_entities == 3

    def test_violation_appears_and_clears(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        name_b = t('<http://x/b> <http://x/name> "B" .')
        apply(graph, validator, removed=(name_b,))
        assert not validator.conforms
        assert validator.conforms == validate(graph, SHAPES).conforms
        apply(graph, validator, added=(name_b,))
        assert validator.conforms

    def test_report_equals_fresh_rebuild_after_delta_sequence(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        history = [
            ((t("<http://x/d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> ."),), ()),
            ((t("<http://x/c> <http://x/friend> <http://x/d> ."),), ()),
            ((), (t('<http://x/a> <http://x/name> "A" .'),)),
            ((t('<http://x/d> <http://x/name> "D" .'),), ()),
        ]
        for added, removed in history:
            apply(graph, validator, added=added, removed=removed)
            assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
            assert validator.conforms == validate(graph, SHAPES).conforms

    def test_untyped_entity_leaves_the_report(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        apply(graph, validator, removed=(
            t("<http://x/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> ."),
        ))
        assert validator.focus_count == 2
        assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)


class TestDeltaScoping:
    def test_sparse_delta_rechecks_strictly_fewer_nodes(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        checked = apply(graph, validator, removed=(
            t('<http://x/c> <http://x/name> "C" .'),
        ))
        # Only :c is affected — nobody references it.
        assert checked == 1
        assert checked < validator.focus_count

    def test_referencing_entities_are_rechecked(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        # De-typing :b invalidates :a's sh:class check on :friend.
        checked = apply(graph, validator, removed=(
            t("<http://x/b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> ."),
        ))
        assert checked == 1  # :a (the referrer); :b leaves the report
        assert validator.focus_count == 2
        assert not validator.conforms
        assert validator.conforms == validate(graph, SHAPES).conforms

    def test_literal_change_fans_out_to_referrers(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        # A second name breaks :b's maxCount — and, because sh:class
        # validates nested conformance, :a's :friend check with it.
        checked = apply(graph, validator, added=(
            t('<http://x/b> <http://x/name> "B2" .'),
        ))
        assert checked == 2  # :b and its referrer :a
        assert not validator.conforms
        assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)

    def test_subclass_delta_triggers_full_rebuild(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        checked = apply(graph, validator, added=(
            t("<http://x/Admin> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/Person> ."),
        ))
        assert checked == validator.focus_count  # everything rechecked

    def test_recheck_counters_accumulate(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        initial = validator.total_rechecked
        assert initial == 3  # the constructor's full build
        apply(graph, validator, added=(
            t('<http://x/c> <http://x/name> "C2" .'),
        ))
        assert validator.last_rechecked == 1
        assert validator.total_rechecked == initial + 1

    def test_literal_delta_on_unreferenced_entity_is_one_entity_check(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        before = validator.entity_checks
        apply(graph, validator, added=(t('<http://x/c> <http://x/name> "C2" .'),))
        assert validator.entity_checks == before + 1

    def test_nested_verdicts_are_read_from_the_table(self):
        # :a -> :b; a literal delta on :a rechecks :a alone and reads
        # :b's verdict instead of recomputing it.
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        before = validator.entity_checks
        apply(graph, validator, added=(t('<http://x/a> <http://x/name> "A2" .'),))
        assert validator.entity_checks == before + 1
        assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)

    def test_affected_set_equals_one_probe_per_reference_path(self):
        # The loop _affected_entities replaced: graph.subjects(path, node)
        # once per reference path per node.
        graph = parse_turtle(ring("r", FRIEND_RING) + ring("s", FRIEND_RING[:2])
                             + PREFIX + ":x :knows :r_a . :y :friend :x .")
        validator = DeltaValidator(SHAPES, graph)
        delta = (t('<http://x/r_c> <http://x/name> "C2" .'),
                 t('<http://x/x> <http://x/name> "X" .'))
        expected = {triple.s for triple in delta}
        frontier = list(expected)
        while frontier:
            node = frontier.pop()
            for path in validator._reference_paths:
                for referrer in graph.subjects(path, node):
                    if referrer not in expected:
                        expected.add(referrer)
                        frontier.append(referrer)
        _, affected = validator._affected_entities(delta, ())
        assert {graph._terms.term(i) for i in affected} == expected
        assert {str(e).rsplit("/", 1)[1] for e in expected} == {
            "r_a", "r_b", "r_c", "x", "y"}


# --------------------------------------------------------------------- #
# Reference cycles.  Which stale verdict a recheck could read depends on
# the order the affected set is walked, so every scenario is built as
# COPIES disjoint copies and a wrong table has to be lucky in all of them.
# --------------------------------------------------------------------- #

COPIES = 8
TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
#: a -> b -> c -> a, and :a lacks its mandatory name, so the verdicts
#: around the ring differ with the node the check starts from.
FRIEND_RING = (("a", "b"), ("b", "c"), ("c", "a"))


def ring(copy: str, edges, untyped=()) -> str:
    lines = [PREFIX]
    for node in "abc":
        if node not in untyped:
            lines.append(f":{copy}_{node} a :Person .")
        if node != "a":
            lines.append(f':{copy}_{node} :name "{node}" .')
    lines += [f":{copy}_{s} :friend :{copy}_{o} ." for s, o in edges]
    return "\n".join(lines) + "\n"


def rings(edges, untyped=()):
    return parse_turtle("".join(
        ring(f"r{i}", edges, untyped) for i in range(COPIES)))


def friend(copy: str, s: str, o: str):
    return t(f"<http://x/{copy}_{s}> <http://x/friend> <http://x/{copy}_{o}> .")


def violating(validator) -> set[str]:
    return {e.rsplit("/", 1)[1] for e, v in validator.snapshot().items() if v}


class TestReferenceCycles:
    def test_delta_closes_a_cycle_by_adding_an_edge(self):
        graph = rings(FRIEND_RING[:2])
        validator = DeltaValidator(SHAPES, graph)
        assert violating(validator) == {f"r{i}_a" for i in range(COPIES)}
        for i in range(COPIES):
            # Every node of the closed ring is affected, none may be read
            # from the table as it stood before the edge.
            assert apply(graph, validator, added=(friend(f"r{i}", "c", "a"),)) == 3
            assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
        assert violating(validator) == {
            f"r{i}_{n}" for i in range(COPIES) for n in "abc"}

    def test_delta_closes_a_cycle_by_typing_a_node(self):
        # The edges are all there; :c is not a :Person, so :b's sh:class
        # check stops at it.  Typing :c makes the check recurse through
        # the existing :c -> :a edge and the ring closes.
        graph = rings(FRIEND_RING, untyped="c")
        validator = DeltaValidator(SHAPES, graph)
        for i in range(COPIES):
            apply(graph, validator, added=(
                t(f"<http://x/r{i}_c> {TYPE} <http://x/Person> ."),))
            assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
        assert validator.focus_count == 3 * COPIES

    def test_delta_opens_a_cycle_by_removing_an_edge(self):
        graph = rings(FRIEND_RING)
        validator = DeltaValidator(SHAPES, graph)
        assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
        for i in range(COPIES):
            apply(graph, validator, removed=(friend(f"r{i}", "c", "a"),))
            assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
        # A chain again: only :a (no name) fails, and nobody refers to it.
        assert violating(validator) == {f"r{i}_a" for i in range(COPIES)}

    def test_batch_that_closes_several_cycles_at_once(self):
        graph = rings(FRIEND_RING[:2])
        validator = DeltaValidator(SHAPES, graph)
        apply(graph, validator, added=tuple(
            friend(f"r{i}", "c", "a") for i in range(COPIES)))
        assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)


def name(copy: str, node: str, value: str):
    return t(f'<http://x/{copy}_{node}> <http://x/name> "{value}" .')


def typed(copy: str, node: str):
    return t(f"<http://x/{copy}_{node}> {TYPE} <http://x/Person> .")


#: Person -> Address through sh:node, and Address -> Address.
ADDRESS_SHAPES = parse_shacl("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :home ; sh:nodeKind sh:IRI ; sh:node shapes:Address ;
                sh:minCount 0 ] .
shapes:Address a sh:NodeShape ; sh:targetClass :Address ;
  sh:property [ sh:path :street ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :next ; sh:nodeKind sh:IRI ; sh:node shapes:Address ;
                sh:minCount 0 ] .
""")


SUBCLASS_OF = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"

#: A :Doc's author must be an :Agent; :Person is one by subclassing.
AGENT_SHAPES = parse_shacl("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] .
shapes:Doc a sh:NodeShape ; sh:targetClass :Doc ;
  sh:property [ sh:path :author ; sh:nodeKind sh:IRI ; sh:class :Agent ;
                sh:minCount 1 ] .
""")


class TestFlipPropagation:
    """A change reaches a referrer only through a verdict or a type that
    changed, and every scenario the induction cannot cover falls back to
    rechecking the whole affected set."""

    def test_unflipped_literal_delta_rechecks_the_node_alone(self):
        graph = rings(FRIEND_RING[:2])  # a -> b -> c; :a has no name
        validator = DeltaValidator(SHAPES, graph)
        for i in range(COPIES):
            # Renamed, :b still conforms: its referrer :a is not rechecked.
            copy = f"r{i}"
            assert apply(graph, validator, added=(name(copy, "b", "b2"),),
                         removed=(name(copy, "b", "b"),)) == 1
            assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
        assert validator.fallbacks == 0

    def test_flip_rechecks_referrers_until_a_verdict_stands(self):
        graph = parse_turtle("".join(
            ring(f"r{i}", FRIEND_RING[:2])
            + f':r{i}_x a :Person ; :name "x" ; :friend :r{i}_a .\n'
            for i in range(COPIES)))
        validator = DeltaValidator(SHAPES, graph)
        assert violating(validator) == {
            f"r{i}_{n}" for i in range(COPIES) for n in "xa"}
        for i in range(COPIES):
            # :c and through it :b flip; :a failed already (no name), so
            # :x, which refers to :a, is not rechecked.
            assert apply(graph, validator, removed=(name(f"r{i}", "c", "c"),)) == 3
            assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
        assert validator.fallbacks == 0
        assert violating(validator) == {
            f"r{i}_{n}" for i in range(COPIES) for n in "xabc"}

    def test_type_change_reaches_the_referrer_without_a_row_change(self):
        graph = rings(FRIEND_RING[1:2])  # b -> c
        validator = DeltaValidator(SHAPES, graph)
        for i in range(COPIES):
            # :c keeps its name, so its Person verdict stays true, but
            # :b's sh:class test on it fails now.  :c leaves the report.
            assert apply(graph, validator, removed=(typed(f"r{i}", "c"),)) == 1
            assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
        assert validator.fallbacks == 0
        assert violating(validator) == {
            f"r{i}_{n}" for i in range(COPIES) for n in "ab"}

    def test_cycle_closed_through_an_unflipped_verdict_falls_back(self):
        graph = rings(FRIEND_RING[1:])  # b -> c -> a; :a has no name
        validator = DeltaValidator(SHAPES, graph)
        assert violating(validator) == {
            f"r{i}_{n}" for i in range(COPIES) for n in "abc"}
        for i in range(COPIES):
            # :a -> :b closes the ring.  No verdict flips, but checked
            # from :a the ring now reads :a as in progress and :b passes:
            # a recheck of :a that read :b's row would report :b.
            assert apply(graph, validator, added=(friend(f"r{i}", "a", "b"),)) == 3
            assert validator.fallbacks == i + 1
            assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)

    def test_tainted_entry_in_the_affected_set_falls_back(self):
        # :p -> :u -> :y <-> :z.  Only :p is targeted; the ring lies
        # outside any delta's affected set, so :p's entry is tainted and
        # :u, whose verdict is tainted too, has no row that could flip.
        graph = parse_turtle("".join(PREFIX + f"""
            :{c}_p a :Person ; :home :{c}_u .
            :{c}_u :street "u" ; :next :{c}_y .
            :{c}_y :street "y" ; :next :{c}_z .
            :{c}_z :street "z" ; :next :{c}_y .
            """ for c in (f"r{i}" for i in range(COPIES))))
        validator = DeltaValidator(ADDRESS_SHAPES, graph)
        assert validator.conforms
        for i in range(COPIES):
            street = t(f'<http://x/r{i}_u> <http://x/street> "u" .')
            assert apply(graph, validator, removed=(street,)) == 1
            assert validator.fallbacks == i + 1
            assert validator.snapshot() == fresh_memo_snapshot(ADDRESS_SHAPES, graph)
        assert violating(validator) == {f"r{i}_p" for i in range(COPIES)}

    def test_merged_batch_of_eight_deltas(self):
        graph = rings(FRIEND_RING[:2])  # a -> b -> c; :a has no name
        result = S3PG().transform(graph, SHAPES)
        validator = DeltaValidator(SHAPES, graph)
        pipeline = CDCPipeline(
            result.transformed, graph, store=PropertyGraphStore(result.graph),
            validator=validator,
            config=CDCConfig(max_batch_size=8, max_linger_s=0.0))
        d = t(f"<http://x/r7_d> {TYPE} <http://x/Person> .")
        batch = [  # one delta per copy, then rechecks of that copy
            ((name("r0", "b", "b2"),), (name("r0", "b", "b"),)),   # b
            ((), (name("r1", "c", "c"),)),                         # c b a
            ((), (typed("r2", "c"),)),                             # b a
            ((name("r3", "a", "a"),), ()),                         # a
            ((), (friend("r4", "a", "b"),)),                       # a
            ((), (name("r5", "b", "b"),)),                         # b a
            ((name("r6", "c", "c2"),), ()),                        # c b a
            ((d, name("r7", "d", "d"), friend("r7", "d", "a")), ()),  # d
        ]
        stats = replay_deltas(pipeline, [
            Delta(seq, added=added, removed=removed)
            for seq, (added, removed) in enumerate(batch, 1)])
        assert stats.batches == 1 and stats.deltas_applied == 8
        assert stats.focus_rechecked == validator.last_rechecked == 14
        assert validator.fallbacks == 0
        assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)
        # A second batch closes a ring in every copy but the first.
        stats = replay_deltas(pipeline, [
            Delta(8 + i, added=(friend(f"r{i}", "c", "a"),)) for i in range(1, COPIES)])
        assert stats.batches == 2 and validator.fallbacks == 1
        assert validator.snapshot() == fresh_memo_snapshot(SHAPES, graph)

    def test_retype_inside_a_tested_class_rechecks_no_referrer(self):
        # :p is an :Agent through rdfs:subClassOf, so :d's sh:class :Agent
        # test on it passes whether or not :p is typed :Agent directly.
        graph = parse_turtle(PREFIX + f":Person {SUBCLASS_OF} :Agent .\n" + "".join(
            f':r{i}_p a :Person ; :name "p" .\n'
            f":r{i}_d a :Doc ; :author :r{i}_p .\n"
            f":r{i}_e a :Doc ; :author :r{i}_q .\n"
            for i in range(COPIES)))
        validator = DeltaValidator(AGENT_SHAPES, graph)
        assert violating(validator) == {f"r{i}_e" for i in range(COPIES)}
        for i in range(COPIES):
            agent = t(f"<http://x/r{i}_p> {TYPE} <http://x/Agent> .")
            assert apply(graph, validator, added=(agent,)) == 1  # :p alone
            assert apply(graph, validator, removed=(agent,)) == 1
            # Typing the untyped :q :Agent flips :e's test: :e is rechecked.
            agent = t(f"<http://x/r{i}_q> {TYPE} <http://x/Agent> .")
            assert apply(graph, validator, added=(agent,)) == 1  # :e alone
            assert validator.snapshot() == fresh_memo_snapshot(AGENT_SHAPES, graph)
        assert validator.fallbacks == 0
        assert validator.conforms


NODE_REF_SHAPES = parse_shacl("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :home ; sh:nodeKind sh:IRI ; sh:node shapes:Address ;
                sh:minCount 0 ] .
shapes:Address a sh:NodeShape ; sh:targetClass :Address ;
  sh:property [ sh:path :street ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] .
""")


class TestUntargetedReferencedEntity:
    def test_row_of_an_entity_no_shape_targets_is_invalidated(self):
        # :h has no rdf:type: no shape targets it, it is never a focus
        # node, yet its (entity, shape) verdict is read through sh:node.
        graph = parse_turtle(PREFIX + """
        :p a :Person ; :home :h .
        :q a :Person ; :home :h .
        :h :street "Main St" .
        """)
        validator = DeltaValidator(NODE_REF_SHAPES, graph)
        assert validator.conforms and validator.focus_count == 2
        street = t('<http://x/h> <http://x/street> "Main St" .')
        assert apply(graph, validator, removed=(street,)) == 2
        assert violating(validator) == {"p", "q"}
        assert validator.snapshot() == fresh_memo_snapshot(NODE_REF_SHAPES, graph)
        apply(graph, validator, added=(street,))
        assert validator.conforms and validator.focus_count == 2


# --------------------------------------------------------------------- #
# Interned-id edge cases and the per-plan scope of a recheck.
# --------------------------------------------------------------------- #

SH_PREFIXES = """
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
"""

PET_SHAPES = parse_shacl(SH_PREFIXES + """
shapes:Owner a sh:NodeShape ; sh:targetClass :Owner ;
  sh:property [ sh:path :pet ; sh:nodeKind sh:IRI ; sh:class :Dog ;
                sh:minCount 0 ] ;
  sh:property [ sh:path :nick ; sh:datatype xsd:string ; sh:minCount 1 ] .
shapes:Dog a sh:NodeShape ; sh:targetClass :Dog ;
  sh:property [ sh:path :tag ; sh:datatype xsd:string ; sh:minCount 1 ] .
""")

#: Two reference paths into a ring :w <-> :x where only :w has a name.
#: Checked from :w the ring fails (:x has no name); entered at :x first,
#: :w reads :x as in progress and passes.
TWO_PATH_SHAPES = parse_shacl(SH_PREFIXES + """
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :left ; sh:nodeKind sh:IRI ; sh:class :Person ;
                sh:minCount 0 ] ;
  sh:property [ sh:path :right ; sh:nodeKind sh:IRI ; sh:class :Person ;
                sh:minCount 0 ] .
""")

CAP_SHAPES = parse_shacl(SH_PREFIXES + """
shapes:Item a sh:NodeShape ; sh:targetClass :Item ;
  sh:property [ sh:path :size ; sh:datatype xsd:integer ; sh:minCount 0 ] ;
  sh:property [ sh:path :label ; sh:datatype xsd:string ; sh:minCount 1 ] .
""")

ADMIN_SHAPES = parse_shacl(SH_PREFIXES + """
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ; sh:minCount 1 ] .
shapes:Admin a sh:NodeShape ; sh:targetClass :Admin ;
  sh:property [ sh:path :level ; sh:datatype xsd:integer ; sh:minCount 1 ] .
""")


def held_to_reference(validator, schema, graph, **cap):
    assert validator.snapshot() == fresh_memo_snapshot(schema, graph, **cap)
    assert validator.conforms == validate(graph, schema).conforms


class TestInternedIds:
    def test_class_interned_by_a_delta_reaches_the_referrers_class_check(self):
        # :Dog, :tag and every Dog-typed entity are unknown to the graph's
        # interner when the validator resolves Owner's sh:class.
        graph = parse_turtle(PREFIX + ':o a :Owner ; :nick "O" ; :pet :d .')
        validator = DeltaValidator(PET_SHAPES, graph)
        assert violating(validator) == {"o"}
        apply(graph, validator, added=(
            t(f"<http://x/d> {TYPE} <http://x/Dog> ."),
            t('<http://x/d> <http://x/tag> "D" .'),
        ))
        held_to_reference(validator, PET_SHAPES, graph)
        assert validator.conforms and validator.focus_count == 2

    def test_path_interned_by_a_delta_is_read(self):
        graph = parse_turtle(PREFIX + ":o a :Owner .")
        validator = DeltaValidator(PET_SHAPES, graph)
        assert violating(validator) == {"o"}
        apply(graph, validator, added=(t('<http://x/o> <http://x/nick> "O" .'),))
        held_to_reference(validator, PET_SHAPES, graph)
        assert validator.conforms

    def test_clear_then_rebuild(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        triples = sorted(graph, key=str, reverse=True)
        graph.clear()
        validator.rebuild()
        assert validator.focus_count == 0 and validator.conforms
        # Re-added in another order, so every term gets a new id.
        name_a = t('<http://x/a> <http://x/name> "A" .')
        graph.update(triple for triple in triples if triple != name_a)
        validator.rebuild()
        held_to_reference(validator, SHAPES, graph)
        assert violating(validator) == {"a"}

    def test_delta_after_clear_rebuilds(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        triples = list(graph)
        graph.clear()
        for triple in reversed(triples):
            graph.add(triple)
        name = t('<http://x/c> <http://x/name> "C2" .')
        assert apply(graph, validator, added=(name,)) == 3
        held_to_reference(validator, SHAPES, graph)

    def test_entity_conforms_on_an_absent_entity(self):
        graph = parse_turtle(BASE)
        nobody = IRI("http://x/nobody")
        # Person needs a name; Person in NODE_REF_SHAPES has no minimum.
        assert not ShaclValidator(SHAPES).entity_conforms(
            graph, nobody, "http://x/shapes#Person")
        assert ShaclValidator(NODE_REF_SHAPES).entity_conforms(
            graph, nobody, "http://x/shapes#Person")
        # Interned (it was an object) but never a subject: the same.
        graph.add(t("<http://x/a> <http://x/friend> <http://x/nobody> ."))
        assert not ShaclValidator(SHAPES).entity_conforms(
            graph, nobody, "http://x/shapes#Person")


class TestScopedRecheck:
    def test_retyping_changes_the_shape_set(self):
        graph = parse_turtle(PREFIX + ':a a :Person ; :name "A" .')
        validator = DeltaValidator(ADMIN_SHAPES, graph)
        admin = t(f"<http://x/a> {TYPE} <http://x/Admin> .")
        apply(graph, validator, added=(admin,))
        held_to_reference(validator, ADMIN_SHAPES, graph)
        assert violating(validator) == {"a"}
        apply(graph, validator, added=(
            t('<http://x/a> <http://x/level> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .'),))
        apply(graph, validator, removed=(
            t(f"<http://x/a> {TYPE} <http://x/Person> ."),
            t('<http://x/a> <http://x/name> "A" .')))
        held_to_reference(validator, ADMIN_SHAPES, graph)
        assert validator.conforms

    def test_referrer_rechecks_its_reference_path(self):
        # The delta is on :b alone; :a's :friend plan has to be re-read
        # through the reverse path, its :name plan does not.
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        apply(graph, validator, removed=(t('<http://x/b> <http://x/name> "B" .'),))
        held_to_reference(validator, SHAPES, graph)
        assert violating(validator) == {"a", "b"}

    def test_tainted_scoped_recheck_falls_back_to_a_whole_recheck(self):
        graph = parse_turtle(PREFIX + """
        :e a :Person ; :name "e" ; :left :y .
        :y a :Person ; :name "y" .
        :w a :Person ; :name "w" ; :left :x .
        :x a :Person ; :left :w .
        """)
        validator = DeltaValidator(TWO_PATH_SHAPES, graph)
        # Only :right is touched on :e, and checking it enters the ring:
        # the scoped check is tainted, so :e is rechecked whole and its
        # entry stays marked tainted.
        apply(graph, validator, added=(t("<http://x/e> <http://x/right> <http://x/w> ."),))
        held_to_reference(validator, TWO_PATH_SHAPES, graph)
        assert validator._entries[graph._terms.lookup(IRI("http://x/e"))].tainted
        # Now :left enters the ring at :x first, which makes :w pass: a
        # :right result kept from the scoped check above would be stale.
        apply(graph, validator, added=(t("<http://x/e> <http://x/left> <http://x/x> ."),))
        held_to_reference(validator, TWO_PATH_SHAPES, graph)
        (line,) = validator.snapshot()["http://x/e"]
        assert "on http://x/left" in line

    def test_violation_cap_applies_per_focus_and_shape(self):
        integer = "<http://www.w3.org/2001/XMLSchema#integer>"
        size_a = t('<http://x/i> <http://x/size> "a" .')
        size_b = t('<http://x/i> <http://x/size> "b" .')
        label = t('<http://x/i> <http://x/label> "I" .')
        graph = parse_turtle(PREFIX + ':i a :Item ; :size "a" , "b" .')
        validator = DeltaValidator(CAP_SHAPES, graph, max_violations=2)

        def lines():
            held_to_reference(validator, CAP_SHAPES, graph, max_violations=2)
            return validator.snapshot()["http://x/i"]

        assert len(lines()) == 2  # of three: the cap cuts the last one
        # Each delta below is scoped to one plan; the cap still applies to
        # the shape's violations as a whole, in declaration order.
        apply(graph, validator, added=(label,))
        assert all("on http://x/size" in line for line in lines())
        apply(graph, validator, added=(t(f'<http://x/i> <http://x/size> "3"^^{integer} .'),))
        assert len(lines()) == 2
        apply(graph, validator, removed=(label,))
        assert len(lines()) == 2
        apply(graph, validator, removed=(size_a, size_b))
        (line,) = lines()
        assert "on http://x/label" in line
