"""Property-based differential and round-trip fuzzing harness.

Deterministic, seed-driven checking of the paper's universally
quantified guarantees: generators (:mod:`repro.fuzz.generators`) produce
random schemas, instance graphs, property graphs, and adversarial
documents; oracles (:mod:`repro.fuzz.oracles`) assert round-trip
identity, validation equivalence, SPARQL-vs-Cypher differential
agreement, serializer round-trips, CDC equivalence, and parser
robustness; the runner (:mod:`repro.fuzz.runner`) shrinks failures with
delta debugging (:mod:`repro.fuzz.shrinker`) and persists reproducers to
a corpus replayed by the test suite.
"""

from .generators import CASE_KINDS, FuzzCase, generate_case
from .oracles import (
    ORACLES,
    Oracle,
    fresh_memo_snapshot,
    graph_layout,
    reference_extract_shapes,
    reference_parse,
)
from .runner import (
    FuzzReport,
    OracleFailure,
    load_reproducer,
    replay_corpus,
    run_fuzz,
    write_reproducer,
)
from .shrinker import shrink_case, shrink_items

__all__ = [
    "CASE_KINDS",
    "FuzzCase",
    "FuzzReport",
    "ORACLES",
    "Oracle",
    "OracleFailure",
    "fresh_memo_snapshot",
    "generate_case",
    "graph_layout",
    "load_reproducer",
    "reference_extract_shapes",
    "reference_parse",
    "replay_corpus",
    "run_fuzz",
    "shrink_case",
    "shrink_items",
    "write_reproducer",
]
