"""Fingerprint-stability fuzz oracle for both query languages.

Property under test: statement fingerprints depend only on query
*structure*.  For randomized queries the oracle checks two claims:

* a query and its literal-renamed twin (same shape, fresh constants)
  share a fingerprint;
* structurally different queries (different predicates / labels /
  pattern counts) get different fingerprints.
"""

from __future__ import annotations

import random

import pytest

from repro import obs

SEED = 1337
ROUNDS = 40

_PREDICATES = [
    "http://example.org/v#name", "http://example.org/v#age",
    "http://example.org/v#worksFor", "http://example.org/v#advisedBy",
    "http://example.org/v#takesCourse", "http://example.org/v#title",
]
_LABELS = ["Person", "Student", "Professor", "Department", "Course"]
_RELS = ["knows", "worksFor", "advisedBy", "takesCourse"]


def _literal(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return f'"s{rng.randrange(10_000)}"'
    if kind == 1:
        return str(rng.randrange(10_000))
    return f"<http://example.org/e/{rng.randrange(10_000)}>"


def _sparql_query(rng: random.Random, shape: random.Random) -> str:
    """Random query; ``shape`` draws structure, ``rng`` draws constants."""
    n_patterns = shape.randrange(1, 4)
    predicates = [shape.choice(_PREDICATES) for _ in range(n_patterns)]
    patterns = []
    for i, predicate in enumerate(predicates):
        obj = f"?o{i}" if shape.random() < 0.5 else _literal(rng)
        patterns.append(f"?s <{predicate}> {obj} .")
    body = " ".join(patterns)
    query = f"SELECT ?s WHERE {{ {body} }}"
    if shape.random() < 0.3:
        query += f" LIMIT {shape.randrange(1, 50)}"
    return query


def _cypher_query(rng: random.Random, shape: random.Random) -> str:
    label = shape.choice(_LABELS)
    rel = shape.choice(_RELS)
    prop = shape.choice(["name", "age", "title"])
    value = _cypher_literal(rng, shape)
    if shape.random() < 0.5:
        return (
            f"MATCH (a:{label} {{{prop}: {value}}})-[:{rel}]->(b) "
            f"RETURN b.{prop} AS out"
        )
    return (
        f"MATCH (a:{label}) WHERE a.{prop} = {value} "
        f"RETURN a.{prop} AS out LIMIT {shape.randrange(1, 20)}"
    )


def _cypher_literal(rng: random.Random, shape: random.Random) -> str:
    if shape.random() < 0.5:
        return f"'v{rng.randrange(10_000)}'"
    return str(rng.randrange(10_000))


def _twins(builder, structure_seed: int):
    """Two queries with the same structure but independent constants."""
    shape_a = random.Random(structure_seed)
    shape_b = random.Random(structure_seed)
    rng_a = random.Random(structure_seed * 31 + 1)
    rng_b = random.Random(structure_seed * 31 + 2)
    return builder(rng_a, shape_a), builder(rng_b, shape_b)


@pytest.mark.parametrize("lang,builder", [
    ("sparql", _sparql_query),
    ("cypher", _cypher_query),
])
def test_literal_renamed_twins_share_fingerprints(lang, builder):
    for round_no in range(ROUNDS):
        query_a, query_b = _twins(builder, SEED + round_no)
        fp_a, canon_a = obs.fingerprint_query(lang, query_a)
        fp_b, canon_b = obs.fingerprint_query(lang, query_b)
        assert fp_a == fp_b, (query_a, query_b)
        assert canon_a == canon_b, (query_a, query_b)


@pytest.mark.parametrize("lang,builder", [
    ("sparql", _sparql_query),
    ("cypher", _cypher_query),
])
def test_distinct_structures_get_distinct_fingerprints(lang, builder):
    """Across the fuzzed space, canonical text and fingerprint agree:
    same canonical text <=> same fingerprint (no collisions observed)."""
    by_canonical: dict[str, str] = {}
    by_fingerprint: dict[str, str] = {}
    for round_no in range(ROUNDS):
        rng = random.Random(SEED * 7 + round_no)
        shape = random.Random(SEED * 13 + round_no)
        query = builder(rng, shape)
        fp, canonical = obs.fingerprint_query(lang, query)
        if canonical in by_canonical:
            assert by_canonical[canonical] == fp
        else:
            by_canonical[canonical] = fp
        if fp in by_fingerprint:
            assert by_fingerprint[fp] == canonical, "fingerprint collision"
        else:
            by_fingerprint[fp] = canonical
    assert len(by_canonical) > 1  # the generator actually varies structure
