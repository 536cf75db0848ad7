"""Seed-driven random generators for the property-based fuzzing harness.

Everything here is a deterministic function of a :class:`random.Random`
instance, so a (seed, case index) pair always reproduces the same case.
Three families of cases are generated:

* **RDF cases** — a random SHACL shape schema covering every Figure 3
  constraint category plus a random instance graph: *valid* (conforms to
  the schema), *mutated* (one controlled violation injected), or *noisy*
  (off-schema predicates and classes, untyped subjects, blank nodes,
  non-``http`` IRIs — exercising the fallback rules).
* **Property-graph cases** — a random PG with adversarial property
  values (empty arrays, empty strings, number-looking strings, the CSV
  escape characters) for serializer round-trips.
* **Text cases** — a valid N-Triples document with one syntax-level
  mutation (out-of-range escapes, truncation, garbage) for parser
  robustness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..namespaces import RDF_TYPE, XSD
from ..pg.model import PropertyGraph
from ..rdf.ntriples import serialize_ntriples
from ..rdf.terms import IRI, BlankNode, Literal, Object, Subject, Triple
from ..shacl.model import (
    UNBOUNDED,
    ClassType,
    LiteralType,
    NodeShape,
    NodeShapeRef,
    PropertyShape,
    ShapeSchema,
    ValueType,
)

EX = "http://example.org/"
SHAPES_NS = "http://example.org/shapes#"

_TYPE = IRI(RDF_TYPE)

#: Datatypes the schema generator draws from; all are handled natively
#: by the transformation's value encoding.
DATATYPES = (XSD.string, XSD.integer, XSD.boolean, XSD.date, XSD.gYear)

#: Characters mixed into generated string literals — quotes, escapes,
#: CSV separators, non-ASCII, and the full set of ``str.splitlines``
#: boundaries (U+000B U+000C U+001C U+001D U+001E U+0085 U+2028 U+2029)
#: plus other C0 controls, to stress every serializer's escaping.  Lone
#: surrogates are deliberately absent: serializers replace them with
#: U+FFFD (they are unescapable in N-Triples), which breaks round-trip
#: *equality* without being a bug.
_EVIL_CHARS = (
    '";\\\t|,\'{}<>é世\U0001f600'
    "\x00\x07\x0b\x0c\x1b\x1c\x1d\x1e\x7f\x85\u2028\u2029"
)


@dataclass
class FuzzCase:
    """One generated input for the oracles.

    Exactly one of the three payload groups is populated, according to
    ``kind``:

    * ``"valid"`` / ``"mutated"`` / ``"noise"`` — ``schema`` + ``triples``;
    * ``"pg"`` — ``pg``;
    * ``"text"`` — ``text``.
    """

    kind: str
    seed: int
    schema: ShapeSchema | None = None
    triples: list[Triple] = field(default_factory=list)
    pg: PropertyGraph | None = None
    text: str | None = None
    #: Human-readable note on what was mutated (mutated/text kinds).
    note: str = ""

    def with_triples(self, triples: list[Triple]) -> "FuzzCase":
        """A copy of this case over a reduced triple list (shrinking)."""
        return FuzzCase(
            kind=self.kind,
            seed=self.seed,
            schema=self.schema,
            triples=list(triples),
            pg=self.pg,
            text=self.text,
            note=self.note,
        )


#: The case kinds, in rotation order.
CASE_KINDS = ("valid", "mutated", "noise", "pg", "text")


def generate_case(seed: int, index: int) -> FuzzCase:
    """Generate the ``index``-th case of a fuzzing run with base ``seed``."""
    rng = random.Random(f"{seed}:{index}")
    kind = CASE_KINDS[index % len(CASE_KINDS)]
    case_seed = rng.getrandbits(32)
    rng = random.Random(case_seed)
    if kind == "pg":
        return FuzzCase(kind=kind, seed=case_seed, pg=generate_property_graph(rng))
    if kind == "text":
        text, note = generate_evil_ntriples(rng)
        return FuzzCase(kind=kind, seed=case_seed, text=text, note=note)
    schema = generate_schema(rng)
    triples = generate_instance(rng, schema)
    note = ""
    if kind == "mutated":
        triples, note = mutate_instance(rng, schema, triples)
    elif kind == "noise":
        triples = triples + generate_noise(rng, len(triples))
    return FuzzCase(
        kind=kind, seed=case_seed, schema=schema, triples=triples, note=note
    )


# --------------------------------------------------------------------- #
# Schema generation (Figure 3 taxonomy coverage)
# --------------------------------------------------------------------- #

#: The five Figure 3 property-shape categories.
TAXONOMY = (
    "single_literal",
    "single_non_literal",
    "multi_homo_literal",
    "multi_homo_non_literal",
    "multi_hetero",
)


def generate_schema(rng: random.Random) -> ShapeSchema:
    """A random shape schema: 1-4 shapes, 1-4 property shapes each.

    Every Figure 3 category is reachable; with enough property shapes in
    one schema all five appear (the first five property shapes cycle
    through the taxonomy before sampling freely).
    """
    n_shapes = rng.randint(1, 4)
    classes = [f"{EX}C{i}" for i in range(n_shapes)]
    schema = ShapeSchema()
    predicate_counter = 0
    category_cursor = 0
    for i, cls in enumerate(classes):
        extends: tuple[str, ...] = ()
        if i > 0 and rng.random() < 0.2:
            extends = (f"{SHAPES_NS}Shape{rng.randrange(i)}",)
        property_shapes = []
        for _ in range(rng.randint(1, 4)):
            if category_cursor < len(TAXONOMY):
                category = TAXONOMY[category_cursor]
                category_cursor += 1
            else:
                category = rng.choice(TAXONOMY)
            path = f"{EX}p{predicate_counter}"
            predicate_counter += 1
            property_shapes.append(
                _property_shape(rng, path, category, classes, i)
            )
        schema.add(
            NodeShape(
                name=f"{SHAPES_NS}Shape{i}",
                target_class=cls,
                extends=extends,
                property_shapes=tuple(property_shapes),
            )
        )
    return schema


def _property_shape(
    rng: random.Random,
    path: str,
    category: str,
    classes: list[str],
    owner_index: int,
) -> PropertyShape:
    min_count = rng.choice((0, 0, 1))
    # "single"/"multi" follows Figure 3: the number of *type alternatives*
    # in T_p (sh:or), not the cardinality bound, which is orthogonal.
    if category == "single_literal":
        value_types: tuple[ValueType, ...] = (
            LiteralType(rng.choice(DATATYPES)),
        )
        max_count: float = rng.choice((1, 1, UNBOUNDED, 3))
    elif category == "single_non_literal":
        value_types = (_non_literal(rng, classes),)
        max_count = rng.choice((1, 1, UNBOUNDED))
    elif category == "multi_homo_literal":
        first, second = rng.sample(DATATYPES, 2)
        value_types = (LiteralType(first), LiteralType(second))
        max_count = rng.choice((UNBOUNDED, UNBOUNDED, 3))
    elif category == "multi_homo_non_literal":
        a = _non_literal(rng, classes)
        b = _non_literal(rng, classes)
        while b == a:
            b = _non_literal(rng, classes)
        value_types = (a, b)
        max_count = UNBOUNDED
    else:  # multi_hetero
        value_types = (
            LiteralType(rng.choice(DATATYPES)),
            _non_literal(rng, classes),
        )
        max_count = UNBOUNDED
    return PropertyShape(
        path=path,
        value_types=value_types,
        min_count=min_count,
        max_count=max_count,
    )


def _non_literal(rng: random.Random, classes: list[str]) -> ValueType:
    cls = rng.choice(classes)
    if rng.random() < 0.3:
        index = classes.index(cls)
        return NodeShapeRef(f"{SHAPES_NS}Shape{index}")
    return ClassType(cls)


# --------------------------------------------------------------------- #
# Instance generation
# --------------------------------------------------------------------- #

def generate_instance(rng: random.Random, schema: ShapeSchema) -> list[Triple]:
    """A valid instance graph: every generated entity conforms."""
    entities: dict[str, list[IRI]] = {}
    triples: list[Triple] = []
    shapes = list(schema)
    for shape in shapes:
        cls = shape.target_class
        assert cls is not None
        count = rng.randint(1, 3)
        entities[cls] = [
            IRI(f"{EX}e_{_local(cls)}_{i}") for i in range(count)
        ]
        # A subclass instance also carries its ancestors' type triples
        # (a GradStudent *is a* Student): the node needs every inherited
        # label for the intersection node type it must conform to.
        type_classes = [cls] + [
            schema[parent].target_class
            for parent in schema.ancestors(shape.name)
            if schema[parent].target_class is not None
        ]
        for entity in entities[cls]:
            for type_class in type_classes:
                triples.append(Triple(entity, _TYPE, IRI(type_class)))
    for shape in shapes:
        cls = shape.target_class
        assert cls is not None
        for entity in entities[cls]:
            for phi in schema.effective_property_shapes(shape.name):
                limit = 3 if phi.max_count == UNBOUNDED else int(phi.max_count)
                n_values = rng.randint(phi.min_count, min(limit, 3))
                for _ in range(n_values):
                    value = _value_for(rng, phi, entities, entity)
                    triples.append(Triple(entity, IRI(phi.path), value))
    return triples


def _value_for(
    rng: random.Random,
    phi: PropertyShape,
    entities: dict[str, list[IRI]],
    subject: IRI,
) -> Object:
    vt = rng.choice(phi.value_types)
    if isinstance(vt, LiteralType):
        return _literal_for(rng, vt.datatype)
    if isinstance(vt, ClassType):
        cls = vt.cls
    else:  # NodeShapeRef: Shape{i} targets C{i} by construction.
        cls = f"{EX}C{vt.shape.rsplit('Shape', 1)[1]}"
    pool = entities.get(cls, [])
    if not pool:
        return subject
    # Occasionally point at the subject itself when it qualifies,
    # producing the self-loops the undirected-match oracle needs.
    if subject in pool and rng.random() < 0.3:
        return subject
    return rng.choice(pool)


def _literal_for(rng: random.Random, datatype: str) -> Literal:
    if datatype == XSD.integer:
        # Canonical lexicals only: non-canonical forms ("+7", "-0") are
        # deliberately stored string-typed by the value encoder, which
        # the strict conformance checker reports against typed keys —
        # they are exercised through noise cases instead.
        return Literal(str(rng.randint(-99, 999)), datatype)
    if datatype == XSD.boolean:
        return Literal(rng.choice(("true", "false")), datatype)
    if datatype == XSD.date:
        return Literal(
            f"{rng.randint(1900, 2100):04d}-{rng.randint(1, 12):02d}"
            f"-{rng.randint(1, 28):02d}",
            datatype,
        )
    if datatype == XSD.gYear:
        return Literal(str(rng.randint(1000, 2100)), datatype)
    return Literal(random_string(rng), XSD.string)


def random_string(rng: random.Random, max_len: int = 12) -> str:
    """A short string salted with serializer-hostile characters."""
    alphabet = "abcXYZ 019" + _EVIL_CHARS
    return "".join(
        rng.choice(alphabet) for _ in range(rng.randint(0, max_len))
    )


def _local(iri: str) -> str:
    return iri.rsplit("/", 1)[-1].rsplit("#", 1)[-1]


# --------------------------------------------------------------------- #
# Violation injection (mutated cases)
# --------------------------------------------------------------------- #

def mutate_instance(
    rng: random.Random, schema: ShapeSchema, triples: list[Triple]
) -> tuple[list[Triple], str]:
    """Inject one violation whose effect maps cleanly to both sides.

    Three mutation classes are used because each has a provable PG-side
    counterpart: dropping a mandatory value (missing key / minCount),
    duplicating a single-valued literal (array vs scalar / maxCount), and
    retyping a mandatory single literal (missing key + fallback edge /
    datatype).
    """
    mutations = []
    for shape in schema:
        for phi in schema.effective_property_shapes(shape.name):
            single_literal = (
                phi.max_count == 1
                and len(phi.value_types) == 1
                and isinstance(phi.value_types[0], LiteralType)
            )
            if phi.min_count >= 1:
                mutations.append(("drop", shape, phi))
            if single_literal:
                mutations.append(("dup", shape, phi))
                if phi.min_count >= 1:
                    mutations.append(("retype", shape, phi))
    if not mutations:
        return triples, "no mutation applicable"
    op, shape, phi = rng.choice(mutations)
    path = IRI(phi.path)
    cls = IRI(shape.target_class)
    subjects = sorted(
        {t.s for t in triples if t.p == _TYPE and t.o == cls},
        key=str,
    )
    if not subjects:
        return triples, "no mutation applicable"
    victim = rng.choice(subjects)
    if op == "drop":
        mutated = [
            t for t in triples
            if not (t.s == victim and t.p == path)
        ]
        return mutated, f"drop values of {phi.path} on {victim}"
    existing = [
        t for t in triples if t.s == victim and t.p == path
    ]
    datatype = phi.value_types[0].datatype
    if op == "dup":
        extra = _literal_for(rng, datatype)
        if existing and extra == existing[0].o:
            extra = Literal(extra.lexical + "x", datatype)
        mutated = triples + [Triple(victim, path, extra)]
        if not existing:
            mutated.append(Triple(victim, path, _literal_for(rng, datatype)))
        return mutated, f"duplicate single-valued {phi.path} on {victim}"
    # retype: replace the value with one of a different datatype.
    other = rng.choice([d for d in DATATYPES if d != datatype])
    mutated = [
        t for t in triples
        if not (t.s == victim and t.p == path)
    ]
    mutated.append(Triple(victim, path, _literal_for(rng, other)))
    return mutated, f"retype {phi.path} on {victim} to {other}"


# --------------------------------------------------------------------- #
# Noise (fallback-path coverage)
# --------------------------------------------------------------------- #

#: Non-``http`` schemes a noise batch sometimes mints its IRIs under:
#: ``lit:`` is the prefix of literal node ids, ``urn:`` a scheme with no
#: authority, so the PG node-id encoding has to keep entities and values
#: apart.
_NOISE_SCHEMES = ("lit:", "urn:x-noise:")


def generate_noise(rng: random.Random, offset: int) -> list[Triple]:
    """Off-schema triples: unknown predicates and classes, untyped
    subjects, blank nodes, non-``http`` IRIs, language tags, exotic
    datatypes — the ``on_unknown="fallback"`` territory that information
    preservation still covers."""
    triples: list[Triple] = []
    base = rng.choice((EX, EX) + _NOISE_SCHEMES)
    for i in range(rng.randint(1, 6)):
        subject: Subject = (
            BlankNode(f"n{offset + i}")
            if rng.random() < 0.3
            else IRI(f"{base}x{offset + i}")
        )
        if rng.random() < 0.3:
            triples.append(Triple(subject, _TYPE, IRI(f"{EX}Noise")))
        predicate = IRI(f"{EX}q{rng.randint(0, 3)}")
        roll = rng.random()
        obj: Object
        if roll < 0.25:
            obj = BlankNode(f"m{rng.randint(0, 4)}")
        elif roll < 0.5:
            obj = IRI(f"{base}y{rng.randint(0, 4)}")
        elif roll < 0.7:
            obj = Literal(random_string(rng), language=rng.choice(("en", "de")))
        elif roll < 0.8:
            obj = Literal(str(rng.randint(0, 9)), f"{EX}customType")
        elif roll < 0.9:
            # Non-canonical numeric lexicals (kept string-typed in the PG).
            obj = Literal(rng.choice(("+7", "007", "-0")), XSD.integer)
        else:
            obj = Literal(random_string(rng))
        triples.append(Triple(subject, predicate, obj))
    return triples


# --------------------------------------------------------------------- #
# Property-graph generation (serializer stress)
# --------------------------------------------------------------------- #

def generate_property_graph(rng: random.Random) -> PropertyGraph:
    """A random PG whose property values stress the CSV/YARS-PG codecs."""
    pg = PropertyGraph()
    n_nodes = rng.randint(1, 6)
    for i in range(n_nodes):
        labels = sorted({rng.choice("ABC") for _ in range(rng.randint(1, 2))})
        properties = {
            f"k{j}": _nasty_value(rng) for j in range(rng.randint(0, 3))
        }
        pg.add_node(f"n{i}", labels=labels, properties=properties)
    for _ in range(rng.randint(0, n_nodes * 2)):
        src = f"n{rng.randrange(n_nodes)}"
        dst = f"n{rng.randrange(n_nodes)}"
        properties = {
            f"w{j}": _nasty_value(rng) for j in range(rng.randint(0, 2))
        }
        pg.add_edge(src, dst, labels=[rng.choice(("R", "S"))],
                    properties=properties)
    return pg


def _nasty_value(rng: random.Random) -> object:
    roll = rng.random()
    if roll < 0.12:
        return []
    if roll < 0.2:
        return [""]
    if roll < 0.3:
        return ""
    if roll < 0.4:
        return rng.choice(("42", "4.5", "true", "false", "\\e", "\\a", "\\s"))
    if roll < 0.5:
        return rng.randint(-99, 99)
    if roll < 0.6:
        return rng.choice((True, False))
    if roll < 0.7:
        return [random_string(rng) for _ in range(rng.randint(1, 3))]
    if roll < 0.8:
        return [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
    return random_string(rng)


# --------------------------------------------------------------------- #
# Adversarial N-Triples text (parser robustness)
# --------------------------------------------------------------------- #

#: Escape payloads that must be *rejected with ParseError*, never crash.
_EVIL_ESCAPES = (
    "\\U00110000",   # beyond the Unicode range: chr() raises ValueError
    "\\UFFFFFFFF",
    "\\uD800",       # lone surrogate
    "\\uDFFF",
    "\\u12",         # truncated
    "\\U0001F60",
    "\\uZZZZ",       # non-hex
    "\\q",           # unknown escape
)


def generate_evil_ntriples(rng: random.Random) -> tuple[str, str]:
    """A small N-Triples document with one syntax-level mutation."""
    base = [
        Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{i % 2}"),
               Literal(random_string(rng)))
        for i in range(rng.randint(1, 4))
    ]
    lines = serialize_ntriples(base).splitlines()
    mode = rng.random()
    if mode < 0.45:
        payload = rng.choice(_EVIL_ESCAPES)
        line = rng.randrange(len(lines))
        if rng.random() < 0.5:
            lines[line] = (
                f'<{EX}s> <{EX}p> "x{payload}y" .'
            )
            note = f"literal escape {payload!r}"
        else:
            lines[line] = (
                f'<{EX}s{payload}> <{EX}p> "x" .'
            )
            note = f"IRI escape {payload!r}"
    elif mode < 0.7:
        # Truncate a random line mid-term.
        line = rng.randrange(len(lines))
        cut = rng.randint(1, max(1, len(lines[line]) - 1))
        lines[line] = lines[line][:cut]
        note = f"truncated line at {cut}"
    elif mode < 0.85:
        # Tight terminator after a blank node object (valid N-Triples).
        lines.append(f"<{EX}s> <{EX}p> _:b.")
        note = "tight terminator after bnode"
    else:
        # Random printable garbage.
        garbage = "".join(
            rng.choice("<>\"\\_:@^. abc") for _ in range(rng.randint(1, 20))
        )
        lines.append(garbage)
        note = f"garbage line {garbage!r}"
    return "\n".join(lines) + "\n", note
