"""An in-memory indexed RDF triple store.

The :class:`Graph` maintains three permutation indexes (SPO, POS, OSP), the
standard layout for in-memory RDF stores, so that any triple pattern with
fixed terms can be answered without a full scan.  This is the substrate on
which shape extraction, SHACL validation, the S3PG data transformation
(Algorithm 1), and the SPARQL engine all run.

Physically the store is dictionary-encoded (:mod:`repro.storage`): every
term is interned to a dense integer id once, and each index bucket is an
:class:`~repro.storage.postings.IntPostings` — a sorted ``array('q')`` of
ids — instead of a Python ``set`` of term objects.  Index traversal is
int comparisons over machine arrays; term objects are only touched at the
API boundary.  Graphs can be persisted to and memory-mapped back from
binary snapshots (:mod:`repro.storage.snapshot`) without re-parsing.

A whole graph — ``Graph(triples)``, the N-Triples parser, the inverse
mapping ``M`` — is indexed in bulk from a flat array of interned
``(s, p, o)`` ids; :meth:`Graph.add` / :meth:`Graph.remove` are the
incremental path, and both paths build the same structure.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

from ..namespaces import RDF_TYPE, RDFS
from ..storage.intern import TermInterner
from ..storage.postings import IntPostings
from .terms import IRI, BlankNode, Literal, Object, Subject, Triple

_SUBCLASS_OF = IRI(RDFS.subClassOf)
_RDF_TYPE = IRI(RDF_TYPE)

_new_triple = Triple.__new__
_set = object.__setattr__


def _triple(s: Subject, p: IRI, o: Object) -> Triple:
    # Bypass Triple.__init__ validation: every stored term was already
    # validated on insertion, and decode is the hottest path of the
    # streaming transformation (the graph is scanned twice per run).
    t = _new_triple(Triple)
    _set(t, "s", s)
    _set(t, "p", p)
    _set(t, "o", o)
    return t


def _group(
    first: array, second: array, third: array
) -> tuple[dict[int, dict[int, IntPostings]], dict[int, int]]:
    """One permutation index ``first -> second -> postings of third`` with
    keys in first-appearance order, and the distinct statements per
    ``first`` key: per-bucket values (an int until a second one arrives,
    then a list), then sorted distinct postings."""
    index: dict = {}
    for k1, k2, v in zip(first, second, third):
        inner = index.get(k1)
        if inner is None:
            index[k1] = {k2: v}
        else:
            bucket = inner.get(k2)
            if bucket is None:
                inner[k2] = v
            elif type(bucket) is int:
                inner[k2] = [bucket, v]
            else:
                bucket.append(v)
    sizes: dict[int, int] = {}
    for k1, inner in index.items():
        n = 0
        for k2, bucket in inner.items():
            bucket = (bucket,) if type(bucket) is int else sorted(set(bucket))
            n += len(bucket)
            inner[k2] = IntPostings(array("q", bucket))
        sizes[k1] = n
    return index, sizes


@dataclass(frozen=True)
class GraphStats:
    """Dataset characteristics as reported in Table 2 of the paper."""

    n_triples: int
    n_subjects: int
    n_objects: int
    n_literals: int
    n_instances: int
    n_classes: int
    n_properties: int
    size_bytes: int

    def as_row(self) -> dict[str, int]:
        """Return the statistics as a plain dict (one table row)."""
        return {
            "# of triples": self.n_triples,
            "# of objects": self.n_objects,
            "# of subjects": self.n_subjects,
            "# of literals": self.n_literals,
            "# of instances": self.n_instances,
            "# of classes": self.n_classes,
            "# of properties": self.n_properties,
            "size in bytes": self.size_bytes,
        }


class Graph:
    """A set of RDF triples with SPO/POS/OSP indexes.

    The store behaves like a set of :class:`Triple` objects: adding a
    duplicate triple is a no-op, iteration yields each triple once, and the
    usual set algebra (union / difference) is available for computing and
    applying deltas between graph snapshots.

    Examples:
        >>> g = Graph()
        >>> alice = IRI("http://example.org/alice")
        >>> _ = g.add(Triple(alice, IRI(RDF_TYPE), IRI("http://example.org/Person")))
        >>> len(g)
        1
    """

    def __init__(self, triples: Iterable[Triple] | None = None):
        terms = TermInterner()
        ids = array("q")
        if triples is not None:
            intern = terms.intern
            ids = array("q", [intern(x) for t in triples for x in (t.s, t.p, t.o)])
        self._index(terms, ids)

    # ------------------------------------------------------------------ #
    # Bulk build and storage plumbing (parser / M / snapshot interface)
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_ids(cls, terms: TermInterner, ids: array) -> "Graph":
        """A graph over ``terms`` holding the statements of ``ids``, a flat
        ``(s, p, o)`` id array interned in statement order."""
        g = cls.__new__(cls)
        g._index(terms, ids)
        return g

    def _index(self, terms: TermInterner, ids: array) -> None:
        """The bulk build: SPO / POS / OSP from a flat ``(s, p, o)`` id array.

        The result is structurally identical to adding the statements one
        by one in order: every index dict has its keys in first-appearance
        order, every bucket is a sorted, distinct ``array('q')``, the
        counters have the POS key order, and ``version == len``.
        """
        #: Term ⇄ dense-int dictionary shared by all three indexes.
        self._terms = terms
        s, p, o = ids[0::3], ids[1::3], ids[2::3]
        # spo[s][p] -> postings of o ; pos[p][o] -> postings of s ;
        # osp[o][s] -> postings of p  (all keys/values are interned ids).
        self._spo, _ = _group(s, p, o)
        self._pos, p_count = _group(p, o, s)
        self._osp, _ = _group(o, s, p)
        self._size = sum(p_count.values())
        # Incrementally maintained statistics for the query planner:
        # triples per predicate and distinct subjects per predicate.  Both
        # are O(1) dict updates on add/remove; distinct *objects* per
        # predicate need no counter (len of the POS bucket).
        self._p_count = p_count
        pairs = Counter(chain.from_iterable(self._spo.values()))
        self._p_subjects = {pi: pairs[pi] for pi in p_count}
        #: Monotonic mutation counter (plan/statistics cache invalidation).
        self._version = self._size

    @classmethod
    def _from_storage(
        cls,
        terms: TermInterner,
        spo: dict,
        pos: dict,
        osp: dict,
        size: int,
        p_count: dict[int, int],
        p_subjects: dict[int, int],
        version: int = 0,
    ) -> "Graph":
        """Assemble a graph directly from physical-layer parts (snapshot load)."""
        g = cls.__new__(cls)
        g._terms = terms
        g._spo = spo
        g._pos = pos
        g._osp = osp
        g._size = size
        g._p_count = p_count
        g._p_subjects = p_subjects
        g._version = version
        return g

    def _storage(self):
        """The physical-layer parts, for the snapshot writer."""
        return (self._terms, self._spo, self._pos, self._osp, self._p_count, self._p_subjects)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; return True when it was not already present."""
        intern = self._terms.intern
        si = intern(triple.s)
        pi = intern(triple.p)
        oi = intern(triple.o)
        by_p = self._spo.setdefault(si, {})
        objs = by_p.get(pi)
        if objs is None:
            # Empty buckets are always deleted, so a present bucket is
            # non-empty: a fresh bucket means a new (s, p) pair.
            objs = by_p[pi] = IntPostings()
            new_pair = True
        else:
            if not objs.add(oi):
                return False
            new_pair = False
        if new_pair:
            objs.add(oi)
        by_o = self._pos.setdefault(pi, {})
        subs = by_o.get(oi)
        if subs is None:
            subs = by_o[oi] = IntPostings()
        subs.add(si)
        by_s = self._osp.setdefault(oi, {})
        preds = by_s.get(si)
        if preds is None:
            preds = by_s[si] = IntPostings()
        preds.add(pi)
        self._size += 1
        self._version += 1
        self._p_count[pi] = self._p_count.get(pi, 0) + 1
        if new_pair:
            self._p_subjects[pi] = self._p_subjects.get(pi, 0) + 1
        return True

    def add_triple(self, s: Subject, p: IRI, o: Object) -> bool:
        """Convenience wrapper building the :class:`Triple` for the caller."""
        return self.add(Triple(s, p, o))

    def remove(self, triple: Triple) -> bool:
        """Delete ``triple``; return True when it was present."""
        lookup = self._terms.lookup
        si = lookup(triple.s)
        if si is None:
            return False
        pi = lookup(triple.p)
        oi = lookup(triple.o)
        if pi is None or oi is None:
            return False
        by_p = self._spo.get(si)
        objs = by_p.get(pi) if by_p is not None else None
        if objs is None or not objs.discard(oi):
            return False
        if not objs:
            del by_p[pi]
            if not by_p:
                del self._spo[si]
            remaining_subjects = self._p_subjects[pi] - 1
            if remaining_subjects:
                self._p_subjects[pi] = remaining_subjects
            else:
                del self._p_subjects[pi]
        subs = self._pos[pi][oi]
        subs.discard(si)
        if not subs:
            del self._pos[pi][oi]
            if not self._pos[pi]:
                del self._pos[pi]
        preds = self._osp[oi][si]
        preds.discard(pi)
        if not preds:
            del self._osp[oi][si]
            if not self._osp[oi]:
                del self._osp[oi]
        self._size -= 1
        self._version += 1
        remaining = self._p_count[pi] - 1
        if remaining:
            self._p_count[pi] = remaining
        else:
            del self._p_count[pi]
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return the number actually inserted."""
        return sum(1 for t in triples if self.add(t))

    def discard_all(self, triples: Iterable[Triple]) -> int:
        """Remove many triples; return the number actually removed."""
        return sum(1 for t in triples if self.remove(t))

    def clear(self) -> None:
        """Remove every triple."""
        self._terms = TermInterner()
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._p_count.clear()
        self._p_subjects.clear()
        self._size = 0
        self._version += 1

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, triple: Triple) -> bool:
        lookup = self._terms.lookup
        si = lookup(triple.s)
        if si is None:
            return False
        pi = lookup(triple.p)
        oi = lookup(triple.o)
        if pi is None or oi is None:
            return False
        by_p = self._spo.get(si)
        if by_p is None:
            return False
        objs = by_p.get(pi)
        return objs is not None and oi in objs

    def __iter__(self) -> Iterator[Triple]:
        term = self._terms.term
        for si, by_p in self._spo.items():
            s = term(si)
            for pi, objs in by_p.items():
                p = term(pi)
                for oi in objs:
                    yield _triple(s, p, term(oi))

    def triples(
        self,
        s: Subject | None = None,
        p: IRI | None = None,
        o: Object | None = None,
    ) -> Iterator[Triple]:
        """Yield all triples matching the pattern; ``None`` is a wildcard.

        The best index for the bound positions is chosen automatically.
        """
        lookup = self._terms.lookup
        term = self._terms.term
        si = pi = oi = None
        if s is not None:
            si = lookup(s)
            if si is None:
                return
        if p is not None:
            pi = lookup(p)
            if pi is None:
                return
        if o is not None:
            oi = lookup(o)
            if oi is None:
                return
        if si is not None:
            by_p = self._spo.get(si)
            if by_p is None:
                return
            if pi is not None:
                objs = by_p.get(pi)
                if objs is None:
                    return
                if oi is not None:
                    if oi in objs:
                        yield _triple(s, p, o)
                    return
                for obj_id in objs:
                    yield _triple(s, p, term(obj_id))
                return
            if oi is not None:
                preds = self._osp.get(oi, {}).get(si)
                if preds is None:
                    return
                for pred_id in preds:
                    yield _triple(s, term(pred_id), o)
                return
            for pred_id, objs in by_p.items():
                pred = term(pred_id)
                for obj_id in objs:
                    yield _triple(s, pred, term(obj_id))
            return
        if pi is not None:
            by_o = self._pos.get(pi)
            if by_o is None:
                return
            if oi is not None:
                for sub_id in by_o.get(oi, ()):
                    yield _triple(term(sub_id), p, o)
                return
            for obj_id, subs in by_o.items():
                obj = term(obj_id)
                for sub_id in subs:
                    yield _triple(term(sub_id), p, obj)
            return
        if oi is not None:
            for sub_id, preds in self._osp.get(oi, {}).items():
                sub = term(sub_id)
                for pred_id in preds:
                    yield _triple(sub, term(pred_id), o)
            return
        yield from self

    def count(
        self,
        s: Subject | None = None,
        p: IRI | None = None,
        o: Object | None = None,
    ) -> int:
        """Count triples matching the pattern without materializing them."""
        if s is None and p is None and o is None:
            return self._size
        lookup = self._terms.lookup
        si = pi = oi = None
        if s is not None:
            si = lookup(s)
            if si is None:
                return 0
        if p is not None:
            pi = lookup(p)
            if pi is None:
                return 0
        if o is not None:
            oi = lookup(o)
            if oi is None:
                return 0
        if si is not None and pi is not None and oi is None:
            return len(self._spo.get(si, {}).get(pi, ()))
        if si is None and pi is not None and oi is not None:
            return len(self._pos.get(pi, {}).get(oi, ()))
        if si is not None and pi is None and oi is None:
            return sum(len(objs) for objs in self._spo.get(si, {}).values())
        if si is None and pi is None and oi is not None:
            return sum(len(preds) for preds in self._osp.get(oi, {}).values())
        if si is not None and pi is None and oi is not None:
            return len(self._osp.get(oi, {}).get(si, ()))
        if si is None and pi is not None and oi is None:
            return self._p_count.get(pi, 0)
        return sum(1 for _ in self.triples(s, p, o))

    def objects(self, s: Subject, p: IRI) -> Iterator[Object]:
        """Yield all objects ``o`` with ``(s, p, o)`` in the graph."""
        yield from self._decode_bucket(self._spo, s, p)

    def subjects(self, p: IRI, o: Object) -> Iterator[Subject]:
        """Yield all subjects ``s`` with ``(s, p, o)`` in the graph."""
        yield from self._decode_bucket(self._pos, p, o)

    def _decode_bucket(self, index: dict, k1, k2) -> Iterator:
        lookup = self._terms.lookup
        i1 = lookup(k1)
        if i1 is None:
            return
        i2 = lookup(k2)
        if i2 is None:
            return
        bucket = index.get(i1, {}).get(i2)
        if bucket is None:
            return
        term = self._terms.term
        for i in bucket:
            yield term(i)

    def value(self, s: Subject, p: IRI) -> Object | None:
        """Return an arbitrary single object of ``(s, p, ·)``, or None."""
        for o in self.objects(s, p):
            return o
        return None

    def predicates_of(self, s: Subject) -> Iterator[IRI]:
        """Yield the distinct predicates attached to subject ``s``."""
        si = self._terms.lookup(s)
        if si is None:
            return
        term = self._terms.term
        for pi in self._spo.get(si, ()):
            yield term(pi)

    def subject_set(self) -> set[Subject]:
        """The set of all subjects."""
        term = self._terms.term
        return {term(i) for i in self._spo}

    def predicate_set(self) -> set[IRI]:
        """The set of all predicates (the set ``P`` of Definition 2.1)."""
        term = self._terms.term
        return {term(i) for i in self._pos}

    def object_set(self) -> set[Object]:
        """The set of all objects."""
        term = self._terms.term
        return {term(i) for i in self._osp}

    # ------------------------------------------------------------------ #
    # Planner statistics (all O(1), incrementally maintained)
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Mutation counter; changes on every add/remove/clear."""
        return self._version

    def predicate_count(self, p: IRI) -> int:
        """Number of triples with predicate ``p``."""
        pi = self._terms.lookup(p)
        return self._p_count.get(pi, 0) if pi is not None else 0

    def predicate_distinct_subjects(self, p: IRI) -> int:
        """Number of distinct subjects occurring with predicate ``p``."""
        pi = self._terms.lookup(p)
        return self._p_subjects.get(pi, 0) if pi is not None else 0

    def predicate_distinct_objects(self, p: IRI) -> int:
        """Number of distinct objects occurring with predicate ``p``."""
        pi = self._terms.lookup(p)
        return len(self._pos.get(pi, ())) if pi is not None else 0

    def n_subjects(self) -> int:
        """Number of distinct subjects."""
        return len(self._spo)

    def n_predicates(self) -> int:
        """Number of distinct predicates."""
        return len(self._pos)

    def n_objects(self) -> int:
        """Number of distinct objects."""
        return len(self._osp)

    # ------------------------------------------------------------------ #
    # Typing helpers (the `a` predicate of Definition 2.1)
    # ------------------------------------------------------------------ #

    def types_of(self, entity: Subject) -> set[IRI]:
        """All classes ``c`` with ``(entity, rdf:type, c)`` in the graph."""
        return {o for o in self.objects(entity, _RDF_TYPE) if isinstance(o, IRI)}

    def instances_of(self, cls: IRI) -> Iterator[Subject]:
        """All entities typed with ``cls``."""
        yield from self.subjects(_RDF_TYPE, cls)

    def classes(self) -> set[IRI]:
        """The set ``C``: IRIs used as an object of ``rdf:type`` or in
        ``rdfs:subClassOf`` statements (Definition 2.1)."""
        term = self._terms.term
        ti = self._terms.lookup(_RDF_TYPE)
        result: set[IRI] = set()
        if ti is not None:
            result = {
                o for o in (term(oi) for oi in self._pos.get(ti, ())) if isinstance(o, IRI)
            }
        for t in self.triples(p=_SUBCLASS_OF):
            if isinstance(t.s, IRI):
                result.add(t.s)
            if isinstance(t.o, IRI):
                result.add(t.o)
        return result

    def superclasses(self, cls: IRI) -> set[IRI]:
        """Transitive closure of ``rdfs:subClassOf`` starting at ``cls``
        (excluding ``cls`` itself)."""
        seen: set[IRI] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop()
            for o in self.objects(current, _SUBCLASS_OF):
                if isinstance(o, IRI) and o not in seen:
                    seen.add(o)
                    frontier.append(o)
        return seen

    def _subclass_closure(self, cls_id: int, up: bool) -> frozenset[int]:
        """:meth:`superclasses` on interned ids: the IRI classes reachable
        from ``cls_id`` in one or more ``rdfs:subClassOf`` steps, upwards
        (its superclasses) or downwards (its subclasses).  ``cls_id`` is
        in the result only through a cycle."""
        sub_id = self._terms.lookup(_SUBCLASS_OF)
        spo = self._spo
        by_o = self._pos.get(sub_id, {})
        term = self._terms.term
        seen: set[int] = set()
        frontier = [cls_id]
        while frontier:
            c = frontier.pop()
            for n in (spo.get(c, {}).get(sub_id) if up else by_o.get(c)) or ():
                if n not in seen and isinstance(term(n), IRI):
                    seen.add(n)
                    frontier.append(n)
        return frozenset(seen)

    def is_instance_of(self, entity: Subject, cls: IRI) -> bool:
        """True when ``entity`` is typed with ``cls`` or a subclass of it."""
        types = self.types_of(entity)
        if cls in types:
            return True
        return any(cls in self.superclasses(t) for t in types)

    # ------------------------------------------------------------------ #
    # Set algebra (used by the evolution / monotonicity experiments)
    # ------------------------------------------------------------------ #

    def union(self, other: "Graph") -> "Graph":
        """A new graph containing the triples of both operands."""
        return Graph(chain(self, other))

    def difference(self, other: "Graph") -> "Graph":
        """A new graph with the triples of ``self`` not in ``other``."""
        return Graph(t for t in self if t not in other)

    def intersection(self, other: "Graph") -> "Graph":
        """A new graph with the triples present in both operands."""
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return Graph(t for t in small if t in large)

    def copy(self) -> "Graph":
        """A shallow copy (terms are immutable, so this is a full snapshot)."""
        return Graph(self)

    def __or__(self, other: "Graph") -> "Graph":
        return self.union(other)

    def __sub__(self, other: "Graph") -> "Graph":
        return self.difference(other)

    def __and__(self, other: "Graph") -> "Graph":
        return self.intersection(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return len(self) == len(other) and self._subset_of(other)

    def _subset_of(self, other: "Graph", skip: frozenset[int] = frozenset()) -> bool:
        """Every triple whose subject and object ids are not in ``skip`` is
        in ``other``, tested on ids: each distinct term id is translated
        into ``other``'s interner once, then probed in its SPO postings."""
        ids = _IdMap(self._terms, other._terms)
        spo = other._spo
        for si, by_p in self._spo.items():
            if si in skip:
                continue
            theirs = spo.get(ids[si], {})
            for pi, objs in by_p.items():
                their_objs = theirs.get(ids[pi], ())
                for oi in objs:
                    if oi not in skip and ids[oi] not in their_objs:
                        return False
        return True

    def __hash__(self):  # pragma: no cover - graphs are mutable
        raise TypeError("Graph objects are mutable and unhashable")

    def __repr__(self) -> str:
        return f"<Graph with {self._size} triples>"

    # ------------------------------------------------------------------ #
    # Statistics (Table 2)
    # ------------------------------------------------------------------ #

    def stats(self) -> GraphStats:
        """Compute the dataset characteristics reported in Table 2."""
        term = self._terms.term
        n_literals = sum(1 for oi in self._osp if isinstance(term(oi), Literal))
        ti = self._terms.lookup(_RDF_TYPE)
        instances: set[int] = set()
        if ti is not None:
            for subs in self._pos.get(ti, {}).values():
                instances.update(subs)
        size_bytes = sum(len(t.n3()) + 1 for t in self)
        return GraphStats(
            n_triples=self._size,
            n_subjects=len(self._spo),
            n_objects=len(self._osp),
            n_literals=n_literals,
            n_instances=len(instances),
            n_classes=len(self.classes()),
            n_properties=len(self._pos),
            size_bytes=size_bytes,
        )

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[Subject, IRI, Object]]) -> "Graph":
        """Build a graph from raw ``(s, p, o)`` tuples."""
        return cls(Triple(s, p, o) for s, p, o in triples)

    def _blank_part(self) -> tuple[frozenset[int], set[tuple[int, int, int]]]:
        """The blank-node ids (subject or object position) and the id
        triples touching them, read from their SPO / OSP buckets."""
        term = self._terms.term
        bnodes = frozenset(
            i for index in (self._spo, self._osp) for i in index
            if isinstance(term(i), BlankNode)
        )
        triples = set()
        for b in bnodes:
            for p, objs in self._spo.get(b, {}).items():
                triples.update((b, p, o) for o in objs)
            for s, preds in self._osp.get(b, {}).items():
                triples.update((s, p, b) for p in preds)
        return bnodes, triples

    def _bnode_lines(
        self, bnodes: frozenset[int], triples: set[tuple[int, int, int]]
    ) -> frozenset[str]:
        """``triples`` rendered with each blank node replaced by its colour,
        so that blank-node labels are opaque.

        Blank nodes are canonicalized by the multiset of their ground
        neighbourhood, iterated to a fixpoint (a simple colour-refinement).
        Each round's colour is *hashed* to a fixed size — colours embed
        their neighbours' colours, so raw strings would grow exponentially
        on interlinked blank nodes — and refinement stops once the induced
        partition of blank nodes stabilizes (raw colour values keep
        churning forever on blank-node cycles).  Hashes are content-derived,
        so isomorphic graphs refine through identical colour sequences.
        """
        term = self._terms.term
        n3 = {i: term(i).n3() for t in triples for i in t if i not in bnodes}
        incident: dict[int, list[tuple[str, int]]] = {b: [] for b in bnodes}
        for s, p, o in triples:
            if s in bnodes:
                incident[s].append((f">{term(p).value}:", o))
            if o in bnodes:
                incident[o].append((f"<{term(p).value}:", s))

        def partition(colours: dict[int, str]) -> frozenset[frozenset[int]]:
            classes: dict[str, set[int]] = {}
            for node, value in colours.items():
                classes.setdefault(value, set()).add(node)
            return frozenset(frozenset(members) for members in classes.values())

        colour = dict.fromkeys(bnodes, "b")
        for _ in range(max(1, len(bnodes))):
            new_colour: dict[int, str] = {}
            for b, edges in incident.items():
                raw = "|".join(sorted(
                    prefix + (colour[n] if n in bnodes else n3[n]) for prefix, n in edges
                ))
                new_colour[b] = hashlib.blake2b(
                    raw.encode("utf-8"), digest_size=8
                ).hexdigest()
            stable = partition(new_colour) == partition(colour)
            colour = new_colour
            if stable:
                break
        render = n3 | {b: f"_:{c}" for b, c in colour.items()}
        return frozenset(f"{render[s]} {render[p]} {render[o]}" for s, p, o in triples)


class _IdMap(dict):
    """Term id in one interner -> id of the same term in another (-1 when
    absent), each translated on first use."""

    __slots__ = ("_term", "_lookup")

    def __init__(self, source: TermInterner, target: TermInterner):
        super().__init__()
        self._term, self._lookup = source.term, target.lookup

    def __missing__(self, i: int) -> int:
        j = self._lookup(self._term(i))
        j = self[i] = -1 if j is None else j
        return j


def graphs_equal_modulo_bnodes(a: Graph, b: Graph) -> bool:
    """True when the two graphs are isomorphic up to blank-node renaming.

    The ground triples (no blank node) must be equal, which is tested on
    term ids; colour refinement (:meth:`Graph._bnode_lines`) runs only on
    the triples that touch a blank node.
    """
    if len(a) != len(b):
        return False
    a_bnodes, a_triples = a._blank_part()
    b_bnodes, b_triples = b._blank_part()
    return (
        len(a_triples) == len(b_triples)
        and a._subset_of(b, a_bnodes)
        and a._bnode_lines(a_bnodes, a_triples) == b._bnode_lines(b_bnodes, b_triples)
    )
