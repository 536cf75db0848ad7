"""Statistics catalogs: cardinality estimates for the cost-based planner.

Both catalogs are thin views over statistics their backing store keeps
incrementally fresh (see :meth:`Graph.predicate_count` and
:meth:`PropertyGraphStore.rel_type_count`), so every estimate here is
O(1).  Estimates follow the classic System-R uniformity assumptions:

* a triple pattern with a constant predicate ``p`` starts from the exact
  per-predicate triple count and divides by the distinct-subject /
  distinct-object counts of ``p`` for each additionally bound position;
* a Cypher node pattern is estimated by its cheapest access path
  (bound variable < property-index hit count < label cardinality <
  node count), and each hop multiplies by the average fanout of its
  relationship types.

A *bound* variable is one the current partial plan has already produced;
its estimate divides by the relevant distinct count (the expected number
of matches for one concrete value).  A lifted constant (a
:class:`~repro.query.normalize.Param`) is estimated the same way — as
one bound value, or as the average property-index bucket of its key —
so a generic plan never depends on which constant it was built for.
"""

from __future__ import annotations

from ...pg.store import PropertyGraphStore
from ...rdf.graph import Graph
from ...rdf.terms import IRI, BlankNode, Triple
from ..cypher.ast import NodePattern, RelPattern
from ..normalize import Param, resolve
from ..sparql.ast import TriplePattern, Var

__all__ = [
    "GraphCatalog",
    "SeedChoice",
    "StoreCatalog",
]


class GraphCatalog:
    """Cardinality statistics over an RDF :class:`Graph`."""

    def __init__(self, graph: Graph):
        self.graph = graph

    @property
    def version(self) -> int:
        """The graph's mutation counter (plan-cache invalidation)."""
        return self.graph.version

    def estimate_pattern(self, pattern: TriplePattern, bound: set[str]) -> float:
        """Expected matches of ``pattern`` for one assignment of ``bound``.

        With ``bound`` empty this is the standalone scan estimate; with
        variables bound it is the expected per-binding fanout of an
        index nested-loop probe.
        """
        g = self.graph
        s, s_bound = self._resolve(pattern.s, bound)
        p, p_bound = self._resolve(pattern.p, bound)
        o, o_bound = self._resolve(pattern.o, bound)
        if p is not None:
            if not isinstance(p, IRI):
                return 0.0
            total = g.predicate_count(p)
            if total == 0:
                return 0.0
            if s is not None and not isinstance(s, (IRI, BlankNode)):
                return 0.0
            if s is not None and o is not None:
                return 1.0 if Triple(s, p, o) in g else 0.0
            if s is not None:
                est = float(g.count(s, p, None))
                if o_bound:
                    est /= max(1, g.predicate_distinct_objects(p))
                return est
            if o is not None:
                est = float(g.count(None, p, o))
                if s_bound:
                    est /= max(1, g.predicate_distinct_subjects(p))
                return est
            est = float(total)
            if s_bound:
                est /= max(1, g.predicate_distinct_subjects(p))
            if o_bound:
                est /= max(1, g.predicate_distinct_objects(p))
            return est
        # Predicate is free (or a bound variable): fall back to the
        # subject/object degree sums, then the whole-graph count.
        if s is not None and not isinstance(s, (IRI, BlankNode)):
            return 0.0
        if s is not None:
            est = float(g.count(s, None, o))
        elif o is not None:
            est = float(g.count(None, None, o))
        else:
            est = float(len(g))
            if s_bound:
                est /= max(1, g.n_subjects())
            if o_bound:
                est /= max(1, g.n_objects())
        if p_bound:
            est /= max(1, g.n_predicates())
        return est

    @staticmethod
    def _resolve(term, bound: set[str]):
        """``(constant, is_bound)`` for one pattern position."""
        if isinstance(term, Var):
            return None, term.name in bound
        if isinstance(term, Param):
            return None, True
        return term, False


class SeedChoice:
    """The access path chosen for a Cypher node pattern.

    ``mode`` is one of ``"bound"`` (the variable is already bound),
    ``"prop"`` (property-index seek on ``(key, value)``), ``"label"``
    (label-index scan on ``label``), or ``"all"`` (full node scan).
    """

    __slots__ = ("mode", "label", "key", "value", "est")

    def __init__(self, mode: str, est: float, label: str | None = None,
                 key: str | None = None, value: object = None):
        self.mode = mode
        self.est = est
        self.label = label
        self.key = key
        self.value = value

    def describe(self, params=()) -> str:
        if self.mode == "bound":
            return "bound"
        if self.mode == "prop":
            return f"index {self.key}={resolve(self.value, params)!r}"
        if self.mode == "label":
            return f"label :{self.label}"
        return "all nodes"


class StoreCatalog:
    """Cardinality statistics over a :class:`PropertyGraphStore`."""

    def __init__(self, store: PropertyGraphStore):
        self.store = store
        #: key -> (store version, mean property-index bucket size).
        self._bucket_means: dict[str, tuple[int, float]] = {}

    @property
    def version(self) -> int:
        """The store's mutation counter (plan-cache invalidation)."""
        return self.store.version

    def property_hits(self, key: str, value) -> float | None:
        """Index hits for ``key = value``; None when ``key`` is not indexed.

        A parameter slot counts as the key's average bucket: the nodes
        one value of the key selects, whichever value arrives.
        """
        if not isinstance(value, Param):
            return self.store.property_hits(key, value)
        if key not in self.store.indexed_keys:
            return None
        version = self.store.version
        memo = self._bucket_means.get(key)
        if memo is None or memo[0] != version:
            sizes = [
                len(bucket)
                for (k, _), bucket in self.store._property_index.items()
                if k == key
            ]
            memo = (version, sum(sizes) / len(sizes) if sizes else 0.0)
            self._bucket_means[key] = memo
        return memo[1]

    def node_count(self) -> int:
        return self.store.node_count()

    def edge_count(self) -> int:
        return self.store.edge_count()

    def seed_choice(self, pattern: NodePattern, bound: set[str]) -> SeedChoice:
        """The cheapest access path for matching ``pattern`` first."""
        if pattern.var is not None and pattern.var in bound:
            return SeedChoice("bound", 1.0)
        best: SeedChoice | None = None
        for key, value in pattern.properties:
            hits = self.property_hits(key, value)
            if hits is not None and (best is None or hits < best.est):
                best = SeedChoice("prop", float(hits), key=key, value=value)
        for label in pattern.labels:
            count = float(self.store.count_label(label))
            if best is None or count < best.est:
                best = SeedChoice("label", count, label=label)
        if best is not None:
            return best
        return SeedChoice("all", float(self.node_count()))

    def node_selectivity(self, pattern: NodePattern) -> float:
        """Fraction of nodes matching the pattern's labels/properties."""
        nodes = max(1, self.node_count())
        best = 1.0
        for label in pattern.labels:
            best = min(best, self.store.count_label(label) / nodes)
        for key, value in pattern.properties:
            hits = self.property_hits(key, value)
            if hits is not None:
                best = min(best, hits / nodes)
        return best

    def hop_fanout(self, rel: RelPattern) -> float:
        """Average number of edges one hop follows from a node."""
        if rel.types:
            edges = sum(self.store.rel_type_count(t) for t in rel.types)
        else:
            edges = self.edge_count()
        fanout = edges / max(1, self.node_count())
        if rel.direction == "any":
            fanout *= 2.0
        return fanout

