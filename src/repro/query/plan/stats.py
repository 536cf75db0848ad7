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

from collections import OrderedDict

from ... import obs
from ...pg.store import PropertyGraphStore
from ...rdf.graph import Graph
from ...rdf.terms import IRI, BlankNode, Triple
from ..cypher.ast import NodePattern, RelPattern
from ..normalize import Param, resolve
from ..sparql.ast import TriplePattern, Var

__all__ = [
    "FeedbackStore",
    "GraphCatalog",
    "Q_ERROR_BOUNDARIES",
    "SeedChoice",
    "StoreCatalog",
    "q_error",
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


# --------------------------------------------------------------------- #
# Cardinality feedback
# --------------------------------------------------------------------- #

#: Histogram buckets for q-error observations: 1.0 is a perfect
#: estimate, >10 is a badly mis-ordered join, >1000 is pathological.
Q_ERROR_BOUNDARIES: tuple[float, ...] = (
    1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0, 1000.0,
)


def q_error(estimated: float, actual: float) -> float:
    """The multiplicative estimation error, symmetric and >= 1.

    Both sides are floored at one row (the usual convention) so empty
    results don't divide by zero and tiny cardinalities don't dominate.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def _physical(root) -> list:
    """The explain nodes that carry both an estimate and an actual."""
    return [
        node for node in root.walk()
        if node.est_rows is not None and node.actual_rows is not None
    ]


class FeedbackStore:
    """Observed cardinalities of executed plans, keyed by query shape.

    After every execution the planner records it here; the store keeps,
    per shape, the latest execution and its worst q-error plus an
    execution count, bounded LRU-style to ``capacity`` shapes.  Keys
    carry no catalog version, so executions of one statement shape
    accumulate across mutations instead of filling the store with
    entries no key can reach again.  Each recording feeds the
    ``repro_plan_q_error{engine=...}`` histogram so estimate drift is
    scrapeable from the ops endpoint (and is the signal a re-planner
    would consume; DESIGN.md records why there is none today).
    """

    def __init__(self, engine: str, capacity: int = 512):
        self.engine = engine
        self.capacity = capacity
        #: key -> (executions, worst q-error, explain tree or its builder)
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        #: (histogram family, this engine's child), rebound on reset.
        self._histogram: tuple = (None, None)

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, key: tuple | None, root, worst: float | None = None) -> None:
        """Fold one execution into the store.

        ``root`` is the execution's explain tree, or a zero-argument
        callable building it.  The planners pass the latter together
        with the ``worst`` q-error they already computed, so the tree is
        built only when a reader asks for the entry.  Only physical
        operators (nodes carrying both an estimate and an actual count)
        participate; a tree without any records nothing.
        """
        if key is None or root is None:
            return
        if worst is None:
            errors = [q_error(n.est_rows, n.actual_rows) for n in _physical(root)]
            if not errors:
                return
            worst = max(errors)
        executions = self._entries.pop(key, (0,))[0] + 1
        self._entries[key] = (executions, worst, root)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        family = obs.get_metrics().histogram(
            "repro_plan_q_error",
            boundaries=Q_ERROR_BOUNDARIES,
            help="per-plan worst cardinality q-error",
        )
        if self._histogram[0] is not family:
            self._histogram = (family, family.labels(engine=self.engine))
        self._histogram[1].observe(worst)

    def _entry(self, executions: int, worst: float, root) -> dict:
        if callable(root):
            root = root()
        return {
            "engine": self.engine,
            "executions": executions,
            "max_q_error": round(worst, 3),
            "operators": [
                {
                    "op": node.op,
                    "detail": node.detail,
                    "est_rows": round(float(node.est_rows), 3),
                    "actual_rows": node.actual_rows,
                    "q_error": round(q_error(node.est_rows, node.actual_rows), 3),
                }
                for node in _physical(root)
            ],
        }

    def get(self, key: tuple) -> dict | None:
        entry = self._entries.get(key)
        return self._entry(*entry) if entry is not None else None

    def max_q_error(self, key: tuple | None) -> float | None:
        """The worst q-error of the latest execution of one shape, or None."""
        entry = self._entries.get(key) if key is not None else None
        return round(entry[1], 3) if entry is not None else None

    def snapshot(self) -> list[dict]:
        """Every retained entry, least-recently-recorded first."""
        return [self._entry(*entry) for entry in self._entries.values()]

    def summary(self) -> dict:
        """Aggregate accuracy numbers for artifacts and `/healthz`."""
        entries = list(self._entries.values())
        return {
            "engine": self.engine,
            "plans": len(entries),
            "executions": sum(e[0] for e in entries),
            "max_q_error": round(max((e[1] for e in entries), default=1.0), 3),
        }
