"""An LRU cache of generic physical plans, and what both planners share.

Keys are *query shapes* (:mod:`repro.query.normalize`): the canonical
text of the pattern with its constants lifted into ``$n`` parameters
(so whitespace, prefix names, ``;`` predicate groups *and* the bound
constants all collapse to one key) combined with the statistics
catalog's version counter — any mutation of the underlying graph/store
bumps the version and naturally invalidates every cached plan without
scanning the cache.  A plan is executed with each call's parameter
vector, so a point lookup is planned once per shape, not per constant.

Version-keyed entries can never hit again once the catalog moves on,
but LRU alone only evicts them under capacity pressure: a workload of
interleaved queries and mutations (the CDC steady state) would fill the
cache with dead plans and evict the live ones.  ``put`` therefore takes
the catalog version that produced the plan and sweeps every entry tagged
with an older version as soon as a newer one is inserted.
"""

from __future__ import annotations

from collections import OrderedDict

from ... import obs
from .operator import Execution
from .vectorized import DEFAULT_BATCH_SIZE

__all__ = ["CachingPlanner", "PlanCache"]


class PlanCache:
    """A bounded least-recently-used mapping of plan keys to plans."""

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        #: key -> catalog version that produced the entry (parallel map).
        self._entry_version: dict = {}
        #: Highest catalog version seen by ``put``.
        self._latest_version = None
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """The cached plan for ``key``, or None (updates recency)."""
        try:
            value = self._entries.pop(key)
        except KeyError:
            self.misses += 1
            return None
        self._entries[key] = value
        self.hits += 1
        return value

    def put(self, key, value, version=None) -> None:
        """Insert a plan, evicting the least recently used beyond capacity.

        ``version`` is the statistics-catalog version the plan was built
        against.  When it advances past the newest version seen so far,
        all entries tagged with older versions are swept: their keys embed
        the old version, so they can never be requested again.
        """
        if version is not None and version != self._latest_version:
            if self._latest_version is not None:
                stale = [
                    k for k, v in self._entry_version.items() if v != version
                ]
                for k in stale:
                    del self._entries[k]
                    del self._entry_version[k]
            self._latest_version = version
        self._entries.pop(key, None)
        self._entries[key] = value
        if version is not None:
            self._entry_version[key] = version
        while len(self._entries) > self.maxsize:
            evicted, _ = self._entries.popitem(last=False)
            self._entry_version.pop(evicted, None)

    def stats(self) -> dict:
        """Occupancy and hit-ratio snapshot (feeds ``/healthz``)."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hits / lookups, 4) if lookups else None,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._entry_version.clear()
        self._latest_version = None

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<PlanCache {len(self._entries)}/{self.maxsize} "
            f"hits={self.hits} misses={self.misses}>"
        )


class CachingPlanner:
    """The plan cache and the per-execution record both planners share.

    Args:
        catalog: the statistics catalog plans are costed with.
        cache_size: LRU plan-cache capacity.
    """

    lang = ""

    def __init__(self, catalog, cache_size: int = 128):
        self.catalog = catalog
        self.cache = PlanCache(cache_size)
        #: Rows per batch of the plans built from here on.
        self.batch_size = DEFAULT_BATCH_SIZE
        #: Records of the plans the last query executed (the engine
        #: derives EXPLAIN and the query's report from these).
        self.last_executions: list[Execution] = []
        obs.register_plan_cache(self.lang, self.cache)

    def _plan(self, key: tuple, build, **attrs):
        """``(plan, hit)`` for a shape key, building the plan on a miss."""
        version = self.catalog.version
        cache_key = (version, *key)
        plan = self.cache.get(cache_key)
        hit = plan is not None
        if plan is None:
            plan = build()
            self.cache.put(cache_key, plan, version=version)
        if obs.enabled():
            with obs.span(f"{self.lang}.plan", cache_hit=hit, **attrs):
                pass
        return plan, hit

    def _record(self, key: tuple, hit: bool, plan, params, analyze: bool) -> None:
        """Take an execution's record.

        Under a tracer, one zero-length span per operator carries its
        cardinalities (operators interleave their work, so only those
        are exact); the metrics are the query's report's to write.
        """
        execution = Execution(key, hit, plan, params, analyze)
        if obs.enabled():
            for node in execution.explain().walk():
                with obs.span(
                    f"{self.lang}.plan.operator",
                    op=node.op,
                    detail=node.detail,
                    est_rows=node.est_rows,
                    actual_rows=node.actual_rows,
                ):
                    pass
        self.last_executions.append(execution)
