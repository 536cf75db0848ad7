"""The CDC ingest pipeline: changefeed -> incremental transform -> revalidate.

The pipeline is the always-on counterpart of the one-shot
:func:`repro.core.apply_delta`.  It consumes deltas from a changefeed,
filters them down to their *effective* part against the tracked source
graph (so replayed or duplicate records are harmless), pushes them
through a store-aware :class:`IncrementalTransformer`, and keeps a
standing SHACL conformance report fresh with a
:class:`~repro.shacl.DeltaValidator` that rechecks only the focus nodes
each batch can affect.

Operational behaviour:

* **Batching** — deltas are grouped up to ``max_batch_size`` or until
  ``max_linger_s`` has passed since the first pending delta, whichever
  comes first; a batch shares one revalidation pass.
* **Backpressure** — a bounded internal buffer between the feed reader
  and the applier; when the applier falls behind, the reader (and, for
  in-memory feeds, the producer) blocks instead of buffering unboundedly.
* **Retry & quarantine** — each delta is probed (dry-run resolution)
  before any state is mutated; failures are retried with exponential
  backoff and, if persistent, appended to a dead-letter log so one
  poison delta never stalls the stream.
* **Checkpointing** — every ``checkpoint_every`` applied deltas (and at
  shutdown) the watermark + snapshots are written via
  :mod:`repro.cdc.checkpoint`.
* **Observability** — end-to-end delta latency histogram, staleness
  gauge, queue-depth gauge, backpressure/quarantine/retry counters, and
  ``cdc.batch`` spans, all through :mod:`repro.obs`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..core.incremental import IncrementalTransformer
from ..core.data_transform import TransformedGraph
from ..errors import ReproError
from ..pg.store import PropertyGraphStore
from ..rdf.graph import Graph
from ..shacl.validator import DeltaValidator
from .changefeed import BadDelta, Delta, MemoryChangefeed, delta_to_json

__all__ = ["CDCConfig", "CDCPipeline", "PipelineStats", "replay_deltas"]

_EOF = object()


@dataclass
class CDCConfig:
    """Tunables for one :class:`CDCPipeline`."""

    #: Deltas applied per batch at most.
    max_batch_size: int = 64
    #: Seconds a batch may wait for more deltas after its first one.
    max_linger_s: float = 0.05
    #: Bounded-buffer capacity between feed reader and applier.
    queue_maxsize: int = 256
    #: Retries per delta before quarantine.
    max_retries: int = 3
    #: Base of the exponential backoff (seconds): base * 2**attempt.
    retry_base_s: float = 0.01
    #: Backoff ceiling (seconds).
    retry_cap_s: float = 1.0
    #: Write a checkpoint every N applied deltas (0 disables periodic
    #: checkpoints; a final one is still written when a dir is set).
    checkpoint_every: int = 0
    #: Maintain the standing SHACL report (requires a validator).
    validate: bool = True


@dataclass
class PipelineStats:
    """Counters accumulated over a pipeline's lifetime."""

    deltas_applied: int = 0
    deltas_skipped: int = 0
    deltas_quarantined: int = 0
    retries: int = 0
    batches: int = 0
    triples_added: int = 0
    triples_removed: int = 0
    focus_rechecked: int = 0
    checkpoints: int = 0
    backpressure_waits: int = 0
    #: End-to-end latency samples (seconds), newest last; bounded.
    latencies: list[float] = field(default_factory=list)
    #: Staleness samples (seconds) taken after each batch; bounded.
    staleness: list[float] = field(default_factory=list)


_MAX_SAMPLES = 100_000


class CDCPipeline:
    """Applies a changefeed to a transformed graph, store, and validator.

    Args:
        transformed: the maintained transformation result.
        source_graph: the RDF graph the deltas evolve; kept in sync so
            effective deltas and revalidation are computable.
        store: optional store wrapping ``transformed.graph`` — mutations
            then keep its indexes/statistics/version fresh.
        validator: optional :class:`DeltaValidator` over ``source_graph``.
        config: batching/backpressure/retry/checkpoint tunables.
        quarantine_path: dead-letter JSONL file for poison deltas.
        checkpoint_dir: directory for watermark + snapshots.
        watermark: highest already-applied sequence number (resume).
    """

    def __init__(
        self,
        transformed: TransformedGraph,
        source_graph: Graph,
        store: PropertyGraphStore | None = None,
        validator: DeltaValidator | None = None,
        config: CDCConfig | None = None,
        quarantine_path: str | Path | None = None,
        checkpoint_dir: str | Path | None = None,
        watermark: int = -1,
    ):
        self.transformed = transformed
        self.graph = source_graph
        self.store = store
        self.validator = validator
        self.config = config or CDCConfig()
        self.quarantine_path = Path(quarantine_path) if quarantine_path else None
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.watermark = watermark
        self.stats = PipelineStats()
        self._inc = IncrementalTransformer(transformed, store=store)
        self._since_checkpoint = 0
        metrics = obs.get_metrics()
        self._m_latency = metrics.histogram(
            "repro_cdc_delta_latency_seconds",
            boundaries=obs.LATENCY_BOUNDARIES,
            help="end-to-end delta latency (arrival to applied)",
        )
        self._m_staleness = metrics.gauge(
            "repro_cdc_staleness_seconds",
            help="lag of the materialized PG behind the stream head",
        )
        self._m_queue = metrics.gauge(
            "repro_cdc_queue_depth", help="deltas buffered awaiting apply"
        )
        self._m_deltas = metrics.counter(
            "repro_cdc_deltas_total", help="deltas by outcome"
        )
        self._m_triples = metrics.counter(
            "repro_cdc_triples_total", help="effective triples by op"
        )
        self._m_backpressure = metrics.counter(
            "repro_cdc_backpressure_waits_total",
            help="times the feed reader blocked on a full buffer",
        )
        self._m_retries = metrics.counter(
            "repro_cdc_retries_total", help="delta apply retries"
        )
        self._m_quarantined = metrics.counter(
            "repro_cdc_quarantined_total", help="deltas sent to dead-letter"
        )
        self._m_revalidated = metrics.counter(
            "repro_cdc_revalidated_focus_total",
            help="focus nodes rechecked by delta-scoped revalidation",
        )
        self._m_checkpoints = metrics.counter(
            "repro_cdc_checkpoints_total", help="checkpoints written"
        )
        self._m_batch = metrics.histogram(
            "repro_cdc_batch_seconds",
            boundaries=obs.LATENCY_BOUNDARIES,
            help="wall time per applied CDC batch",
        )
        self._m_store_nodes = metrics.gauge(
            "repro_store_nodes", help="nodes in the maintained property graph"
        )
        self._m_store_edges = metrics.gauge(
            "repro_store_edges", help="edges in the maintained property graph"
        )
        self._m_graph_triples = metrics.gauge(
            "repro_graph_triples", help="triples in the tracked source graph"
        )
        self._update_size_gauges()

    def _store_sizes(self) -> tuple[int, int, int]:
        if self.store is not None:
            nodes, edges = self.store.node_count(), self.store.edge_count()
        else:
            graph = self.transformed.graph
            nodes, edges = len(graph.nodes), len(graph.edges)
        return nodes, edges, len(self.graph)

    def _update_size_gauges(self) -> None:
        nodes, edges, triples = self._store_sizes()
        self._m_store_nodes.set(nodes)
        self._m_store_edges.set(edges)
        self._m_graph_triples.set(triples)

    def health_snapshot(self) -> dict:
        """Liveness summary for the ops endpoint's ``/healthz``."""
        stats = self.stats
        nodes, edges, triples = self._store_sizes()
        return {
            "watermark": self.watermark,
            "store_nodes": nodes,
            "store_edges": edges,
            "graph_triples": triples,
            "deltas_applied": stats.deltas_applied,
            "deltas_skipped": stats.deltas_skipped,
            "deltas_quarantined": stats.deltas_quarantined,
            "batches": stats.batches,
            "staleness_s": stats.staleness[-1] if stats.staleness else None,
            "conforms": (
                self.validator.conforms if self.validator is not None else None
            ),
        }

    # ------------------------------------------------------------------ #
    # Stream consumption
    # ------------------------------------------------------------------ #

    async def run(self, feed) -> PipelineStats:
        """Consume ``feed`` until it ends; returns the final stats.

        ``feed`` is any async iterable of :class:`Delta` / :class:`BadDelta`
        (both changefeed classes qualify).
        """
        buffer = MemoryChangefeed(maxsize=self.config.queue_maxsize)
        reader = asyncio.create_task(self._pump(feed, buffer))
        try:
            await self._drain(buffer)
        finally:
            reader.cancel()
            try:
                await reader
            except asyncio.CancelledError:
                pass
        if self.checkpoint_dir is not None:
            self._checkpoint()
        return self.stats

    async def _pump(self, feed, buffer: MemoryChangefeed) -> None:
        try:
            async for item in feed:
                before = buffer.backpressure_waits
                await buffer.put((item, time.monotonic()))
                waited = buffer.backpressure_waits - before
                if waited:
                    self.stats.backpressure_waits += waited
                    self._m_backpressure.inc(waited)
                self._m_queue.set(len(buffer))
        finally:
            buffer.close()

    async def _drain(self, buffer: MemoryChangefeed) -> None:
        iterator = buffer.__aiter__()
        done = False
        while not done:
            try:
                first = await iterator.__anext__()
            except StopAsyncIteration:
                break
            batch = [first]
            deadline = time.monotonic() + self.config.max_linger_s
            while len(batch) < self.config.max_batch_size:
                timeout = deadline - time.monotonic()
                if timeout <= 0 and self.config.max_linger_s > 0:
                    break
                if not len(buffer) and self.config.max_linger_s <= 0:
                    break
                try:
                    item = await asyncio.wait_for(
                        _anext_or_eof(iterator),
                        timeout=None if self.config.max_linger_s <= 0 else timeout,
                    )
                except asyncio.TimeoutError:
                    break
                if item is _EOF:
                    done = True
                    break
                batch.append(item)
            self._m_queue.set(len(buffer))
            await self._process_batch(batch)

    # ------------------------------------------------------------------ #
    # Batch application
    # ------------------------------------------------------------------ #

    async def _process_batch(self, batch) -> None:
        config = self.config
        batch_start = time.perf_counter()
        with obs.span("cdc.batch", size=len(batch)) as span:
            added_effective = []
            removed_effective = []
            applied = 0
            for item, arrival in batch:
                if isinstance(item, BadDelta):
                    self._quarantine(
                        seq=None, payload=item.text, error=item.error, attempts=0
                    )
                    continue
                if item.seq <= self.watermark:
                    self.stats.deltas_skipped += 1
                    self._m_deltas.inc(status="skipped")
                    continue
                outcome = await self._apply_delta(item)
                if outcome is None:
                    continue
                added, removed = outcome
                added_effective.extend(added)
                removed_effective.extend(removed)
                self.watermark = item.seq
                applied += 1
                self.stats.deltas_applied += 1
                self._since_checkpoint += 1
                self._m_deltas.inc(status="applied")
                latency = time.monotonic() - arrival
                self._m_latency.observe(latency)
                if len(self.stats.latencies) < _MAX_SAMPLES:
                    self.stats.latencies.append(latency)
            rechecked = 0
            if (added_effective or removed_effective) and (
                config.validate and self.validator is not None
            ):
                rechecked = self.validator.apply_delta(
                    added=added_effective, removed=removed_effective
                )
                self.stats.focus_rechecked += rechecked
                self._m_revalidated.inc(rechecked)
            if applied:
                staleness = time.monotonic() - min(
                    arrival for _, arrival in batch
                )
                self._m_staleness.set(staleness)
                if len(self.stats.staleness) < _MAX_SAMPLES:
                    self.stats.staleness.append(staleness)
            self.stats.batches += 1
            if applied:
                self._update_size_gauges()
            span.set("applied", applied)
            span.set("triples_added", len(added_effective))
            span.set("triples_removed", len(removed_effective))
            span.set("rechecked", rechecked)
            if (
                self.checkpoint_dir is not None
                and config.checkpoint_every > 0
                and self._since_checkpoint >= config.checkpoint_every
            ):
                self._checkpoint()
        batch_s = time.perf_counter() - batch_start
        self._m_batch.observe(batch_s)
        # Slow batches land in the flight recorder's slow-op log (when
        # one is installed) so /debug/slow covers ingest, not just queries.
        if obs.get_recorder() is not None:
            obs.record_op(
                "cdc.batch",
                f"batch@{self.watermark}",
                batch_s,
                detail={
                    "size": len(batch),
                    "applied": applied,
                    "triples_added": len(added_effective),
                    "triples_removed": len(removed_effective),
                    "watermark": self.watermark,
                },
            )

    async def _apply_delta(self, delta: Delta):
        """Apply one delta; returns (added, removed) effective triples.

        Returns None when the delta was quarantined.
        """
        config = self.config
        attempt = 0
        while True:
            try:
                # Dry-run the additions first: a poison delta must fail
                # before any shared state is touched.
                self._inc.probe_additions(delta.added)
                break
            except ReproError as exc:
                if attempt >= config.max_retries:
                    self._quarantine(
                        seq=delta.seq,
                        payload=delta_to_json(delta),
                        error=str(exc),
                        attempts=attempt + 1,
                    )
                    return None
                self.stats.retries += 1
                self._m_retries.inc()
                backoff = min(
                    config.retry_cap_s, config.retry_base_s * (2 ** attempt)
                )
                await asyncio.sleep(backoff)
                attempt += 1
        # Reduce to the effective delta against the tracked source graph:
        # removals of absent triples and re-adds of present ones are
        # no-ops for a from-scratch transform, so they must be no-ops
        # here too (Graph.remove/add report actual presence changes).
        removed = [t for t in delta.removed if self.graph.remove(t)]
        added = [t for t in delta.added if self.graph.add(t)]
        self._inc.apply_deletions(removed)
        self._inc.apply_additions(added)
        self.stats.triples_added += len(added)
        self.stats.triples_removed += len(removed)
        if added:
            self._m_triples.inc(len(added), op="add")
        if removed:
            self._m_triples.inc(len(removed), op="remove")
        return added, removed

    # ------------------------------------------------------------------ #
    # Quarantine & checkpoint
    # ------------------------------------------------------------------ #

    def _quarantine(
        self, seq: int | None, payload: str, error: str, attempts: int
    ) -> None:
        self.stats.deltas_quarantined += 1
        self._m_deltas.inc(status="quarantined")
        self._m_quarantined.inc()
        if self.quarantine_path is None:
            return
        import json

        record = {
            "seq": seq,
            "error": error,
            "attempts": attempts,
            "payload": payload,
        }
        with open(self.quarantine_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")

    def _checkpoint(self) -> None:
        from .checkpoint import save_checkpoint

        save_checkpoint(self.checkpoint_dir, self)
        self._since_checkpoint = 0
        self.stats.checkpoints += 1
        self._m_checkpoints.inc()


async def _anext_or_eof(iterator):
    try:
        return await iterator.__anext__()
    except StopAsyncIteration:
        return _EOF


def replay_deltas(pipeline: CDCPipeline, deltas) -> PipelineStats:
    """Synchronously run ``pipeline`` over an in-memory delta sequence."""

    async def _run() -> PipelineStats:
        feed = MemoryChangefeed()
        for delta in deltas:
            await feed.put(delta)
        feed.close()
        return await pipeline.run(feed)

    return asyncio.run(_run())
