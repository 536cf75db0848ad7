"""Counters, gauges, and fixed-boundary histograms with Prometheus export.

The registry follows the Prometheus data model: a *family* is a named
metric of one kind; a family with labels holds one child instrument per
distinct label set.  Both label-less use::

    get_metrics().counter("repro_transform_runs_total").inc()

and labelled use::

    get_metrics().counter("repro_validator_checks_total").inc(3, shape="Person")

go through the family.  :meth:`MetricsRegistry.to_prometheus` renders
the text exposition format; :meth:`MetricsRegistry.snapshot` produces a
JSON-ready dict (embedded in the ``BENCH_*.json`` benchmark artifacts).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "histogram_from_samples",
    "quantiles_from_histogram",
    "DEFAULT_BOUNDARIES",
    "LATENCY_BOUNDARIES",
    "Q_ERROR_BOUNDARIES",
]

#: Default histogram bucket boundaries (seconds-flavoured).
DEFAULT_BOUNDARIES: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
)

#: Sub-second-biased boundaries for per-event latencies (e.g. the CDC
#: pipeline's end-to-end delta latency), where the interesting range is
#: hundreds of microseconds to a few seconds.
LATENCY_BOUNDARIES: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for cardinality q-errors: 1.0 is a perfect estimate, >10 is
#: a badly mis-ordered join, >1000 is pathological.
Q_ERROR_BOUNDARIES: tuple[float, ...] = (
    1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0, 1000.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A fixed-boundary histogram (cumulative buckets, Prometheus-style)."""

    __slots__ = ("boundaries", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(self, boundaries: tuple[float, ...] = DEFAULT_BOUNDARIES):
        self.boundaries = tuple(sorted(boundaries))
        #: One count per boundary plus the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: int | float) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative-count)`` rows, ending with ``(inf, count)``."""
        rows = []
        running = 0
        for boundary, bucket in zip(self.boundaries, self.bucket_counts):
            running += bucket
            rows.append((boundary, running))
        rows.append((float("inf"), self.count))
        return rows

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "buckets": {
                ("+Inf" if le == float("inf") else repr(le)): cumulative
                for le, cumulative in self.cumulative()
            },
        }


def quantiles_from_histogram(
    histogram: Histogram, qs: tuple[float, ...] = (0.5, 0.95, 0.99)
) -> list[float]:
    """Estimate quantiles from a fixed-boundary histogram.

    The shared percentile path for the ops server's
    ``/debug/statements``, the serve summary and the benchmark
    artifacts.  Each
    quantile is found by walking the buckets to the target rank and
    interpolating linearly inside the containing bucket (the first
    bucket interpolates from 0, the +Inf overflow bucket is capped at
    the top boundary — fixed-boundary histograms cannot resolve beyond
    it).  An empty histogram reports 0.0 for every quantile.
    """
    total = histogram.count
    if total == 0:
        return [0.0 for _ in qs]
    boundaries = histogram.boundaries
    values: list[float] = []
    for q in qs:
        rank = q * total
        running = 0
        value = float(boundaries[-1])
        for index, bucket in enumerate(histogram.bucket_counts):
            if bucket and running + bucket >= rank:
                lo = 0.0 if index == 0 else boundaries[index - 1]
                hi = (
                    boundaries[index]
                    if index < len(boundaries)
                    else boundaries[-1]
                )
                fraction = max(0.0, min(1.0, (rank - running) / bucket))
                value = lo + (hi - lo) * fraction
                break
            running += bucket
        values.append(value)
    return values


def histogram_from_samples(
    samples, boundaries: tuple[float, ...] = LATENCY_BOUNDARIES
) -> Histogram:
    """Bucket raw samples so they can feed :func:`quantiles_from_histogram`."""
    histogram = Histogram(boundaries)
    for sample in samples:
        histogram.observe(sample)
    return histogram


class _Family:
    """All instruments of one metric name (one per label set)."""

    def __init__(self, name: str, kind: str, help: str, factory):
        self.name = name
        self.kind = kind
        self.help = help
        self._factory = factory
        self._children: dict[tuple[tuple[str, str], ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """The child instrument for one label set (created on demand)."""
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._factory())
        return child

    # Convenience: calling the family without labels() operates on the
    # label-less child, so `counter(name).inc(3, shape="X")` and
    # `counter(name).inc()` both read naturally.
    def inc(self, amount: int | float = 1, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def set(self, value: int | float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def observe(self, value: int | float, **labels: str) -> None:
        self.labels(**labels).observe(value)

    def children(self) -> list[tuple[tuple[tuple[str, str], ...], object]]:
        with self._lock:
            return sorted(self._children.items())


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{_escape_label(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """A named collection of metric families."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Family constructors (idempotent by name)
    # ------------------------------------------------------------------ #

    def _family(self, name: str, kind: str, help: str, factory) -> _Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.setdefault(
                    name, _Family(name, kind, help, factory)
                )
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        return family

    def counter(self, name: str, help: str = "") -> _Family:
        """Get-or-create a counter family."""
        return self._family(name, "counter", help, Counter)

    def gauge(self, name: str, help: str = "") -> _Family:
        """Get-or-create a gauge family."""
        return self._family(name, "gauge", help, Gauge)

    def histogram(
        self,
        name: str,
        boundaries: tuple[float, ...] = DEFAULT_BOUNDARIES,
        help: str = "",
    ) -> _Family:
        """Get-or-create a histogram family with fixed bucket boundaries."""
        return self._family(
            name, "histogram", help, lambda: Histogram(boundaries)
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def family(self, name: str) -> _Family | None:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> dict:
        """JSON-ready dump: name -> {kind, help, series: [...]}."""
        out: dict[str, dict] = {}
        for family in self.families():
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": [
                    {"labels": dict(labels), **instrument.snapshot()}
                    for labels, instrument in family.children()
                ],
            }
        return out

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, instrument in family.children():
                if family.kind == "histogram":
                    for le, cumulative in instrument.cumulative():
                        le_text = "+Inf" if le == float("inf") else _format_value(float(le))
                        label_text = _render_labels(labels, f'le="{le_text}"')
                        lines.append(
                            f"{family.name}_bucket{label_text} {cumulative}"
                        )
                    label_text = _render_labels(labels)
                    lines.append(
                        f"{family.name}_sum{label_text} "
                        f"{_format_value(float(instrument.sum))}"
                    )
                    lines.append(
                        f"{family.name}_count{label_text} {instrument.count}"
                    )
                else:
                    label_text = _render_labels(labels)
                    lines.append(
                        f"{family.name}{label_text} "
                        f"{_format_value(float(instrument.value))}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every family (used between CLI runs and in tests)."""
        with self._lock:
            self._families.clear()


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry (always available)."""
    return _METRICS
