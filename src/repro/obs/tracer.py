"""Hierarchical span tracing with contextvar propagation.

The tracer is the collection half of :mod:`repro.obs`: code under
measurement opens *spans* (named, attributed intervals on the monotonic
clock) through the module-level :func:`span` helper, and the active
:class:`Tracer` — installed per run via :func:`configure` — records every
finished span for export (JSON-lines, Chrome trace events, see
:mod:`repro.obs.export`).

Two properties drive the design:

* **zero cost when disabled** — :func:`span` short-circuits to a shared
  no-op context manager when no tracer is configured, so instrument
  points may stay in hot paths unconditionally;
* **contextvar parenting** — the current span lives in a
  :class:`~contextvars.ContextVar`, so nesting works across call
  boundaries without threading span objects through signatures, and
  concurrent threads/tasks are isolated from each other.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "configure",
    "current_span",
    "disable",
    "enabled",
    "get_tracer",
    "set_tracer",
    "span",
    "timed_span",
]

_IDS = itertools.count(1)


def _new_id(prefix: str = "s") -> str:
    """A process-unique identifier (pid + process-local counter)."""
    return f"{prefix}{os.getpid():x}-{next(_IDS):x}"


@dataclass
class Span:
    """One named interval on the monotonic clock.

    Attributes are free-form key -> value pairs; :meth:`incr` treats an
    attribute as a counter (so per-span counters and attributes share
    one namespace, as in the OpenTelemetry span model).
    """

    name: str
    span_id: str
    trace_id: str
    parent_id: str | None
    start_ns: int
    end_ns: int | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    pid: int = field(default_factory=os.getpid)
    tid: int = 0
    _cpu0: float | None = None

    def set(self, key: str, value: object) -> None:
        """Set one attribute."""
        self.attributes[key] = value

    def incr(self, key: str, amount: int | float = 1) -> None:
        """Increment a numeric attribute (a per-span counter)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (0 while the span is still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return self.duration_ns / 1e9

    def as_dict(self) -> dict:
        """A JSON-friendly snapshot."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attributes": dict(self.attributes),
            "status": self.status,
            "pid": self.pid,
            "tid": self.tid,
        }


#: The active span of the current execution context (thread / task).
_CURRENT: ContextVar[Span | None] = ContextVar("repro_obs_current_span", default=None)


class Tracer:
    """Collects finished spans of one run.

    Thread-safe: spans may finish on any thread; parenting follows the
    contextvar of the opening context.

    Args:
        trace_id: explicit trace identity (one is generated otherwise).
        max_spans: when set, retain only the most recent ``max_spans``
            finished spans (a bounded ring, for always-on services
            where an unbounded run would grow without limit).
    """

    def __init__(self, trace_id: str | None = None, max_spans: int | None = None):
        self.trace_id = trace_id or _new_id("t")
        self.max_spans = max_spans
        self._spans: deque[Span] | list[Span] = (
            deque(maxlen=max_spans) if max_spans is not None else []
        )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #

    def start_span(
        self,
        name: str,
        parent: Span | None = None,
        cpu: bool = False,
        **attributes: object,
    ) -> Span:
        """Open a span without activating it (no contextvar push).

        Parent resolution order: explicit ``parent`` span, then the
        contextvar-current span.  ``cpu=True`` additionally samples
        process CPU time, ending up in the ``cpu_s`` attribute.
        """
        if parent is not None:
            parent_id, trace_id = parent.span_id, parent.trace_id
        else:
            current = _CURRENT.get()
            parent_id = current.span_id if current is not None else None
            trace_id = current.trace_id if current is not None else self.trace_id
        span = Span(
            name=name,
            span_id=_new_id(),
            trace_id=trace_id,
            parent_id=parent_id,
            start_ns=time.perf_counter_ns(),
            attributes=dict(attributes),
            tid=threading.get_ident() & 0xFFFFFFFF,
        )
        if cpu:
            span._cpu0 = time.process_time()
        return span

    def end_span(self, span: Span) -> None:
        """Close a span and record it."""
        span.end_ns = time.perf_counter_ns()
        if span._cpu0 is not None:
            span.attributes["cpu_s"] = round(time.process_time() - span._cpu0, 6)
            span._cpu0 = None
        with self._lock:
            self._spans.append(span)

    @contextmanager
    def span(
        self,
        name: str,
        parent: Span | None = None,
        cpu: bool = False,
        **attributes: object,
    ):
        """Open, activate, and (on exit) record a span.

        The span becomes the contextvar-current span for the duration of
        the block; an exception marks it ``status="error"`` (recording
        the exception type) and propagates.
        """
        span = self.start_span(name, parent=parent, cpu=cpu, **attributes)
        token = _CURRENT.set(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attributes.setdefault("exception", type(exc).__name__)
            raise
        finally:
            _CURRENT.reset(token)
            self.end_span(span)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def finished(self) -> list[Span]:
        """Snapshot of all recorded (closed) spans, in finish order."""
        with self._lock:
            return list(self._spans)

    def serialized(self) -> list[dict]:
        """All recorded spans as dicts (for the exporters and ``/debug/trace``)."""
        return [span.as_dict() for span in self.finished()]

    def clear(self) -> None:
        """Drop all recorded spans."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:
        return f"<Tracer {self.trace_id} spans={len(self)}>"


# --------------------------------------------------------------------- #
# Module-level API (the zero-cost instrument points)
# --------------------------------------------------------------------- #

class _NoopSpan:
    """The span handed out when tracing is disabled: absorbs everything."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        pass

    def incr(self, key: str, amount: int | float = 1) -> None:
        pass

    @property
    def attributes(self) -> dict:
        return {}

    @property
    def duration_s(self) -> float:
        return 0.0


class _NoopSpanManager:
    """A reusable no-op context manager (no allocation per call)."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP_CM = _NoopSpanManager()

_TRACER: Tracer | None = None


def configure(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the process-global tracer."""
    global _TRACER
    _TRACER = tracer or Tracer()
    return _TRACER


def disable() -> None:
    """Remove the global tracer; :func:`span` reverts to the no-op path."""
    global _TRACER
    _TRACER = None


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Swap the global tracer, returning the previous one (for restore)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def get_tracer() -> Tracer | None:
    """The global tracer, or None when tracing is disabled."""
    return _TRACER


def enabled() -> bool:
    """Whether a global tracer is installed."""
    return _TRACER is not None


def span(name: str, **attributes: object):
    """Open a span on the global tracer (no-op when tracing is off)."""
    if _TRACER is None:
        return _NOOP_CM
    return _TRACER.span(name, **attributes)


def current_span() -> Span | None:
    """The contextvar-current span, or None."""
    return _CURRENT.get()


@contextmanager
def timed_span(name: str, **attributes: object):
    """A span that measures even when tracing is disabled.

    Used where the caller needs the duration itself (e.g. the benchmark
    phase timers): with a tracer installed this is exactly :func:`span`;
    without one it yields an unrecorded :class:`Span` that still runs on
    the same monotonic clock.
    """
    tracer = _TRACER
    if tracer is not None:
        with tracer.span(name, **attributes) as sp:
            yield sp
        return
    sp = Span(
        name=name,
        span_id="unrecorded",
        trace_id="unrecorded",
        parent_id=None,
        start_ns=time.perf_counter_ns(),
        attributes=dict(attributes),
    )
    try:
        yield sp
    finally:
        sp.end_ns = time.perf_counter_ns()
