"""Nested-span tracing with near-zero cost when disabled.

The tracer answers the question the aggregate reports cannot: *where*
inside encode -> packetize -> channel -> decode -> conceal a run spends
its time and its operation budget.  Instrumented code asks for the
process-current tracer (:func:`get_tracer`) and opens named spans
around each pipeline stage::

    tracer = get_tracer()
    with tracer.span("encode_frame") as span:
        encoded = encoder.encode_frame(frame)
        span.add(bits=encoded.stats.bits)

Spans nest: a ``motion_estimation`` span opened while ``encode_frame``
is live records ``encode_frame`` as its parent and depth 2.  Counter
payloads (SAD candidates, bits written, packets dropped) attach to the
innermost open span, either through the handle's :meth:`Span.add` or —
for code that should not know about the span structure around it —
through :meth:`Tracer.count`.

The default tracer is a shared :class:`NullTracer` whose spans are a
single reusable no-op object, so the instrumented hot path costs one
method call and an empty context manager per stage — within noise.
A real :class:`Tracer` is installed only for the duration of a traced
run via :func:`use_tracer` (or :func:`set_tracer`), and is
process-local: worker processes build their own and export records
through the JSONL boundary (:mod:`repro.obs.export`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry


@dataclass(frozen=True)
class SpanRecord:
    """One completed span — the unit the JSONL exporter writes.

    Attributes:
        name: stage name (``encode_frame``, ``channel``, ...).
        start_s: start timestamp from ``time.perf_counter`` —
            meaningful for ordering/nesting within one trace, not
            across processes.
        duration_s: wall-clock length of the span.
        depth: nesting depth at open time (1 = top-level span).
        parent: name of the enclosing span, or None at depth 1.
        counters: numeric payloads attached while the span was open.
        trace_id: label of the trace this span belongs to (one trace
            per traced run/job; the runner uses the job's grid cell).
    """

    name: str
    start_s: float
    duration_s: float
    depth: int
    parent: Optional[str]
    counters: Mapping[str, float] = field(default_factory=dict)
    trace_id: str = "run"


@dataclass(frozen=True)
class EventRecord:
    """One discrete, structured occurrence (as opposed to a timed span).

    Spans measure *stages*; events record *things that happened* —
    an injected fault, a concealed decoder error, a quarantined job.
    Fields may hold strings as well as numbers (span counters cannot),
    so structured records like :class:`repro.faults.plan.FaultEvent` ride
    the trace without flattening.
    """

    name: str
    fields: Mapping[str, Any] = field(default_factory=dict)
    trace_id: str = "run"


class Span:
    """Live handle for an open span (context manager)."""

    __slots__ = ("_tracer", "name", "_counters", "_start", "_depth", "_parent")

    def __init__(self, tracer: "Tracer", name: str, counters: dict) -> None:
        self._tracer = tracer
        self.name = name
        self._counters = counters
        self._start = 0.0
        self._depth = 0
        self._parent: Optional[str] = None

    def add(self, **counters: float) -> "Span":
        """Accumulate numeric payload values onto this span."""
        for key, value in counters.items():
            self._counters[key] = self._counters.get(key, 0) + value
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        self._parent = stack[-1].name if stack else None
        self._depth = len(stack) + 1
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        # A plain tuple: the record is built when ``records`` is read,
        # so closing a span costs its parent span next to nothing.
        tracer._closed.append(
            (
                self.name,
                self._start,
                end - self._start,
                self._depth,
                self._parent,
                self._counters,
                tracer.trace_id,
            )
        )


class _NullSpan:
    """Reusable do-nothing span: the disabled-tracing hot path."""

    __slots__ = ()

    def add(self, **counters: float) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`SpanRecord` objects for one traced run.

    Not thread-safe by design: one tracer belongs to one run in one
    process (the simulation pipeline is single-threaded; parallelism
    happens at process granularity, where each worker owns a tracer).
    """

    enabled = True

    def __init__(self, trace_id: str = "run") -> None:
        self.trace_id = trace_id
        self.events: list[EventRecord] = []
        self.metrics: MetricsRegistry = MetricsRegistry()
        self._stack: list[Span] = []
        self._records: list[SpanRecord] = []
        self._closed: list[tuple] = []

    @property
    def records(self) -> list[SpanRecord]:
        """Every closed span's :class:`SpanRecord`, in closing order."""
        if self._closed:
            self._records.extend(SpanRecord(*closed) for closed in self._closed)
            self._closed.clear()
        return self._records

    def span(self, name: str, **counters: float):
        """Open a named span; use as a context manager."""
        return Span(self, name, dict(counters))

    def event(self, name: str, **fields: Any) -> None:
        """Record a discrete structured event (fault, error, decision)."""
        self.events.append(
            EventRecord(name=name, fields=fields, trace_id=self.trace_id)
        )

    def count(self, **counters: float) -> None:
        """Attach counters to the innermost open span (if any).

        Lets leaf code (motion estimators, the channel) report work
        without knowing what stage span the caller wrapped it in;
        counters are dropped when no span is open.
        """
        if self._stack:
            self._stack[-1].add(**counters)


class NullTracer(Tracer):
    """The default: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(trace_id="null")
        self.metrics = NullMetricsRegistry()

    def span(self, name: str, **counters: float):
        return _NULL_SPAN

    def event(self, name: str, **fields: Any) -> None:
        return None

    def count(self, **counters: float) -> None:
        return None


NULL_TRACER = NullTracer()

_current_tracer: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-current tracer (the shared no-op one by default)."""
    return _current_tracer


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` (None restores the no-op); returns the previous."""
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
