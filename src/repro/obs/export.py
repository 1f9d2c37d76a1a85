"""JSONL trace files: write, load, and merge across processes.

One trace file holds the observable record of one or more traced runs:

* a ``header`` line (schema version, so later readers can detect skew),
* one ``span`` line per completed :class:`~repro.obs.tracer.SpanRecord`,
* one ``metrics`` line per tracer with a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.

JSONL rather than one JSON document because the records must survive
the :class:`concurrent.futures.ProcessPoolExecutor` boundary in
:mod:`repro.sim.runner`: each worker writes its *own* per-job file
(atomically: tempfile + rename, the same discipline as
:class:`~repro.sim.runner.ResultCache`), and the parent concatenates
them with :func:`merge_traces` — line-oriented records merge by
appending, no tree surgery required.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.atomic import write_atomic
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import EventRecord, SpanRecord, Tracer

#: Bumped when the record layout changes incompatibly.  Version 2 added
#: ``event`` records (structured fault/error events).  :func:`load_trace`
#: reads this version only.
TRACE_SCHEMA_VERSION = 2

#: File name of the merged whole-run trace inside a trace directory.
MERGED_TRACE_NAME = "trace.jsonl"


class TraceFormatError(ValueError):
    """A trace file that does not parse as schema-versioned JSONL."""


@dataclass
class TraceData:
    """Parsed content of a trace file."""

    spans: list[SpanRecord] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    trace_ids: list[str] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return len(self.events)


def _span_to_json(span: SpanRecord) -> dict:
    return {
        "type": "span",
        "name": span.name,
        "start_s": span.start_s,
        "duration_s": span.duration_s,
        "depth": span.depth,
        "parent": span.parent,
        "counters": dict(span.counters),
        "trace_id": span.trace_id,
    }


def _span_from_json(record: dict) -> SpanRecord:
    return SpanRecord(
        name=record["name"],
        start_s=float(record["start_s"]),
        duration_s=float(record["duration_s"]),
        depth=int(record["depth"]),
        parent=record.get("parent"),
        counters=dict(record.get("counters", {})),
        trace_id=record.get("trace_id", "run"),
    )


def _event_to_json(event: EventRecord) -> dict:
    return {
        "type": "event",
        "name": event.name,
        "fields": dict(event.fields),
        "trace_id": event.trace_id,
    }


def _event_from_json(record: dict) -> EventRecord:
    return EventRecord(
        name=record["name"],
        fields=dict(record.get("fields", {})),
        trace_id=record.get("trace_id", "run"),
    )


def _header_line() -> str:
    return json.dumps(
        {"type": "header", "schema": TRACE_SCHEMA_VERSION, "format": "repro-trace"}
    )


def write_trace(path: Union[str, Path], tracer: Tracer) -> Path:
    """Write one tracer's spans + metrics snapshot as a JSONL trace file.

    The write is atomic (tempfile + rename) so a crashed worker never
    leaves a half-written trace for the parent to choke on.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [_header_line()]
    lines.extend(json.dumps(_span_to_json(span)) for span in tracer.records)
    lines.extend(json.dumps(_event_to_json(event)) for event in tracer.events)
    snapshot = tracer.metrics.snapshot()
    if any(snapshot.values()):
        lines.append(
            json.dumps(
                {"type": "metrics", "trace_id": tracer.trace_id, **snapshot}
            )
        )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    return write_atomic(path, lambda handle: handle.write(data))


def load_trace(path: Union[str, Path]) -> TraceData:
    """Parse a trace file (merged or per-job) back into records."""
    path = Path(path)
    data = TraceData()
    seen_ids: set[str] = set()
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceFormatError(
                    f"{path}:{line_number}: not valid JSON ({error})"
                ) from error
            kind = record.get("type")
            if kind == "header":
                schema = record.get("schema")
                if schema != TRACE_SCHEMA_VERSION:
                    raise TraceFormatError(
                        f"{path}: trace schema {schema!r} "
                        f"(this reader understands {TRACE_SCHEMA_VERSION})"
                    )
            elif kind == "span":
                span = _span_from_json(record)
                data.spans.append(span)
                if span.trace_id not in seen_ids:
                    seen_ids.add(span.trace_id)
                    data.trace_ids.append(span.trace_id)
            elif kind == "event":
                data.events.append(_event_from_json(record))
            elif kind == "metrics":
                data.metrics.merge(record)
            else:
                raise TraceFormatError(
                    f"{path}:{line_number}: unknown record type {kind!r}"
                )
    return data


def merge_traces(
    sources: Sequence[Union[str, Path]], out_path: Union[str, Path]
) -> Path:
    """Concatenate per-job trace files into one merged trace.

    Every source is parsed first (so a corrupt per-job file fails the
    merge loudly rather than poisoning the merged trace), then written
    back out as a single schema-versioned file.  This is the parent
    side of the process-pool story: workers wrote the sources,
    :func:`repro.sim.runner.run_grid` calls this once they are done.
    """
    out_path = Path(out_path)
    lines = [_header_line()]
    merged_metrics = MetricsRegistry()
    for source in sources:
        data = load_trace(source)
        lines.extend(json.dumps(_span_to_json(span)) for span in data.spans)
        lines.extend(json.dumps(_event_to_json(event)) for event in data.events)
        merged_metrics.merge(data.metrics.snapshot())
    snapshot = merged_metrics.snapshot()
    if any(snapshot.values()):
        lines.append(json.dumps({"type": "metrics", "trace_id": "merged", **snapshot}))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    return write_atomic(out_path, lambda handle: handle.write(data))


def job_trace_files(directory: Union[str, Path]) -> list[Path]:
    """The per-job trace files a runner left in ``directory``, sorted."""
    return sorted(Path(directory).glob("job-*.jsonl"))


def merge_job_traces(
    directory: Union[str, Path], out_name: str = MERGED_TRACE_NAME
) -> Optional[Path]:
    """Merge every per-job trace in ``directory`` into one file.

    Returns the merged path, or None when there are no job traces
    (e.g. every grid cell came from the result cache).
    """
    directory = Path(directory)
    sources: Iterable[Path] = job_trace_files(directory)
    sources = list(sources)
    if not sources:
        return None
    return merge_traces(sources, directory / out_name)
