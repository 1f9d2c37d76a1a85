"""Per-stage breakdowns of a trace: time, energy and coverage.

Takes the flat span stream of a trace file and answers the questions
the paper's accounting argument needs answered per stage rather than
per run: how much wall time each stage of
encode -> packetize -> channel -> decode -> conceal consumed, how much
of that the root spans account for (*coverage* — close to 100% means
the instrumentation actually sees the run), and what the stage's
operation payloads cost in energy under a device profile.

Energy attribution works because the instrumented spans name their
payload counters after :class:`repro.energy.counters.OperationCounters`
fields (``sad_blocks``, ``dct_blocks``, ``entropy_bits``, ...): any
payload key the device profile can price contributes to the stage's
energy column; the rest (``packets_lost``, ``bits``) stay informational.

This module is deliberately a leaf (stdlib + :mod:`repro.energy` only)
so the observability layer never imports the pipeline it observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.energy.counters import OperationCounters
from repro.energy.profiles import DeviceProfile
from repro.obs.export import TraceData
from repro.obs.tracer import SpanRecord

#: The root span each traced run opens around the whole pipeline.
ROOT_SPAN = "simulate"

#: Payload keys the energy model can price (OperationCounters fields).
_ENERGY_COUNTERS = frozenset(
    f.name for f in OperationCounters.__dataclass_fields__.values()
)


@dataclass
class StageStats:
    """Aggregate of every span sharing one name.

    ``parent`` is the enclosing span's name at the stage's shallowest
    occurrence (``None`` for a top-level stage).
    """

    name: str
    count: int = 0
    total_s: float = 0.0
    min_depth: int = 0
    parent: Optional[str] = None
    counters: dict[str, float] = field(default_factory=dict)

    def absorb(self, span: SpanRecord) -> None:
        if not self.count or span.depth < self.min_depth:
            self.min_depth = span.depth
            self.parent = span.parent
        self.count += 1
        self.total_s += span.duration_s
        for key, value in span.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def energy_joules(self, device: DeviceProfile) -> float:
        """Price this stage's priceable payload counters, in joules."""
        return sum(
            value * device.cost_of(name) * 1e-6
            for name, value in self.counters.items()
            if name in _ENERGY_COUNTERS
        )


def aggregate_stages(spans: Iterable[SpanRecord]) -> list[StageStats]:
    """Group spans by name, in first-appearance order."""
    stages: dict[str, StageStats] = {}
    for span in spans:
        stage = stages.get(span.name)
        if stage is None:
            stage = stages[span.name] = StageStats(name=span.name)
        stage.absorb(span)
    return list(stages.values())


@dataclass(frozen=True)
class Coverage:
    """How much of the traced wall time the stage spans explain.

    ``root_s`` is the summed duration of the ``simulate`` root spans;
    ``stages_s`` the summed duration of their direct children.  The
    acceptance bar for the instrumentation is ``ratio`` within 2% of
    1.0: the per-stage totals account for the run's reported wall time.
    """

    root_s: float
    stages_s: float

    @property
    def ratio(self) -> float:
        return self.stages_s / self.root_s if self.root_s else 0.0


def coverage(spans: Sequence[SpanRecord]) -> Coverage:
    """Stage-time coverage of the root spans, per the class docstring."""
    root_depths = {
        (span.trace_id, span.depth)
        for span in spans
        if span.name == ROOT_SPAN
    }
    root_s = sum(s.duration_s for s in spans if s.name == ROOT_SPAN)
    stages_s = sum(
        s.duration_s
        for s in spans
        if s.parent == ROOT_SPAN and (s.trace_id, s.depth - 1) in root_depths
    )
    return Coverage(root_s=root_s, stages_s=stages_s)


def _stage_tree(stages: Sequence[StageStats]) -> list[tuple[int, StageStats]]:
    """``(level, stage)`` rows: each stage under its parent, depth first.

    Siblings are ordered by total time; a stage whose parent is not a
    stage of this trace is a root.  A parent always sits shallower than
    its child, so the parent links form a forest.
    """
    names = {stage.name for stage in stages}
    children: dict[Optional[str], list[StageStats]] = {}
    for stage in sorted(stages, key=lambda s: -s.total_s):
        parent = stage.parent if stage.parent in names else None
        children.setdefault(parent, []).append(stage)
    rows: list[tuple[int, StageStats]] = []

    def place(parent: Optional[str], level: int) -> None:
        for stage in children.get(parent, ()):
            rows.append((level, stage))
            place(stage.name, level + 1)

    place(None, 0)
    return rows


def _format_table(headers: Sequence[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _notable_counters(stage: StageStats, limit: int = 3) -> str:
    parts = [
        f"{name}={int(value):,}" if float(value).is_integer() else f"{name}={value:.3g}"
        for name, value in sorted(
            stage.counters.items(), key=lambda item: -abs(item[1])
        )[:limit]
    ]
    return " ".join(parts)


def trace_summary(
    trace: TraceData, device: Optional[DeviceProfile] = None
) -> str:
    """Render the per-stage time/energy breakdown table of a trace.

    One row per span name (stage), indented under its parent stage,
    siblings ordered by total time; the energy column prices each
    stage's operation payloads with ``device``
    (omitted when no profile is given).  Ends with the coverage line
    the CI smoke test greps for.
    """
    spans = trace.spans
    if not spans:
        return "trace is empty (no spans recorded)"
    stages = aggregate_stages(spans)
    total_s = sum(s.duration_s for s in spans if s.name == ROOT_SPAN)
    if total_s == 0.0:  # trace without a simulate root: fall back
        total_s = sum(s.total_s for s in stages if s.min_depth == 1)

    headers = ["stage", "spans", "total s", "share %"]
    if device is not None:
        headers.append("energy J")
    headers.append("counters")
    rows = []
    for level, stage in _stage_tree(stages):
        share = 100.0 * stage.total_s / total_s if total_s else 0.0
        row = [
            "  " * level + stage.name,
            str(stage.count),
            f"{stage.total_s:.3f}",
            f"{share:.1f}",
        ]
        if device is not None:
            row.append(f"{stage.energy_joules(device):.3f}")
        row.append(_notable_counters(stage))
        rows.append(row)

    lines = [
        f"{len(spans)} spans across {len(trace.trace_ids)} trace(s): "
        + ", ".join(trace.trace_ids[:8])
        + ("..." if len(trace.trace_ids) > 8 else ""),
        _format_table(headers, rows),
    ]
    cov = coverage(spans)
    if cov.root_s:
        lines.append(
            f"stage coverage: {cov.stages_s:.3f}s of {cov.root_s:.3f}s "
            f"traced wall time ({100.0 * cov.ratio:.1f}%)"
        )
    if trace.events:
        by_name: dict[str, int] = {}
        for event in trace.events:
            label = event.name
            if label == "fault":
                label = f"fault:{event.fields.get('kind', '?')}"
            by_name[label] = by_name.get(label, 0) + 1
        rendered = "  ".join(
            f"{name}={count}" for name, count in sorted(by_name.items())
        )
        lines.append(f"events: {len(trace.events)} ({rendered})")
    snapshot = trace.metrics.snapshot()
    counter_items = sorted(snapshot["counters"].items())
    if counter_items:
        rendered = "  ".join(
            f"{name}={int(value):,}"
            if float(value).is_integer()
            else f"{name}={value:.4g}"
            for name, value in counter_items
        )
        lines.append(f"metrics: {rendered}")
    return "\n".join(lines)
