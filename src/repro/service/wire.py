"""Schema-versioned wire format of the streaming session service.

Everything that crosses the daemon's HTTP boundary — or lands on disk
as a job record, fleet summary or service manifest — is one of the
typed dataclasses in this module, serialized by its own ``to_json`` and
parsed back by ``from_json``.  The daemon, the :class:`ServiceClient`,
the CLI verbs and the persistent job queue all share this single typed
surface (re-exported through :mod:`repro.api`); nothing on the wire is
ad-hoc.

Versioning: every record carries an explicit ``schema_version``;
writers stamp the current version and readers accept only that
version, so a stale peer fails with a message naming both versions
instead of misreading a record.

The vocabulary:

* :class:`JobSubmit` — a request to enqueue one session: a declarative
  :class:`~repro.sim.runner.JobSpec` plus service-level metadata
  (priority, session class).
* :class:`JobStatus` — one job's queue lifecycle snapshot (state,
  attempt/fail counts, claim owner, timestamps, error).
* :class:`SessionResult` — the delivered quality/cost summary of one
  completed session, including a ``result_digest`` that proves the
  daemon's output identical to a batch :func:`~repro.sim.runner.run_grid`
  of the same spec.
* :class:`FleetSummary` — percentile quality and latency per session
  class across the fleet.
* :class:`ServiceManifest` — the durable accounting artifact: every
  submission appears exactly once as ok/cached/failed/quarantined,
  with the fleet summary attached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.atomic import write_atomic
from repro.codec.rate import RateControlConfig
from repro.codec.types import CodecConfig
from repro.energy.profiles import DeviceProfile
from repro.faults.plan import FaultPlan
from repro.scenarios.pack import ScenarioPack
from repro.sim.pipeline import SimulationConfig, SimulationResult
from repro.sim.runner import JobSpec
from repro.video.synthetic import SyntheticConfig

#: Version stamped on every wire record this module writes, and the
#: only version its readers accept.  Bump on incompatible layout
#: changes.  Version 2 added JobSpec's optional ``rate`` (closed-loop
#: rate control config), version 3 its optional ``scenario`` (channel
#: scenario pack).
WIRE_SCHEMA_VERSION = 3

#: Queue lifecycle states a job moves through (see
#: :class:`repro.service.queue.JobQueue` for the transitions).
JOB_STATES = ("pending", "running", "ok", "cached", "failed", "quarantined")

#: States that terminate a job's lifecycle.
TERMINAL_STATES = frozenset({"ok", "cached", "failed", "quarantined"})


class WireFormatError(ValueError):
    """A wire record that does not parse under any supported schema."""


def check_schema(record: Mapping[str, Any], what: str) -> int:
    """Validate a record's ``schema_version``; returns the version.

    Raises :class:`WireFormatError` on a missing or other version — the
    error names the record type and the version this reader understands
    so a stale client gets an actionable message, not a KeyError.
    """
    schema = record.get("schema_version")
    if schema != WIRE_SCHEMA_VERSION:
        raise WireFormatError(
            f"{what} schema {schema!r} "
            f"(this reader understands {WIRE_SCHEMA_VERSION})"
        )
    return schema


# ---------------------------------------------------------------------------
# JobSpec <-> JSON: the declarative cell crosses the wire as plain JSON
# ---------------------------------------------------------------------------


def _flat_to_json(obj: Any) -> Optional[dict]:
    """Render a flat (primitives-only) dataclass as a plain dict."""
    if obj is None:
        return None
    record = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = _flat_to_json(value)
        record[f.name] = value
    return record


def _flat_from_json(cls: type, record: Optional[Mapping[str, Any]]):
    """Rebuild a flat dataclass, tolerating unknown keys (forward compat)
    and missing keys (the class defaults fill them)."""
    if record is None:
        return None
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in record.items() if k in names})


def _config_to_json(config: SimulationConfig) -> dict:
    return {
        "codec": _flat_to_json(config.codec),
        "mtu": config.mtu,
        "device": _flat_to_json(config.device),
        "bad_pixel_threshold": config.bad_pixel_threshold,
    }


def _config_from_json(record: Optional[Mapping[str, Any]]) -> SimulationConfig:
    if record is None:
        return SimulationConfig()
    defaults = SimulationConfig()
    return SimulationConfig(
        codec=_flat_from_json(CodecConfig, record.get("codec"))
        or defaults.codec,
        mtu=record.get("mtu", defaults.mtu),
        device=_flat_from_json(DeviceProfile, record.get("device"))
        or defaults.device,
        bad_pixel_threshold=record.get(
            "bad_pixel_threshold", defaults.bad_pixel_threshold
        ),
    )


def job_spec_to_json(spec: JobSpec) -> dict:
    """Serialize one grid cell for the wire / the on-disk job record."""
    return {
        "scheme": spec.scheme,
        "plr": spec.plr,
        "channel_seed": spec.channel_seed,
        "sequence": spec.sequence,
        "n_frames": spec.n_frames,
        "synthetic": _flat_to_json(spec.synthetic),
        "granularity": spec.granularity,
        "config": _config_to_json(spec.config),
        "pbpair_kwargs": dict(spec.pbpair_kwargs),
        "faults": spec.faults.to_json() if spec.faults is not None else None,
        "rate": _flat_to_json(spec.rate),
        "scenario": (
            spec.scenario.to_json() if spec.scenario is not None else None
        ),
    }


def job_spec_from_json(record: Mapping[str, Any]) -> JobSpec:
    """Rebuild a :class:`JobSpec` from its wire rendering."""
    faults = record.get("faults")
    scenario = record.get("scenario")
    return JobSpec(
        scheme=record["scheme"],
        plr=float(record.get("plr", 0.1)),
        channel_seed=int(record.get("channel_seed", 0)),
        sequence=record.get("sequence", "foreman"),
        n_frames=int(record.get("n_frames", 90)),
        synthetic=_flat_from_json(SyntheticConfig, record.get("synthetic")),
        granularity=record.get("granularity", "frame"),
        config=_config_from_json(record.get("config")),
        pbpair_kwargs=dict(record.get("pbpair_kwargs", {})),
        faults=FaultPlan.from_json(faults) if faults is not None else None,
        rate=_flat_from_json(RateControlConfig, record.get("rate")),
        scenario=(
            ScenarioPack.from_json(scenario) if scenario is not None else None
        ),
    )


def session_result_digest(result: SimulationResult) -> str:
    """Content digest of everything a session delivered.

    Covers the per-frame observables (sizes, PSNRs, bad pixels, packet
    counts) and the run totals — the full externally visible outcome of
    a simulation.  The daemon stamps it on every
    :class:`SessionResult`; a batch :func:`~repro.sim.runner.run_grid`
    of the same spec produces the same digest exactly when the results
    are identical, which is how the service benchmark proves the
    daemon changes scheduling, never values.
    """
    payload = {
        "frames": [
            [
                f.frame_index,
                f.size_bytes,
                repr(f.psnr_encoder),
                repr(f.psnr_decoder),
                f.bad_pixels,
                f.packets_sent,
                f.packets_lost,
            ]
            for f in result.frames
        ],
        "total_bytes": result.total_bytes,
        "energy": repr(result.energy_joules),
        "lost": len(result.channel_log.lost_packets),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Wire dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSubmit:
    """Request to enqueue one session.

    Attributes:
        spec: the declarative grid cell to execute.
        priority: claim order — higher claims first among pending jobs
            (ties broken by submission order).
        session_class: free-form fleet-reporting label ("interactive",
            "bulk", ...); percentiles in :class:`FleetSummary` group by
            it.
    """

    spec: JobSpec
    priority: int = 0
    session_class: str = "standard"

    def to_json(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "spec": job_spec_to_json(self.spec),
            "priority": self.priority,
            "session_class": self.session_class,
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "JobSubmit":
        check_schema(record, "JobSubmit")
        return cls(
            spec=job_spec_from_json(record["spec"]),
            priority=int(record.get("priority", 0)),
            session_class=record.get("session_class", "standard"),
        )


@dataclass(frozen=True)
class JobStatus:
    """One job's lifecycle snapshot, as reported by ``GET /v1/jobs``.

    Timestamps are absolute ``time.time()`` seconds; ``latency_s`` is
    the end-to-end submit-to-finish latency once terminal.
    """

    job_id: str
    state: str
    priority: int = 0
    session_class: str = "standard"
    content_hash: str = ""
    attempts: int = 0
    fail_count: int = 0
    owner: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    from_cache: bool = False

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {self.state!r} (known: {JOB_STATES})"
            )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def ok(self) -> bool:
        return self.state in ("ok", "cached")

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_json(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "priority": self.priority,
            "session_class": self.session_class,
            "content_hash": self.content_hash,
            "attempts": self.attempts,
            "fail_count": self.fail_count,
            "owner": self.owner,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "from_cache": self.from_cache,
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "JobStatus":
        check_schema(record, "JobStatus")
        return cls(
            job_id=record["job_id"],
            state=record["state"],
            priority=int(record.get("priority", 0)),
            session_class=record.get("session_class", "standard"),
            content_hash=record.get("content_hash", ""),
            attempts=int(record.get("attempts", 0)),
            fail_count=int(record.get("fail_count", 0)),
            owner=record.get("owner"),
            submitted_at=float(record.get("submitted_at", 0.0)),
            started_at=record.get("started_at"),
            finished_at=record.get("finished_at"),
            error=record.get("error"),
            from_cache=bool(record.get("from_cache", False)),
        )


@dataclass(frozen=True)
class SessionResult:
    """Delivered quality/cost summary of one completed session."""

    job_id: str
    session_class: str
    scheme: str
    sequence: str
    n_frames: int
    psnr_db: float
    bad_pixels: int
    encoded_bytes: int
    energy_joules: float
    intra_fraction: float
    packets_lost: int
    packets_sent: int
    result_digest: str
    wall_time_s: float = 0.0
    latency_s: float = 0.0
    attempts: int = 1
    from_cache: bool = False

    @classmethod
    def from_simulation(
        cls,
        job_id: str,
        session_class: str,
        result: SimulationResult,
        *,
        wall_time_s: float = 0.0,
        latency_s: float = 0.0,
        attempts: int = 1,
        from_cache: bool = False,
    ) -> "SessionResult":
        """Summarize a :class:`SimulationResult` for the wire."""
        return cls(
            job_id=job_id,
            session_class=session_class,
            scheme=result.strategy_name,
            sequence=result.sequence_name,
            n_frames=result.n_frames,
            psnr_db=result.average_psnr_decoder,
            bad_pixels=result.total_bad_pixels,
            encoded_bytes=result.total_bytes,
            energy_joules=result.energy_joules,
            intra_fraction=result.intra_fraction,
            packets_lost=len(result.channel_log.lost_packets),
            packets_sent=result.channel_log.sent,
            result_digest=session_result_digest(result),
            wall_time_s=wall_time_s,
            latency_s=latency_s,
            attempts=attempts,
            from_cache=from_cache,
        )

    def to_json(self) -> dict:
        record = {"schema_version": WIRE_SCHEMA_VERSION}
        record.update(
            {
                f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
            }
        )
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "SessionResult":
        check_schema(record, "SessionResult")
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in names})


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``.

    NaN for an empty sample — a fleet summary with no finished sessions
    of a class renders honestly instead of inventing a number.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return float(ordered[low] * (1 - frac) + ordered[high] * frac)


def _percentiles(values: Sequence[float]) -> dict[str, float]:
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
    }


@dataclass(frozen=True)
class ClassSummary:
    """Fleet percentiles of one session class."""

    session_class: str
    sessions: int
    ok: int = 0
    cached: int = 0
    failed: int = 0
    quarantined: int = 0
    latency_s: Mapping[str, float] = field(default_factory=dict)
    psnr_db: Mapping[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "session_class": self.session_class,
            "sessions": self.sessions,
            "ok": self.ok,
            "cached": self.cached,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "latency_s": dict(self.latency_s),
            "psnr_db": dict(self.psnr_db),
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "ClassSummary":
        return cls(
            session_class=record["session_class"],
            sessions=int(record["sessions"]),
            ok=int(record.get("ok", 0)),
            cached=int(record.get("cached", 0)),
            failed=int(record.get("failed", 0)),
            quarantined=int(record.get("quarantined", 0)),
            latency_s=dict(record.get("latency_s", {})),
            psnr_db=dict(record.get("psnr_db", {})),
        )


@dataclass(frozen=True)
class FleetSummary:
    """Percentile quality and latency per session class, fleet-wide."""

    classes: tuple[ClassSummary, ...] = ()
    counts: Mapping[str, int] = field(default_factory=dict)
    queue_depth: int = 0
    uptime_s: float = 0.0

    @property
    def sessions(self) -> int:
        return sum(c.sessions for c in self.classes)

    def to_json(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "sessions": self.sessions,
            "counts": dict(self.counts),
            "queue_depth": self.queue_depth,
            "uptime_s": self.uptime_s,
            "classes": [c.to_json() for c in self.classes],
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "FleetSummary":
        check_schema(record, "FleetSummary")
        return cls(
            classes=tuple(
                ClassSummary.from_json(c) for c in record.get("classes", ())
            ),
            counts=dict(record.get("counts", {})),
            queue_depth=int(record.get("queue_depth", 0)),
            uptime_s=float(record.get("uptime_s", 0.0)),
        )

    @classmethod
    def build(
        cls,
        statuses: Sequence[JobStatus],
        results: Mapping[str, SessionResult],
        *,
        queue_depth: int = 0,
        uptime_s: float = 0.0,
    ) -> "FleetSummary":
        """Aggregate job statuses (+ their results) into the summary."""
        counts: dict[str, int] = {}
        by_class: dict[str, list[JobStatus]] = {}
        for status in statuses:
            counts[status.state] = counts.get(status.state, 0) + 1
            by_class.setdefault(status.session_class, []).append(status)
        classes = []
        for name in sorted(by_class):
            members = by_class[name]
            latencies = [
                s.latency_s for s in members if s.latency_s is not None
            ]
            psnrs = [
                results[s.job_id].psnr_db
                for s in members
                if s.job_id in results
            ]
            classes.append(
                ClassSummary(
                    session_class=name,
                    sessions=len(members),
                    ok=sum(1 for s in members if s.state == "ok"),
                    cached=sum(1 for s in members if s.state == "cached"),
                    failed=sum(1 for s in members if s.state == "failed"),
                    quarantined=sum(
                        1 for s in members if s.state == "quarantined"
                    ),
                    latency_s=_percentiles(latencies),
                    psnr_db=_percentiles(psnrs),
                )
            )
        return cls(
            classes=tuple(classes),
            counts=counts,
            queue_depth=queue_depth,
            uptime_s=uptime_s,
        )


@dataclass(frozen=True)
class ServiceManifest:
    """Durable accounting of every submission the service accepted.

    The service-side sibling of :class:`~repro.sim.runner.GridManifest`:
    every job the daemon ever accepted appears exactly once, in one of
    the four terminal states or still pending/running at write time,
    with the fleet summary attached.  ``complete`` is true when every
    job reached ``ok``/``cached``.
    """

    jobs: tuple[JobStatus, ...] = ()
    summary: Optional[FleetSummary] = None

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    @property
    def complete(self) -> bool:
        return all(job.ok for job in self.jobs)

    def to_json(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "n_jobs": self.n_jobs,
            "complete": self.complete,
            "counts": self.counts,
            "jobs": [job.to_json() for job in self.jobs],
            "summary": (
                self.summary.to_json() if self.summary is not None else None
            ),
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "ServiceManifest":
        check_schema(record, "ServiceManifest")
        summary = record.get("summary")
        return cls(
            jobs=tuple(
                JobStatus.from_json(job) for job in record.get("jobs", ())
            ),
            summary=(
                FleetSummary.from_json(summary)
                if summary is not None
                else None
            ),
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Write the manifest atomically (tempfile + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(self.to_json(), indent=2) + "\n").encode("utf-8")
        return write_atomic(path, lambda handle: handle.write(data))


def load_service_manifest(path: Union[str, Path]) -> ServiceManifest:
    """Read a manifest previously written by :meth:`ServiceManifest.write`."""
    return ServiceManifest.from_json(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
