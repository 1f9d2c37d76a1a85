"""Parallel experiment execution with on-disk result caching.

The paper's headline results (Figures 5-6) are grids of
``(scheme x PLR x channel seed x sequence)`` simulations.  Every cell is
independent and deterministic given its parameters, which makes the grid
embarrassingly parallel *and* cacheable — this module exploits both:

* :class:`JobSpec` is a *declarative*, picklable description of one
  grid cell: the scheme spec string (the figures' own vocabulary, see
  :mod:`repro.resilience.registry`), the channel parameters, the source
  sequence by name, and the codec/device configuration.  Everything a
  worker process needs to rebuild the experiment from scratch.
* :func:`run_grid` fans a list of specs across a
  :class:`concurrent.futures.ProcessPoolExecutor`, with per-job error
  capture (a crashed cell comes back as a :class:`JobFailure` record
  instead of killing the sweep) and an optional per-job timeout.
* :class:`ResultCache` stores each cell's
  :class:`~repro.sim.pipeline.SimulationResult` on disk under a stable
  content hash of its spec, so re-running a sweep only computes the
  cells whose parameters changed.

Determinism: a job's outcome depends only on its spec (synthetic
sequences, the channel and the codec are all explicitly seeded), so the
same grid produces bit-identical results at any worker count: one
driver submits encode groups to a process pool, or to an in-process
executor for ``RunnerOptions(jobs=1)``, and both run the same chunk loop.

Observability: a :class:`RunnerOptions` with ``trace_dir`` runs every
executed cell under a per-job :class:`repro.obs.tracer.Tracer`; workers write
``job-*.jsonl`` trace files (span records cannot ride the result pickle
without coupling results to tracing) and the parent merges them into
``trace_dir/trace.jsonl`` once the grid completes.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import pickle
import threading
import time
import traceback
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.atomic import write_atomic
from repro.codec.rate import RateControlConfig, build_rate_controller
from repro.faults.inject import FaultInjector, InjectedWorkerCrash
from repro.faults.plan import FaultPlan, encode_subplan
from repro.network.loss import UniformLoss
from repro.obs.export import merge_job_traces, write_trace
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.resilience.registry import build_strategy
from repro.scenarios.pack import ScenarioPack
from repro.sim.pipeline import (
    EncodedStream,
    GroupScope,
    SimulationConfig,
    SimulationResult,
    encode_phase,
    simulate,
    transmit_phase,
)
from repro.video.frame import VideoSequence
from repro.video.synthetic import (
    SEQUENCE_GENERATORS,
    SyntheticConfig,
    generate_sequence,
)

#: Bumped whenever the simulation pipeline changes in a way that makes
#: previously cached results stale (new metrics, changed semantics).
#: Version 2: FrameRecord.damaged_fragments + SimulationResult.fault_events.
#: Version 3: JobSpec.rate (closed-loop rate control) joins the key.
#: Version 4: JobSpec.scenario (declarative channel scenario packs)
#: joins the key, and ChannelLog grew resilience counters.
CACHE_SCHEMA_VERSION = 4

#: Schema of the :class:`~repro.sim.pipeline.EncodedStream` pickles held
#: by :class:`EncodedStreamCache`; part of every encode cache key.
#: Version 2: the rate-control config joins the key (a controller
#: changes every frame's QP, and therefore the stream bytes).
STREAM_SCHEMA_VERSION = 2

#: Schema version of the JSON failure manifest written by
#: :meth:`GridManifest.write`, under its ``schema_version`` key.
#: Version 2 added that key and the ``counts.quarantined`` accounting;
#: :meth:`GridManifest.from_json` reads this version only.
MANIFEST_SCHEMA_VERSION = 2

#: Default on-disk cache location (overridable per call and via the CLI).
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")


# ---------------------------------------------------------------------------
# Stable content hashing
# ---------------------------------------------------------------------------


#: Types :func:`_canonical` passes through unchanged, matched exactly.
_PRIMITIVES = frozenset((bool, int, float, str, type(None)))


def _canonical(value: Any) -> Any:
    """Reduce a value to JSON-serializable primitives, deterministically.

    Dataclasses become sorted dicts tagged with their class name (two
    configs of different types never collide), mappings are
    key-sorted, and tuples/sets become lists.  Floats pass through:
    ``json`` renders them with ``repr``, which round-trips exactly.
    Exact primitives and plain dicts, the bulk of every key, take the
    first two checks; subclasses fall through to the general ones.
    """
    kind = type(value)
    if kind in _PRIMITIVES:
        return value
    if kind is dict:
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        tagged = {"__class__": type(value).__name__}
        for f in dataclasses.fields(value):
            tagged[f.name] = _canonical(getattr(value, f.name))
        return tagged
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for content hashing"
    )


def stable_hash(payload: Any) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``payload``.

    Stable across processes and sessions (no ``PYTHONHASHSEED``
    dependence), which is what makes it usable as an on-disk cache key.
    """
    canonical = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sequence_digest(sequence: VideoSequence) -> str:
    """Content hash of a sequence's pixel data (for non-declarative jobs).

    Used when the caller holds a :class:`VideoSequence` object rather
    than a (name, n_frames) description — e.g. the calibration loop of
    :func:`repro.sim.experiment.calibrate_intra_th`.
    """
    digest = hashlib.sha256()
    digest.update(sequence.name.encode("utf-8"))
    for frame in sequence:
        digest.update(frame.pixels.tobytes())
        if frame.cb is not None:
            digest.update(frame.cb.tobytes())
        if frame.cr is not None:
            digest.update(frame.cr.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One declarative cell of an experiment grid.

    Every field is plain data, so the spec pickles cheaply to worker
    processes and hashes stably for the result cache.  The worker
    rebuilds the whole experiment from it: sequence (by registry name,
    or from an explicit :class:`SyntheticConfig`), strategy (from the
    figure-style spec string), channel (uniform loss at ``plr`` with
    ``channel_seed``) and pipeline configuration.

    Attributes:
        scheme: figure-style strategy spec ("NO", "GOP-3", "AIR-24",
            "PGOP-3", "PBPAIR").
        plr: channel packet loss rate; also PBPAIR's assumed ``alpha``
            unless ``pbpair_kwargs`` overrides it.
        channel_seed: loss-pattern seed — the replication axis.
        sequence: synthetic clip name from
            :data:`repro.video.synthetic.SEQUENCE_GENERATORS`, or a
            free-form label when ``synthetic`` is given.
        n_frames: clip length (ignored when ``synthetic`` is given,
            which carries its own ``n_frames``).
        synthetic: explicit sequence parameters; takes precedence over
            the ``sequence``-name lookup.  This keeps the spec fully
            declarative for non-registry clips (tests use tiny frames).
        granularity: channel loss granularity, ``"frame"`` (paper) or
            ``"packet"``.
        config: pipeline configuration (codec, MTU, device profile).
        pbpair_kwargs: extra :class:`repro.core.pbpair.PBPAIRConfig`
            knobs (``intra_th``, ...); kept for PBPAIR only, normalised
            to ``{}`` for every other scheme.
        faults: optional deterministic :class:`repro.faults.plan.FaultPlan`.
            Pipeline-stage faults are injected inside the simulation
            (and change the result, so the plan is part of the cache
            key); runner-stage faults afflict the worker executing the
            job.
        rate: optional :class:`repro.codec.rate.RateControlConfig`.
            When set, the worker builds a fresh closed-loop controller
            for the job, so every frame's QP (and the stream bytes)
            chases the configured kbps target — part of both the result
            and the stream cache keys.
        scenario: optional :class:`repro.scenarios.pack.ScenarioPack`.
            When set, the channel follows the pack's segment timeline
            instead of uniform loss at ``plr`` (which is then ignored,
            along with ``granularity``); ``channel_seed`` seeds the
            pack's loss models and stays the replication axis.  The
            pack is transmit-side only: it joins the result-cache key
            but not the encoded-stream key, so scenario sweeps share
            encodes.
    """

    scheme: str
    plr: float = 0.1
    channel_seed: int = 0
    sequence: str = "foreman"
    n_frames: int = 90
    synthetic: Optional[SyntheticConfig] = None
    granularity: str = "frame"
    config: SimulationConfig = field(default_factory=SimulationConfig)
    pbpair_kwargs: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[FaultPlan] = None
    rate: Optional[RateControlConfig] = None
    scenario: Optional[ScenarioPack] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.plr <= 1.0:
            raise ValueError(f"plr must be in [0, 1], got {self.plr}")
        if self.scenario is not None and not isinstance(
            self.scenario, ScenarioPack
        ):
            raise TypeError(
                f"scenario must be a ScenarioPack, got {type(self.scenario)!r}"
            )
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.synthetic is None and self.sequence not in SEQUENCE_GENERATORS:
            known = ", ".join(sorted(SEQUENCE_GENERATORS))
            raise ValueError(
                f"unknown sequence {self.sequence!r} (known: {known}); "
                "pass synthetic=SyntheticConfig(...) for custom clips"
            )
        # Normalize to a plain dict so equality and hashing see the same
        # content regardless of the mapping type the caller used; other
        # schemes ignore PBPAIR's knobs, so they never reach their keys.
        object.__setattr__(
            self,
            "pbpair_kwargs",
            dict(self.pbpair_kwargs) if self.is_pbpair else {},
        )
        if self.granularity not in ("frame", "packet"):
            raise ValueError(
                "granularity must be 'frame' or 'packet', "
                f"got {self.granularity!r}"
            )
        # Build (and drop) the strategy once, so a spec that could never
        # run — unknown scheme, bad suffix, unknown PBPAIR knob — is
        # refused here instead of failing every attempt in a worker.
        build_strategy(self.scheme, **_strategy_kwargs_for(self))

    @property
    def is_pbpair(self) -> bool:
        return self.scheme.strip().upper() == "PBPAIR"

    def content_hash(self) -> str:
        """Stable cache key: every parameter that can change the result.

        Computed once per spec object: the queue that accepts a job and
        the runner that executes it share the spec, and its hash.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is not None:
            return cached
        cached = stable_hash(
            {
                "kind": "simulate",
                "cache_schema": CACHE_SCHEMA_VERSION,
                "scheme": self.scheme.strip().upper(),
                "plr": self.plr,
                "channel_seed": self.channel_seed,
                "sequence": self.sequence,
                "n_frames": None if self.synthetic else self.n_frames,
                "synthetic": self.synthetic,
                "granularity": self.granularity,
                "config": self.config,
                "pbpair_kwargs": self.pbpair_kwargs,
                "faults": self.faults,
                "rate": self.rate,
                "scenario": self.scenario,
            }
        )
        object.__setattr__(self, "_content_hash", cached)
        return cached


@dataclass(frozen=True)
class JobResult:
    """A completed grid cell.

    ``attempts`` counts executions including retries (1 = first try
    succeeded); ``injected_faults`` labels the runner-stage faults a
    :class:`~repro.faults.plan.FaultPlan` fired against this job
    (``"worker_crash@1"`` = crashed on attempt 1), so a degraded-but-
    recovered cell is distinguishable from a clean one.
    """

    spec: JobSpec
    result: SimulationResult
    wall_time_s: float
    from_cache: bool = False
    attempts: int = 1
    injected_faults: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class JobFailure:
    """A grid cell that raised (or timed out) instead of finishing.

    Captured per cell so one bad parameter combination does not kill an
    hours-long sweep; the traceback text travels back from the worker
    as a string because live traceback objects do not pickle.

    ``attempts`` counts executions including retries; ``quarantined``
    marks a job that kept failing until its retry budget ran out (a
    *poison job* — the runner stopped feeding it to workers).
    """

    spec: JobSpec
    error_type: str
    message: str
    traceback_text: str = ""
    wall_time_s: float = 0.0
    attempts: int = 1
    quarantined: bool = False
    injected_faults: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return False


#: Backoff before a failed cell's next attempt: the delay after attempt
#: ``n`` is ``RETRY_BACKOFF_S * RETRY_BACKOFF_FACTOR**(n-1) * (1 +
#: RETRY_JITTER * u)``.  ``RunnerOptions.retries`` is the one retry knob.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_FACTOR = 2.0
RETRY_JITTER = 0.25

#: The fewest cells in one part of an encode group that a clean pool
#: cuts (it has fewer groups than workers); each part encodes again.
MIN_PART_CELLS = 4


def retry_delay(attempt: int, key: str = "") -> float:
    """Seconds to wait after failed attempt ``attempt`` (1-based).

    ``u`` in [0, 1) is derived from a stable hash of the job key and
    the attempt number — jittered like production retry loops (so
    simultaneous retries do not stampede), yet exactly reproducible.
    """
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    base = RETRY_BACKOFF_S * RETRY_BACKOFF_FACTOR ** (attempt - 1)
    return base * (1.0 + RETRY_JITTER * u)


@dataclass(frozen=True)
class RunnerOptions:
    """Every execution knob of the grid runner, as one declarative bundle.

    The CLI verbs (``compare``/``sweep``/``simulate``/``serve``/
    ``submit``), :func:`run_grid` and the service daemon all used to
    grow the same flag set independently (``--jobs``, ``--no-cache``,
    ``--cache-dir``, ``--faults``, ``--retries``, ``--job-timeout``,
    ``--manifest``, ``--no-stream-cache``).  This dataclass is the one
    typed surface those flags resolve into and the only way to set a
    runner knob: build it once, hand it to :func:`run_grid` or to
    :class:`repro.service.daemon.EncodeDaemon`, and the execution
    semantics are identical everywhere.

    Attributes:
        jobs: worker process count; ``0`` means every core, ``1`` runs
            serially in-process.
        use_cache: keep completed cells in the on-disk result cache.
        cache_dir: result-cache directory (streams live beside it under
            ``<cache_dir>/streams``).
        share_streams: encode-once stream sharing (disable to force the
            full pipeline per cell; results are identical either way).
        retries: extra executions for a failed cell (``0`` = fail fast).
        job_timeout: per-job wall-clock limit in seconds, or ``None``.
        manifest_path: where to write the :class:`GridManifest` JSON,
            or ``None`` to skip it.
        faults: run-level deterministic :class:`~repro.faults.plan.FaultPlan`,
            applied to every spec that does not carry its own.  It stays
            run-level because its runner-stage faults aim at the workers
            executing the cells (``repro serve --faults``).
        trace_dir: per-job trace directory, or ``None`` for no tracing.

    What a cell computes — scheme, channel, rate control, scenario pack
    — lives on its :class:`JobSpec` alone, whose fields are its cache
    key.
    """

    jobs: int = 1
    use_cache: bool = True
    cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR
    share_streams: bool = True
    retries: int = 0
    job_timeout: Optional[float] = None
    manifest_path: Optional[Union[str, Path]] = None
    faults: Optional[FaultPlan] = None
    trace_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be positive, got {self.job_timeout}"
            )

    def build_cache(self) -> Optional["ResultCache"]:
        """The result cache these options describe (``None`` when off)."""
        if not self.use_cache:
            return None
        return ResultCache(self.cache_dir)

    def build_stream_cache(
        self, cache: Optional["ResultCache"] = None
    ) -> Optional["EncodedStreamCache"]:
        """The encoded-stream cache (memory-only when caching is off)."""
        if not self.share_streams:
            return None
        return EncodedStreamCache(
            cache.directory / "streams" if cache is not None else None
        )


def build_grid(
    schemes: Sequence[str],
    plrs: Sequence[float],
    channel_seeds: Sequence[int],
    sequences: Sequence[str] = ("foreman",),
    n_frames: int = 90,
    config: Optional[SimulationConfig] = None,
    pbpair_kwargs: Optional[Mapping[str, Any]] = None,
    granularity: str = "frame",
) -> list[JobSpec]:
    """Cartesian product of the paper's four grid axes, in a fixed order.

    Iteration order is sequence-major, then scheme, PLR, seed — stable,
    so result lists line up across runs and worker counts.
    """
    jobs = []
    for sequence in sequences:
        for scheme in schemes:
            for plr in plrs:
                for seed in channel_seeds:
                    jobs.append(
                        JobSpec(
                            scheme=scheme,
                            plr=plr,
                            channel_seed=seed,
                            sequence=sequence,
                            n_frames=n_frames,
                            config=config or SimulationConfig(),
                            pbpair_kwargs=dict(pbpair_kwargs or {}),
                        )
                    )
    return jobs


# ---------------------------------------------------------------------------
# Failure manifest: machine-readable partial-grid completion record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    """One grid cell's outcome, flattened for the JSON manifest."""

    index: int
    scheme: str
    plr: float
    channel_seed: int
    sequence: str
    content_hash: str
    status: str  # "ok" | "cached" | "failed"
    attempts: int
    wall_time_s: float
    error_type: Optional[str] = None
    message: Optional[str] = None
    quarantined: bool = False
    injected_faults: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    def to_json(self) -> dict:
        record: dict[str, Any] = {
            "index": self.index,
            "scheme": self.scheme,
            "plr": self.plr,
            "channel_seed": self.channel_seed,
            "sequence": self.sequence,
            "content_hash": self.content_hash,
            "status": self.status,
            "attempts": self.attempts,
            "wall_time_s": self.wall_time_s,
        }
        if self.error_type is not None:
            record["error_type"] = self.error_type
            record["message"] = self.message
        if self.quarantined:
            record["quarantined"] = True
        if self.injected_faults:
            record["injected_faults"] = list(self.injected_faults)
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "ManifestEntry":
        return cls(
            index=int(record["index"]),
            scheme=record["scheme"],
            plr=float(record["plr"]),
            channel_seed=int(record["channel_seed"]),
            sequence=record["sequence"],
            content_hash=record["content_hash"],
            status=record["status"],
            attempts=int(record["attempts"]),
            wall_time_s=float(record["wall_time_s"]),
            error_type=record.get("error_type"),
            message=record.get("message"),
            quarantined=bool(record.get("quarantined", False)),
            injected_faults=tuple(record.get("injected_faults", ())),
        )


@dataclass(frozen=True)
class GridManifest:
    """Machine-readable record of a (possibly partial) grid run.

    The contract for graceful degradation: *every* submitted job
    appears exactly once — succeeded, served from cache, or failed
    (with error type, attempt count and quarantine flag) — so an
    orchestrator can tell a complete sweep from a degraded one and
    resubmit exactly the cells that died.
    """

    entries: tuple[ManifestEntry, ...] = ()

    @property
    def n_jobs(self) -> int:
        return len(self.entries)

    @property
    def degraded(self) -> tuple[ManifestEntry, ...]:
        """Entries that ultimately failed (the resubmission work list)."""
        return tuple(e for e in self.entries if not e.ok)

    @property
    def complete(self) -> bool:
        return not self.degraded

    def to_json(self) -> dict:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.status] = counts.get(entry.status, 0) + 1
        # Quarantined cells report status "failed" (schema-v1 vocabulary,
        # kept for compatibility) but are accounted separately so an
        # orchestrator can tell poison jobs from transient failures.
        quarantined = sum(1 for e in self.entries if e.quarantined)
        if quarantined:
            counts["quarantined"] = quarantined
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "n_jobs": self.n_jobs,
            "complete": self.complete,
            "counts": counts,
            "jobs": [entry.to_json() for entry in self.entries],
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "GridManifest":
        schema = record.get("schema_version")
        if schema != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"manifest schema {schema!r} "
                f"(this reader understands {MANIFEST_SCHEMA_VERSION})"
            )
        return cls(
            entries=tuple(
                ManifestEntry.from_json(job) for job in record.get("jobs", ())
            )
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Write the manifest as JSON (atomically: tempfile + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(self.to_json(), indent=2) + "\n").encode("utf-8")
        return write_atomic(path, lambda handle: handle.write(data))


def grid_manifest(
    outcomes: Sequence[Union[JobResult, JobFailure]],
) -> GridManifest:
    """Build the failure manifest from :func:`run_grid` outcomes."""
    entries = []
    for index, outcome in enumerate(outcomes):
        spec = outcome.spec
        if isinstance(outcome, JobResult):
            status = "cached" if outcome.from_cache else "ok"
            error_type = message = None
            quarantined = False
        else:
            status = "failed"
            error_type = outcome.error_type
            message = outcome.message
            quarantined = outcome.quarantined
        entries.append(
            ManifestEntry(
                index=index,
                scheme=spec.scheme,
                plr=spec.plr,
                channel_seed=spec.channel_seed,
                sequence=spec.sequence,
                content_hash=spec.content_hash(),
                status=status,
                attempts=outcome.attempts,
                wall_time_s=outcome.wall_time_s,
                error_type=error_type,
                message=message,
                quarantined=quarantined,
                injected_faults=outcome.injected_faults,
            )
        )
    return GridManifest(entries=tuple(entries))


def load_manifest(path: Union[str, Path]) -> GridManifest:
    """Read a manifest previously written by :meth:`GridManifest.write`."""
    return GridManifest.from_json(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Pickle-per-key cache directory for experiment results.

    Writes are atomic (tempfile + rename) so a killed run never leaves a
    truncated entry behind; unreadable entries are treated as misses and
    deleted.  Keys are the stable content hashes produced by
    :meth:`JobSpec.content_hash` / :func:`stable_hash`, so the cache is
    shared safely between sweeps: equal spec, equal key, equal result.
    """

    def __init__(self, directory: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Optional[object]:
        """The cached object, or None (counts a hit/miss either way)."""
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated/corrupt entry (e.g. a version-skewed pickle):
            # drop it and recompute.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        write_atomic(
            self.path_for(key),
            lambda handle: pickle.dump(
                value, handle, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry and stray temp file; returns the entry count."""
        for path in self.directory.glob("*.tmp.*"):
            path.unlink(missing_ok=True)
        removed = 0
        for path in self.directory.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


# ---------------------------------------------------------------------------
# Encoded-stream cache: encode once, replay many channel realizations
# ---------------------------------------------------------------------------


class EncodedStreamCache:
    """Two-level cache of :class:`~repro.sim.pipeline.EncodedStream`.

    A small in-memory LRU front (the streams a worker is actively
    replaying) over an optional on-disk :class:`ResultCache` back end
    (shared between workers and across runs) — the disk layer inherits
    ResultCache's atomic writes and corrupt-entry recovery wholesale.  Pass ``directory=None`` for a memory-only
    cache (serial runs, tests).

    Keys come from :func:`encode_stream_key`: the encoder is
    deterministic, so equal keys mean byte-identical streams and a
    cache hit is exactly as good as encoding again.

    A memory entry can also carry its stream's parked
    :class:`~repro.sim.pipeline.GroupScope` (:meth:`lease`), which
    :func:`run_grid` hands to the stream's cells whenever the caller
    passed this cache in, so a parse or a lossless-prefix frame decoded
    in one grid serves every later one.  Evicting the entry drops its
    scope; scopes never reach the disk tier.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_entries: int = 8,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._memory: OrderedDict[str, EncodedStream] = OrderedDict()
        self._scopes: dict[str, GroupScope] = {}
        self._lent: set[str] = set()
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.disk: Optional[ResultCache] = (
            ResultCache(directory) if directory is not None else None
        )
        self.hits = 0
        self.misses = 0
        self.encodes = 0

    @property
    def directory(self) -> Optional[Path]:
        return self.disk.directory if self.disk is not None else None

    def _remember(self, key: str, stream: EncodedStream) -> None:
        self._memory[key] = stream
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
        with self._lock:
            # A parked scope lives as long as its stream's entry; one
            # taken out for an encode joins the entry that encode makes.
            for stale in self._scopes.keys() - self._memory.keys():
                del self._scopes[stale]

    @contextmanager
    def lease(self, key: str) -> Iterator[Optional[GroupScope]]:
        """Lend ``key``'s parked scope to one grid at a time.

        Yields the scope, made on first use (before the stream is
        cached, so that the encode seeds its memo), or None while
        another grid holds it: two grids must never extend one lossless
        prefix at once.  On return the parked memo keeps at most one
        parse per fragment the stream sent
        (:meth:`~repro.codec.syntax.ParseMemo.retain`),
        so damaged-fragment parses do not pile up between grids.
        """
        with self._lock:
            if key in self._lent:
                scope = None
            else:
                self._lent.add(key)
                scope = self._scopes.get(key)
                if scope is None:
                    scope = self._scopes[key] = GroupScope(key, stores=True)
        if scope is None:
            yield None
            return
        try:
            yield scope
        finally:
            with self._lock:
                self._lent.discard(key)
                stream = self._memory.get(key)
            if stream is not None:
                scope.parse_memo.retain(
                    packet.payload
                    for frame in stream.frames
                    for packet in frame.packets
                )

    def get(self, key: str) -> Optional[EncodedStream]:
        stream = self._memory.get(key)
        if stream is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return stream
        if self.disk is not None:
            value = self.disk.get(key)
            if isinstance(value, EncodedStream):
                self._remember(key, value)
                self.hits += 1
                return value
        self.misses += 1
        return None

    def put(self, key: str, stream: EncodedStream) -> None:
        self._remember(key, stream)
        if self.disk is not None:
            self.disk.put(key, stream)

    def get_or_encode(
        self, key: str, encode: Callable[[], EncodedStream]
    ) -> tuple[EncodedStream, bool]:
        """The cached stream for ``key``, or ``encode()``'s fresh one.

        Returns ``(stream, reused)`` — ``reused`` is what the runner
        reports as the ``encode_reused`` trace event, keeping per-cell
        energy accounting honest about work that did not happen.
        """
        stream = self.get(key)
        if stream is not None:
            return stream, True
        self.encodes += 1
        stream = encode()
        self.put(key, stream)
        return stream, False


def encode_stream_key(
    *,
    sequence: str,
    scheme: str,
    strategy_kwargs: Mapping[str, Any],
    config: SimulationConfig,
    encode_faults: Optional[FaultPlan] = None,
    rate: Optional[RateControlConfig] = None,
) -> str:
    """Stable cache key for one :func:`~repro.sim.pipeline.encode_phase`.

    ``sequence`` is a pixel-content digest (:func:`sequence_digest`),
    so renamed-but-identical clips share and identically-named-but-
    different clips never collide.  The key covers exactly what can
    change the stream bytes: source pixels, resolved strategy (scheme
    plus its kwargs — for PBPAIR that includes the assumed ``plr``),
    codec parameters, MTU, the encode-stage fault sub-plan, and the
    rate-control config (a controller rewrites every frame's QP).
    Channel seed/PLR/granularity, the device energy profile and the
    bad-pixel threshold are transmit-side and deliberately absent —
    that absence *is* the sharing.
    """
    return stable_hash(
        {
            "kind": "encode-stream",
            "stream_schema": STREAM_SCHEMA_VERSION,
            "sequence": sequence,
            "scheme": scheme.strip().upper(),
            "strategy_kwargs": dict(strategy_kwargs),
            "codec": config.codec,
            "mtu": config.mtu,
            "encode_faults": encode_faults,
            "rate": rate,
        }
    )


def _strategy_kwargs_for(spec: "JobSpec") -> dict[str, Any]:
    """The kwargs :func:`run_job` resolves a spec's strategy with."""
    if spec.is_pbpair:
        return {"plr": spec.plr, **spec.pbpair_kwargs}
    return {}


@lru_cache(maxsize=32)
def _declared_sequence_digest(
    sequence: str, n_frames: int, synthetic: Optional[SyntheticConfig]
) -> str:
    """Memoized pixel digest of a declaratively-specified sequence."""
    return sequence_digest(_sequence_for(sequence, n_frames, synthetic))


def encode_content_hash(spec: "JobSpec") -> str:
    """The encode-phase cache key of one grid cell.

    Two specs with equal hashes share one encoded stream: same pixels,
    same resolved strategy, same codec/MTU, same encode-stage faults.
    A seeds-sweep grid therefore collapses to one encode per scheme —
    PBPAIR cells additionally split per PLR, because the scheme's
    intra-refresh probability is a function of the loss rate it
    assumes.
    """
    return encode_stream_key(
        sequence=_declared_sequence_digest(
            spec.sequence, spec.n_frames, spec.synthetic
        ),
        scheme=spec.scheme,
        strategy_kwargs=_strategy_kwargs_for(spec),
        config=spec.config,
        encode_faults=encode_subplan(spec.faults),
        rate=spec.rate,
    )


# ---------------------------------------------------------------------------
# Job execution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _sequence_for(
    sequence: str, n_frames: int, synthetic: Optional[SyntheticConfig]
) -> VideoSequence:
    """Build (and memoize per process) a job's source sequence.

    Workers typically run many cells of the same clip; regenerating it
    per job would dominate small-grid wall time.
    """
    if synthetic is not None:
        return generate_sequence(synthetic, name=sequence)
    return SEQUENCE_GENERATORS[sequence](n_frames)


def run_job(
    spec: JobSpec,
    stream_cache: Optional[EncodedStreamCache] = None,
    group: Optional[GroupScope] = None,
) -> SimulationResult:
    """Execute one grid cell from scratch, deterministically.

    Every random element (synthetic sequence, channel) is seeded from
    the spec, so equal specs produce equal results in any process.

    With a ``stream_cache``, the encode phase is looked up under
    :func:`encode_content_hash` and only the transmit phase runs when
    another cell already paid for the encode — value-identical to the
    full pipeline and opening the same ``simulate`` trace root, with an
    ``encode_reused`` trace event marking the skipped work.  Encode-stage
    faults are part of that key and act inside the encode, so cells
    with equal encode sub-plans share their corrupted stream too.

    A ``group`` is the :class:`~repro.sim.pipeline.GroupScope` of the
    cells that replay the stream; it is used only on the shared-stream
    path and never changes the result or any counter.  Its ``key`` is
    the cell's encode key, computed once by the runner.  Its parse memo
    is seeded by the encode, when this cell runs it, so the decoder
    skips parsing fragment bytes whose parse is already known.  Its
    lossless prefix lets the cell replay, instead of decode, every
    frame that it and an earlier cell of the group both received
    intact from the first frame on; the replayed decodes are still
    billed to the cell's decoder counters (``decodes_per_frame`` in
    the benchmarks counts the executed ones).
    """
    sequence = _sequence_for(spec.sequence, spec.n_frames, spec.synthetic)
    strategy = build_strategy(spec.scheme, **_strategy_kwargs_for(spec))
    if spec.scenario is not None:
        loss_model = None
        channel_kwargs: dict[str, Any] = {
            "scenario": spec.scenario,
            "scenario_seed": spec.channel_seed,
        }
    else:
        loss_model = UniformLoss(
            plr=spec.plr, seed=spec.channel_seed, granularity=spec.granularity
        )
        channel_kwargs = {}
    if stream_cache is None:
        return simulate(
            sequence,
            strategy,
            loss_model=loss_model,
            config=spec.config,
            rate_controller=build_rate_controller(spec.rate),
            faults=spec.faults,
            **channel_kwargs,
        )
    key = group.key if group is not None else encode_content_hash(spec)
    tracer = get_tracer()
    with tracer.span("simulate") as run_span:
        stream, reused = stream_cache.get_or_encode(
            key,
            # A fresh controller per encode: its state is a pure
            # function of the frames it observes, which keeps the
            # encode deterministic and therefore cacheable.
            lambda: encode_phase(
                sequence,
                strategy,
                config=spec.config,
                rate_controller=build_rate_controller(spec.rate),
                faults=spec.faults,
                parse_memo=group.parse_memo if group is not None else None,
            ),
        )
        if reused and tracer.enabled:
            tracer.event(
                "encode_reused",
                key=key[:16],
                scheme=spec.scheme,
                sequence=sequence.name,
                frames=stream.n_frames,
            )
        run_span.add(frames=stream.n_frames)
        tracer.metrics.gauge("sim.frames", stream.n_frames)
        return transmit_phase(
            stream,
            sequence,
            loss_model=loss_model,
            config=spec.config,
            faults=spec.faults,
            group=group,
            **channel_kwargs,
        )


def _job_trace_id(spec: JobSpec) -> str:
    """Human-readable trace label for one grid cell."""
    channel = (
        f"scenario={spec.scenario.name}"
        if spec.scenario is not None
        else f"plr={spec.plr:g}"
    )
    return (
        f"{spec.scheme} {channel} seed={spec.channel_seed} "
        f"{spec.sequence}"
    )


def _raise_worker_faults(
    spec: JobSpec, attempt: int, allow_process_exit: bool, content_hash: str
) -> None:
    """Fire the runner-stage faults a plan aims at this worker attempt.

    ``worker_hang`` sleeps (the job then proceeds — a slow worker, not
    a dead one); ``worker_crash`` raises :class:`InjectedWorkerCrash`;
    ``worker_exit`` kills the whole process with :func:`os._exit` when
    ``allow_process_exit`` says a pool can absorb it (pooled workers),
    and degrades to the soft crash in process — the parent process must
    survive its own fault plan.  ``content_hash`` is the spec's.
    """
    if spec.faults is None or not spec.faults:
        return
    injector = FaultInjector(spec.faults)
    for fault in injector.worker_faults(content_hash, attempt):
        if fault.kind == "worker_hang":
            time.sleep(fault.hang_seconds)
        elif fault.kind == "worker_exit" and allow_process_exit:
            os._exit(86)
        else:  # worker_crash, or worker_exit downgraded in process
            raise InjectedWorkerCrash(
                f"injected {fault.kind} on attempt {attempt}"
            )


def _execute_job(
    spec: JobSpec,
    trace_dir: Optional[str],
    attempt: int,
    allow_process_exit: bool,
    stream_cache: Optional[EncodedStreamCache],
    group: Optional[GroupScope],
    content_hash: str,
) -> tuple[bool, object, float]:
    """Run one cell attempt: never raises*, returns a picklable outcome.

    (*except an injected ``worker_exit``, which by design takes the
    whole process down so the parent's broken-pool recovery path gets
    exercised.)

    With ``trace_dir``, the job runs under a fresh :class:`Tracer` and
    leaves its spans in ``trace_dir/job-<hash>.jsonl`` — a per-process
    file, because :class:`SpanRecord` streams cannot cross the pool
    boundary any other way without coupling results to tracing.  The
    parent merges the per-job files after the grid completes.  Tracing
    is observation-only: the returned result is bit-identical either
    way.

    ``content_hash`` is the spec's :meth:`JobSpec.content_hash`, which
    the parent computes once per grid.
    """
    start = time.perf_counter()
    try:
        _raise_worker_faults(spec, attempt, allow_process_exit, content_hash)
        tracer = Tracer(_job_trace_id(spec)) if trace_dir is not None else None
        with use_tracer(tracer) if tracer is not None else nullcontext():
            result = run_job(spec, stream_cache, group)
        if tracer is not None:
            write_trace(Path(trace_dir) / f"job-{content_hash[:16]}.jsonl", tracer)
        return True, result, time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 - error capture is the contract
        payload = (
            type(error).__name__,
            str(error),
            traceback.format_exc(),
        )
        return False, payload, time.perf_counter() - start


def _stream_groups(keys: Sequence[Optional[str]]) -> list[list[int]]:
    """Positions of ``keys`` grouped by key, in first-occurrence order."""
    groups: dict[Optional[str], list[int]] = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    return list(groups.values())


def _group_scopes(
    keys: Sequence[Optional[str]],
    parked: Optional[EncodedStreamCache] = None,
) -> Iterator[tuple[int, Optional[GroupScope]]]:
    """Walk a chunk's cells group by group, each with its group's scope.

    ``keys`` holds each cell's :func:`encode_content_hash` (``None``:
    stream sharing is off, and no cell gets a scope).  Cells with one
    key replay one stream, so they share one
    :class:`~repro.sim.pipeline.GroupScope`: the key, one
    :class:`~repro.codec.syntax.ParseMemo` (which the group's encode, if
    it runs here, seeds with every fragment's parse) and one
    :class:`~repro.sim.pipeline.LosslessPrefix`.

    With a ``parked`` stream cache (one the caller keeps across grids)
    a group takes its stream's parked scope
    (:meth:`EncodedStreamCache.lease`), which outlives the walk and
    which every cell may extend.  Otherwise, or while another grid
    holds that scope, the group gets a fresh scope that every cell but
    the group's last may extend, dropped once that cell has run.  Every
    chunk runs its cells through this walk; only in-process chunks park.
    """
    for group in _stream_groups(keys):
        key = keys[group[0]]
        if key is None:
            for position in group:
                yield position, None
            continue
        lease = parked.lease(key) if parked is not None else nullcontext()
        with lease as scope:
            fresh = scope is None
            if fresh:
                scope = GroupScope(key)
            for position in group:
                if fresh:
                    scope.stores = position != group[-1]
                yield position, scope


def _cut(group: list[int], parts: int) -> list[list[int]]:
    """``group`` in up to ``parts`` contiguous runs of ``MIN_PART_CELLS`` or more."""
    parts = max(1, min(parts, len(group) // MIN_PART_CELLS))
    size = len(group)
    return [group[k * size // parts : (k + 1) * size // parts] for k in range(parts)]


def _execute_chunk(
    trace_dir: Optional[str],
    cache: Optional[ResultCache],
    stream_cache: Optional[EncodedStreamCache],
    parked: Optional[EncodedStreamCache],
    allow_process_exit: bool,
    cells: Sequence[tuple[JobSpec, int, str, Optional[str]]],
    retry: Optional[Callable[[int, bool], Optional[int]]] = None,
) -> list[tuple[bool, object, float]]:
    """Run a chunk of cells: the one cell loop of every grid.

    A cell is ``(spec, attempt, content_hash, encode_key)``; the parent
    hashes each spec once per grid and hands both keys down
    (``encode_key`` is ``None`` when stream sharing is off).  Cells of
    one stream run back to back on one group scope
    (:func:`_group_scopes`, parking on ``parked``), and only those
    cells look their stream up in ``stream_cache``.  Successes go
    straight into ``cache``.  Outcomes are per cell, order-aligned and
    never raising; ``allow_process_exit`` lets an injected
    ``worker_exit`` take the process down (pool workers only).
    ``retry(position, ok)`` gives a failed cell's next attempt, run at
    once on its group's scope, or ``None``.
    """
    keys = [encode_key for _, _, _, encode_key in cells]
    outcomes: list = [None] * len(cells)
    for position, scope in _group_scopes(keys, parked):
        spec, attempt, content_hash, _ = cells[position]
        while attempt is not None:
            ok, payload, elapsed = _execute_job(
                spec,
                trace_dir,
                attempt,
                allow_process_exit,
                stream_cache if scope is not None else None,
                scope,
                content_hash,
            )
            attempt = retry(position, ok) if retry is not None else None
        if ok and cache is not None:
            cache.put(content_hash, payload)
        outcomes[position] = (ok, payload, elapsed)
    return outcomes


@lru_cache(maxsize=4)
def _worker_caches(
    cache_dir: Optional[Path], stream_dir: Optional[Path]
) -> tuple[Optional[ResultCache], EncodedStreamCache]:
    """This process's result- and stream-cache handles, opened once.

    A pool worker reuses them across its chunks: it writes its own
    successes and looks streams up by content hash, so neither cache
    writes nor pickled streams pass through the parent.  A ``None``
    stream directory gives a memory-only stream cache.
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return cache, EncodedStreamCache(stream_dir)


def _pooled_chunk(
    cache_dir: Optional[Path],
    stream_dir: Optional[Path],
    trace_dir: Optional[str],
    cells: Sequence[tuple[JobSpec, int, str, Optional[str]]],
) -> list[tuple[bool, object, float]]:
    """The pool's worker entry: :func:`_execute_chunk` on this process's caches."""
    cache, stream_cache = _worker_caches(cache_dir, stream_dir)
    return _execute_chunk(trace_dir, cache, stream_cache, None, True, cells)


class _InProcessExecutor(concurrent.futures.Executor):
    """An executor whose futures complete at submit time, in this process.

    A chunk that raises propagates from ``submit``, as a plain call would.
    """

    def submit(
        self, fn: Callable, /, *args: Any, **kwargs: Any
    ) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _poison_cache_entries(
    spec: JobSpec, cache: Optional[ResultCache], key: str
) -> list[str]:
    """Fire a plan's poison-cache faults against one job's cache entry.

    Corrupts the entry file in place (the cache treats unreadable
    entries as misses and deletes them, so the job recomputes — this
    fault *proves* that recovery path).  Returns injection labels for
    the job's outcome; nothing fires when there is no entry to rot.
    ``key`` is the spec's content hash.
    """
    if cache is None or spec.faults is None or not spec.faults:
        return []
    injector = FaultInjector(spec.faults)
    labels = []
    for fault in injector.poison_cache_faults(key):
        path = cache.path_for(key)
        if not path.exists():
            continue
        with path.open("r+b") as handle:
            handle.seek(0)
            handle.write(b"\x00rotten\x00")
            handle.truncate(8)
        injector.record_runner_fault(fault, target=f"cache:{key[:12]}")
        labels.append("poison_cache")
    return labels


def _attempt_labels(spec: JobSpec, attempt: int, content_hash: str) -> list[str]:
    """Parent-side labels for worker faults firing in one attempt.

    A crashed worker cannot send its own fault events back, so the
    parent re-evaluates the (deterministic) plan to know what it did
    to the job — same draw, same verdict, any process.
    """
    if spec.faults is None or not spec.faults:
        return []
    injector = FaultInjector(spec.faults)
    return [
        f"{fault.kind}@{attempt}"
        for fault in injector.worker_faults(content_hash, attempt)
    ]


def _with_run_defaults(spec: JobSpec, options: RunnerOptions) -> JobSpec:
    """Apply the run-level fault plan; a spec's own plan always wins."""
    if options.faults and spec.faults is None:
        return dataclasses.replace(spec, faults=options.faults)
    return spec


def run_grid(
    jobs: Iterable[JobSpec],
    options: RunnerOptions,
    *,
    cache: Optional[ResultCache] = None,
    stream_cache: Optional[EncodedStreamCache] = None,
) -> list[Union[JobResult, JobFailure]]:
    """Run a grid of jobs, in parallel, with caching and error capture.

    Args:
        jobs: the grid cells; results come back in the same order.
        options: every execution knob (see :class:`RunnerOptions`):
            worker count, result and stream caching, retries, per-job
            timeout, failure manifest, run-level fault plan and tracing.
        cache: a live result cache to use instead of the one
            ``options`` describes — callers that run several grids (the
            service daemon across batches) share one handle and its hit
            counters.
        stream_cache: likewise, a live encoded-stream cache (the CLI
            shares one between calibration and the grid, the daemon
            one across batches).  Ignored when ``options.share_streams``
            is off.  Workers receive the cache *directory*, never a
            pickled stream.  In-process runs park each encode group's
            scope on it (:meth:`EncodedStreamCache.lease`), so a later
            grid replaying the same stream skips the parses and the
            lossless-prefix decodes this one made; a cache the call
            builds itself drops each scope after the group's last cell.

    Returns:
        One :class:`JobResult` or :class:`JobFailure` per input spec,
        order-aligned with ``jobs``.  Outcomes are deterministic: the
        worker count changes wall time, never values.

    Cached cells are returned immediately (``from_cache=True``);
    failures are never cached.  A failed cell (raised, timed out, or
    took its pool down) is re-run up to ``options.retries`` more times
    with :func:`retry_delay` backoff, and comes back as a
    *quarantined* :class:`JobFailure` once the budget is spent.  The
    timeout is best-effort: an already-running worker process is not
    killed, and an in-process run cannot preempt a job at all.

    One driver submits units of work and collects, retries, times out
    and finishes their cells, whatever executes them.  A unit is a
    whole encode group (the cells that replay one stream), encoded
    once, its cells on one group scope.  A process pool cuts groups
    (:func:`_cut`) when it has fewer groups than workers, and submits
    single cells when retries, a timeout or a fault plan must watch
    each cell in flight, or when streams are not shared.  ``jobs=1``,
    one unit of work, or no usable process pool run whole groups in
    process, at submit time, on the caller's live caches.
    """
    if cache is None:
        cache = options.build_cache()
    # A caller's stream cache outlives this grid, so in-process runs
    # park each group's scope on it; one built here does not.
    parked = stream_cache if options.share_streams else None
    if not options.share_streams:
        stream_cache = None
    elif stream_cache is None:
        stream_cache = options.build_stream_cache(cache)
    specs = [_with_run_defaults(spec, options) for spec in jobs]
    max_attempts = options.retries + 1
    timeout = options.job_timeout
    outcomes: dict[int, Union[JobResult, JobFailure]] = {}

    trace_dir: Optional[str] = None
    if options.trace_dir is not None:
        trace_path = Path(options.trace_dir)
        trace_path.mkdir(parents=True, exist_ok=True)
        trace_dir = str(trace_path)

    # Each spec is hashed once per grid; every later use takes its key
    # from here.
    hashes = [spec.content_hash() for spec in specs]

    pending: list[int] = []
    labels: dict[int, list[str]] = {}
    for index, spec in enumerate(specs):
        labels[index] = _poison_cache_entries(spec, cache, hashes[index])
        if cache is not None:
            hit = cache.get(hashes[index])
            if hit is not None:
                outcomes[index] = JobResult(
                    spec=spec,
                    result=hit,
                    wall_time_s=0.0,
                    from_cache=True,
                    injected_faults=tuple(labels[index]),
                )
                continue
        pending.append(index)

    # Cells replaying one encoded stream form one group, groups in
    # order of first occurrence (outcomes key on the original index).
    keys = [
        encode_content_hash(specs[index]) if stream_cache is not None else None
        for index in pending
    ]
    encode_keys = dict(zip(pending, keys))
    groups = [
        [pending[position] for position in group]
        for group in _stream_groups(keys)
    ]
    # A pool submits single cells when retries, a timeout or a fault
    # plan must watch each one in flight, and when streams are not
    # shared (the one keyless group would be the whole grid); with
    # fewer groups than workers, it cuts each group into parts.
    per_cell = (
        stream_cache is None
        or max_attempts > 1
        or timeout is not None
        or any(specs[index].faults for index in pending)
    )
    workers = options.jobs or os.cpu_count() or 1
    share = -(-workers // max(len(groups), 1))
    units = (
        [[index] for index in pending]
        if per_cell
        else [part for group in groups for part in _cut(group, share)]
    )
    workers = min(workers, len(units))
    attempts: dict[int, int] = {index: 1 for index in pending}

    def note_attempt(index: int) -> None:
        labels[index].extend(
            _attempt_labels(specs[index], attempts[index], hashes[index])
        )

    def finish(index: int, ok: bool, payload: object, elapsed: float) -> None:
        spec, attempt, injected = specs[index], attempts[index], labels[index]
        if ok:
            outcomes[index] = JobResult(
                spec=spec,
                result=payload,
                wall_time_s=elapsed,
                attempts=attempt,
                injected_faults=tuple(injected),
            )
            return
        error_type, message, tb_text = payload
        outcomes[index] = JobFailure(
            spec=spec,
            error_type=error_type,
            message=message,
            traceback_text=tb_text,
            wall_time_s=elapsed,
            attempts=attempt,
            quarantined=max_attempts > 1 and attempt >= max_attempts,
            injected_faults=tuple(injected),
        )

    def should_retry(index: int, ok: bool) -> bool:
        if ok or attempts[index] >= max_attempts:
            return False
        time.sleep(retry_delay(attempts[index], hashes[index]))
        attempts[index] += 1
        note_attempt(index)
        return True

    executor = None
    if workers > 1:
        try:
            executor = concurrent.futures.ProcessPoolExecutor(workers)
        except (NotImplementedError, OSError, PermissionError):
            pass  # no usable process pool on this platform
    in_process = executor is None
    if in_process:
        executor, units = _InProcessExecutor(), groups
        run_chunk = partial(
            _execute_chunk, trace_dir, cache, stream_cache, parked, False
        )
    else:
        run_chunk = partial(
            _pooled_chunk,
            cache.directory if cache is not None else None,
            stream_cache.directory if stream_cache is not None else None,
            trace_dir,
        )

    def submit(chunk: list[int]) -> tuple[list[int], concurrent.futures.Future]:
        cells = [
            (specs[index], attempts[index], hashes[index], encode_keys[index])
            for index in chunk
        ]
        if not in_process:
            return chunk, executor.submit(run_chunk, cells)

        # Nothing is in flight in process: a failed cell retries at
        # once, inside its group's scope.
        def retry(position: int, ok: bool) -> Optional[int]:
            index = chunk[position]
            return attempts[index] if should_retry(index, ok) else None

        return chunk, executor.submit(run_chunk, cells, retry)

    def submit_unfinished() -> list[tuple[list[int], concurrent.futures.Future]]:
        chunks = (
            [index for index in unit if index not in outcomes] for unit in units
        )
        return [submit(chunk) for chunk in chunks if chunk]

    try:
        for index in pending:
            note_attempt(index)
        inflight = submit_unfinished()
        while inflight:
            chunk, future = inflight.pop(0)
            try:
                chunk_outcomes = future.result(timeout=timeout)
            except concurrent.futures.TimeoutError:
                # Only per-cell chunks carry a timeout.
                future.cancel()
                chunk_outcomes = [
                    (
                        False,
                        ("TimeoutError", f"job exceeded {timeout}s", ""),
                        float(timeout or 0.0),
                    )
                ]
            except concurrent.futures.process.BrokenProcessPool as error:
                # A worker hard-died and took the pool with it: every
                # in-flight future is lost.  This chunk's cells spend
                # the attempt; rebuild the pool and resubmit every cell
                # that has no outcome yet.  A cell whose *current*
                # attempt is itself scheduled to hard-exit spends that
                # attempt first (the plan is deterministic, so the
                # parent knows without hearing back) — resubmitting it
                # unchanged would just kill the fresh pool again.
                for index in chunk:
                    if not should_retry(index, False):
                        finish(
                            index,
                            False,
                            ("BrokenProcessPool", str(error), ""),
                            0.0,
                        )
                executor.shutdown(wait=False, cancel_futures=True)
                executor = concurrent.futures.ProcessPoolExecutor(workers)
                for index in pending:
                    while (
                        index not in outcomes
                        and attempts[index] < max_attempts
                        and f"worker_exit@{attempts[index]}" in labels[index]
                    ):
                        attempts[index] += 1
                        note_attempt(index)
                inflight = submit_unfinished()
                continue
            for index, (ok, payload, elapsed) in zip(chunk, chunk_outcomes):
                if should_retry(index, ok):
                    inflight.insert(0, submit([index]))
                else:
                    finish(index, ok, payload, elapsed)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    if trace_dir is not None:
        merge_job_traces(trace_dir)
    results = [outcomes[i] for i in range(len(specs))]
    if options.manifest_path is not None:
        grid_manifest(results).write(options.manifest_path)
    return results
