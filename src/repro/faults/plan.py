"""Declarative, seeded fault plans.

A :class:`FaultPlan` describes *which* failures to inject, *where* in
the pipeline, and *how often* — as plain data, so a plan pickles to
worker processes, hashes stably into the result-cache key, and renders
to/from JSON for the CLI ``--faults`` flag.  The plan itself never
touches packets or processes; :class:`repro.faults.inject.FaultInjector`
interprets it.

Stages mirror the pipeline's own vocabulary:

* ``encode`` — applied to the encoder's output bitstream before
  packetization: bytes rotting in the sender's frame buffer.  Encode
  faults change the *stream itself*, so the grid runner shares such a
  stream only between cells with equal encode sub-plans (the sub-plan
  is part of the encode cache key, see :func:`encode_subplan`).
* ``channel`` — applied to the *delivered* packet stream, after the
  loss model: the failures a wireless receiver hands the depacketizer
  (truncated, reordered, duplicated, bit-rotted, or silently dropped
  packets).
* ``decoder_input`` — applied to fragment payloads after the
  depacketizer: corruption that survives transport checksums and
  reaches the VLD.
* ``runner`` — applied to grid workers by
  :func:`repro.sim.runner.run_grid`: a worker that crashes, hard-exits,
  hangs, or a result-cache entry rotting on disk.

Determinism: every random draw an injector makes comes from
:meth:`FaultPlan.rng`, which derives an independent generator from the
plan seed plus a structural key (stage, fault index, frame index, job
hash) — never from call order or wall clock.  Equal plans therefore
produce identical fault sequences at any worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Union

import numpy as np

#: Stage names (the pipeline points where faults can be injected).
STAGE_ENCODE = "encode"
STAGE_CHANNEL = "channel"
STAGE_DECODER_INPUT = "decoder_input"
STAGE_RUNNER = "runner"

#: Every known fault kind, mapped to the stage it acts on.
KIND_STAGES: Mapping[str, str] = {
    # encode stage: sender-side bitstream corruption pre-packetization
    "encode_byteflip": STAGE_ENCODE,
    # channel stage: packet-stream surgery after the loss model
    "truncate": STAGE_CHANNEL,
    "byteflip": STAGE_CHANNEL,
    "duplicate": STAGE_CHANNEL,
    "reorder": STAGE_CHANNEL,
    "drop": STAGE_CHANNEL,
    # decoder-input stage: fragment payload corruption post-depacketize
    "corrupt_fragment": STAGE_DECODER_INPUT,
    "truncate_fragment": STAGE_DECODER_INPUT,
    # runner stage: worker-process and cache failures
    "worker_crash": STAGE_RUNNER,
    "worker_exit": STAGE_RUNNER,
    "worker_hang": STAGE_RUNNER,
    "poison_cache": STAGE_RUNNER,
}

#: Runner-stage kinds that fire *inside* a worker attempt.
WORKER_FAULT_KINDS = frozenset({"worker_crash", "worker_exit", "worker_hang"})


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: a kind, a rate, and kind-specific knobs.

    Attributes:
        kind: one of :data:`KIND_STAGES` (``"truncate"``, ``"byteflip"``,
            ``"worker_crash"``, ...).
        probability: per-target trigger probability in [0, 1] — per
            packet/fragment for pipeline stages, per job for runner
            stages (``reorder`` draws once per frame).
        stage: pipeline stage; derived from ``kind`` automatically and
            validated if given explicitly.
        frames: restrict pipeline-stage faults to these frame indices
            (``None`` = every frame).
        amount: corruption magnitude — bytes flipped per hit
            (``byteflip``/``corrupt_fragment``) or copies inserted
            (``duplicate``).
        max_per_frame: cap on triggers per frame for per-packet kinds.
        times: runner stage only — the fault fires on attempts
            ``1..times`` of a job, so a retrying runner recovers once
            the budget is spent; ``None`` means every attempt (a
            *poison* job that can only be quarantined).
        hang_seconds: sleep length of a ``worker_hang``.
    """

    kind: str
    probability: float = 1.0
    stage: str = ""
    frames: Optional[tuple[int, ...]] = None
    amount: int = 1
    max_per_frame: Optional[int] = None
    times: Optional[int] = 1
    hang_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in KIND_STAGES:
            known = ", ".join(sorted(KIND_STAGES))
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {known})")
        expected = KIND_STAGES[self.kind]
        if self.stage and self.stage != expected:
            raise ValueError(
                f"fault kind {self.kind!r} belongs to stage {expected!r}, "
                f"not {self.stage!r}"
            )
        object.__setattr__(self, "stage", expected)
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.amount < 1:
            raise ValueError(f"amount must be >= 1, got {self.amount}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")
        if self.frames is not None:
            object.__setattr__(self, "frames", tuple(int(f) for f in self.frames))

    def applies_to_frame(self, frame_index: int) -> bool:
        return self.frames is None or frame_index in self.frames

    def applies_to_attempt(self, attempt: int) -> bool:
        return self.times is None or attempt <= self.times

    def to_json(self) -> dict:
        record: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            # stage is derived from kind (and re-derived on load).
            if f.name in ("kind", "stage") or value == f.default:
                continue
            record[f.name] = list(value) if isinstance(value, tuple) else value
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "FaultSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        kwargs = dict(record)
        if "frames" in kwargs and kwargs["frames"] is not None:
            kwargs["frames"] = tuple(kwargs["frames"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded bundle of :class:`FaultSpec` entries.

    The plan is the unit that travels: ``simulate(..., faults=plan)``,
    ``JobSpec(..., faults=plan)``, ``RunnerOptions(faults=plan)`` and
    the CLI ``--faults`` flag all accept one.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"faults must be FaultSpec, got {type(spec)!r}")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def for_stage(self, stage: str) -> list[tuple[int, FaultSpec]]:
        """(plan index, spec) pairs for one stage; indices key the RNG."""
        return [
            (index, spec)
            for index, spec in enumerate(self.faults)
            if spec.stage == stage
        ]

    def rng(self, *key: Union[str, int]) -> np.random.Generator:
        """An independent generator for one structural injection point.

        The stream depends only on ``(seed, *key)`` — not on how many
        draws other injection points made — so fault decisions commute
        across frames, jobs and worker counts.
        """
        material = json.dumps([self.seed, *key], separators=(",", ":"))
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.to_json() for spec in self.faults],
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "FaultPlan":
        faults = tuple(
            FaultSpec.from_json(entry) for entry in record.get("faults", ())
        )
        return cls(faults=faults, seed=int(record.get("seed", 0)))


def encode_subplan(plan: Optional["FaultPlan"]) -> Optional["FaultPlan"]:
    """The part of a plan the encoder sees, or None when it has none.

    The grid runner's encode cache key carries this: a plan whose
    faults all act on the channel, the decoder input or the runner
    never changes the encoder's output, so its cells share the clean
    stream; encode-stage faults corrupt the stream itself, so cells
    share one corrupted stream only when their sub-plans are equal.

    The sub-plan is the plan cut after its last encode-stage spec.  A
    spec's RNG stream is keyed by its index in the plan, so the specs
    before it stay in place: cutting them out would renumber the encode
    specs and name a different stream.
    """
    if plan is None or not plan:
        return None
    encode_at = [index for index, _ in plan.for_stage(STAGE_ENCODE)]
    if not encode_at:
        return None
    return FaultPlan(faults=plan.faults[: encode_at[-1] + 1], seed=plan.seed)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in results and obs traces.

    Attributes:
        kind / stage: which :class:`FaultSpec` fired.
        target: what it hit — ``"packet:<seq>"``, ``"fragment:<i>"``,
            ``"job:<hash prefix>"``, ``"cache:<hash prefix>"``.
        frame_index: frame the fault landed on (pipeline stages only).
        detail: kind-specific numbers (bytes cut, bits flipped, ...).
    """

    kind: str
    stage: str
    target: str
    frame_index: Optional[int] = None
    detail: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "detail", dict(self.detail))

    def to_json(self) -> dict:
        record: dict[str, Any] = {
            "kind": self.kind,
            "stage": self.stage,
            "target": self.target,
        }
        if self.frame_index is not None:
            record["frame_index"] = self.frame_index
        if self.detail:
            record["detail"] = dict(self.detail)
        return record


def parse_fault_plan(text: str, seed: int = 0) -> FaultPlan:
    """Build a plan from a CLI argument.

    Three accepted forms:

    * a path to a JSON file holding :meth:`FaultPlan.to_json` output,
    * an inline JSON object (starts with ``{``),
    * a compact comma list of ``kind[:probability]`` tokens, e.g.
      ``"truncate:0.3,byteflip,worker_crash"``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty fault plan")
    if text.startswith("{"):
        return FaultPlan.from_json(json.loads(text))
    path = Path(text)
    if text.endswith(".json") or path.is_file():
        return FaultPlan.from_json(json.loads(path.read_text(encoding="utf-8")))
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        kind, _, prob = token.partition(":")
        specs.append(
            FaultSpec(kind=kind, probability=float(prob) if prob else 1.0)
        )
    plan = FaultPlan(faults=tuple(specs), seed=seed)
    if not plan:
        raise ValueError(f"fault plan {text!r} names no faults")
    return plan


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Read a plan previously saved with :meth:`FaultPlan.to_json`."""
    return FaultPlan.from_json(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


def write_fault_plan(path: Union[str, Path], plan: FaultPlan) -> Path:
    """Save ``plan`` as JSON; round-trips through :func:`load_fault_plan`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(plan.to_json(), indent=2) + "\n", encoding="utf-8")
    return path
