"""Declarative, schema-versioned channel scenario packs.

A :class:`ScenarioPack` describes a channel as a *timeline of segments*
— plain frozen data, so a pack pickles to worker processes, hashes
stably into the result-cache key, crosses the service wire as JSON, and
ships as a data file under ``repro/scenarios/packs/``.  Each
:class:`ScenarioSegment` holds a loss model (:class:`LossSpec`), an
optional bandwidth cap, and an optional channel-side FEC/retransmission
wrapper (:class:`ResilienceSpec`); handoff and mobility profiles are
just multi-segment packs whose conditions shift at frame boundaries.

The pack itself never touches packets — it is interpreted by
:class:`repro.scenarios.channel.ScenarioChannel` at simulation time.
Serialization mirrors the :class:`repro.faults.plan.FaultPlan` precedent:
``to_json`` writes only non-default fields, ``from_json`` rejects
unknown fields, and every rendered pack carries an explicit
``schema_version`` that must equal :data:`SCENARIO_SCHEMA_VERSION`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.network.loss import (
    GilbertElliottLoss,
    LossModel,
    MarkovBurstLoss,
    NoLoss,
    TraceLoss,
    UniformLoss,
)

#: Version stamped on every pack this module writes, and the only
#: version :func:`ScenarioPack.from_json` accepts.  Bump on
#: incompatible layout changes, as the wire and trace schemas do.
SCENARIO_SCHEMA_VERSION = 1

#: Loss-model kinds a segment can declare.
LOSS_KINDS = (
    "none",
    "uniform",
    "gilbert_elliott",
    "markov_burst",
    "trace",
    "plr_series",
)


class ScenarioFormatError(ValueError):
    """A scenario rendering that does not parse under a supported schema."""


def _reject_unknown(cls: type, record: Mapping[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = set(record) - known
    if unknown:
        raise ScenarioFormatError(
            f"unknown {cls.__name__} fields: {sorted(unknown)}"
        )


def _non_default_fields(obj: Any, always: tuple[str, ...] = ()) -> dict:
    """FaultSpec's rendering idiom: keep only non-default fields
    (plus ``always``), tuples as lists."""
    record: dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name not in always and value == f.default:
            continue
        record[f.name] = list(value) if isinstance(value, tuple) else value
    return record


@dataclass(frozen=True)
class LossSpec:
    """One segment's loss model, as declarative data.

    ``kind`` selects the model; only that kind's knobs are meaningful
    (the rest keep their defaults and are omitted from JSON):

    * ``"none"`` — the ideal channel.
    * ``"uniform"`` — i.i.d. drop: ``plr``, ``granularity``.
    * ``"gilbert_elliott"`` — two-state burst: ``p_good_to_bad``,
      ``p_bad_to_good``, ``good_loss``, ``bad_loss``.
    * ``"markov_burst"`` — k-state burst erasure: ``p_enter``,
      ``escape`` (one entry per burst depth).
    * ``"trace"`` — explicit recorded fate string: ``pattern``
      ('.' delivered, 'x' lost, one char per frame).
    * ``"plr_series"`` — scripted per-frame PLR series realized
      deterministically from the channel seed: ``plr_series``.

    The model seed is *not* part of the spec: it is supplied at build
    time (from the job's channel seed plus the segment index), so one
    pack replicates across seeds without editing data files.
    """

    kind: str = "uniform"
    plr: float = 0.1
    granularity: str = "frame"
    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.4
    good_loss: float = 0.0
    bad_loss: float = 1.0
    p_enter: float = 0.05
    escape: tuple[float, ...] = (0.5,)
    pattern: str = ""
    plr_series: tuple[float, ...] = ()
    protect_first_frame: bool = True

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            known = ", ".join(LOSS_KINDS)
            raise ScenarioFormatError(
                f"unknown loss kind {self.kind!r} (known: {known})"
            )
        object.__setattr__(self, "escape", tuple(float(e) for e in self.escape))
        object.__setattr__(
            self, "plr_series", tuple(float(p) for p in self.plr_series)
        )
        for name in ("plr", "p_good_to_bad", "p_bad_to_good", "good_loss",
                     "bad_loss", "p_enter"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ScenarioFormatError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if self.granularity not in ("frame", "packet"):
            raise ScenarioFormatError(
                f"granularity must be 'frame' or 'packet', "
                f"got {self.granularity!r}"
            )
        for e in self.escape:
            if not 0.0 < e <= 1.0:
                raise ScenarioFormatError(
                    f"escape probabilities must be in (0, 1], got {e}"
                )
        for p in self.plr_series:
            if not 0.0 <= p <= 1.0:
                raise ScenarioFormatError(
                    f"plr_series entries must be in [0, 1], got {p}"
                )
        if self.kind == "trace":
            if not self.pattern or set(self.pattern) - set(".x"):
                raise ScenarioFormatError(
                    "trace kind needs a non-empty pattern of '.' and 'x'"
                )
        if self.kind == "plr_series" and not self.plr_series:
            raise ScenarioFormatError(
                "plr_series kind needs a non-empty plr_series"
            )

    def build(self, seed: int) -> LossModel:
        """Instantiate the declared model with a concrete seed."""
        if self.kind == "none":
            return NoLoss()
        if self.kind == "uniform":
            return UniformLoss(
                plr=self.plr,
                seed=seed,
                protect_first_frame=self.protect_first_frame,
                granularity=self.granularity,
            )
        if self.kind == "gilbert_elliott":
            return GilbertElliottLoss(
                p_good_to_bad=self.p_good_to_bad,
                p_bad_to_good=self.p_bad_to_good,
                good_loss=self.good_loss,
                bad_loss=self.bad_loss,
                seed=seed,
                protect_first_frame=self.protect_first_frame,
            )
        if self.kind == "markov_burst":
            return MarkovBurstLoss(
                p_enter=self.p_enter,
                escape=self.escape,
                seed=seed,
                protect_first_frame=self.protect_first_frame,
            )
        if self.kind == "trace":
            return TraceLoss.from_loss_rate_pattern(self.pattern)
        return TraceLoss.from_plr_series(self.plr_series, seed=seed)

    def nominal_loss_rate(self) -> float:
        """The model's long-run loss rate (analytic where available).

        Used as the *encoder-side assumption* for schemes that take an
        expected PLR (PBPAIR's ``alpha``); the channel itself never
        reads it.
        """
        if self.kind == "none":
            return 0.0
        if self.kind == "uniform":
            return self.plr
        if self.kind == "gilbert_elliott":
            total = self.p_good_to_bad + self.p_bad_to_good
            if total == 0:
                return self.good_loss
            pi_bad = self.p_good_to_bad / total
            return pi_bad * self.bad_loss + (1 - pi_bad) * self.good_loss
        if self.kind == "markov_burst":
            return MarkovBurstLoss(
                self.p_enter, self.escape
            ).steady_state_loss_rate
        if self.kind == "trace":
            return self.pattern.count("x") / len(self.pattern)
        return sum(self.plr_series) / len(self.plr_series)

    def to_json(self) -> dict:
        return _non_default_fields(self, always=("kind",))

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "LossSpec":
        _reject_unknown(cls, record)
        kwargs = dict(record)
        for name in ("escape", "plr_series"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True)
class ResilienceSpec:
    """Channel-side protection a segment wraps around its loss model.

    At least one mechanism must be enabled — a segment without
    protection simply omits the spec.  See
    :class:`repro.network.protection.ResilienceWrapper` for semantics.
    """

    fec_window: int = 0
    retx_limit: int = 0

    def __post_init__(self) -> None:
        if self.fec_window < 0 or self.fec_window == 1:
            raise ScenarioFormatError(
                f"fec_window must be 0 (off) or >= 2, got {self.fec_window}"
            )
        if self.retx_limit < 0:
            raise ScenarioFormatError(
                f"retx_limit must be >= 0, got {self.retx_limit}"
            )
        if self.fec_window == 0 and self.retx_limit == 0:
            raise ScenarioFormatError(
                "resilience needs fec_window >= 2 or retx_limit >= 1 "
                "(omit the spec for an unprotected segment)"
            )

    def to_json(self) -> dict:
        return _non_default_fields(self)

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "ResilienceSpec":
        _reject_unknown(cls, record)
        return cls(**record)


@dataclass(frozen=True)
class ScenarioSegment:
    """One stretch of the channel timeline.

    Attributes:
        frames: how many frames this segment covers; ``0`` means "the
            rest of the clip" and is only allowed on the final segment
            (a pack outliving its explicit timeline stays in its last
            segment).
        loss: the segment's loss model.
        bandwidth_kbps: link capacity cap; ``0`` means uncapped.  A
            capped segment also drops packets that miss the playout
            deadline (see
            :class:`repro.network.link.BandwidthDeadlineLoss`).
        playout_delay_s: receiver buffer for the bandwidth cap.
        resilience: optional FEC/retransmission wrapper.
        label: free-form display name ("highway", "tunnel", ...).
    """

    frames: int = 0
    loss: LossSpec = LossSpec()
    bandwidth_kbps: float = 0.0
    playout_delay_s: float = 0.25
    resilience: Optional[ResilienceSpec] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.frames < 0:
            raise ScenarioFormatError(
                f"segment frames must be >= 0, got {self.frames}"
            )
        if self.bandwidth_kbps < 0:
            raise ScenarioFormatError(
                f"bandwidth_kbps must be >= 0, got {self.bandwidth_kbps}"
            )
        if self.playout_delay_s < 0:
            raise ScenarioFormatError(
                f"playout_delay_s must be >= 0, got {self.playout_delay_s}"
            )
        if not isinstance(self.loss, LossSpec):
            raise ScenarioFormatError(
                f"loss must be a LossSpec, got {type(self.loss)!r}"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceSpec
        ):
            raise ScenarioFormatError(
                f"resilience must be a ResilienceSpec, "
                f"got {type(self.resilience)!r}"
            )

    def to_json(self) -> dict:
        record = _non_default_fields(self, always=("frames",))
        record["loss"] = self.loss.to_json()
        if self.resilience is not None:
            record["resilience"] = self.resilience.to_json()
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "ScenarioSegment":
        _reject_unknown(cls, record)
        kwargs = dict(record)
        if "loss" in kwargs:
            kwargs["loss"] = LossSpec.from_json(kwargs["loss"])
        if kwargs.get("resilience") is not None:
            kwargs["resilience"] = ResilienceSpec.from_json(
                kwargs["resilience"]
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioPack:
    """A named, versioned channel scenario: segments on a timeline.

    The unit that travels: ``simulate(..., scenario=pack)``,
    ``JobSpec(..., scenario=pack)`` and the CLI ``--scenario`` flag
    all accept one.  The pack is
    deliberately *transmit-side only* — it joins the result-cache and
    wire keys but not the encoded-stream key, so a fleet sweep across
    many scenarios encodes each (scheme, clip) exactly once.
    """

    name: str
    segments: tuple[ScenarioSegment, ...]
    fps: float = 30.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ScenarioFormatError("pack name must be a non-empty string")
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ScenarioFormatError("a pack needs at least one segment")
        for index, segment in enumerate(self.segments):
            if not isinstance(segment, ScenarioSegment):
                raise ScenarioFormatError(
                    f"segments must be ScenarioSegment, got {type(segment)!r}"
                )
            if segment.frames == 0 and index != len(self.segments) - 1:
                raise ScenarioFormatError(
                    f"segment {index} has frames=0 (rest-of-clip), which "
                    f"only the final segment may use"
                )
        if self.fps <= 0:
            raise ScenarioFormatError(f"fps must be > 0, got {self.fps}")

    def nominal_loss_rate(self) -> float:
        """Frame-weighted long-run loss rate across the timeline.

        A rough *encoder-side* figure (what a scheme like PBPAIR should
        assume); an open-ended final segment is weighted as one second
        of video.  Ignores bandwidth caps and resilience wrappers.
        """
        total_weight = 0.0
        weighted = 0.0
        for segment in self.segments:
            weight = segment.frames if segment.frames > 0 else self.fps
            weighted += weight * segment.loss.nominal_loss_rate()
            total_weight += weight
        return weighted / total_weight

    def segment_index_for_frame(self, frame_index: int) -> int:
        """Which segment a frame falls in; the last segment persists
        past the end of the explicit timeline."""
        if frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {frame_index}")
        start = 0
        for index, segment in enumerate(self.segments):
            if segment.frames == 0 or frame_index < start + segment.frames:
                return index
            start += segment.frames
        return len(self.segments) - 1

    def to_json(self) -> dict:
        record: dict[str, Any] = {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
        }
        if self.description:
            record["description"] = self.description
        if self.fps != 30.0:
            record["fps"] = self.fps
        record["segments"] = [s.to_json() for s in self.segments]
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "ScenarioPack":
        schema = record.get("schema_version")
        if schema != SCENARIO_SCHEMA_VERSION:
            raise ScenarioFormatError(
                f"scenario pack schema {schema!r} "
                f"(this reader understands {SCENARIO_SCHEMA_VERSION})"
            )
        known = {f.name for f in fields(cls)} | {"schema_version"}
        unknown = set(record) - known
        if unknown:
            raise ScenarioFormatError(
                f"unknown ScenarioPack fields: {sorted(unknown)}"
            )
        return cls(
            name=record["name"],
            segments=tuple(
                ScenarioSegment.from_json(s)
                for s in record.get("segments", ())
            ),
            fps=float(record.get("fps", 30.0)),
            description=record.get("description", ""),
        )


# ---------------------------------------------------------------------------
# Shipped packs and parsing
# ---------------------------------------------------------------------------


def packs_dir() -> Path:
    """Directory of the scenario packs shipped with the package."""
    return Path(__file__).resolve().parent / "packs"


def available_packs() -> tuple[str, ...]:
    """Names of the shipped packs, sorted."""
    return tuple(
        sorted(path.stem for path in packs_dir().glob("*.json"))
    )


def load_pack(name_or_path: Union[str, Path]) -> ScenarioPack:
    """Load a shipped pack by name, or any pack file by path."""
    shipped = packs_dir() / f"{name_or_path}.json"
    path = shipped if shipped.is_file() else Path(name_or_path)
    if not path.is_file():
        known = ", ".join(available_packs()) or "(none)"
        raise ScenarioFormatError(
            f"no scenario pack {str(name_or_path)!r} "
            f"(shipped packs: {known}; or pass a file path)"
        )
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path} is not valid JSON: {exc}") from exc
    return ScenarioPack.from_json(record)


def write_pack(pack: ScenarioPack, path: Union[str, Path]) -> Path:
    """Render a pack to a JSON data file (how packs are authored)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(pack.to_json(), indent=2) + "\n", encoding="utf-8"
    )
    return path


def parse_scenario(text: str) -> ScenarioPack:
    """Parse the CLI's ``--scenario`` argument.

    Accepts, in order: inline JSON (anything starting with ``{``), a
    shipped pack name, or a path to a pack file.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(
                f"inline scenario is not valid JSON: {exc}"
            ) from exc
        return ScenarioPack.from_json(record)
    return load_pack(stripped)
