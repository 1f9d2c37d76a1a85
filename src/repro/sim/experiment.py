"""Operating-point matching: equal-size and equal-bitrate comparisons.

The paper's comparisons are run at *matched compression ratio*: "We
choose Intra_Th that gives similar compression ratio with PGOP-3, GOP-3,
and AIR-24" (Figure 5) and schemes "that generate a similar size of
encoded bitstream" (Figure 6).  Two ways to get there:

* :class:`RateMatchSpec` — the first-class path: every scheme encodes
  under the same closed-loop :class:`~repro.codec.rate.RateControlConfig`
  and the controller *drives* each one to the target bitrate in a
  single pass.  No probing, no bisection.
* :func:`calibrate_intra_th` — the offline path: find the
  ``Intra_Th`` whose encoded size matches a reference by bisection (the
  intra-macroblock count, and with it the encoded size, grows
  monotonically with the threshold).  It implements Figure 5's
  matched-*size* protocol.

Either way, the comparison itself runs as
:class:`~repro.sim.runner.JobSpec` cells through
:func:`~repro.sim.runner.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.core.pbpair import PBPAIRConfig
from repro.resilience.base import ResilienceStrategy
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.sim.pipeline import SimulationConfig, encode_only, encode_phase
from repro.codec.rate import RateControlConfig
from repro.sim.runner import (
    EncodedStreamCache,
    JobSpec,
    ResultCache,
    encode_stream_key,
    sequence_digest,
    stable_hash,
)
from repro.video.frame import VideoSequence


def total_encoded_bytes(
    sequence: VideoSequence,
    strategy: ResilienceStrategy,
    config: Optional[SimulationConfig] = None,
) -> int:
    """Encoded size of the sequence under a scheme (no channel)."""
    encoded, _ = encode_only(sequence, strategy, config)
    return sum(frame.size_bytes for frame in encoded)


class CalibrationResult(float):
    """The matched ``Intra_Th``, annotated with calibration-cost stats.

    A plain ``float`` to every existing consumer (arithmetic,
    ``"{:.3f}"`` formatting, equality with the bisection midpoints all
    behave normally) — plus an honest account of the encode work the
    caches saved: ``probes`` bisection probes asked for a size, only
    ``unique_encodes`` of them actually ran the encoder.
    """

    probes: int
    unique_encodes: int
    cache_hits: int

    def __new__(
        cls,
        value: float,
        probes: int = 0,
        unique_encodes: int = 0,
        cache_hits: int = 0,
    ) -> "CalibrationResult":
        self = super().__new__(cls, value)
        self.probes = probes
        self.unique_encodes = unique_encodes
        self.cache_hits = cache_hits
        return self

    @property
    def saved_encodes(self) -> int:
        """Probes that cost a lookup instead of an encoder run."""
        return self.probes - self.unique_encodes


def calibrate_intra_th(
    sequence: VideoSequence,
    target_bytes: int,
    plr: float,
    config: Optional[SimulationConfig] = None,
    pbpair_kwargs: Optional[dict] = None,
    tolerance: float = 0.03,
    max_iterations: int = 8,
    cache: Optional[ResultCache] = None,
    stream_cache: Optional[EncodedStreamCache] = None,
) -> CalibrationResult:
    """Find the ``Intra_Th`` whose encoded size matches ``target_bytes``.

    Bisection over [0, 1]; the encoded size grows with the threshold
    (more macroblocks fall below it and are intra-coded).  Stops when
    within ``tolerance`` (relative) of the target or after
    ``max_iterations`` encodes, returning the best threshold seen as a
    :class:`CalibrationResult` — a float that also reports how many
    probes ran and how many encodes the caches saved.

    The bisection itself is inherently sequential (each probe depends
    on the previous outcome), but each probe's encoded size is pure in
    its parameters: with a ``cache``, probes are memoized on disk under
    a content hash of (sequence pixels, threshold, PBPAIR knobs, codec
    config), so re-calibrating the same clip is free.  With a
    ``stream_cache``, each probe's full :class:`EncodedStream` is kept
    under the *grid runner's* encode key — the stream encoded while
    probing the winning threshold is the very stream the subsequent
    PBPAIR grid cells replay, so calibration's encode work is not
    thrown away.

    The paper does the same calibration to compare schemes at equal
    compression ratio.  Calibrate on the clip you will measure: a
    prefix is cheaper but transfers poorly when the content is
    non-stationary (FOREMAN's camera pan starts in the final third).
    """
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    if max_iterations < 1:
        raise ValueError(
            f"max_iterations must be >= 1, got {max_iterations}: bisection "
            "needs at least one encode to have a threshold to return"
        )
    kwargs = dict(pbpair_kwargs or {})
    digest = (
        sequence_digest(sequence)
        if cache is not None or stream_cache is not None
        else None
    )
    stats = {"probes": 0, "encodes": 0, "hits": 0}

    def encode_probe(th: float) -> int:
        """The probe's encoder run — through the stream cache if given."""
        strategy = PBPAIRStrategy(PBPAIRConfig(intra_th=th, plr=plr, **kwargs))
        if stream_cache is None:
            stats["encodes"] += 1
            return total_encoded_bytes(sequence, strategy, config)
        key = encode_stream_key(
            sequence=digest,
            scheme="PBPAIR",
            strategy_kwargs={"plr": plr, "intra_th": th, **kwargs},
            config=config or SimulationConfig(),
        )
        stream, reused = stream_cache.get_or_encode(
            key, lambda: encode_phase(sequence, strategy, config=config)
        )
        stats["hits" if reused else "encodes"] += 1
        return stream.total_bytes

    def probe_size(th: float) -> int:
        stats["probes"] += 1
        if cache is not None:
            key = stable_hash(
                {
                    "kind": "encode-size",
                    "sequence": digest,
                    "intra_th": th,
                    "plr": plr,
                    "pbpair_kwargs": kwargs,
                    "config": config or SimulationConfig(),
                }
            )
            hit = cache.get(key)
            if hit is not None:
                stats["hits"] += 1
                return int(hit)
        size = encode_probe(th)
        if cache is not None:
            cache.put(key, size)
        return size

    lo, hi = 0.0, 1.0
    best_th, best_error = 0.5, float("inf")
    for _ in range(max_iterations):
        mid = (lo + hi) / 2.0
        size = probe_size(mid)
        error = abs(size - target_bytes) / target_bytes
        if error < best_error:
            best_th, best_error = mid, error
        if error <= tolerance:
            break
        if size < target_bytes:
            lo = mid
        else:
            hi = mid
    return CalibrationResult(
        best_th,
        probes=stats["probes"],
        unique_encodes=stats["encodes"],
        cache_hits=stats["hits"],
    )


@dataclass(frozen=True)
class RateMatchSpec:
    """A matched-bitrate comparison: every scheme, one kbps target.

    The first-class alternative to the :func:`calibrate_intra_th`
    probe loop on the Figure 5/6 path: instead of bisecting PBPAIR's
    ``Intra_Th`` until its file size matches a reference encode, every
    scheme carries the same closed-loop
    :class:`~repro.codec.rate.RateControlConfig` and the controller
    steers each one to the target bitrate *while encoding*.  Zero
    probe encodes; fairness by construction.

    Attributes:
        target_kbps: the shared bitrate target.  Must sit inside every
            scheme's feasible band — intra-heavy schemes (GOP, AIR)
            have a bitrate floor at QP 31 that a too-low target cannot
            get under.
        schemes: figure-style scheme specs to compare.
        fps: frame rate the target divides by.
        sensitivity: controller aggressiveness (see
            :class:`~repro.codec.rate.RateControlConfig`).
        base_qp: first-frame quantizer for every scheme.
    """

    target_kbps: float
    schemes: tuple[str, ...] = ("NO", "GOP-3", "AIR-24", "PGOP-3", "PBPAIR")
    fps: float = 30.0
    sensitivity: float = 1.0
    base_qp: int = 6

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("need at least one scheme")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        # Delegate numeric validation to the config itself.
        self.rate_config()

    def rate_config(self) -> RateControlConfig:
        """The one rate-control config every scheme encodes under."""
        return RateControlConfig(
            target_kbps=self.target_kbps,
            fps=self.fps,
            sensitivity=self.sensitivity,
            base_qp=self.base_qp,
        )

    def jobs(
        self,
        *,
        plr: float,
        channel_seed: int = 0,
        sequence: str = "foreman",
        n_frames: int = 90,
        config: Optional[SimulationConfig] = None,
        pbpair_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> list[JobSpec]:
        """One rate-controlled :class:`JobSpec` per scheme, in order.

        Ready for :func:`repro.sim.runner.run_grid`: every cell shares
        the channel conditions and the rate config, so the grid *is*
        the matched-bitrate comparison.
        """
        rate = self.rate_config()
        return [
            JobSpec(
                scheme=scheme,
                plr=plr,
                channel_seed=channel_seed,
                sequence=sequence,
                n_frames=n_frames,
                config=config or SimulationConfig(),
                pbpair_kwargs=dict(pbpair_kwargs or {})
                if scheme.upper().startswith("PBPAIR")
                else {},
                rate=rate,
            )
            for scheme in self.schemes
        ]
