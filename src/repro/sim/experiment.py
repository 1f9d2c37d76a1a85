"""Operating-point matching: equal-size and equal-bitrate comparisons.

The paper's comparisons are run at *matched compression ratio*: "We
choose Intra_Th that gives similar compression ratio with PGOP-3, GOP-3,
and AIR-24" (Figure 5) and schemes "that generate a similar size of
encoded bitstream" (Figure 6).  Two ways to get there:

* matched bitrate — give every scheme's :class:`~repro.sim.runner.JobSpec`
  the same closed-loop :class:`~repro.codec.rate.RateControlConfig`
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

from typing import Optional

from repro.core.pbpair import PBPAIRConfig
from repro.resilience.base import ResilienceStrategy
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.sim.pipeline import SimulationConfig, encode_phase
from repro.sim.runner import (
    EncodedStreamCache,
    encode_stream_key,
    sequence_digest,
)
from repro.video.frame import VideoSequence


def total_encoded_bytes(
    sequence: VideoSequence,
    strategy: ResilienceStrategy,
    config: Optional[SimulationConfig] = None,
) -> int:
    """Encoded size of the sequence under a scheme (no channel)."""
    return encode_phase(sequence, strategy, config=config).total_bytes


class CalibrationResult(float):
    """The matched ``Intra_Th``, annotated with calibration-cost stats.

    A plain ``float`` to every existing consumer (arithmetic,
    ``"{:.3f}"`` formatting, equality with the bisection midpoints all
    behave normally) — plus an honest account of the encode work the
    stream cache saved: ``probes`` bisection probes asked for a size,
    only ``unique_encodes`` of them actually ran the encoder.
    """

    probes: int
    unique_encodes: int

    def __new__(
        cls,
        value: float,
        probes: int = 0,
        unique_encodes: int = 0,
    ) -> "CalibrationResult":
        self = super().__new__(cls, value)
        self.probes = probes
        self.unique_encodes = unique_encodes
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
    stream_cache: Optional[EncodedStreamCache] = None,
) -> CalibrationResult:
    """Find the ``Intra_Th`` whose encoded size matches ``target_bytes``.

    Bisection over [0, 1]; the encoded size grows with the threshold
    (more macroblocks fall below it and are intra-coded).  Stops when
    within ``tolerance`` (relative) of the target or after
    ``max_iterations`` encodes, returning the best threshold seen as a
    :class:`CalibrationResult` — a float that also reports how many
    probes ran and how many encodes the stream cache saved.

    The bisection itself is inherently sequential (each probe depends
    on the previous outcome), but each probe's stream is pure in its
    parameters, so every probe goes through ``stream_cache`` (a private
    memory-only one when none is given) under the *grid runner's*
    encode key: re-calibrating a clip against a disk-backed cache is
    free, and the stream encoded while probing the winning threshold
    is the very stream the subsequent PBPAIR grid cells replay.

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
    if stream_cache is None:
        stream_cache = EncodedStreamCache()
    kwargs = dict(pbpair_kwargs or {})
    digest = sequence_digest(sequence)
    probes = encodes = 0

    def probe_size(th: float) -> int:
        nonlocal probes, encodes
        strategy = PBPAIRStrategy(PBPAIRConfig(intra_th=th, plr=plr, **kwargs))
        key = encode_stream_key(
            sequence=digest,
            scheme="PBPAIR",
            strategy_kwargs={"plr": plr, "intra_th": th, **kwargs},
            config=config or SimulationConfig(),
        )
        stream, reused = stream_cache.get_or_encode(
            key, lambda: encode_phase(sequence, strategy, config=config)
        )
        probes += 1
        encodes += not reused
        return stream.total_bytes

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
    return CalibrationResult(best_th, probes=probes, unique_encodes=encodes)
