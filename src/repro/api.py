"""Stable public facade of the reproduction toolkit.

This module is the **stability boundary** of the package and its one
public surface: scripts, notebooks and downstream tooling should import
from ``repro.api``, not from the internal submodules.  Everything in
``__all__`` here keeps its name and call signature across minor
versions; internal modules (``repro.sim.pipeline``, ``repro.codec.*``,
...) may be refactored freely underneath it.

It is also the only module that gathers names from elsewhere.  The
subpackages (``repro.codec``, ``repro.sim``, ...) export nothing —
each ``__init__`` is just its docstring — so every import below names
the module that defines the object, and each name here is that very
object (same ``__module__`` and ``__qualname__``).

Two kinds of names live here:

* **Functions** — thin wrappers over the experiment harness whose
  option arguments are *keyword-only*, so call sites stay readable and
  adding options never breaks positional callers::

      from repro import api

      video = api.make_sequence("foreman", n_frames=60)
      strategy = api.make_strategy("PBPAIR", intra_th=0.35, plr=0.1)
      result = api.simulate(video, strategy=strategy, plr=0.1)

* **Types** — the dataclasses those functions accept and return
  (:class:`SimulationConfig`, :class:`JobSpec`, ...), re-exported
  unchanged.

The codec itself is part of the facade: :func:`encode_sequence` and
:func:`decode_stream` cover the common encode/decode round trip with
keyword-only options, and the :class:`Frame`/:class:`VideoSequence`/
:class:`EncodedFrame`/:class:`DecodeResult` types travel with them::

    encoded = api.encode_sequence(video, strategy="PGOP-3")
    decoded = api.decode_stream(encoded)          # lossless round trip

Lower-level classes (:class:`Encoder`, :class:`Decoder`,
:class:`Packetizer`, loss models, the energy model, ...) are
re-exported for scripts that drive the pieces directly; their names
here are stable even when the implementing module moves.

Observability rides along: :class:`Tracer`, :func:`use_tracer`,
:func:`write_trace`, :func:`load_trace` and :func:`trace_summary` are
part of the facade so traced runs do not need internal imports either.

The streaming session service is part of the facade too:
:class:`RunnerOptions` bundles the execution knobs shared by the batch
verbs and the daemon, the wire types (:class:`JobSubmit`,
:class:`JobStatus`, :class:`SessionResult`, :class:`FleetSummary`,
:class:`ServiceManifest`) are the schema-versioned job API, and
:class:`ServiceClient`/:class:`ServiceConfig`/:func:`start_daemon`
drive a daemon end to end::

    from repro import api

    config = api.ServiceConfig(queue_dir="fleet", port=0)
    with api.start_daemon(config) as daemon:
        client = api.ServiceClient(daemon.url)
        ids = client.submit([api.JobSubmit(spec=spec) for spec in specs])
        client.wait(ids)
        summary = client.summary()
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.codec.dct import forward_dct_blocks, inverse_dct_blocks
from repro.codec.decoder import Decoder, DecodeResult
from repro.codec.encoder import Encoder
from repro.codec.motion import (
    DiamondSearchMotionEstimator,
    MotionField,
    ThreeStepMotionEstimator,
    build_motion_estimator,
    candidate_sads,
)
from repro.codec.quant import dequantize_blocks, quantize_blocks
from repro.codec.rate import (
    ClosedLoopRateController,
    RateControlConfig,
    build_rate_controller,
)
from repro.codec.reference import (
    dequantize_scalar,
    diamond_search_scalar,
    forward_dct_scalar,
    inverse_dct_scalar,
    quantize_scalar,
    three_step_search_scalar,
)
from repro.codec.types import (
    CodecConfig,
    EncodedFrame,
    FrameType,
    MacroblockMode,
)
from repro.concealment.base import ConcealmentStrategy
from repro.concealment.copy import CopyConcealment
from repro.concealment.motion import MotionRecoveryConcealment
from repro.concealment.spatial import SpatialConcealment
from repro.core.adaptation import (
    EnergyBudgetController,
    intra_th_for_plr_change,
)
from repro.core.correctness import min_sigma_related, refresh_interval
from repro.core.instrumentation import (
    InstrumentedPBPAIRStrategy,
    sigma_heatmap,
)
from repro.core.pbpair import PBPAIRConfig
from repro.energy.counters import OperationCounters
from repro.energy.model import EnergyModel
from repro.energy.profiles import DEVICE_PROFILES, IPAQ_H5555, ZAURUS_SL5600
from repro.faults.inject import FaultInjector, inject_faults
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
    parse_fault_plan,
    write_fault_plan,
)
from repro.metrics.bitrate import frame_size_stats
from repro.network.biterror import BitErrorChannel
from repro.network.channel import Channel
from repro.network.link import BandwidthDeadlineLoss
from repro.network.loss import (
    GilbertElliottLoss,
    LossModel,
    MarkovBurstLoss,
    NoLoss,
    ScriptedLoss,
    TraceLoss,
    UniformLoss,
    structural_rng,
)
from repro.network.packet import Depacketizer, Packetizer
from repro.network.protection import ResilienceWrapper, xor_parity_payload
from repro.obs.export import TraceData, load_trace, write_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import trace_summary
from repro.obs.tracer import Tracer, get_tracer, set_tracer, use_tracer
from repro.resilience.base import ResilienceStrategy
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.resilience.registry import STRATEGY_BUILDERS, build_strategy
from repro.scenarios.channel import ScenarioChannel, segment_seed
from repro.scenarios.fleet import (
    FLEET_COLUMNS,
    FLEET_SCHEMES,
    RECOVERY_DIP_DB,
    FleetCell,
    FleetReport,
    build_cell,
    fleet_jobs,
    recovery_summary,
    run_fleet,
)
from repro.scenarios.pack import (
    LOSS_KINDS,
    SCENARIO_SCHEMA_VERSION,
    LossSpec,
    ResilienceSpec,
    ScenarioFormatError,
    ScenarioPack,
    ScenarioSegment,
    available_packs,
    load_pack,
    parse_scenario,
    write_pack,
)
from repro.service.client import ServiceBusy, ServiceClient, ServiceClientError
from repro.service.daemon import (
    DaemonHandle,
    EncodeDaemon,
    ServiceConfig,
    serve,
    start_daemon,
)
from repro.service.queue import ClaimLost, JobQueue, QueueFull
from repro.service.wire import (
    ClassSummary,
    FleetSummary,
    JobStatus,
    JobSubmit,
    ServiceManifest,
    SessionResult,
    WireFormatError,
    job_spec_from_json,
    job_spec_to_json,
    load_service_manifest,
    percentile,
    session_result_digest,
)
from repro.sim.experiment import (
    CalibrationResult,
    calibrate_intra_th,
    total_encoded_bytes,
)
from repro.sim.pipeline import (
    EncodedStream,
    FrameRecord,
    SimulationConfig,
    SimulationResult,
    StreamFrame,
    encode_phase,
    transmit_phase,
)
from repro.sim.pipeline import simulate as _simulate
from repro.sim.report import format_series, format_table
from repro.sim.runner import (
    EncodedStreamCache,
    GridManifest,
    JobFailure,
    JobResult,
    JobSpec,
    ManifestEntry,
    ResultCache,
    RunnerOptions,
    build_grid,
    encode_content_hash,
    encode_stream_key,
    grid_manifest,
    load_manifest,
    run_grid,
)
from repro.video.frame import Frame, VideoSequence
from repro.video.io import write_ppm
from repro.video.synthetic import (
    SEQUENCE_GENERATORS,
    SyntheticConfig,
    akiyo_like,
    foreman_like,
    garden_like,
    generate_sequence,
)


def simulate(
    sequence: VideoSequence,
    *,
    strategy: ResilienceStrategy,
    loss_model: Optional[LossModel] = None,
    plr: Optional[float] = None,
    seed: int = 1,
    config: Optional[SimulationConfig] = None,
    concealment: Optional[ConcealmentStrategy] = None,
    rate_controller: Optional[ClosedLoopRateController] = None,
    bit_errors: Optional[BitErrorChannel] = None,
    faults: Optional[FaultPlan] = None,
) -> SimulationResult:
    """Run one scheme over one sequence and a lossy channel.

    Pass either a ``loss_model`` or a ``plr`` (which builds a
    :class:`~repro.network.loss.UniformLoss` with ``seed``); passing
    both is an error, passing neither simulates a loss-free channel.
    ``concealment`` overrides the decoder-side concealment strategy
    (copy concealment by default); ``rate_controller`` and
    ``bit_errors`` enable frame-level QP control and post-delivery bit
    corruption, as in the internal pipeline.  ``faults`` injects a
    deterministic :class:`FaultPlan` (packet truncation, reordering,
    fragment corruption, ...); every injection is recorded in the
    result's ``fault_events``.
    """
    if loss_model is not None and plr is not None:
        raise ValueError("pass loss_model or plr, not both")
    if loss_model is None and plr is not None:
        loss_model = UniformLoss(plr=plr, seed=seed)
    return _simulate(
        sequence,
        strategy,
        loss_model=loss_model,
        config=config,
        concealment=concealment,
        rate_controller=rate_controller,
        bit_errors=bit_errors,
        faults=faults,
    )


def make_strategy(spec: str, **kwargs) -> ResilienceStrategy:
    """Build a resilience strategy from its spec string.

    Spec strings are the scheme names the paper compares: ``"NO"``,
    ``"GOP-3"``, ``"AIR-24"``, ``"PGOP-3"``, ``"PBPAIR"``.  Keyword
    arguments configure PBPAIR (``intra_th``, ``plr``, ...); see
    :data:`repro.resilience.registry.STRATEGY_BUILDERS` for the set of
    recognised prefixes.
    """
    return build_strategy(spec, **kwargs)


def encode_sequence(
    sequence: Iterable[Frame],
    *,
    strategy: Union[str, ResilienceStrategy] = "NO",
    config: Optional[CodecConfig] = None,
) -> list[EncodedFrame]:
    """Encode a sequence of frames; no channel is involved.

    ``strategy`` is either a scheme spec string (``"NO"``, ``"GOP-3"``,
    ``"PBPAIR"``, ...) or an already-built
    :class:`~repro.resilience.base.ResilienceStrategy`.  Returns one
    :class:`EncodedFrame` per input frame, each carrying the exact
    bitstream payload plus encoder-side metadata.
    """
    if isinstance(strategy, str):
        strategy = build_strategy(strategy)
    encoder = Encoder(config or CodecConfig(), strategy)
    return encoder.encode_sequence(sequence)


def decode_stream(
    frames: Iterable[Union[EncodedFrame, Sequence[bytes]]],
    *,
    config: Optional[CodecConfig] = None,
) -> list[DecodeResult]:
    """Decode a stream of frames in display order.

    Each item is either an :class:`EncodedFrame` (decoded losslessly —
    it is packetized internally and every fragment is delivered) or a
    list of surviving fragment payloads for one frame, as produced by
    :class:`Packetizer` after channel loss.  The decoder's prediction
    loop is chained across frames exactly as in the simulation
    pipeline; lost macroblocks hold the concealment seed.
    """
    config = config or CodecConfig()
    packetizer = Packetizer(config)
    decoder = Decoder(config)
    results: list[DecodeResult] = []
    reference = None
    reference_chroma = None
    for index, item in enumerate(frames):
        if isinstance(item, EncodedFrame):
            fragments = [p.payload for p in packetizer.packetize(item)]
            index = item.frame_index
        else:
            fragments = list(item)
        result = decoder.decode_frame(
            fragments,
            reference,
            expected_index=index,
            reference_chroma=reference_chroma,
        )
        results.append(result)
        reference = result.frame
        reference_chroma = result.chroma
    return results


def make_sequence(name: str, *, n_frames: int = 90) -> VideoSequence:
    """Build one of the bundled synthetic test clips by name."""
    try:
        generator = SEQUENCE_GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown sequence {name!r}; "
            f"choose from {', '.join(sorted(SEQUENCE_GENERATORS))}"
        ) from None
    return generator(n_frames)


__all__ = [
    # harness functions (keyword-only options)
    "simulate",
    "make_strategy",
    "make_sequence",
    "calibrate_intra_th",
    "total_encoded_bytes",
    # matched-bitrate comparison and closed-loop rate control
    "RateControlConfig",
    "ClosedLoopRateController",
    "build_rate_controller",
    # phase-split pipeline (encode once, replay many channels)
    "encode_phase",
    "transmit_phase",
    "EncodedStream",
    "StreamFrame",
    "CalibrationResult",
    "encode_content_hash",
    "encode_stream_key",
    # codec entry points (keyword-only options)
    "encode_sequence",
    "decode_stream",
    # codec types and classes
    "CodecConfig",
    "Frame",
    "VideoSequence",
    "EncodedFrame",
    "DecodeResult",
    "FrameType",
    "MacroblockMode",
    "Encoder",
    "Decoder",
    # batched block kernels and their scalar reference oracles
    "forward_dct_blocks",
    "inverse_dct_blocks",
    "quantize_blocks",
    "dequantize_blocks",
    "candidate_sads",
    "MotionField",
    "DiamondSearchMotionEstimator",
    "ThreeStepMotionEstimator",
    "build_motion_estimator",
    "forward_dct_scalar",
    "inverse_dct_scalar",
    "quantize_scalar",
    "dequantize_scalar",
    "diamond_search_scalar",
    "three_step_search_scalar",
    # harness types
    "SimulationConfig",
    "SimulationResult",
    "FrameRecord",
    # network: packetization, channels and loss models
    "Packetizer",
    "Depacketizer",
    "Channel",
    "LossModel",
    "NoLoss",
    "UniformLoss",
    "ScriptedLoss",
    "TraceLoss",
    "GilbertElliottLoss",
    "MarkovBurstLoss",
    "BandwidthDeadlineLoss",
    "BitErrorChannel",
    "ResilienceWrapper",
    "xor_parity_payload",
    "structural_rng",
    # scenario packs and the fleet sweep
    "SCENARIO_SCHEMA_VERSION",
    "LOSS_KINDS",
    "ScenarioPack",
    "ScenarioSegment",
    "LossSpec",
    "ResilienceSpec",
    "ScenarioFormatError",
    "ScenarioChannel",
    "segment_seed",
    "available_packs",
    "load_pack",
    "parse_scenario",
    "write_pack",
    "run_fleet",
    "fleet_jobs",
    "build_cell",
    "recovery_summary",
    "FleetCell",
    "FleetReport",
    "FLEET_SCHEMES",
    "FLEET_COLUMNS",
    "RECOVERY_DIP_DB",
    # resilience strategies
    "ResilienceStrategy",
    "STRATEGY_BUILDERS",
    "PBPAIRStrategy",
    "PBPAIRConfig",
    "InstrumentedPBPAIRStrategy",
    "sigma_heatmap",
    "refresh_interval",
    "min_sigma_related",
    # concealment
    "ConcealmentStrategy",
    "CopyConcealment",
    "MotionRecoveryConcealment",
    "SpatialConcealment",
    # encoder-side adaptation controllers
    "EnergyBudgetController",
    "intra_th_for_plr_change",
    # energy model and device profiles
    "EnergyModel",
    "OperationCounters",
    "DEVICE_PROFILES",
    "IPAQ_H5555",
    "ZAURUS_SL5600",
    # parallel experiment runner
    "JobSpec",
    "JobResult",
    "JobFailure",
    "ResultCache",
    "EncodedStreamCache",
    "RunnerOptions",
    "build_grid",
    "run_grid",
    "GridManifest",
    "ManifestEntry",
    "grid_manifest",
    "load_manifest",
    # streaming session service (daemon + versioned job API)
    "JobSubmit",
    "JobStatus",
    "SessionResult",
    "ClassSummary",
    "FleetSummary",
    "ServiceManifest",
    "ServiceConfig",
    "ServiceClient",
    "ServiceClientError",
    "ServiceBusy",
    "EncodeDaemon",
    "DaemonHandle",
    "JobQueue",
    "QueueFull",
    "ClaimLost",
    "WireFormatError",
    "serve",
    "start_daemon",
    "job_spec_to_json",
    "job_spec_from_json",
    "session_result_digest",
    "load_service_manifest",
    "percentile",
    # fault injection
    "FaultPlan",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "inject_faults",
    "parse_fault_plan",
    "load_fault_plan",
    "write_fault_plan",
    # video sources and IO
    "SyntheticConfig",
    "generate_sequence",
    "SEQUENCE_GENERATORS",
    "foreman_like",
    "akiyo_like",
    "garden_like",
    "write_ppm",
    # metrics and reporting
    "frame_size_stats",
    "format_table",
    "format_series",
    # observability
    "Tracer",
    "TraceData",
    "MetricsRegistry",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "write_trace",
    "load_trace",
    "trace_summary",
]
