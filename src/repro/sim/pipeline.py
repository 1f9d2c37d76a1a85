"""The end-to-end video communication pipeline of the paper's Figure 1.

``simulate`` runs: video source -> encoder (with a resilience strategy)
-> packetizer -> lossy channel -> depacketizer -> decoder -> concealment
-> quality metrics, collecting per-frame records and whole-run
aggregates (energy, file size, PSNR, bad pixels) — everything the
paper's evaluation section plots.

The pipeline is split into two first-class phases:

* :func:`encode_phase` — source -> encoder -> packetizer.  Fully
  deterministic given (sequence, strategy, codec config, encode-stage
  faults); its output, an :class:`EncodedStream`, is what a sender
  would hand to the network and is safe to cache and replay against
  many channel realizations.
* :func:`transmit_phase` — channel -> depacketizer -> decoder ->
  concealment -> metrics.  Consumes an :class:`EncodedStream` plus the
  source sequence (for PSNR/bad-pixel ground truth) and everything
  channel-side: loss model, bit errors, channel/decoder-stage faults.

``simulate`` composes the two under one trace root, so existing callers
see identical results and identical span structure; grid runners call
the phases separately to encode once per operating point and fan out
only the transmit work (see :mod:`repro.sim.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.codec.rate import ClosedLoopRateController
from repro.codec.syntax import ParseMemo
from repro.codec.types import CodecConfig, FrameType
from repro.concealment.base import ConcealmentStrategy
from repro.concealment.copy import CopyConcealment
from repro.energy.counters import OperationCounters
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.energy.profiles import DeviceProfile, IPAQ_H5555
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.metrics.bad_pixels import (
    DEFAULT_BAD_PIXEL_THRESHOLD,
    bad_pixel_count,
)
from repro.metrics.bitrate import FrameSizeStats, frame_size_stats
from repro.metrics.psnr import average_psnr, psnr
from repro.network.biterror import BitErrorChannel
from repro.network.channel import Channel, ChannelLog
from repro.network.loss import LossModel, NoLoss
from repro.network.packet import DEFAULT_MTU, Depacketizer, Packet, Packetizer
from repro.obs.tracer import get_tracer
from repro.resilience.base import ResilienceStrategy
from repro.scenarios.channel import ScenarioChannel
from repro.video.frame import VideoSequence


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulation run needs besides source and scheme.

    Attributes:
        codec: codec parameters.
        mtu: packet size limit (paper: one packet per frame up to MTU).
        device: energy cost profile for the encoder-energy report.
        bad_pixel_threshold: grey-level threshold of the bad-pixel
            metric.
    """

    codec: CodecConfig = field(default_factory=CodecConfig)
    mtu: int = DEFAULT_MTU
    device: DeviceProfile = IPAQ_H5555
    bad_pixel_threshold: int = DEFAULT_BAD_PIXEL_THRESHOLD


@dataclass(frozen=True)
class FrameRecord:
    """Per-frame observables (one row of Figure 6's series)."""

    frame_index: int
    frame_type: FrameType
    size_bytes: int
    intra_mbs: int
    me_skipped_mbs: int
    packets_sent: int
    packets_lost: int
    psnr_encoder: float  # loss-free, encoder-side reconstruction
    psnr_decoder: float  # after the lossy channel and concealment
    bad_pixels: int
    damaged_fragments: int = 0  # fragments the decoder concealed


@dataclass(frozen=True)
class StreamFrame:
    """One frame of an :class:`EncodedStream`: packets + sender stats.

    This is the lean, transmit-facing slice of
    :class:`~repro.codec.types.EncodedFrame`: the packetized bitstream
    and the per-frame numbers the final report needs.  Encoder-side
    reconstructions, macroblock decisions and bit offsets stay behind —
    they are observability, not payload, and dropping them keeps the
    stream cheap to pickle into caches and across process pools.
    """

    frame_index: int
    frame_type: FrameType
    size_bytes: int
    bits: int
    intra_mbs: int
    me_skipped_mbs: int
    psnr_reconstructed: float
    packets: tuple[Packet, ...]


@dataclass(frozen=True)
class EncodedStream:
    """The sender's half of a run: everything :func:`encode_phase` made.

    Deterministic given (sequence, strategy, codec config, encode-stage
    faults) — which is exactly the contract that lets
    :class:`repro.sim.runner.EncodedStreamCache` share one stream across
    every grid cell that differs only in channel conditions.
    """

    sequence_name: str
    strategy_name: str
    width: int
    height: int
    frames: tuple[StreamFrame, ...]
    counters: OperationCounters
    fault_events: tuple[FaultEvent, ...] = ()

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def total_bytes(self) -> int:
        return sum(f.size_bytes for f in self.frames)


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate outcome of one end-to-end run."""

    sequence_name: str
    strategy_name: str
    frames: tuple[FrameRecord, ...]
    counters: OperationCounters
    energy: EnergyBreakdown
    channel_log: ChannelLog
    size_stats: FrameSizeStats
    decoder_counters: Optional[OperationCounters] = None
    decoder_energy: Optional[EnergyBreakdown] = None
    fault_events: tuple[FaultEvent, ...] = ()

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def total_bytes(self) -> int:
        return self.size_stats.total_bytes

    @property
    def energy_joules(self) -> float:
        return self.energy.total_joules

    @property
    def decoder_energy_joules(self) -> float:
        """Receive-side decode energy (0 when not tracked)."""
        return self.decoder_energy.total_joules if self.decoder_energy else 0.0

    @property
    def average_psnr_decoder(self) -> float:
        return average_psnr(f.psnr_decoder for f in self.frames)

    @property
    def average_psnr_encoder(self) -> float:
        return average_psnr(f.psnr_encoder for f in self.frames)

    @property
    def total_bad_pixels(self) -> int:
        return sum(f.bad_pixels for f in self.frames)

    @property
    def total_damaged_fragments(self) -> int:
        """Fragments whose damage the decoder concealed across the run."""
        return sum(f.damaged_fragments for f in self.frames)

    @property
    def intra_fraction(self) -> float:
        decisions = self.counters.mode_decisions
        if not decisions:
            return 0.0
        return sum(f.intra_mbs for f in self.frames) / decisions

    def psnr_series(self) -> list[float]:
        """Per-frame decoder PSNR (Figure 6a's y-values)."""
        return [f.psnr_decoder for f in self.frames]

    def size_series(self) -> list[int]:
        """Per-frame encoded size in bytes (Figure 6b's y-values)."""
        return [f.size_bytes for f in self.frames]

    def recovery_times(self, dip_db: float = 2.0) -> list[int]:
        """Frames needed to recover after each loss-affected frame.

        For every frame that lost at least one packet, count the frames
        until decoder PSNR climbs back to within ``dip_db`` of the
        encoder-side (loss-free) PSNR.  The paper's "faster error
        recovery" claim (Section 4.2) is this quantity, smaller = better.

        The scan for each event is censored at the next loss event (or
        the end of the run): without censoring, closely spaced events
        would each be charged for the whole pile-up and the metric would
        no longer describe a single event's recovery.
        """
        events = [r.frame_index for r in self.frames if r.packets_lost > 0]
        times = []
        for position, start in enumerate(events):
            horizon = (
                events[position + 1]
                if position + 1 < len(events)
                else self.frames[-1].frame_index + 1
            )
            recovered = horizon
            for later in self.frames[start:horizon]:
                if later.psnr_decoder >= later.psnr_encoder - dip_db:
                    recovered = later.frame_index
                    break
            times.append(recovered - start)
        return times


class SenderStates:
    """The encoder's reconstruction of each frame of one encoded stream.

    A decoder is *in sync* when its state (the planes it predicts from)
    equals the sender's after the previous frame: at the start, and
    again whenever a decoded frame reproduces the sender's state, as a
    GOP I-frame or an AIR, PGOP or PBPAIR refresh does after a loss.
    The decoder is a pure function of its state and the fragments it
    gets, and a lossless decode reproduces the encoder's reconstruction,
    so an in-sync decoder that receives frame ``k`` exactly as sent ends
    in sender state ``k``.  Such a frame is *served* from this store
    instead of decoded.

    Each plane lives in one uint8 array ``n_frames`` deep, allocated at
    the first :meth:`put`, so a stream holds at most one state per frame
    and never keeps the encoder's own arrays.  A frame whose payload an
    encode-stage fault altered has no state.  The store also memoizes,
    per frame, the decoder counter delta a decode would bill
    (:attr:`deltas`) and, per frame and bad-pixel threshold, the served
    frame's ``(psnr, bad_pixels)`` (:attr:`metrics`).  It never reaches
    a cache's disk tier or a pickle.
    """

    __slots__ = ("_planes", "_held", "deltas", "metrics")

    def __init__(self) -> None:
        self._planes: tuple[np.ndarray, ...] = ()
        self._held: list[bool] = []
        self.deltas: dict[int, OperationCounters] = {}
        self.metrics: dict[tuple[int, int], tuple[float, int]] = {}

    @property
    def nbytes(self) -> int:
        """Bytes of plane storage allocated (0 until the first put)."""
        return sum(plane.nbytes for plane in self._planes)

    def get(self, index: int) -> Optional[tuple[np.ndarray, ...]]:
        """Sender state ``index`` (luma, then chroma), or None."""
        if not self._planes or not self._held[index]:
            return None
        return tuple(plane[index] for plane in self._planes)

    def put(
        self, index: int, n_frames: int, planes: tuple[np.ndarray, ...]
    ) -> None:
        """Copy ``planes`` in as sender state ``index`` of ``n_frames``."""
        if not self._planes:
            self._planes = tuple(
                np.empty((n_frames,) + plane.shape, dtype=np.uint8)
                for plane in planes
            )
            self._held = [False] * n_frames
        for buffer, plane in zip(self._planes, planes):
            buffer[index] = plane
        self._held[index] = True


@dataclass(eq=False)
class GroupScope:
    """What the cells replaying one encoded stream share while they run.

    The grid runner (:mod:`repro.sim.runner`) runs an encode group's
    cells back to back under one scope: a fresh one per grid, or the
    one parked on the stream's entry in a long-lived stream cache, which
    later grids replaying the stream take up again.

    Attributes:
        key: the group's encode key, under which the stream is cached.
        parse_memo: the group's :class:`~repro.codec.syntax.ParseMemo`,
            seeded by the group's encode when it runs in this scope.
        states: the group's :class:`SenderStates`, seeded by the same
            encode, or filled by the cells' in-sync decodes of a stream
            encoded elsewhere.
    """

    key: str
    parse_memo: ParseMemo = field(default_factory=ParseMemo)
    states: SenderStates = field(default_factory=SenderStates)


def _as_injector(
    faults: Optional[Union[FaultPlan, FaultInjector]],
) -> Optional[FaultInjector]:
    if isinstance(faults, FaultInjector):
        return faults
    if faults is not None and faults:
        return FaultInjector(faults)
    return None


def _check_dimensions(sequence: VideoSequence, config: SimulationConfig) -> None:
    codec = config.codec
    if sequence.width != codec.width or sequence.height != codec.height:
        raise ValueError(
            f"sequence {sequence.width}x{sequence.height} does not match "
            f"codec {codec.width}x{codec.height}"
        )


def _encode_stream(
    sequence: VideoSequence,
    strategy: ResilienceStrategy,
    encoder: Encoder,
    packetizer: Packetizer,
    rate_controller: Optional[ClosedLoopRateController],
    injector: Optional[FaultInjector],
    parse_memo: Optional[ParseMemo],
    states: Optional[SenderStates] = None,
) -> EncodedStream:
    """The sender loop: encode and packetize every frame.

    Opens per-frame ``encode_frame``/``packetize`` spans but no root
    span, and takes its (already constructed) pipeline objects from the
    caller — callers own the trace root and the setup cost, so the
    phases compose under one ``simulate`` span whether they run
    together or apart, with stage spans accounting for the root's
    entire duration.  With a ``parse_memo``, every fragment packetized
    from the encoder's unaltered bytes is seeded with its parse
    (:func:`~repro.codec.syntax.seed_parse_memo`); with ``states``,
    every frame sent as the encoder coded it leaves its reconstruction
    there.
    """
    tracer = get_tracer()
    events_before = len(injector.events) if injector is not None else 0

    frames: list[StreamFrame] = []
    for position, frame in enumerate(sequence):
        if rate_controller is not None:
            # The controller jointly steers PBPAIR's Intra_Th alongside
            # the quantizer.
            rate_controller.steer_strategy(strategy)
            encoder.quantizer = rate_controller.quantizer
        with tracer.span("encode_frame") as encode_span:
            encoded = encoder.encode_frame(frame)
            encode_span.add(
                bits=encoded.stats.bits,
                intra_mbs=encoded.stats.intra_mbs,
                me_skipped_mbs=encoded.stats.me_skipped_mbs,
            )
        if rate_controller is not None:
            rate_controller.observe_frame(encoded)
        if injector is not None:
            payload = injector.apply_to_payload(encoded.payload, frame.index)
            if payload is not encoded.payload:
                # The symbols no longer describe the bytes: no seeds.
                encoded = replace(encoded, payload=payload, symbols=None)
        with tracer.span("packetize") as packet_span:
            packets = packetizer.packetize(encoded, parse_memo)
            if states is not None and encoded.symbols is not None:
                states.put(
                    position,
                    len(sequence),
                    (encoded.reconstruction,)
                    + (encoded.reconstruction_chroma or ()),
                )
            packet_span.add(packets=len(packets))
            frames.append(
                StreamFrame(
                    frame_index=frame.index,
                    frame_type=encoded.frame_type,
                    size_bytes=encoded.size_bytes,
                    bits=encoded.stats.bits,
                    intra_mbs=encoded.stats.intra_mbs,
                    me_skipped_mbs=encoded.stats.me_skipped_mbs,
                    psnr_reconstructed=encoded.stats.psnr_reconstructed,
                    packets=tuple(packets),
                )
            )

    return EncodedStream(
        sequence_name=sequence.name,
        strategy_name=strategy.name,
        width=sequence.width,
        height=sequence.height,
        frames=tuple(frames),
        counters=encoder.counters,
        fault_events=(
            tuple(injector.events[events_before:])
            if injector is not None
            else ()
        ),
    )


def _transmit_stream(
    stream: EncodedStream,
    sequence: VideoSequence,
    config: SimulationConfig,
    decoder: Decoder,
    depacketizer: Depacketizer,
    channel: Channel,
    energy_model: EnergyModel,
    concealment: ConcealmentStrategy,
    bit_errors: Optional[BitErrorChannel],
    injector: Optional[FaultInjector],
    group: Optional[GroupScope] = None,
) -> SimulationResult:
    """The receiver loop: channel, decode, conceal, measure, report.

    Like :func:`_encode_stream` this opens only stage spans and takes
    its constructed pipeline objects from the caller; the ``report``
    span wrapping result construction stays a direct child of whatever
    root the caller holds, keeping stage coverage honest.

    With a ``group`` scope, a frame that reaches an in-sync decoder
    exactly as sent (after the channel, bit errors and channel and
    decoder-input faults) is *served* from the group's
    :class:`SenderStates`: no decode and no concealment.  Its planes are
    the sender's state, its damage count is 0, and the counter delta a
    decode would bill is added (computed from the frame's parses by
    :meth:`~repro.codec.decoder.Decoder.bill_frame`, once per group) as
    are its metrics (once per group and bad-pixel threshold).  The
    channel and the faults still run on every frame.  Any other frame
    decodes as usual; the decoder is back in sync when the decoded
    planes equal the stored state.  A stream encoded outside the scope
    (a cache's disk tier) has no states; each in-sync decode of a frame
    sent as coded stores its planes.  Results and counters are
    identical with or without a scope.
    """
    tracer = get_tracer()
    events_before = len(injector.events) if injector is not None else 0

    records: list[FrameRecord] = []
    decoder_reference: Optional[np.ndarray] = None
    decoder_chroma: Optional[tuple[np.ndarray, np.ndarray]] = None
    states = group.states if group is not None else None
    in_sync = states is not None
    altered = {event.frame_index for event in stream.fault_events}
    threshold = config.bad_pixel_threshold

    for position, (frame, sent) in enumerate(zip(sequence, stream.frames)):
        with tracer.span("channel"):
            delivered = channel.transmit(list(sent.packets))
            if bit_errors is not None:
                delivered = bit_errors.corrupt(delivered)
            if injector is not None:
                delivered = injector.apply_to_packets(delivered, frame.index)
        with tracer.span("decode_frame") as decode_span:
            fragments = depacketizer.group_by_frame(
                delivered, frame.index + 1
            )[frame.index]
            if injector is not None:
                fragments = injector.apply_to_fragments(
                    fragments, frame.index
                )
            intact = in_sync and (
                fragments == [packet.payload for packet in sent.packets]
            )
            served = states.get(position) if intact else None
            if served is not None:
                delta = states.deltas.get(position)
                if delta is None:
                    delta = states.deltas[position] = decoder.bill_frame(
                        fragments, decoder_reference, decoder_chroma
                    )
                decoder.counters.add(delta)
                decode_span.add(replayed=1, fragments=len(fragments))
                tracer.metrics.inc("decoder.frames_replayed")
            else:
                result = decoder.decode_frame(
                    fragments,
                    decoder_reference,
                    expected_index=frame.index,
                    reference_chroma=decoder_chroma,
                )
        if served is not None:
            decoder_reference = served[0]
            decoder_chroma = served[1:] or None
            damaged = 0
        else:
            with tracer.span("conceal"):
                repaired = concealment.conceal(
                    result.frame,
                    result.received,
                    decoder_reference,
                    mvs_pixels=result.mvs_pixels,
                    modes=result.modes,
                )
                # Lost chroma macroblocks already hold the reference
                # copy (the paper's copy concealment); spatial repair
                # is luma-only.
                planes = (repaired,) + (result.chroma or ())
                if states is not None:
                    state = states.get(position)
                    if state is not None:
                        in_sync = all(
                            np.array_equal(plane, stored)
                            for plane, stored in zip(planes, state)
                        )
                    else:
                        in_sync = intact and frame.index not in altered
                        if in_sync:
                            states.put(position, stream.n_frames, planes)
            decoder_reference = repaired
            decoder_chroma = result.chroma
            damaged = result.damaged_fragments

        with tracer.span("metrics"):
            measured = (
                states.metrics.get((position, threshold))
                if served is not None
                else None
            )
            if measured is None:
                measured = (
                    psnr(frame.pixels, decoder_reference),
                    bad_pixel_count(frame.pixels, decoder_reference, threshold),
                )
                if served is not None:
                    states.metrics[(position, threshold)] = measured
            psnr_db, bad = measured
            records.append(
                FrameRecord(
                    frame_index=frame.index,
                    frame_type=sent.frame_type,
                    size_bytes=sent.size_bytes,
                    intra_mbs=sent.intra_mbs,
                    me_skipped_mbs=sent.me_skipped_mbs,
                    packets_sent=len(sent.packets),
                    # Duplicate-packet faults can deliver more
                    # packets than were sent; loss never goes
                    # negative.
                    packets_lost=max(len(sent.packets) - len(delivered), 0),
                    psnr_encoder=sent.psnr_reconstructed,
                    psnr_decoder=psnr_db,
                    bad_pixels=bad,
                    damaged_fragments=damaged,
                )
            )

    with tracer.span("report"):
        return SimulationResult(
            sequence_name=stream.sequence_name,
            strategy_name=stream.strategy_name,
            frames=tuple(records),
            counters=stream.counters,
            energy=energy_model.breakdown(stream.counters),
            channel_log=channel.log,
            size_stats=frame_size_stats([r.size_bytes for r in records]),
            decoder_counters=decoder.counters,
            decoder_energy=energy_model.breakdown(decoder.counters),
            fault_events=tuple(stream.fault_events)
            + (
                tuple(injector.events[events_before:])
                if injector is not None
                else ()
            ),
        )


def encode_phase(
    sequence: VideoSequence,
    strategy: ResilienceStrategy,
    config: Optional[SimulationConfig] = None,
    rate_controller: Optional[ClosedLoopRateController] = None,
    faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    parse_memo: Optional[ParseMemo] = None,
    states: Optional[SenderStates] = None,
) -> EncodedStream:
    """Phase 1 of Figure 1: source -> encoder -> packetizer.

    Deterministic given its arguments: the same sequence, strategy,
    codec config and encode-stage fault sub-plan always produce a
    byte-identical :class:`EncodedStream`, in any process.  That
    contract is what the grid runner's stream cache keys on.

    Args:
        sequence: source video.
        strategy: error-resilience scheme for the encoder.
        config: codec/network/energy parameters.
        rate_controller: optional frame-level quantizer control.
        faults: optional fault plan; only its ``encode``-stage specs
            act here (bytes flipped in the sender's frame buffer before
            packetization), and their events ride the returned stream's
            ``fault_events``.
        parse_memo: optional :class:`~repro.codec.syntax.ParseMemo`
            to seed with the parse of every intact fragment, for the
            decoders that replay this stream.  The stream itself is
            the same with or without it and carries no seeds.
        states: optional :class:`SenderStates` to fill with the
            encoder's reconstruction of every frame sent as coded, for
            the decoders that replay this stream to serve.
    """
    config = config or SimulationConfig()
    _check_dimensions(sequence, config)
    return _encode_stream(
        sequence,
        strategy,
        Encoder(config.codec, strategy),
        Packetizer(config.codec, mtu=config.mtu),
        rate_controller,
        _as_injector(faults),
        parse_memo,
        states,
    )


def _build_channel(
    loss_model: Optional[LossModel],
    scenario,
    scenario_seed: int,
):
    """One channel-side entry point for both the plain and scenario paths.

    ``scenario=None`` constructs exactly what the pipeline always
    built — ``Channel(loss_model or NoLoss())`` — so existing runs stay
    bit-identical.  With a :class:`~repro.scenarios.pack.ScenarioPack`
    the channel becomes a
    :class:`~repro.scenarios.channel.ScenarioChannel` (same duck-typed
    interface), and ``loss_model`` must be unset: the pack declares the
    loss models.
    """
    if scenario is not None:
        if loss_model is not None:
            raise ValueError(
                "pass either loss_model or scenario, not both "
                "(a scenario pack declares its own loss models)"
            )
        return ScenarioChannel(scenario, seed=scenario_seed)
    return Channel(loss_model if loss_model is not None else NoLoss())


def transmit_phase(
    stream: EncodedStream,
    sequence: VideoSequence,
    loss_model: Optional[LossModel] = None,
    config: Optional[SimulationConfig] = None,
    concealment: Optional[ConcealmentStrategy] = None,
    bit_errors: Optional[BitErrorChannel] = None,
    faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    scenario=None,
    scenario_seed: int = 0,
    group: Optional[GroupScope] = None,
) -> SimulationResult:
    """Phase 2 of Figure 1: channel -> depacketize -> decode -> metrics.

    Replays one channel realization against a prepared
    :class:`EncodedStream`.  The source ``sequence`` must be the one
    the stream was encoded from — it supplies the pixels that decoder
    PSNR and bad-pixel counts are measured against.

    Args:
        stream: output of :func:`encode_phase` (possibly cache-shared).
        sequence: the stream's source video (metric ground truth).
        loss_model: channel behaviour; defaults to a lossless channel.
        config: codec/network/energy parameters — must match the
            encode-side config for the decode to be meaningful.
        concealment: decoder-side repair; defaults to the paper's copy
            scheme.
        bit_errors: optional bit-flipping corruption applied to
            delivered packets (VLC desynchronization stress).
        faults: optional fault plan; ``channel``-stage faults hit the
            delivered packet stream after ``bit_errors``,
            ``decoder_input`` faults hit the depacketized fragments.
            The stream's own encode-stage events are prepended to
            ``result.fault_events`` so the run's log stays complete.
        scenario: optional :class:`~repro.scenarios.pack.ScenarioPack`;
            mutually exclusive with ``loss_model``.  The channel then
            follows the pack's segment timeline (loss models, bandwidth
            caps, FEC/retransmission wrappers).
        scenario_seed: channel seed for the scenario's loss models
            (each segment derives its own stream structurally from it).
        group: optional :class:`GroupScope` shared with the other
            replays of the same stream: its parse memo spares the VLD,
            and its sender states spare the decode of every frame that
            reaches an in-sync decoder as sent (see
            :func:`_transmit_stream`).  Results and counters are
            identical with or without it.
    """
    config = config or SimulationConfig()
    _check_dimensions(sequence, config)
    if len(sequence) != stream.n_frames:
        raise ValueError(
            f"sequence has {len(sequence)} frames but the encoded stream "
            f"carries {stream.n_frames}"
        )
    return _transmit_stream(
        stream,
        sequence,
        config,
        Decoder(
            config.codec,
            parse_memo=group.parse_memo if group is not None else None,
        ),
        Depacketizer(),
        _build_channel(loss_model, scenario, scenario_seed),
        EnergyModel(config.device),
        concealment if concealment is not None else CopyConcealment(),
        bit_errors,
        _as_injector(faults),
        group,
    )


def simulate(
    sequence: VideoSequence,
    strategy: ResilienceStrategy,
    loss_model: Optional[LossModel] = None,
    config: Optional[SimulationConfig] = None,
    concealment: Optional[ConcealmentStrategy] = None,
    rate_controller: Optional[ClosedLoopRateController] = None,
    bit_errors: Optional[BitErrorChannel] = None,
    faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    scenario=None,
    scenario_seed: int = 0,
) -> SimulationResult:
    """Run the full Figure-1 pipeline and collect every metric.

    Composes :func:`encode_phase` and :func:`transmit_phase` under one
    ``simulate`` trace root.  Results are identical to running the two
    phases by hand — every stateful pipeline object (packetizer
    sequence numbers, channel RNG, fault RNG streams) sees the same
    per-frame call order either way.

    Args:
        sequence: source video.
        strategy: error-resilience scheme for the encoder.
        loss_model: channel behaviour; defaults to a lossless channel.
        config: codec/network/energy parameters.
        concealment: decoder-side repair; defaults to the paper's copy
            scheme.
        rate_controller: optional frame-level quantizer control; when
            given, each frame is encoded at the controller's QP and its
            size fed back (the paper's "independent control mechanism").
        bit_errors: optional bit-flipping corruption applied to
            delivered packets (VLC desynchronization stress).
        faults: optional deterministic fault plan (or a prepared
            :class:`~repro.faults.inject.FaultInjector`): encode-stage faults
            hit the bitstream before packetization, channel-stage
            faults hit the delivered packet stream after ``bit_errors``,
            decoder-input faults hit the depacketized fragments.  Every
            injection lands in ``result.fault_events`` and, when
            tracing, in the obs trace.
        scenario: optional :class:`~repro.scenarios.pack.ScenarioPack`;
            mutually exclusive with ``loss_model`` (see
            :func:`transmit_phase`).
        scenario_seed: channel seed for the scenario's loss models.
    """
    config = config or SimulationConfig()
    _check_dimensions(sequence, config)
    injector = _as_injector(faults)
    tracer = get_tracer()

    # Construct every pipeline object before the trace root opens, so
    # the root's duration is simulation work that the stage spans fully
    # account for (the coverage bar in tests/test_obs.py).  The encoder
    # seeds the decoder's parse memo with every fragment it sends.
    parse_memo = ParseMemo()
    encoder = Encoder(config.codec, strategy)
    packetizer = Packetizer(config.codec, mtu=config.mtu)
    decoder = Decoder(config.codec, parse_memo=parse_memo)
    depacketizer = Depacketizer()
    channel = _build_channel(loss_model, scenario, scenario_seed)
    energy_model = EnergyModel(config.device)
    concealment = concealment if concealment is not None else CopyConcealment()

    with tracer.span("simulate") as run_span:
        stream = _encode_stream(
            sequence,
            strategy,
            encoder,
            packetizer,
            rate_controller,
            injector,
            parse_memo,
        )
        run_span.add(frames=stream.n_frames)
        tracer.metrics.gauge("sim.frames", stream.n_frames)
        return _transmit_stream(
            stream,
            sequence,
            config,
            decoder,
            depacketizer,
            channel,
            energy_model,
            concealment,
            bit_errors,
            injector,
        )
