"""The decoder: VLD, dequantization, IDCT and motion compensation.

The decoder consumes *fragments* — independently decodable packet
payloads produced by :mod:`repro.network.packet` — rather than whole
frames, because under loss only some fragments of a frame arrive.  Each
fragment carries its own header (frame index, type, QP, macroblock
range), so the decoder can place whatever arrives and report exactly
which macroblocks were received.  Lost macroblocks are *not* repaired
here; concealment is a separate, pluggable stage
(:mod:`repro.concealment`), as in the paper where the similarity factor
is parameterized by the concealment scheme.

A corrupt or truncated fragment raises no exception to the caller: the
decoder salvages every macroblock up to the failure point and marks the
rest as lost — mirroring how VLC desynchronization destroys the tail of
a real packet.

A frame decodes in two phases.  Phase 1 runs per fragment: header,
variable-length decode (memo-aware) and the salvage bookkeeping, with
any error contained at the fragment boundary.  Phase 2 runs once per
frame over every salvaged macroblock: one dequantization and one
inverse transform of the *coded* blocks only (an uncoded block's
residual is exactly zero, so an uncoded inter block is its prediction
and an uncoded intra block is zero), then the encoder's own
prediction and reconstruction kernels (:func:`repro.codec.recon.predict`
and :func:`~repro.codec.recon.reconstruct`) and one canvas write per
plane.  The operation counters still bill the paper's decoder, which
dequantizes and transforms every block of every salvaged macroblock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.codec.bitstream import BitReader, BitstreamError
from repro.codec.dct import inverse_dct_blocks
from repro.codec.quant import dequantize_blocks
from repro.codec.syntax import (
    ParseMemo,
    decode_macroblock_layer,
    read_fragment_header,
)
from repro.codec.types import CodecConfig, FrameType, MacroblockMode
from repro.codec.blocks import blocks_to_macroblocks
from repro.codec.halfpel import halfpel_to_pixels
from repro.codec.recon import predict, reconstruct
from repro.energy.counters import OperationCounters
from repro.obs.tracer import get_tracer


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one frame's surviving fragments.

    Attributes:
        frame_index: index claimed by the fragments (or the expected
            index when nothing arrived).
        frame_type: I or P (defaults to P when nothing arrived).
        frame: decoded luma; lost macroblocks hold the concealment
            *seed* (a copy of the reference frame, or mid-grey when no
            reference exists).
        received: ``(mb_rows, mb_cols)`` bool mask of macroblocks that
            decoded successfully.
        modes: per-macroblock mode for received macroblocks (None
            elsewhere).
        mvs_pixels: ``(mb_rows, mb_cols, 2)`` decoded motion field in
            *pixel* units (half-pel vectors truncated), zeros for
            intra/lost macroblocks — the raw material for motion-aware
            concealment.
        chroma: decoded ``(cb, cr)`` planes when the codec carries
            4:2:0 chroma; None for luma-only streams.
        damaged_fragments: fragments whose damage the decoder concealed
            instead of raising — unreadable headers, VLC desync that
            truncated the salvaged prefix, or any unexpected decode
            error contained at the fragment boundary.
    """

    frame_index: int
    frame_type: FrameType
    frame: np.ndarray
    received: np.ndarray
    modes: np.ndarray
    mvs_pixels: Optional[np.ndarray] = None
    chroma: Optional[tuple[np.ndarray, np.ndarray]] = None
    damaged_fragments: int = 0


class Decoder:
    """Stateless fragment decoder (the caller owns the reference frame).

    Decoding work (VLD bits, dequantization, IDCT, motion compensation)
    is tallied into :attr:`counters` so receive-side energy can be
    priced with the same device profiles as the encoder — handhelds
    spend battery on both directions of a video call.  The counters
    price every block of every salvaged macroblock, as the paper's
    decoder does; with tracing on, ``decoder.idct_blocks_billed`` and
    ``decoder.idct_blocks_executed`` set that against the coded blocks
    actually transformed.

    ``parse_memo`` lets decoders of one encoded stream share their
    variable-length decode (see :class:`~repro.codec.syntax.ParseMemo`):
    a fragment whose parse is already known, seeded by the encoder or
    made by another decoder, skips only the parse.
    Reconstruction and every counter are unchanged, so the modelled
    decode energy still prices the parse.
    """

    def __init__(
        self,
        config: CodecConfig,
        counters: Optional[OperationCounters] = None,
        parse_memo: Optional[ParseMemo] = None,
    ) -> None:
        self.config = config
        self.counters = counters if counters is not None else OperationCounters()
        self.parse_memo = parse_memo

    def decode_frame(
        self,
        fragments: Iterable[bytes],
        reference: Optional[np.ndarray],
        expected_index: int = 0,
        reference_chroma: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> DecodeResult:
        """Decode whatever fragments of a frame survived the channel.

        Args:
            fragments: surviving fragment payloads, any order; when two
                cover the same macroblock, the later one wins.
            reference: previous decoder-side frame (after concealment),
                or None at sequence start.
            expected_index: frame index to report when no fragment
                arrived.
            reference_chroma: previous decoder-side ``(cb, cr)`` planes
                (chroma codecs only).
        """
        config = self.config
        mb_rows, mb_cols = config.mb_rows, config.mb_cols
        if reference is None:
            canvas = np.full((config.height, config.width), 128, dtype=np.uint8)
        else:
            if reference.shape != (config.height, config.width):
                raise ValueError(
                    f"reference shape {reference.shape} does not match config"
                )
            canvas = reference.copy()

        chroma_canvases: Optional[tuple[np.ndarray, np.ndarray]] = None
        if config.chroma:
            half = (config.height // 2, config.width // 2)
            if reference_chroma is None:
                chroma_canvases = (
                    np.full(half, 128, dtype=np.uint8),
                    np.full(half, 128, dtype=np.uint8),
                )
            else:
                cb, cr = reference_chroma
                if cb.shape != half or cr.shape != half:
                    raise ValueError("chroma reference shape mismatch")
                chroma_canvases = (cb.copy(), cr.copy())

        received = np.zeros((mb_rows, mb_cols), dtype=bool)
        modes = np.full((mb_rows, mb_cols), None, dtype=object)
        mvs_pixels = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)
        frame_index = expected_index
        frame_type = FrameType.P
        # Inter macroblocks need every plane they predict from.
        allow_inter = reference is not None and not (
            config.chroma and reference_chroma is None
        )

        # Phase 1 — per fragment: header, VLD and salvage bookkeeping.
        salvaged: list[tuple[int, int, object]] = []
        damaged = 0
        for fragment_position, payload in enumerate(fragments):
            # Fragment-level resync: *nothing* a fragment contains may
            # abort the frame.  Expected corruption (bad magic, VLC
            # desync) is handled inside _parse_fragment; this guard
            # additionally contains any unexpected decode error at the
            # fragment boundary — the damaged region is concealed and
            # the remaining fragments still decode.
            try:
                header, parse = self._parse_fragment(payload, allow_inter)
            except Exception as error:  # noqa: BLE001 - containment contract
                damaged += 1
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "decoder.fragment_error",
                        fragment=fragment_position,
                        error=type(error).__name__,
                        expected_index=expected_index,
                    )
                continue
            if header is None:
                damaged += 1  # unreadable header: the whole fragment is lost
                continue
            if len(parse.meta) < header.mb_count:
                damaged += 1  # VLC desync truncated the salvaged prefix
            frame_index = header.frame_index
            frame_type = header.frame_type
            if len(parse.meta):
                salvaged.append((header.first_mb, header.qp, parse))

        # Phase 2 — once per frame, over every salvaged macroblock.
        if salvaged:
            self._reconstruct(
                salvaged,
                reference,
                reference_chroma,
                canvas,
                chroma_canvases,
                received,
                modes,
                mvs_pixels,
            )

        return DecodeResult(
            frame_index=frame_index,
            frame_type=frame_type,
            frame=canvas,
            received=received,
            modes=modes,
            mvs_pixels=mvs_pixels,
            chroma=chroma_canvases,
            damaged_fragments=damaged,
        )

    def _parse_fragment(self, payload: bytes, allow_inter: bool):
        """Header and batch VLD of one fragment; salvage on corruption.

        Returns ``(header, parse)``, or ``(None, None)`` when the header
        is unreadable or claims macroblocks beyond the frame.  A corrupt
        codeword (or a macroblock that cannot be predicted) truncates
        the parse's salvaged prefix exactly where the sequential
        decoder stopped.
        """
        config = self.config
        reader = BitReader(payload)
        try:
            header = read_fragment_header(reader)
        except BitstreamError:
            return None, None
        if header.first_mb + header.mb_count > config.mb_count:
            return None, None
        memo = self.parse_memo
        stored = len(memo) if memo is not None else 0
        parse = decode_macroblock_layer(
            reader,
            header.frame_type,
            header.mb_count,
            config.blocks_per_mb,
            allow_skip=config.allow_skip,
            allow_inter=allow_inter,
            mv_limit=config.mv_limit,
            memo=memo,
        )
        tracer = get_tracer()
        if tracer.enabled:
            # Every fresh parse adds a memo entry; a replayed one does not.
            reused = memo is not None and len(memo) == stored
            tracer.metrics.inc(
                "decoder.fragments_reused"
                if reused
                else "decoder.fragments_parsed"
            )
        self.counters.entropy_bits += reader.bits_consumed
        return header, parse

    def _reconstruct(
        self,
        salvaged: list,
        reference: Optional[np.ndarray],
        reference_chroma: Optional[tuple[np.ndarray, np.ndarray]],
        canvas: np.ndarray,
        chroma_canvases: Optional[tuple[np.ndarray, np.ndarray]],
        received: np.ndarray,
        modes: np.ndarray,
        mvs_pixels: np.ndarray,
    ) -> None:
        """Phase 2: place every salvaged macroblock of the frame at once.

        ``salvaged`` holds ``(first_mb, qp, parse)`` per fragment in
        delivery order.  The macroblocks are numbered by *slot*, their
        position in the concatenation of the fragments' parses.
        """
        config = self.config
        mb_cols = config.mb_cols
        blocks_per_mb = config.blocks_per_mb
        counts = np.array([len(parse.meta) for _, _, parse in salvaged])
        slot_base = np.cumsum(counts) - counts
        n_slots = int(counts.sum())
        meta = np.concatenate(
            [parse.meta for _, _, parse in salvaged]
        ).astype(np.int64)
        intra = meta[:, 0] != 0
        qp = np.repeat([qp for _, qp, _ in salvaged], counts)
        mb_index = np.repeat(
            [first for first, _, _ in salvaged] - slot_base, counts
        ) + np.arange(n_slots)

        # The paper's decoder dequantizes and transforms every block of
        # every salvaged macroblock, duplicates included.
        n_inter = n_slots - int(np.count_nonzero(intra))
        billed = blocks_per_mb * n_slots
        self.counters.mode_decisions += n_slots
        self.counters.mc_blocks += n_inter
        self.counters.dequant_blocks += billed
        self.counters.idct_blocks += billed

        # The last delivered copy of each macroblock wins: ``slots[k]``
        # is the slot written to the frame's k-th placed macroblock.
        _, last = np.unique(mb_index[::-1], return_index=True)
        slots = n_slots - 1 - last
        placed = np.full(n_slots, -1)
        placed[slots] = np.arange(slots.size)
        rows, cols = np.divmod(mb_index[slots], mb_cols)

        # Coefficient events, renumbered onto the placed macroblocks'
        # blocks; a superseded duplicate's events are dropped.
        values_per_mb = blocks_per_mb * 64
        ev_index = np.concatenate(
            [parse.ev_index for _, _, parse in salvaged]
        ).astype(np.int64) + np.repeat(
            slot_base * values_per_mb,
            [len(parse.ev_index) for _, _, parse in salvaged],
        )
        ev_levels = np.concatenate([parse.ev_levels for _, _, parse in salvaged])
        ev_placed = placed[ev_index // values_per_mb]
        if slots.size < n_slots:
            keep = ev_placed >= 0
            ev_index, ev_levels, ev_placed = (
                ev_index[keep], ev_levels[keep], ev_placed[keep]
            )
        ev_index = ev_placed * values_per_mb + ev_index % values_per_mb

        # One dequantization and one IDCT, over the coded blocks only.
        coded, ev_block = np.unique(ev_index // 64, return_inverse=True)
        levels = np.zeros((coded.size, 64), dtype=np.int64)
        levels[ev_block, ev_index % 64] = ev_levels
        coded_slot = slots[coded // blocks_per_mb]
        transformed = inverse_dct_blocks(
            dequantize_blocks(
                levels.reshape(-1, 8, 8), intra[coded_slot], qp[coded_slot]
            ),
            config.use_fixed_point_dct,
        )

        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.inc("decoder.idct_blocks_billed", billed)
            tracer.metrics.inc("decoder.idct_blocks_executed", coded.size)

        # The encoder's prediction and reconstruction, on the placed
        # macroblocks.
        mv = meta[slots, 1:]
        inter = ~intra[slots]
        prediction = None
        if inter.any():
            prediction = predict(
                reference,
                reference_chroma if config.chroma else None,
                rows[inter],
                cols[inter],
                mv[inter],
                config.half_pel,
            )
        decoded = reconstruct(
            transformed, coded, (slots.size, blocks_per_mb), inter, prediction
        )
        luma = blocks_to_macroblocks(decoded[:, :4])
        _write_macroblocks(canvas, 16, rows, cols, luma)
        if chroma_canvases is not None:
            for component, plane in enumerate(chroma_canvases):
                _write_macroblocks(plane, 8, rows, cols, decoded[:, 4 + component])

        received[rows, cols] = True
        modes[rows, cols] = _MODES[intra[slots].astype(np.intp)]
        mvs_pixels[rows, cols] = halfpel_to_pixels(mv) if config.half_pel else mv


#: Macroblock modes indexed by the intra flag.
_MODES = np.array([MacroblockMode.INTER, MacroblockMode.INTRA], dtype=object)


def _write_macroblocks(
    plane: np.ndarray,
    size: int,
    rows: np.ndarray,
    cols: np.ndarray,
    pixels: np.ndarray,
) -> None:
    """Write ``(n, size, size)`` pixels at grid ``(rows, cols)`` in place."""
    height, width = plane.shape
    grid = plane.reshape(height // size, size, width // size, size).swapaxes(1, 2)
    grid[rows, cols] = pixels
