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
from repro.codec.blocks import blocks_to_macroblocks, chroma_vector
from repro.codec.halfpel import fetch_block_half
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
    spend battery on both directions of a video call.

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
            fragments: surviving fragment payloads, any order.
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
        mv_divisor = 2 if config.half_pel else 1

        # Pad the prediction references once per frame; every fragment
        # predicts from the same planes.
        pad = config.search_range + (2 if config.half_pel else 0)
        padded_ref = (
            np.pad(reference.astype(np.int64), pad, mode="edge")
            if reference is not None
            else None
        )
        padded_chroma = None
        if config.chroma and reference_chroma is not None:
            padded_chroma = tuple(
                np.pad(plane.astype(np.int64), 8, mode="edge")
                for plane in reference_chroma
            )

        damaged = 0
        for fragment_position, payload in enumerate(fragments):
            # Fragment-level resync: *nothing* a fragment contains may
            # abort the frame.  Expected corruption (bad magic, VLC
            # desync) is handled inside _decode_fragment; this guard
            # additionally contains any unexpected decode error at the
            # fragment boundary — the damaged region is concealed and
            # the remaining fragments still decode.
            try:
                header, decoded = self._decode_fragment(
                    payload, padded_ref, pad, canvas, padded_chroma,
                    chroma_canvases,
                )
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
            if len(decoded) < header.mb_count:
                damaged += 1  # VLC desync truncated the salvaged prefix
            frame_index = header.frame_index
            frame_type = header.frame_type
            for mb_index, mode, mv in decoded:
                row, col = divmod(mb_index, mb_cols)
                if row < mb_rows:
                    received[row, col] = True
                    modes[row, col] = mode
                    mvs_pixels[row, col, 0] = int(mv[0] / mv_divisor)
                    mvs_pixels[row, col, 1] = int(mv[1] / mv_divisor)

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

    def _decode_fragment(
        self,
        payload: bytes,
        padded_ref: Optional[np.ndarray],
        pad: int,
        canvas: np.ndarray,
        padded_chroma: Optional[tuple[np.ndarray, np.ndarray]] = None,
        chroma_canvases: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ):
        """Decode one fragment onto the canvases; salvage on corruption.

        Returns ``(header_or_None, [(mb_index, mode, mv), ...])``.
        """
        config = self.config
        reader = BitReader(payload)
        try:
            header = read_fragment_header(reader)
        except BitstreamError:
            return None, []
        if header.first_mb + header.mb_count > config.mb_count:
            return None, []

        blocks_per_mb = config.blocks_per_mb
        # Phase 1 — batch VLD; a corrupt codeword (or a macroblock that
        # cannot be predicted) truncates the salvaged prefix exactly
        # where the sequential decoder did.
        allow_inter = padded_ref is not None and not (
            config.chroma and padded_chroma is None
        )
        memo = self.parse_memo
        stored = len(memo) if memo is not None else 0
        embs = decode_macroblock_layer(
            reader,
            header.frame_type,
            header.mb_count,
            blocks_per_mb,
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
        parsed = [
            (header.first_mb + offset, emb) for offset, emb in enumerate(embs)
        ]
        self.counters.entropy_bits += reader.bits_consumed
        if not parsed:
            return header, []

        # Phase 2 — batch dequantization and inverse transform across
        # every salvaged macroblock, then per-macroblock prediction.
        luma_mbs = self._reconstruct_luma_batch(parsed, header, padded_ref, pad)
        chroma_mbs = (
            self._reconstruct_chroma_batch(parsed, header, padded_chroma)
            if config.chroma
            else None
        )

        decoded: list[tuple[int, MacroblockMode, tuple[int, int]]] = []
        for position, (mb_index, emb) in enumerate(parsed):
            row, col = divmod(mb_index, config.mb_cols)
            canvas[row * 16 : (row + 1) * 16, col * 16 : (col + 1) * 16] = (
                luma_mbs[position]
            )
            if chroma_mbs is not None:
                assert chroma_canvases is not None
                for plane, block in zip(chroma_canvases, chroma_mbs[position]):
                    plane[row * 8 : (row + 1) * 8, col * 8 : (col + 1) * 8] = (
                        block
                    )
            decoded.append((mb_index, emb.mode, emb.mv))
            self.counters.mode_decisions += 1
            if emb.mode is MacroblockMode.INTER:
                self.counters.mc_blocks += 1
        self.counters.dequant_blocks += blocks_per_mb * len(parsed)
        self.counters.idct_blocks += blocks_per_mb * len(parsed)
        return header, decoded

    def _dequantize_batch(
        self, coefficients: np.ndarray, intra_flags: np.ndarray, qp: int
    ) -> np.ndarray:
        """Dequantize a ``(k, n, 8, 8)`` batch in one mixed-mode pass."""
        return dequantize_blocks(coefficients, intra_flags[:, None], qp)

    def _reconstruct_luma_batch(
        self,
        parsed: list,
        header,
        padded_ref: Optional[np.ndarray],
        pad: int,
    ) -> np.ndarray:
        """Dequantize/IDCT every salvaged macroblock at once, then predict."""
        config = self.config
        coefficients = np.stack([emb.coefficients[:4] for _, emb in parsed])
        intra_flags = np.array(
            [emb.mode is MacroblockMode.INTRA for _, emb in parsed]
        )
        dequantized = self._dequantize_batch(
            coefficients, intra_flags, header.qp
        )
        blocks = inverse_dct_blocks(
            dequantized.reshape(-1, 8, 8), config.use_fixed_point_dct
        )
        mb_pixels = blocks_to_macroblocks(blocks.reshape(len(parsed), 4, 8, 8))

        out = np.empty((len(parsed), 16, 16), dtype=np.uint8)
        if intra_flags.any():
            out[intra_flags] = np.clip(mb_pixels[intra_flags], 0, 255)
        inter_positions = np.flatnonzero(~intra_flags)
        if inter_positions.size == 0:
            return out
        assert padded_ref is not None
        if config.half_pel:
            for position in inter_positions:
                mb_index, emb = parsed[position]
                row, col = divmod(mb_index, config.mb_cols)
                prediction = fetch_block_half(
                    padded_ref, pad, row * 16, col * 16, emb.mv
                )
                out[position] = np.clip(
                    mb_pixels[position] + prediction, 0, 255
                )
        else:
            # Full-pel prediction for every inter macroblock in one
            # gather off the padded reference's 16x16 window view.
            windows = np.lib.stride_tricks.sliding_window_view(
                padded_ref, (16, 16)
            )
            ys = np.empty(inter_positions.size, dtype=np.int64)
            xs = np.empty(inter_positions.size, dtype=np.int64)
            for slot, position in enumerate(inter_positions):
                mb_index, emb = parsed[position]
                row, col = divmod(mb_index, config.mb_cols)
                ys[slot] = row * 16 + pad + emb.mv[0]
                xs[slot] = col * 16 + pad + emb.mv[1]
            out[inter_positions] = np.clip(
                mb_pixels[inter_positions] + windows[ys, xs], 0, 255
            )
        return out

    def _reconstruct_chroma_batch(
        self,
        parsed: list,
        header,
        padded_chroma: Optional[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Chroma twin of :meth:`_reconstruct_luma_batch` (Cb then Cr)."""
        config = self.config
        coefficients = np.stack([emb.coefficients[4:6] for _, emb in parsed])
        intra_flags = np.array(
            [emb.mode is MacroblockMode.INTRA for _, emb in parsed]
        )
        dequantized = self._dequantize_batch(
            coefficients, intra_flags, header.qp
        )
        blocks = inverse_dct_blocks(
            dequantized.reshape(-1, 8, 8), config.use_fixed_point_dct
        ).reshape(len(parsed), 2, 8, 8)

        out = np.empty((len(parsed), 2, 8, 8), dtype=np.uint8)
        for position, (mb_index, emb) in enumerate(parsed):
            if emb.mode is MacroblockMode.INTRA:
                out[position] = np.clip(blocks[position], 0, 255)
                continue
            assert padded_chroma is not None
            if config.half_pel:
                cdy = chroma_vector(int(np.fix(emb.mv[0] / 2.0)))
                cdx = chroma_vector(int(np.fix(emb.mv[1] / 2.0)))
            else:
                cdy = chroma_vector(emb.mv[0])
                cdx = chroma_vector(emb.mv[1])
            row, col = divmod(mb_index, config.mb_cols)
            y = row * 8 + 8 + cdy
            x = col * 8 + 8 + cdx
            for component, padded in enumerate(padded_chroma):
                prediction = padded[y : y + 8, x : x + 8]
                out[position, component] = np.clip(
                    blocks[position, component] + prediction, 0, 255
                )
        return out
