"""The H.263-style encoder with pluggable error-resilience strategies.

Per P-frame macroblock the encoder follows the decision pipeline of the
paper's Figures 2 and 4:

1. ask the strategy which macroblocks to intra-code *before* motion
   estimation (those skip the search entirely — the energy lever);
2. run motion estimation for the rest, optionally under the strategy's
   cost function (PBPAIR's probability-aware ME);
3. apply the generic inter/intra test
   ``(SAD_mv - SAD_Th) > SAD_self  =>  intra``;
4. let the strategy force further intra macroblocks with the motion
   field in hand (AIR's SAD ranking, PGOP's stride-back);
5. transform, quantize, entropy-code, and reconstruct (the encoder
   predicts from its own decoded output, never from source frames).

All work is tallied into an :class:`OperationCounters`, which the energy
model prices per device.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codec.bitstream import BitWriter
from repro.codec.blocks import (
    blocks_to_macroblocks,
    blocks_to_plane,
    frame_to_macroblocks,
    macroblocks_to_blocks,
    macroblocks_to_frame,
    plane_to_blocks,
    sad_self,
)
from repro.codec.dct import forward_dct_blocks, inverse_dct_blocks
from repro.codec.halfpel import (
    halfpel_to_pixels,
    motion_compensate_half,
    refine_half_pel,
)
from repro.codec.motion import (
    MotionField,
    build_motion_estimator,
    motion_compensate,
    motion_compensate_chroma,
)
from repro.codec.quant import dequantize_blocks, quantize_blocks
from repro.codec.syntax import encode_macroblock_layer
from repro.codec.types import (
    CodecConfig,
    EncodedFrame,
    FrameEncodeStats,
    FrameType,
    LayerSymbols,
    MacroblockDecision,
    MacroblockMode,
)
from repro.energy.counters import OperationCounters
from repro.obs.tracer import get_tracer
from repro.resilience.base import (
    FrameFeedback,
    PostMEContext,
    PreMEContext,
    ResilienceStrategy,
)
from repro.resilience.none import NoResilience
from repro.video.frame import Frame


def _psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    mse = np.mean(
        (original.astype(np.float64) - reconstructed.astype(np.float64)) ** 2
    )
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))


class Encoder:
    """Stateful sequence encoder.

    Args:
        config: codec parameters shared with the decoder.
        strategy: error-resilience scheme; defaults to
            :class:`repro.resilience.none.NoResilience` (the paper's
            "NO" baseline).
        counters: external work tally to accumulate into; a fresh one is
            created when omitted (exposed as :attr:`counters`).
    """

    def __init__(
        self,
        config: CodecConfig,
        strategy: Optional[ResilienceStrategy] = None,
        counters: Optional[OperationCounters] = None,
    ) -> None:
        if strategy is None:
            strategy = NoResilience()
        self.config = config
        self.strategy = strategy
        #: Active quantizer; starts at the config's value and may be
        #: changed between frames (e.g. by a rate controller).  The
        #: value used for each frame travels in
        #: :attr:`repro.codec.types.EncodedFrame.qp`.
        self.quantizer = config.quantizer
        self.counters = counters if counters is not None else OperationCounters()
        self._estimator = build_motion_estimator(
            config.motion_search, config.search_range, config.me_early_exit_sad
        )
        self._previous_reconstruction: Optional[np.ndarray] = None
        self._previous_chroma: Optional[tuple[np.ndarray, np.ndarray]] = None
        self.strategy.reset()

    @property
    def previous_reconstruction(self) -> Optional[np.ndarray]:
        """The encoder-side reconstruction of the last encoded frame."""
        return self._previous_reconstruction

    def reset(self) -> None:
        """Forget all sequence state (reference frame, strategy state)."""
        self._previous_reconstruction = None
        self._previous_chroma = None
        self.quantizer = self.config.quantizer
        self.strategy.reset()

    def encode_sequence(self, frames) -> list[EncodedFrame]:
        """Encode an iterable of :class:`Frame` objects in order."""
        return [self.encode_frame(frame) for frame in frames]

    def encode_frame(self, frame: Frame) -> EncodedFrame:
        """Encode one frame and advance the prediction loop."""
        config = self.config
        if frame.width != config.width or frame.height != config.height:
            raise ValueError(
                f"frame {frame.width}x{frame.height} does not match codec "
                f"config {config.width}x{config.height}"
            )
        if config.chroma and not frame.has_chroma:
            raise ValueError(
                "codec is configured for 4:2:0 chroma but the frame "
                "carries no chroma planes"
            )
        current = frame.pixels
        mb_rows, mb_cols = config.mb_rows, config.mb_cols
        mb_count = config.mb_count
        self.counters.mode_decisions += mb_count

        frame_type = self.strategy.begin_frame(frame.index)
        if self._previous_reconstruction is None:
            frame_type = FrameType.I  # nothing to predict from

        if frame_type is FrameType.I:
            modes = np.full((mb_rows, mb_cols), MacroblockMode.INTRA, dtype=object)
            mvs = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)
            sads = np.zeros((mb_rows, mb_cols), dtype=np.int64)
            sad_self_map = np.zeros((mb_rows, mb_cols), dtype=np.int64)
            forced_by = np.full((mb_rows, mb_cols), "i-frame", dtype=object)
            me_skipped = np.ones((mb_rows, mb_cols), dtype=bool)
        else:
            (
                modes,
                mvs,
                sads,
                sad_self_map,
                forced_by,
                me_skipped,
            ) = self._decide_p_frame(frame.index, current, mb_rows, mb_cols)

        qp_used = self.quantizer
        if not 1 <= qp_used <= 31:
            raise ValueError(f"quantizer must be in [1, 31], got {qp_used}")
        payload, offsets, symbols, reconstruction, chroma_recon = (
            self._encode_macroblocks(frame_type, frame, modes, mvs, qp_used)
        )

        decisions = tuple(
            MacroblockDecision(
                mode=mode,
                mv=(mv[0], mv[1]),
                sad_mv=sad_mv,
                sad_self=sad_self,
                me_skipped=skipped,
                forced_by=forced,
            )
            for mode, mv, sad_mv, sad_self, skipped, forced in zip(
                modes.ravel().tolist(),
                mvs.reshape(-1, 2).tolist(),
                sads.ravel().tolist(),
                sad_self_map.ravel().tolist(),
                me_skipped.ravel().tolist(),
                forced_by.ravel().tolist(),
            )
        )

        bits = offsets[-1]
        intra = int(np.sum(modes == MacroblockMode.INTRA))
        stats = FrameEncodeStats(
            frame_index=frame.index,
            frame_type=frame_type,
            bits=bits,
            intra_mbs=intra,
            inter_mbs=mb_count - intra,
            me_skipped_mbs=int(me_skipped.sum()),
            psnr_reconstructed=_psnr(current, reconstruction),
        )

        feedback_mvs = halfpel_to_pixels(mvs) if config.half_pel else mvs
        self.strategy.frame_done(
            FrameFeedback(
                frame_index=frame.index,
                frame_type=frame_type,
                modes=modes,
                mvs=feedback_mvs,
                current=current,
                previous_reconstruction=self._previous_reconstruction,
                bits=bits,
                counters=self.counters,
            )
        )
        self._previous_reconstruction = reconstruction
        self._previous_chroma = chroma_recon

        return EncodedFrame(
            frame_index=frame.index,
            frame_type=frame_type,
            payload=payload,
            decisions=decisions,
            stats=stats,
            reconstruction=reconstruction,
            mb_bit_offsets=tuple(offsets),
            symbols=symbols,
            qp=qp_used,
            reconstruction_chroma=chroma_recon,
        )

    def _decide_p_frame(
        self, frame_index: int, current: np.ndarray, mb_rows: int, mb_cols: int
    ):
        """Run the four-stage mode decision pipeline for a P-frame."""
        reference = self._previous_reconstruction
        assert reference is not None

        pre_context = PreMEContext(
            frame_index=frame_index,
            current=current,
            previous_reconstruction=reference,
            mb_rows=mb_rows,
            mb_cols=mb_cols,
            counters=self.counters,
        )
        pre_mask = self.strategy.pre_me_intra(pre_context)
        if pre_mask.shape != (mb_rows, mb_cols):
            raise ValueError("strategy pre-ME mask has wrong shape")

        with get_tracer().span("motion_estimation") as me_span:
            motion = self._estimator.estimate(
                current,
                reference,
                cost_function=self.strategy.me_cost_function(),
                active=~pre_mask,
            )
            self.counters.sad_blocks += motion.candidates_evaluated

            if self.config.half_pel:
                mvs_half, refined_sads, extra = refine_half_pel(
                    current,
                    reference,
                    motion.mvs,
                    motion.sads,
                    ~pre_mask,
                    self.config.search_range,
                )
                self.counters.sad_blocks += extra
                motion = MotionField(
                    mvs=mvs_half,
                    sads=refined_sads,
                    candidates_evaluated=motion.candidates_evaluated + extra,
                    candidates_per_mb=motion.candidates_per_mb,
                )
                me_span.add(sad_blocks=extra)

            sad_self_map = sad_self(current)
            self.counters.sad_blocks += mb_rows * mb_cols  # one pass per MB
            me_span.add(sad_blocks=mb_rows * mb_cols)

        # The generic inter/intra test from the paper's Figure 4:
        # "if (SAD_mv - SAD_Th) > SAD_self then encode as INTRA".
        sad_test = (~pre_mask) & (
            (motion.sads - self.config.sad_threshold) > sad_self_map
        )
        intra_mask = pre_mask | sad_test

        post_context = PostMEContext(
            frame_index=frame_index,
            current=current,
            previous_reconstruction=reference,
            mb_rows=mb_rows,
            mb_cols=mb_cols,
            counters=self.counters,
            motion=motion,
            sad_self=sad_self_map,
            intra_mask=intra_mask,
        )
        post_mask = self.strategy.post_me_intra(post_context)
        if post_mask.shape != (mb_rows, mb_cols):
            raise ValueError("strategy post-ME mask has wrong shape")
        post_mask = post_mask & ~intra_mask

        final_intra = intra_mask | post_mask
        modes = np.where(
            final_intra,
            np.full((mb_rows, mb_cols), MacroblockMode.INTRA, dtype=object),
            np.full((mb_rows, mb_cols), MacroblockMode.INTER, dtype=object),
        )

        forced_by = np.full((mb_rows, mb_cols), None, dtype=object)
        forced_by[pre_mask] = "pre-me"
        forced_by[sad_test] = "sad-test"
        forced_by[post_mask] = self.strategy.post_label

        mvs = motion.mvs.copy()
        mvs[final_intra] = 0
        sads = motion.sads.copy()
        sads[pre_mask] = 0

        return modes, mvs, sads, sad_self_map, forced_by, pre_mask.copy()

    def _quantize_blocks(
        self, coefficients: np.ndarray, intra_grid: np.ndarray, qp: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantize a ``(rows, cols, n, 8, 8)`` batch by per-MB mode.

        One single-pass call per direction: the per-block intra mask is
        the MB grid broadcast across each macroblock's blocks, so mixed
        frames never split into per-mode gather/scatter passes.
        Returns ``(levels, reconstructed_coefficients)``.
        """
        intra_blocks = intra_grid[:, :, None]
        levels = quantize_blocks(coefficients, intra_blocks, qp)
        recon = dequantize_blocks(levels, intra_blocks, qp)
        return levels, recon

    def _encode_chroma_plane(
        self,
        plane: np.ndarray,
        previous_plane: Optional[np.ndarray],
        intra_grid: np.ndarray,
        mvs: np.ndarray,
        qp: int,
        n_inter: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transform/quantize one 4:2:0 chroma plane.

        Returns ``(levels, reconstruction)`` where levels are
        ``(rows, cols, 1, 8, 8)`` and reconstruction is the plane.
        """
        config = self.config
        mb_rows, mb_cols = config.mb_rows, config.mb_cols
        if n_inter and previous_plane is not None:
            prediction = motion_compensate_chroma(previous_plane, mvs)
        else:
            prediction = np.zeros_like(plane)
        plane_i = plane.astype(np.int64)
        intra_px = np.repeat(np.repeat(intra_grid, 8, axis=0), 8, axis=1)
        residual = np.where(
            intra_px, plane_i, plane_i - prediction.astype(np.int64)
        )
        blocks = plane_to_blocks(residual).reshape(-1, 8, 8)
        coefficients = forward_dct_blocks(blocks, config.use_fixed_point_dct)
        self.counters.dct_blocks += blocks.shape[0]
        coefficients = coefficients.reshape(mb_rows, mb_cols, 1, 8, 8)
        levels, recon_coeffs = self._quantize_blocks(coefficients, intra_grid, qp)
        self.counters.quant_blocks += mb_rows * mb_cols
        self.counters.dequant_blocks += mb_rows * mb_cols
        decoded = inverse_dct_blocks(
            recon_coeffs.reshape(-1, 8, 8), config.use_fixed_point_dct
        )
        self.counters.idct_blocks += mb_rows * mb_cols
        get_tracer().count(
            dct_blocks=blocks.shape[0],
            quant_blocks=mb_rows * mb_cols,
            dequant_blocks=mb_rows * mb_cols,
            idct_blocks=mb_rows * mb_cols,
        )
        decoded_plane = blocks_to_plane(decoded.reshape(mb_rows, mb_cols, 8, 8))
        reconstruction = np.where(
            intra_px,
            decoded_plane,
            decoded_plane + prediction.astype(np.int64),
        )
        return levels, np.clip(reconstruction, 0, 255).astype(np.uint8)

    def _encode_macroblocks(
        self,
        frame_type: FrameType,
        frame: Frame,
        modes: np.ndarray,
        mvs: np.ndarray,
        qp: int,
    ) -> tuple[
        bytes,
        list[int],
        LayerSymbols,
        np.ndarray,
        Optional[tuple[np.ndarray, np.ndarray]],
    ]:
        """Transform, quantize, entropy-code and reconstruct one frame."""
        config = self.config
        current = frame.pixels
        mb_rows, mb_cols = config.mb_rows, config.mb_cols
        intra_grid = modes == MacroblockMode.INTRA
        n_inter = int((~intra_grid).sum())
        tracer = get_tracer()

        with tracer.span("quantize") as quant_span:
            if n_inter:
                if config.half_pel:
                    prediction = motion_compensate_half(
                        self._previous_reconstruction, mvs
                    )
                else:
                    prediction = motion_compensate(
                        self._previous_reconstruction, mvs
                    )
                self.counters.mc_blocks += n_inter
                quant_span.add(mc_blocks=n_inter)
            else:
                prediction = np.zeros_like(current)

            current_i = current.astype(np.int64)
            residual = np.where(
                np.repeat(np.repeat(intra_grid, 16, axis=0), 16, axis=1),
                current_i,
                current_i - prediction.astype(np.int64),
            )

            # Batch transform: (rows, cols, 4, 8, 8) -> flat block batch.
            mb_pixels = frame_to_macroblocks(residual)
            block_batch = macroblocks_to_blocks(mb_pixels).reshape(-1, 8, 8)
            coefficients = forward_dct_blocks(
                block_batch, config.use_fixed_point_dct
            )
            self.counters.dct_blocks += block_batch.shape[0]

            coefficients = coefficients.reshape(mb_rows, mb_cols, 4, 8, 8)
            levels, recon_coeffs = self._quantize_blocks(
                coefficients, intra_grid, qp
            )
            self.counters.quant_blocks += 4 * mb_rows * mb_cols
            self.counters.dequant_blocks += 4 * mb_rows * mb_cols

            decoded_blocks = inverse_dct_blocks(
                recon_coeffs.reshape(-1, 8, 8), config.use_fixed_point_dct
            )
            self.counters.idct_blocks += 4 * mb_rows * mb_cols
            decoded_mbs = blocks_to_macroblocks(
                decoded_blocks.reshape(mb_rows, mb_cols, 4, 8, 8)
            )
            decoded_frame = macroblocks_to_frame(decoded_mbs)
            reconstruction = np.where(
                np.repeat(np.repeat(intra_grid, 16, axis=0), 16, axis=1),
                decoded_frame,
                decoded_frame + prediction.astype(np.int64),
            )
            reconstruction = np.clip(reconstruction, 0, 255).astype(np.uint8)

            chroma_recon: Optional[tuple[np.ndarray, np.ndarray]] = None
            chroma_levels = None
            if config.chroma:
                previous = self._previous_chroma or (None, None)
                chroma_mvs = halfpel_to_pixels(mvs) if config.half_pel else mvs
                cb_levels, cb_recon = self._encode_chroma_plane(
                    frame.cb, previous[0], intra_grid, chroma_mvs, qp, n_inter
                )
                cr_levels, cr_recon = self._encode_chroma_plane(
                    frame.cr, previous[1], intra_grid, chroma_mvs, qp, n_inter
                )
                chroma_levels = np.concatenate([cb_levels, cr_levels], axis=2)
                chroma_recon = (cb_recon, cr_recon)
            quant_span.add(
                dct_blocks=block_batch.shape[0],
                quant_blocks=4 * mb_rows * mb_cols,
                dequant_blocks=4 * mb_rows * mb_cols,
                idct_blocks=4 * mb_rows * mb_cols,
            )

        with tracer.span("entropy_code") as entropy_span:
            writer = BitWriter()
            all_levels = (
                levels
                if chroma_levels is None
                else np.concatenate([levels, chroma_levels], axis=2)
            )
            offsets, n_codewords, symbols = encode_macroblock_layer(
                writer,
                frame_type,
                intra_grid,
                mvs,
                all_levels,
                allow_skip=config.allow_skip,
            )
            self.counters.entropy_bits += writer.bit_length
            entropy_span.add(
                entropy_bits=writer.bit_length, vlc_codewords=n_codewords
            )

        return (
            writer.getvalue(),
            offsets,
            symbols,
            reconstruction,
            chroma_recon,
        )
