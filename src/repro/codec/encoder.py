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
from repro.codec.halfpel import halfpel_to_pixels, refine_half_pel
from repro.codec.motion import MotionField, build_motion_estimator
from repro.codec.quant import dequantize_blocks, quantize_blocks
from repro.codec.recon import predict, reconstruct
from repro.codec.syntax import encode_macroblock_layer
from repro.codec.types import (
    FORCED_BY,
    CodecConfig,
    EncodedFrame,
    FrameDecisions,
    FrameEncodeStats,
    FrameType,
    LayerSymbols,
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
        grid = (config.mb_rows, config.mb_cols)
        mb_count = config.mb_count
        self.counters.mode_decisions += mb_count

        frame_type = self.strategy.begin_frame(frame.index)
        if self._previous_reconstruction is None:
            frame_type = FrameType.I  # nothing to predict from

        if frame_type is FrameType.I:
            intra = np.ones(grid, dtype=bool)
            mvs = np.zeros(grid + (2,), dtype=np.int64)
            sads = np.zeros(grid, dtype=np.int64)
            sad_self_map = np.zeros(grid, dtype=np.int64)
            forced_by = np.full(grid, FORCED_BY.index("i-frame"), dtype=np.int8)
            me_skipped = np.ones(grid, dtype=bool)
        else:
            (
                intra,
                mvs,
                sads,
                sad_self_map,
                forced_by,
                me_skipped,
            ) = self._decide_p_frame(frame.index, current, *grid)

        qp_used = self.quantizer
        if not 1 <= qp_used <= 31:
            raise ValueError(f"quantizer must be in [1, 31], got {qp_used}")
        payload, offsets, symbols, reconstruction, chroma_recon = (
            self._encode_macroblocks(frame_type, frame, intra, mvs, qp_used)
        )
        modes = np.where(intra, MacroblockMode.INTRA, MacroblockMode.INTER)

        bits = offsets[-1]
        n_intra = int(np.count_nonzero(intra))
        stats = FrameEncodeStats(
            frame_index=frame.index,
            frame_type=frame_type,
            bits=bits,
            intra_mbs=n_intra,
            inter_mbs=mb_count - n_intra,
            me_skipped_mbs=int(np.count_nonzero(me_skipped)),
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
            decisions=FrameDecisions(
                modes, mvs, sads, sad_self_map, me_skipped, forced_by
            ),
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

        forced_by = np.zeros((mb_rows, mb_cols), dtype=np.int8)
        forced_by[pre_mask] = FORCED_BY.index("pre-me")
        forced_by[sad_test] = FORCED_BY.index("sad-test")
        forced_by[post_mask] = FORCED_BY.index(self.strategy.post_label)

        mvs = motion.mvs.copy()
        mvs[final_intra] = 0
        sads = motion.sads.copy()
        sads[pre_mask] = 0

        return final_intra, mvs, sads, sad_self_map, forced_by, pre_mask.copy()

    def _encode_macroblocks(
        self,
        frame_type: FrameType,
        frame: Frame,
        intra: np.ndarray,
        mvs: np.ndarray,
        qp: int,
    ) -> tuple[
        bytes,
        list[int],
        LayerSymbols,
        np.ndarray,
        Optional[tuple[np.ndarray, np.ndarray]],
    ]:
        """Transform, quantize, entropy-code and reconstruct one frame.

        Luma and chroma travel as one ``(mb_rows, mb_cols, n, 8, 8)``
        block grid in H.263 block order.  Only the inter macroblocks are
        predicted (:func:`~repro.codec.recon.predict`, the decoder's
        kernel too).  One forward DCT and one quantization cover every
        block, then one dequantization and one inverse DCT the *coded*
        blocks only: a block whose levels are all zero dequantizes and
        transforms to exact zeros, so
        :func:`~repro.codec.recon.reconstruct` leaves it at its
        prediction without either kernel.  The counters still bill every
        block, as the paper's encoder does.
        """
        config = self.config
        n_inter = intra.size - int(np.count_nonzero(intra))
        tracer = get_tracer()

        with tracer.span("quantize") as quant_span:
            planes = [frame.pixels]
            if config.chroma:
                planes += [frame.cb, frame.cr]
            residual = _to_blocks(planes)
            prediction = None
            if n_inter:
                # Raster order, as the mask indexing below takes them.
                rows, cols = np.nonzero(~intra)
                prediction = predict(
                    self._previous_reconstruction,
                    self._previous_chroma,
                    rows,
                    cols,
                    mvs[rows, cols],
                    config.half_pel,
                )
                residual[~intra] -= prediction
                self.counters.mc_blocks += n_inter
                quant_span.add(mc_blocks=n_inter)
            grid_shape = residual.shape
            n_blocks = residual.size // 64

            coefficients = forward_dct_blocks(
                residual.reshape(n_blocks, 8, 8), config.use_fixed_point_dct
            )
            levels = quantize_blocks(
                coefficients.reshape(grid_shape), intra[:, :, None], qp
            )

            # One dequantization and one IDCT, over the coded blocks only.
            block_levels = levels.reshape(n_blocks, 8, 8)
            coded = np.flatnonzero(block_levels.any(axis=(1, 2)))
            block_intra = np.repeat(intra.ravel(), grid_shape[2])
            transformed = inverse_dct_blocks(
                dequantize_blocks(block_levels[coded], block_intra[coded], qp),
                config.use_fixed_point_dct,
            )
            decoded = reconstruct(
                transformed,
                coded,
                (intra.size, grid_shape[2]),
                ~intra.ravel(),
                prediction,
            ).reshape(grid_shape)
            reconstruction = macroblocks_to_frame(
                blocks_to_macroblocks(decoded[:, :, :4])
            )
            chroma_recon: Optional[tuple[np.ndarray, np.ndarray]] = None
            if config.chroma:
                chroma_recon = (
                    blocks_to_plane(decoded[:, :, 4]),
                    blocks_to_plane(decoded[:, :, 5]),
                )

            counters = self.counters
            counters.dct_blocks += n_blocks
            counters.quant_blocks += n_blocks
            counters.dequant_blocks += n_blocks
            counters.idct_blocks += n_blocks
            quant_span.add(
                dct_blocks=n_blocks,
                quant_blocks=n_blocks,
                dequant_blocks=n_blocks,
                idct_blocks=n_blocks,
            )
            if tracer.enabled:
                tracer.metrics.inc("encoder.idct_blocks_billed", n_blocks)
                tracer.metrics.inc("encoder.idct_blocks_executed", coded.size)

        with tracer.span("entropy_code") as entropy_span:
            writer = BitWriter()
            offsets, n_codewords, symbols = encode_macroblock_layer(
                writer,
                frame_type,
                intra,
                mvs,
                levels,
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


def _to_blocks(planes: list[np.ndarray]) -> np.ndarray:
    """A frame's planes as one int64 ``(mb_rows, mb_cols, n, 8, 8)`` grid.

    ``planes`` is the luma plane, then Cb and Cr for 4:2:0 chroma, so
    each macroblock's blocks follow H.263 order: Y Y Y Y (Cb Cr).
    """
    luma, *chroma = planes
    blocks = [macroblocks_to_blocks(frame_to_macroblocks(luma))]
    blocks += [plane_to_blocks(plane)[:, :, None] for plane in chroma]
    return np.concatenate(blocks, axis=2, dtype=np.int64)
