"""Tests for half-pel motion compensation and search refinement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.codec.halfpel import (
    fetch_block_half,
    halfpel_to_pixels,
    motion_compensate_half,
    refine_half_pel,
)
from repro.codec.types import CodecConfig
from repro.network.packet import Packetizer
from repro.resilience.none import NoResilience
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.core.pbpair import PBPAIRConfig
from repro.video.frame import Frame, VideoSequence

from tests.conftest import SMALL_H, SMALL_W, small_config, small_sequence


def halfpel_config(**overrides) -> CodecConfig:
    return small_config(half_pel=True, **overrides)


def _smooth(rng, h=SMALL_H, w=SMALL_W):
    field = rng.standard_normal((h + 8, w + 8))
    kernel = np.ones(7) / 7.0
    field = np.apply_along_axis(lambda r: np.convolve(r, kernel, "same"), 0, field)
    field = np.apply_along_axis(lambda r: np.convolve(r, kernel, "same"), 1, field)
    field = field[4 : 4 + h, 4 : 4 + w]
    field = (field - field.min()) / (field.max() - field.min() + 1e-9)
    return (field * 255).astype(np.uint8)


def _half_shift_x(frame: np.ndarray) -> np.ndarray:
    """Content resampled at x + 0.5 (H.263 rounding): each new pixel is
    the average of the old pixel and its right neighbour, so the best
    reference for the new frame sits at dx = +0.5 (+1 half-pel)."""
    shifted = (
        frame[:, :-1].astype(np.int64) + frame[:, 1:].astype(np.int64) + 1
    ) >> 1
    return np.concatenate([shifted, frame[:, -1:]], axis=1).astype(np.uint8)


class TestUnits:
    def test_halfpel_to_pixels_truncates_toward_zero(self):
        mvs = np.array([[[3, -3], [2, -2]], [[1, -1], [31, -31]]])
        out = halfpel_to_pixels(mvs)
        np.testing.assert_array_equal(
            out, [[[1, -1], [1, -1]], [[0, 0], [15, -15]]]
        )


class TestFetchAndCompensate:
    def test_integer_vector_matches_plain_fetch(self, rng):
        reference = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        padded = np.pad(reference.astype(np.int64), 4, mode="edge")
        block = fetch_block_half(padded, 4, 16, 16, (2, -4))  # = (1, -2) px
        np.testing.assert_array_equal(
            block, reference[17:33, 14:30].astype(np.int64)
        )

    def test_half_vector_is_h263_average(self):
        reference = np.zeros((48, 64), dtype=np.uint8)
        reference[:, 16] = 10
        reference[:, 17] = 21
        padded = np.pad(reference.astype(np.int64), 4, mode="edge")
        block = fetch_block_half(padded, 4, 0, 16, (0, 1))  # +0.5 px right
        assert block[0, 0] == (10 + 21 + 1) >> 1

    def test_motion_compensate_half_zero_is_identity(self, rng):
        reference = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        mvs = np.zeros((3, 4, 2), dtype=np.int64)
        np.testing.assert_array_equal(
            motion_compensate_half(reference, mvs), reference
        )

    def test_motion_compensate_even_vector_matches_integer_mc(self, rng):
        from repro.codec.motion import motion_compensate

        reference = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        mvs_px = rng.integers(-3, 4, size=(3, 4, 2))
        half = motion_compensate_half(reference, 2 * mvs_px)
        integer = motion_compensate(reference, mvs_px)
        np.testing.assert_array_equal(half, integer.astype(np.int64))


def _per_macroblock_half(reference: np.ndarray, mvs_half: np.ndarray):
    """``motion_compensate_half`` as one ``fetch_block_half`` per
    macroblock over an edge-padded copy of the reference."""
    mb_rows, mb_cols, _ = mvs_half.shape
    pad = int(np.abs(mvs_half).max()) // 2 + 2
    padded = np.pad(reference.astype(np.int64), pad, mode="edge")
    prediction = np.empty(reference.shape, dtype=np.int64)
    for row in range(mb_rows):
        for col in range(mb_cols):
            prediction[row * 16 : (row + 1) * 16, col * 16 : (col + 1) * 16] = (
                fetch_block_half(
                    padded, pad, row * 16, col * 16, tuple(mvs_half[row, col])
                )
            )
    return prediction


#: The widest half-pel vector component the codec codes.
MV_LIMIT = CodecConfig(half_pel=True).mv_limit


class TestBatchedCompensation:
    """The one-gather half-pel prediction equals a per-macroblock
    ``fetch_block_half`` loop over padded references."""

    @settings(max_examples=60)
    @given(
        mb_rows=st.integers(1, 3),
        mb_cols=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_matches_per_macroblock_fetch(self, mb_rows, mb_cols, seed, data):
        reference = (
            np.random.default_rng(seed)
            .integers(0, 256, (16 * mb_rows, 16 * mb_cols))
            .astype(np.uint8)
        )
        mvs = data.draw(
            arrays(
                np.int64,
                (mb_rows, mb_cols, 2),
                elements=st.integers(-MV_LIMIT, MV_LIMIT),
            )
        )
        np.testing.assert_array_equal(
            motion_compensate_half(reference, mvs),
            _per_macroblock_half(reference, mvs),
        )

    @pytest.mark.parametrize("dy", [-MV_LIMIT, -MV_LIMIT + 1, MV_LIMIT - 1, MV_LIMIT])
    @pytest.mark.parametrize("dx", [-MV_LIMIT, -MV_LIMIT + 1, MV_LIMIT - 1, MV_LIMIT])
    def test_vectors_past_every_frame_edge(self, rng, dy, dx):
        # Every macroblock of a 3x4 grid points up to 15 px off the
        # frame, so each edge and corner is crossed at full and half pel.
        reference = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        mvs = np.broadcast_to(np.array([dy, dx]), (3, 4, 2)).copy()
        np.testing.assert_array_equal(
            motion_compensate_half(reference, mvs),
            _per_macroblock_half(reference, mvs),
        )


class TestRefinement:
    def test_finds_half_pixel_shift(self, rng):
        reference = _smooth(rng)
        current = _half_shift_x(reference)
        mvs_int = np.zeros((SMALL_H // 16, SMALL_W // 16, 2), dtype=np.int64)
        # Integer SADs at zero motion:
        diff = np.abs(current.astype(np.int64) - reference.astype(np.int64))
        sads_int = diff.reshape(SMALL_H // 16, 16, SMALL_W // 16, 16).sum(
            axis=(1, 3)
        )
        active = np.ones_like(sads_int, dtype=bool)
        mvs_half, sads, evals = refine_half_pel(
            current, reference, mvs_int, sads_int, active, search_range=7
        )
        # Most interior macroblocks lock onto dx = +1 half-pel with a
        # large SAD drop.
        interior_dx = mvs_half[1:-1, 1:-1, 1]
        assert (interior_dx == 1).mean() > 0.7
        assert sads.sum() < 0.35 * sads_int.sum()
        assert evals == 8 * active.sum()

    def test_inactive_macroblocks_untouched(self, rng):
        reference = _smooth(rng)
        current = _half_shift_x(reference)
        shape = (SMALL_H // 16, SMALL_W // 16)
        active = np.zeros(shape, dtype=bool)
        mvs_half, sads, evals = refine_half_pel(
            current,
            reference,
            np.zeros((*shape, 2), dtype=np.int64),
            np.full(shape, 999, dtype=np.int64),
            active,
            7,
        )
        assert evals == 0
        assert (mvs_half == 0).all()

    def test_never_exceeds_coded_range(self, rng):
        reference = _smooth(rng)
        current = np.roll(reference, -7, axis=1)
        shape = (SMALL_H // 16, SMALL_W // 16)
        mvs_int = np.full((*shape, 2), 7, dtype=np.int64)
        sads_int = np.full(shape, 10**6, dtype=np.int64)
        mvs_half, _, _ = refine_half_pel(
            current, reference, mvs_int, sads_int,
            np.ones(shape, dtype=bool), search_range=7,
        )
        assert np.abs(mvs_half).max() <= 14


class TestEndToEnd:
    def test_lossless_roundtrip(self):
        config = halfpel_config()
        sequence = small_sequence(n_frames=6)
        encoder = Encoder(config, NoResilience())
        decoder = Decoder(config)
        packetizer = Packetizer(config)
        reference = None
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(ef)]
            result = decoder.decode_frame(payloads, reference, frame.index)
            assert result.received.all()
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            reference = result.frame

    def test_half_pel_beats_integer_on_subpixel_motion(self, rng):
        # A clip whose only motion is a repeated half-pixel drift: the
        # half-pel codec should represent it far more cheaply.
        base = _smooth(rng)
        frames = [base]
        for _ in range(5):
            frames.append(_half_shift_x(frames[-1]))
        clip = VideoSequence(
            tuple(Frame(f, i) for i, f in enumerate(frames)), name="drift"
        )
        integer = Encoder(small_config(), NoResilience())
        halfpel = Encoder(halfpel_config(), NoResilience())
        size_int = sum(ef.size_bytes for ef in integer.encode_sequence(clip))
        size_half = sum(ef.size_bytes for ef in halfpel.encode_sequence(clip))
        assert size_half < 0.8 * size_int

    def test_refinement_candidates_charged(self):
        config = halfpel_config()
        sequence = small_sequence(n_frames=3)
        half = Encoder(config, NoResilience())
        half.encode_sequence(sequence)
        integer = Encoder(small_config(), NoResilience())
        integer.encode_sequence(sequence)
        assert half.counters.sad_blocks > integer.counters.sad_blocks

    def test_works_with_pbpair(self):
        config = halfpel_config()
        sequence = small_sequence(n_frames=8)
        strategy = PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.2))
        encoder = Encoder(config, strategy)
        encoded = encoder.encode_sequence(sequence)
        assert sum(ef.stats.intra_mbs for ef in encoded[1:]) > 0

    def test_works_with_chroma(self):
        from tests.test_chroma import chroma_sequence

        config = small_config(half_pel=True, chroma=True)
        sequence = chroma_sequence(n_frames=4)
        encoder = Encoder(config, NoResilience())
        decoder = Decoder(config)
        packetizer = Packetizer(config)
        luma_ref, chroma_ref = None, None
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(ef)]
            result = decoder.decode_frame(
                payloads, luma_ref, frame.index, reference_chroma=chroma_ref
            )
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            for got, expected in zip(result.chroma, ef.reconstruction_chroma):
                np.testing.assert_array_equal(got, expected)
            luma_ref, chroma_ref = result.frame, result.chroma
