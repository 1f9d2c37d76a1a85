"""Tests for the H.263 COD-bit skip mode (CodecConfig(allow_skip=True))."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.codec.reference import (
    decode_macroblock_skippable,
    encode_macroblock_skippable,
)
from repro.codec.types import FrameType, MacroblockMode
from repro.network.packet import Packetizer
from repro.resilience.none import NoResilience
from repro.video.frame import Frame, VideoSequence

from tests.conftest import small_config, small_sequence


class TestSkipSyntax:
    def test_skipped_macroblock_is_one_bit(self):
        writer = BitWriter()
        encode_macroblock_skippable(
            writer,
            FrameType.P,
            MacroblockMode.INTER,
            (0, 0),
            np.zeros((4, 8, 8), dtype=np.int32),
        )
        assert writer.bit_length == 1

    def test_skip_roundtrip(self):
        writer = BitWriter()
        encode_macroblock_skippable(
            writer,
            FrameType.P,
            MacroblockMode.INTER,
            (0, 0),
            np.zeros((4, 8, 8), dtype=np.int32),
        )
        emb = decode_macroblock_skippable(BitReader(writer.getvalue()), FrameType.P)
        assert emb.mode is MacroblockMode.INTER
        assert emb.mv == (0, 0)
        assert not emb.coefficients.any()

    def test_nonzero_mv_not_skipped(self, rng):
        writer = BitWriter()
        encode_macroblock_skippable(
            writer,
            FrameType.P,
            MacroblockMode.INTER,
            (1, 0),
            np.zeros((4, 8, 8), dtype=np.int32),
        )
        assert writer.bit_length > 1
        emb = decode_macroblock_skippable(BitReader(writer.getvalue()), FrameType.P)
        assert emb.mv == (1, 0)

    def test_nonzero_levels_not_skipped(self, rng):
        levels = np.zeros((4, 8, 8), dtype=np.int32)
        levels[0, 0, 0] = 3
        writer = BitWriter()
        encode_macroblock_skippable(
            writer, FrameType.P, MacroblockMode.INTER, (0, 0), levels
        )
        emb = decode_macroblock_skippable(BitReader(writer.getvalue()), FrameType.P)
        np.testing.assert_array_equal(emb.coefficients, levels)

    def test_intra_never_skipped(self, rng):
        levels = rng.integers(-5, 5, (4, 8, 8)).astype(np.int32)
        writer = BitWriter()
        encode_macroblock_skippable(
            writer, FrameType.P, MacroblockMode.INTRA, (0, 0), levels
        )
        emb = decode_macroblock_skippable(BitReader(writer.getvalue()), FrameType.P)
        assert emb.mode is MacroblockMode.INTRA

    def test_i_frame_has_no_cod_bit(self):
        levels = np.zeros((4, 8, 8), dtype=np.int32)
        plain = BitWriter()
        encode_macroblock_skippable(
            plain, FrameType.I, MacroblockMode.INTRA, (0, 0), levels
        )
        skippable_free = BitWriter()
        from repro.codec.reference import encode_macroblock

        encode_macroblock(
            skippable_free, FrameType.I, MacroblockMode.INTRA, (0, 0), levels
        )
        assert plain.bit_length == skippable_free.bit_length


class TestSkipEndToEnd:
    def _still_clip(self, n=5, seed=6):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        return VideoSequence(
            tuple(Frame(base.copy(), i) for i in range(n)), name="still"
        )

    def test_roundtrip_matches_reconstruction(self):
        config = small_config(allow_skip=True)
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

    def test_static_content_collapses_to_bits(self):
        clip = self._still_clip()
        with_skip = Encoder(small_config(allow_skip=True), NoResilience())
        without = Encoder(small_config(), NoResilience())
        skip_sizes = [ef.size_bytes for ef in with_skip.encode_sequence(clip)]
        plain_sizes = [ef.size_bytes for ef in without.encode_sequence(clip)]
        # P-frames of a frozen scene: every macroblock skips -> ~1.5 B.
        mb_count = small_config().mb_count
        for size in skip_sizes[1:]:
            assert size <= (mb_count + 7) // 8 + 2
        assert sum(skip_sizes[1:]) < 0.25 * sum(plain_sizes[1:])

    def test_skip_composes_with_chroma_and_half_pel(self):
        from tests.test_chroma import chroma_sequence

        config = small_config(allow_skip=True, chroma=True, half_pel=True)
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
            luma_ref, chroma_ref = result.frame, result.chroma

    def test_fragmentation_with_skips(self):
        config = small_config(allow_skip=True)
        clip = self._still_clip()
        encoder = Encoder(config, NoResilience())
        decoder = Decoder(config)
        packetizer = Packetizer(config, mtu=64)
        reference = None
        for frame in clip:
            ef = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(ef)]
            result = decoder.decode_frame(payloads, reference, frame.index)
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            reference = result.frame
