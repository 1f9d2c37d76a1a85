"""Tests for the 4:2:0 chroma path through the codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.blocks import blocks_to_plane, plane_to_blocks
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.codec.reference import chroma_vector
from repro.codec.types import CodecConfig, FrameType
from repro.metrics.psnr import psnr
from repro.network.packet import Packetizer
from repro.resilience.none import NoResilience
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.core.pbpair import PBPAIRConfig
from repro.video.frame import Frame, VideoSequence
from repro.video.synthetic import SyntheticConfig, generate_sequence

from tests.conftest import SMALL_H, SMALL_W
from tests.test_recon import predict_frame


def chroma_config(**overrides) -> CodecConfig:
    defaults = dict(width=SMALL_W, height=SMALL_H, quantizer=6, chroma=True)
    defaults.update(overrides)
    return CodecConfig(**defaults)


def chroma_sequence(n_frames: int = 6, seed: int = 13) -> VideoSequence:
    return generate_sequence(
        SyntheticConfig(
            width=SMALL_W,
            height=SMALL_H,
            n_frames=n_frames,
            texture_scale=30.0,
            object_radius=10,
            object_motion_amplitude=10.0,
            object_motion_period=8,
            sensor_noise=0.8,
            chroma=True,
            seed=seed,
        ),
        name="colour",
    )


class TestChromaHelpers:
    def test_plane_block_roundtrip(self, rng):
        plane = rng.integers(0, 256, (24, 32))
        blocks = plane_to_blocks(plane)
        assert blocks.shape == (3, 4, 8, 8)
        np.testing.assert_array_equal(blocks_to_plane(blocks), plane)

    def test_plane_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            plane_to_blocks(np.zeros((20, 32)))

    @pytest.mark.parametrize(
        "luma,chroma",
        [(0, 0), (1, 1), (2, 1), (3, 2), (-1, -1), (-2, -1), (-3, -2), (15, 8)],
    )
    def test_chroma_vector_mapping(self, luma, chroma):
        assert chroma_vector(luma) == chroma

    def test_chroma_vector_odd_symmetry(self):
        for v in range(-15, 16):
            assert chroma_vector(-v) == -chroma_vector(v)

    def test_motion_compensate_chroma_shift(self, rng):
        plane = rng.integers(0, 256, (24, 32)).astype(np.uint8)
        mvs = np.zeros((3, 4, 2), dtype=np.int64)
        mvs[:, :, 1] = 4  # luma dx 4 -> chroma dx 2
        luma = np.zeros((48, 64), dtype=np.uint8)
        _, predicted, _ = predict_frame(luma, mvs, reference_chroma=(plane, plane))
        np.testing.assert_array_equal(predicted[:, :-2], plane[:, 2:])


class TestChromaRoundTrip:
    def test_lossless_roundtrip_matches_encoder(self):
        config = chroma_config()
        sequence = chroma_sequence()
        encoder = Encoder(config, NoResilience())
        decoder = Decoder(config)
        packetizer = Packetizer(config)
        luma_ref, chroma_ref = None, None
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            assert ef.reconstruction_chroma is not None
            payloads = [p.payload for p in packetizer.packetize(ef)]
            result = decoder.decode_frame(
                payloads, luma_ref, frame.index, reference_chroma=chroma_ref
            )
            assert result.received.all()
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            for got, expected in zip(result.chroma, ef.reconstruction_chroma):
                np.testing.assert_array_equal(got, expected)
            luma_ref, chroma_ref = result.frame, result.chroma

    def test_chroma_quality_reasonable(self):
        config = chroma_config()
        sequence = chroma_sequence()
        encoder = Encoder(config, NoResilience())
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            cb_recon, cr_recon = ef.reconstruction_chroma
            assert psnr(frame.cb, cb_recon) > 30.0
            assert psnr(frame.cr, cr_recon) > 30.0

    def test_chroma_stream_larger_than_luma_only(self):
        sequence = chroma_sequence()
        with_chroma = Encoder(chroma_config(), NoResilience())
        luma_only = Encoder(chroma_config(chroma=False), NoResilience())
        size_chroma = sum(
            ef.size_bytes for ef in with_chroma.encode_sequence(sequence)
        )
        size_luma = sum(
            ef.size_bytes for ef in luma_only.encode_sequence(sequence)
        )
        assert size_chroma > size_luma

    def test_small_mtu_fragmentation(self):
        config = chroma_config()
        sequence = chroma_sequence(n_frames=3)
        encoder = Encoder(config, NoResilience())
        decoder = Decoder(config)
        packetizer = Packetizer(config, mtu=128)
        luma_ref, chroma_ref = None, None
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(ef)]
            assert len(payloads) > 1
            result = decoder.decode_frame(
                payloads, luma_ref, frame.index, reference_chroma=chroma_ref
            )
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            luma_ref, chroma_ref = result.frame, result.chroma

    def test_works_with_pbpair(self):
        config = chroma_config()
        sequence = chroma_sequence(n_frames=8)
        encoder = Encoder(config, PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.2)))
        encoded = encoder.encode_sequence(sequence)
        assert sum(ef.stats.intra_mbs for ef in encoded[1:]) > 0

    def test_counters_include_chroma_blocks(self):
        config = chroma_config()
        sequence = chroma_sequence(n_frames=2)
        encoder = Encoder(config, NoResilience())
        encoder.encode_sequence(sequence)
        assert encoder.counters.dct_blocks == 2 * config.mb_count * 6


class TestChromaValidation:
    def test_chroma_codec_rejects_luma_frame(self, rng):
        config = chroma_config()
        encoder = Encoder(config, NoResilience())
        luma_frame = Frame(
            rng.integers(0, 256, (SMALL_H, SMALL_W)).astype(np.uint8), 0
        )
        with pytest.raises(ValueError):
            encoder.encode_frame(luma_frame)

    def test_luma_codec_ignores_chroma(self):
        config = chroma_config(chroma=False)
        sequence = chroma_sequence(n_frames=2)
        encoder = Encoder(config, NoResilience())
        ef = encoder.encode_frame(sequence[0])
        assert ef.reconstruction_chroma is None

    def test_frame_validation(self, rng):
        luma = rng.integers(0, 256, (SMALL_H, SMALL_W)).astype(np.uint8)
        half = rng.integers(0, 256, (SMALL_H // 2, SMALL_W // 2)).astype(np.uint8)
        with pytest.raises(ValueError):
            Frame(luma, 0, cb=half, cr=None)
        with pytest.raises(ValueError):
            Frame(luma, 0, cb=half[:4], cr=half)
        frame = Frame(luma, 0, cb=half, cr=half)
        assert frame.has_chroma

    def test_sequence_chroma_consistency(self, rng):
        luma = rng.integers(0, 256, (SMALL_H, SMALL_W)).astype(np.uint8)
        half = rng.integers(0, 256, (SMALL_H // 2, SMALL_W // 2)).astype(np.uint8)
        with pytest.raises(ValueError):
            VideoSequence(
                (Frame(luma, 0, half, half), Frame(luma, 1)), name="mixed"
            )

    def test_decoder_rejects_bad_chroma_reference(self):
        config = chroma_config()
        decoder = Decoder(config)
        bad = (
            np.zeros((4, 4), dtype=np.uint8),
            np.zeros((4, 4), dtype=np.uint8),
        )
        with pytest.raises(ValueError):
            decoder.decode_frame([], None, reference_chroma=bad)
