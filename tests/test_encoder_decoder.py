"""Integration tests for the encoder/decoder pair."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.codec.types import FrameType, MacroblockMode
from repro.network.packet import Packetizer
from repro.metrics.psnr import psnr
from repro.resilience.gop import GOPStrategy
from repro.resilience.none import NoResilience

from tests.conftest import small_config, small_sequence


def _decode_all(config, encoded_frames, packetizer=None):
    """Decode a lossless stream; returns the decoder-side frames."""
    decoder = Decoder(config)
    packetizer = packetizer or Packetizer(config)
    reference = None
    out = []
    for ef in encoded_frames:
        packets = packetizer.packetize(ef)
        result = decoder.decode_frame(
            [p.payload for p in packets], reference, expected_index=ef.frame_index
        )
        assert result.received.all()
        reference = result.frame
        out.append(result)
    return out


class TestLosslessRoundTrip:
    def test_decoder_matches_encoder_reconstruction(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoded = encoder.encode_sequence(sequence)
        decoded = _decode_all(codec_config, encoded)
        for ef, dr in zip(encoded, decoded):
            np.testing.assert_array_equal(dr.frame, ef.reconstruction)

    def test_reconstruction_quality_reasonable(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            assert psnr(frame.pixels, ef.reconstruction) > 28.0

    def test_first_frame_is_intra(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        ef = encoder.encode_frame(sequence[0])
        assert ef.frame_type is FrameType.I
        assert ef.stats.intra_mbs == codec_config.mb_count

    def test_decoded_modes_match_encoder_decisions(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoded = encoder.encode_sequence(sequence)
        decoded = _decode_all(codec_config, encoded)
        for ef, dr in zip(encoded, decoded):
            assert dr.modes.tolist() == ef.decisions.mode.tolist()

    def test_small_mtu_fragmentation_is_transparent(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoded = encoder.encode_sequence(sequence)
        tiny = Packetizer(codec_config, mtu=128)
        decoded = _decode_all(codec_config, encoded, tiny)
        for ef, dr in zip(encoded, decoded):
            np.testing.assert_array_equal(dr.frame, ef.reconstruction)

    def test_fixed_vs_float_dct_both_roundtrip(self, sequence):
        for fixed in (True, False):
            config = small_config(use_fixed_point_dct=fixed)
            encoder = Encoder(config, NoResilience())
            encoded = encoder.encode_sequence(sequence.clip(3))
            decoded = _decode_all(config, encoded)
            for ef, dr in zip(encoded, decoded):
                np.testing.assert_array_equal(dr.frame, ef.reconstruction)


class TestEncoderInvariants:
    def test_stats_consistency(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            assert ef.stats.intra_mbs + ef.stats.inter_mbs == codec_config.mb_count
            assert ef.stats.bits == ef.mb_bit_offsets[-1]
            assert len(ef.payload) == (ef.stats.bits + 7) // 8
            grid = (codec_config.mb_rows, codec_config.mb_cols)
            decisions = ef.decisions
            for field in ("mode", "sad_mv", "sad_self", "me_skipped", "forced_by"):
                assert getattr(decisions, field).shape == grid
            assert decisions.mv.shape == grid + (2,)
            assert len(ef.mb_bit_offsets) == codec_config.mb_count + 1

    def test_offsets_monotone(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        ef = encoder.encode_frame(sequence[0])
        offsets = np.array(ef.mb_bit_offsets)
        assert (np.diff(offsets) > 0).all()

    def test_counters_accumulate(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoder.encode_frame(sequence[0])
        after_one = encoder.counters.copy()
        encoder.encode_frame(sequence[1])
        assert encoder.counters.dct_blocks > after_one.dct_blocks
        assert encoder.counters.entropy_bits > after_one.entropy_bits

    def test_i_frame_skips_all_me(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoder.encode_frame(sequence[0])
        assert encoder.counters.sad_blocks == 0

    def test_wrong_frame_size_rejected(self, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        big = small_sequence(n_frames=1, width=96, height=64)
        with pytest.raises(ValueError):
            encoder.encode_frame(big[0])

    def test_reset_forgets_reference(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoder.encode_frame(sequence[0])
        encoder.encode_frame(sequence[1])
        encoder.reset()
        ef = encoder.encode_frame(sequence[2])
        assert ef.frame_type is FrameType.I

    def test_p_frames_mostly_inter_on_static_content(
        self, still_sequence, codec_config
    ):
        encoder = Encoder(codec_config, NoResilience())
        encoded = encoder.encode_sequence(still_sequence)
        for ef in encoded[1:]:
            assert ef.frame_type is FrameType.P
            assert ef.stats.inter_mbs == codec_config.mb_count

    def test_p_frame_smaller_than_i_frame(self, still_sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoded = encoder.encode_sequence(still_sequence)
        assert encoded[1].size_bytes < encoded[0].size_bytes / 2


class TestDecoderRobustness:
    def test_no_fragments_returns_concealment_seed(self, sequence, codec_config):
        decoder = Decoder(codec_config)
        reference = np.full(
            (codec_config.height, codec_config.width), 55, dtype=np.uint8
        )
        result = decoder.decode_frame([], reference, expected_index=4)
        assert not result.received.any()
        np.testing.assert_array_equal(result.frame, reference)
        assert result.frame_index == 4

    def test_no_fragments_no_reference_gives_grey(self, codec_config):
        decoder = Decoder(codec_config)
        result = decoder.decode_frame([], None)
        assert (result.frame == 128).all()

    def test_corrupt_payload_salvages_prefix(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        ef = encoder.encode_frame(sequence[0])
        packets = Packetizer(codec_config).packetize(ef)
        payload = bytearray(packets[0].payload)
        payload = payload[: len(payload) * 2 // 3]  # truncate: VLC desync
        decoder = Decoder(codec_config)
        result = decoder.decode_frame([bytes(payload)], None, expected_index=0)
        received = result.received.reshape(-1)
        assert received.any() and not received.all()
        # Received macroblocks form a prefix in raster order.
        first_lost = int(np.argmin(received))
        assert not received[first_lost:].any()

    def test_garbage_fragment_ignored(self, codec_config):
        decoder = Decoder(codec_config)
        result = decoder.decode_frame([b"\x00\x01\x02"], None)
        assert not result.received.any()

    def test_mv_out_of_range_stops_fragment(self, sequence, codec_config):
        # A fragment claiming an absurd motion vector must not crash or
        # read out of bounds; the decoder abandons the fragment.
        from repro.codec.bitstream import BitWriter
        from repro.codec.syntax import FragmentHeader, write_fragment_header
        from repro.codec.reference import write_se

        writer = BitWriter()
        write_fragment_header(
            writer,
            FragmentHeader(1, FrameType.P, codec_config.quantizer, 0, 1),
        )
        writer.write_bit(0)  # inter mode
        write_se(writer, 2000)
        write_se(writer, 0)
        for _ in range(4):
            writer.write_bit(0)  # empty blocks
        decoder = Decoder(codec_config)
        reference = np.zeros(
            (codec_config.height, codec_config.width), dtype=np.uint8
        )
        result = decoder.decode_frame([writer.getvalue()], reference)
        assert not result.received.any()

    def test_fragment_beyond_mb_count_ignored(self, codec_config):
        from repro.codec.bitstream import BitWriter
        from repro.codec.syntax import FragmentHeader, write_fragment_header

        writer = BitWriter()
        write_fragment_header(
            writer,
            FragmentHeader(0, FrameType.I, 5, codec_config.mb_count - 1, 5),
        )
        decoder = Decoder(codec_config)
        result = decoder.decode_frame([writer.getvalue()], None)
        assert not result.received.any()

    def test_wrong_reference_shape_rejected(self, codec_config):
        decoder = Decoder(codec_config)
        with pytest.raises(ValueError):
            decoder.decode_frame([], np.zeros((8, 8), dtype=np.uint8))


class TestGOPFrames:
    def test_gop_cadence(self, sequence, codec_config):
        encoder = Encoder(codec_config, GOPStrategy(p_frames=2))
        encoded = encoder.encode_sequence(sequence)
        types = [ef.frame_type for ef in encoded]
        expected = [
            FrameType.I if i % 3 == 0 else FrameType.P for i in range(len(types))
        ]
        assert types == expected

    def test_i_frames_larger_than_p_frames(self, sequence, codec_config):
        encoder = Encoder(codec_config, GOPStrategy(p_frames=2))
        encoded = encoder.encode_sequence(sequence)
        i_sizes = [ef.size_bytes for ef in encoded if ef.frame_type is FrameType.I]
        p_sizes = [ef.size_bytes for ef in encoded if ef.frame_type is FrameType.P]
        assert min(i_sizes) > max(p_sizes)
