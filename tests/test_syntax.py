"""Unit tests for fragment headers and macroblock syntax."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.bitstream import BitReader, BitWriter, BitstreamError
from repro.codec.reference import decode_macroblock, encode_macroblock
from repro.codec.syntax import (
    FragmentHeader,
    read_fragment_header,
    write_fragment_header,
)
from repro.codec.types import FrameType, MacroblockMode


def _roundtrip_header(header: FragmentHeader) -> FragmentHeader:
    writer = BitWriter()
    write_fragment_header(writer, header)
    return read_fragment_header(BitReader(writer.getvalue()))


class TestFragmentHeader:
    def test_roundtrip(self):
        header = FragmentHeader(
            frame_index=123, frame_type=FrameType.P, qp=9, first_mb=17, mb_count=5
        )
        assert _roundtrip_header(header) == header

    def test_roundtrip_i_frame(self):
        header = FragmentHeader(
            frame_index=0, frame_type=FrameType.I, qp=31, first_mb=0, mb_count=99
        )
        assert _roundtrip_header(header) == header

    def test_bad_magic_rejected(self):
        writer = BitWriter()
        write_fragment_header(
            writer,
            FragmentHeader(1, FrameType.P, 5, 0, 1),
        )
        data = bytearray(writer.getvalue())
        data[0] ^= 0xFF
        with pytest.raises(BitstreamError):
            read_fragment_header(BitReader(bytes(data)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(frame_index=-1, frame_type=FrameType.P, qp=5, first_mb=0, mb_count=1),
            dict(frame_index=1 << 16, frame_type=FrameType.P, qp=5, first_mb=0, mb_count=1),
            dict(frame_index=0, frame_type=FrameType.P, qp=0, first_mb=0, mb_count=1),
            dict(frame_index=0, frame_type=FrameType.P, qp=5, first_mb=0, mb_count=0),
            dict(frame_index=0, frame_type=FrameType.P, qp=5, first_mb=-1, mb_count=1),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FragmentHeader(**kwargs)


class TestMacroblockSyntax:
    def _levels(self, rng):
        return rng.integers(-20, 20, size=(4, 8, 8)).astype(np.int32)

    def test_inter_roundtrip(self, rng):
        levels = self._levels(rng)
        writer = BitWriter()
        encode_macroblock(writer, FrameType.P, MacroblockMode.INTER, (-3, 7), levels)
        decoded = decode_macroblock(BitReader(writer.getvalue()), FrameType.P)
        assert decoded.mode is MacroblockMode.INTER
        assert decoded.mv == (-3, 7)
        np.testing.assert_array_equal(decoded.coefficients, levels)

    def test_intra_in_p_frame_roundtrip(self, rng):
        levels = self._levels(rng)
        writer = BitWriter()
        encode_macroblock(writer, FrameType.P, MacroblockMode.INTRA, (0, 0), levels)
        decoded = decode_macroblock(BitReader(writer.getvalue()), FrameType.P)
        assert decoded.mode is MacroblockMode.INTRA
        assert decoded.mv == (0, 0)

    def test_i_frame_has_no_mode_bit(self, rng):
        levels = np.zeros((4, 8, 8), dtype=np.int32)
        writer_i = BitWriter()
        encode_macroblock(writer_i, FrameType.I, MacroblockMode.INTRA, (0, 0), levels)
        writer_p = BitWriter()
        encode_macroblock(writer_p, FrameType.P, MacroblockMode.INTRA, (0, 0), levels)
        assert writer_i.bit_length == writer_p.bit_length - 1

    def test_inter_in_i_frame_rejected(self, rng):
        with pytest.raises(ValueError):
            encode_macroblock(
                BitWriter(),
                FrameType.I,
                MacroblockMode.INTER,
                (0, 0),
                self._levels(rng),
            )

    def test_truncated_macroblock_raises(self, rng):
        writer = BitWriter()
        encode_macroblock(
            writer, FrameType.P, MacroblockMode.INTER, (1, 1), self._levels(rng)
        )
        data = writer.getvalue()
        with pytest.raises(BitstreamError):
            decode_macroblock(BitReader(data[: len(data) // 3]), FrameType.P)
