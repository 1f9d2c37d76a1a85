"""Unit tests for Exp-Golomb codes and run-level block coding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.bitstream import BitReader, BitWriter, BitstreamError
from repro.codec.entropy import read_ue, write_ue
from repro.codec.reference import (
    decode_block,
    decode_blocks,
    encode_block,
    encode_blocks,
    read_se,
    run_level_events,
    write_se,
)
from repro.codec.zigzag import zigzag_order


class TestExpGolomb:
    @pytest.mark.parametrize(
        "value,expected_bits",
        [(0, "1"), (1, "010"), (2, "011"), (3, "00100"), (7, "0001000")],
    )
    def test_known_ue_codewords(self, value, expected_bits):
        writer = BitWriter()
        write_ue(writer, value)
        assert writer.bit_length == len(expected_bits)
        reader = BitReader(writer.getvalue())
        got = "".join(str(reader.read_bit()) for _ in expected_bits)
        assert got == expected_bits

    def test_ue_rejects_negative(self):
        with pytest.raises(ValueError):
            write_ue(BitWriter(), -1)

    @given(st.integers(0, 2**20))
    def test_ue_roundtrip(self, value):
        writer = BitWriter()
        write_ue(writer, value)
        assert read_ue(BitReader(writer.getvalue())) == value

    @given(st.integers(-(2**18), 2**18))
    def test_se_roundtrip(self, value):
        writer = BitWriter()
        write_se(writer, value)
        assert read_se(BitReader(writer.getvalue())) == value

    def test_se_mapping_order(self):
        # H.264 mapping: 0 -> 0, 1 -> 1, -1 -> 2, 2 -> 3, -2 -> 4 ...
        lengths = []
        for value in (0, 1, -1, 2, -2):
            writer = BitWriter()
            write_se(writer, value)
            lengths.append(writer.bit_length)
        assert lengths == sorted(lengths)

    def test_corrupt_prefix_raises(self):
        with pytest.raises(BitstreamError):
            read_ue(BitReader(b"\x00" * 10))


class TestRunLevelEvents:
    def test_all_zero_block(self):
        assert run_level_events(np.zeros(64, dtype=np.int32)) == []

    def test_single_dc(self):
        vec = np.zeros(64, dtype=np.int32)
        vec[0] = 5
        assert run_level_events(vec) == [(0, 5, True)]

    def test_runs_counted(self):
        vec = np.zeros(64, dtype=np.int32)
        vec[0], vec[3], vec[63] = 1, -2, 7
        assert run_level_events(vec) == [
            (0, 1, False),
            (2, -2, False),
            (59, 7, True),
        ]


class TestBlockCoding:
    def test_zero_block_is_one_bit(self):
        writer = BitWriter()
        encode_block(writer, np.zeros((8, 8), dtype=np.int32))
        assert writer.bit_length == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            encode_block(BitWriter(), np.zeros((4, 4), dtype=np.int32))

    def test_roundtrip_dense_block(self, rng):
        block = rng.integers(-30, 30, size=(8, 8)).astype(np.int32)
        writer = BitWriter()
        encode_block(writer, block)
        decoded = decode_block(BitReader(writer.getvalue()))
        np.testing.assert_array_equal(decoded, block)

    @given(
        arrays(
            np.int32,
            (8, 8),
            elements=st.integers(-120, 120),
        )
    )
    def test_roundtrip_property(self, block):
        writer = BitWriter()
        encode_block(writer, block)
        decoded = decode_block(BitReader(writer.getvalue()))
        np.testing.assert_array_equal(decoded, block)

    def test_multi_block_roundtrip(self, rng):
        blocks = rng.integers(-50, 50, size=(6, 8, 8)).astype(np.int32)
        writer = BitWriter()
        encode_blocks(writer, blocks)
        decoded = decode_blocks(BitReader(writer.getvalue()), 6)
        np.testing.assert_array_equal(decoded, blocks)

    def test_sparse_block_is_compact(self):
        block = np.zeros((8, 8), dtype=np.int32)
        block[0, 0] = 3
        writer = BitWriter()
        encode_block(writer, block)
        assert writer.bit_length < 16

    def test_truncated_stream_raises(self, rng):
        block = rng.integers(-30, 30, size=(8, 8)).astype(np.int32)
        writer = BitWriter()
        encode_block(writer, block)
        data = writer.getvalue()
        with pytest.raises(BitstreamError):
            # Drop the final bytes: the run-level chain never sees LAST.
            decode_block(BitReader(data[: max(1, len(data) // 2)]))

    def test_zigzag_clusters_trailing_zeros(self):
        # A low-frequency-only block must produce very few events.
        block = np.zeros((8, 8), dtype=np.int32)
        block[0, 0], block[0, 1], block[1, 0] = 10, 5, -5
        vec = block.reshape(-1)[zigzag_order()]
        events = run_level_events(vec)
        assert len(events) == 3
        assert all(run == 0 for run, _, _ in events)
