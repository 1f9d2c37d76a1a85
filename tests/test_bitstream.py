"""Unit tests for the bit-level writer/reader."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.codec.bitstream import (
    BitReader,
    BitWriter,
    BitstreamError,
    append_bit_slice,
)
from repro.codec.entropy import exp_golomb_bits


class TestBitWriter:
    def test_empty_stream(self):
        writer = BitWriter()
        assert writer.getvalue() == b""
        assert writer.bit_length == 0

    def test_single_bit_padding(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.getvalue() == b"\x80"
        assert writer.bit_length == 1

    def test_exact_byte(self):
        writer = BitWriter()
        writer.write_bits(0xA5, 8)
        assert writer.getvalue() == b"\xa5"

    def test_multibyte_value(self):
        writer = BitWriter()
        writer.write_bits(0x1234, 16)
        assert writer.getvalue() == b"\x12\x34"

    def test_unaligned_values(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        writer.write_bits(0b11111, 5)
        assert writer.getvalue() == bytes([0b10111111])

    def test_rejects_bad_bit(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bit(2)

    def test_rejects_value_too_wide(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(4, 2)

    def test_rejects_negative_value(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(-1, 4)

    def test_getvalue_is_idempotent(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        assert writer.getvalue() == writer.getvalue()


class TestBitReader:
    def test_read_bits(self):
        reader = BitReader(b"\xa5")
        assert reader.read_bits(8) == 0xA5

    def test_read_bit_by_bit(self):
        reader = BitReader(b"\x80")
        assert reader.read_bit() == 1
        assert all(reader.read_bit() == 0 for _ in range(7))

    def test_exhaustion_raises(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(BitstreamError):
            reader.read_bit()

    def test_overread_raises(self):
        with pytest.raises(BitstreamError):
            BitReader(b"\xff").read_bits(9)

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read_bits(5)
        assert reader.bits_remaining == 11
        assert reader.bits_consumed == 5

    def test_skip_bits(self):
        reader = BitReader(b"\x0f")
        reader.skip_bits(4)
        assert reader.read_bits(4) == 0xF

    def test_skip_past_end_raises(self):
        with pytest.raises(BitstreamError):
            BitReader(b"\xff").skip_bits(9)

    def test_read_unary(self):
        reader = BitReader(bytes([0b00010000]))
        assert reader.read_unary() == 3

    def test_unary_runaway_guard(self):
        reader = BitReader(b"\x00" * 20)
        with pytest.raises(BitstreamError):
            reader.read_unary(max_zeros=32)


class TestRoundTrip:
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
    def test_bit_roundtrip(self, bits):
        writer = BitWriter()
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in bits] == bits

    @given(
        st.lists(
            st.tuples(st.integers(1, 24), st.integers(0, 2**24 - 1)),
            min_size=1,
            max_size=50,
        )
    )
    def test_value_roundtrip(self, pairs):
        pairs = [(w, v % (1 << w)) for w, v in pairs]
        writer = BitWriter()
        for width, value in pairs:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        for width, value in pairs:
            assert reader.read_bits(width) == value


class TestCodewordPacker:
    """``write_codewords`` against one ``write_bits`` call per codeword."""

    @given(
        lead=st.integers(0, 7),
        prefix_bytes=st.integers(0, 2),
        data=st.data(),
    )
    def test_matches_bit_serial_writes(self, lead, prefix_bytes, data):
        widths = data.draw(st.lists(st.integers(1, 64), max_size=40))
        values = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
        head_width = 8 * prefix_bytes + lead
        head = data.draw(st.integers(0, (1 << head_width) - 1))
        packed, serial = BitWriter(), BitWriter()
        for writer in (packed, serial):
            writer.write_bits(head, head_width)
        packed.write_codewords(
            np.array(values, dtype=np.uint64), np.array(widths, dtype=np.int64)
        )
        for value, width in zip(values, widths):
            serial.write_bits(value, width)
        assert packed.bit_length == serial.bit_length
        assert packed.getvalue() == serial.getvalue()
        # The pending tail carries on into later writes.
        for writer in (packed, serial):
            writer.write_bits(0b101, 3)
        assert packed.getvalue() == serial.getvalue()

    def test_empty_batch_writes_nothing(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        writer.write_codewords(np.empty(0, np.int64), np.empty(0, np.int64))
        assert writer.bit_length == 4
        assert writer.getvalue() == bytes([0b10110000])

    def test_ue_widths_are_exact_at_power_of_two_edges(self):
        values = sorted(
            {v for k in range(53) for v in (2**k - 2, 2**k - 1, 2**k) if v >= 0}
        )
        widths = 2 * exp_golomb_bits(np.array(values, dtype=np.int64) + 1) - 1
        assert widths.tolist() == [2 * (v + 1).bit_length() - 1 for v in values]


class TestAppendBitSlice:
    def test_whole_stream_copy(self):
        source = bytes([0xDE, 0xAD, 0xBE, 0xEF])
        writer = BitWriter()
        append_bit_slice(writer, source, 0, 32)
        assert writer.getvalue() == source

    def test_unaligned_slice(self):
        source = bytes([0b10110100, 0b01101100])
        writer = BitWriter()
        append_bit_slice(writer, source, 3, 7)  # bits 3..9 -> 1010001...
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(7) == 0b1010001

    def test_out_of_range_raises(self):
        from repro.codec.bitstream import BitstreamError

        with pytest.raises(BitstreamError):
            append_bit_slice(BitWriter(), b"\xff", 4, 8)

    def test_negative_args_raise(self):
        with pytest.raises(ValueError):
            append_bit_slice(BitWriter(), b"\xff", -1, 4)

    @given(st.binary(min_size=1, max_size=40), st.data())
    def test_slice_matches_direct_read(self, data, draw):
        total = len(data) * 8
        start = draw.draw(st.integers(0, total))
        length = draw.draw(st.integers(0, total - start))
        writer = BitWriter()
        append_bit_slice(writer, data, start, length)
        out = BitReader(writer.getvalue())
        reference = BitReader(data)
        reference.skip_bits(start)
        for _ in range(length):
            assert out.read_bit() == reference.read_bit()


class BitstreamMachine(RuleBasedStateMachine):
    """Stateful model: whatever sequence of writes is performed, reading
    it back in the same order yields the same values."""

    def __init__(self):
        super().__init__()
        self.writer = BitWriter()
        self.expected = []  # (kind, value, width)

    @rule(bit=st.integers(0, 1))
    def write_bit(self, bit):
        self.writer.write_bit(bit)
        self.expected.append(("bits", bit, 1))

    @rule(width=st.integers(1, 32), data=st.data())
    def write_bits(self, width, data):
        value = data.draw(st.integers(0, (1 << width) - 1))
        self.writer.write_bits(value, width)
        self.expected.append(("bits", value, width))

    @rule(value=st.integers(0, 2**16))
    def write_ue_value(self, value):
        from repro.codec.entropy import write_ue

        write_ue(self.writer, value)
        self.expected.append(("ue", value, None))

    @rule(value=st.integers(-(2**15), 2**15))
    def write_se_value(self, value):
        from repro.codec.reference import write_se

        write_se(self.writer, value)
        self.expected.append(("se", value, None))

    @invariant()
    def readback_matches(self):
        from repro.codec.entropy import read_ue
        from repro.codec.reference import read_se

        reader = BitReader(self.writer.getvalue())
        for kind, value, width in self.expected:
            if kind == "bits":
                assert reader.read_bits(width) == value
            elif kind == "ue":
                assert read_ue(reader) == value
            else:
                assert read_se(reader) == value
        # Only byte-alignment padding may remain.
        assert reader.bits_remaining < 8


TestBitstreamStateMachine = BitstreamMachine.TestCase
