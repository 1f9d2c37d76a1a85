"""Unit tests for fragment headers and macroblock syntax, and a property
holding the batched macroblock layer to the field-by-field reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.bitstream import BitReader, BitWriter, BitstreamError
from repro.codec.reference import (
    decode_macroblock,
    encode_macroblock,
    encode_macroblock_skippable,
    run_level_events,
)
from repro.codec.syntax import (
    FragmentHeader,
    encode_macroblock_layer,
    read_fragment_header,
    write_fragment_header,
)
from repro.codec.types import FrameType, MacroblockMode
from repro.codec.zigzag import zigzag_order


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


class _CountingWriter(BitWriter):
    """A writer that counts its calls: one per logical VLC codeword."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def write_bit(self, bit: int) -> None:
        self.calls += 1
        super().write_bit(bit)

    def write_bits(self, value: int, width: int) -> None:
        self.calls += 1
        super().write_bits(value, width)


@st.composite
def _layer_inputs(draw):
    """One frame's layer: decisions, vectors and quantizer-range levels."""
    frame_type = draw(st.sampled_from([FrameType.I, FrameType.P]))
    blocks_per_mb = draw(st.sampled_from([4, 6]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mv_limit = draw(st.sampled_from([15, 30]))  # integer / half-pel units
    intra = np.ones((rows, cols), dtype=bool)
    mvs = np.zeros((rows, cols, 2), dtype=np.int64)
    levels = np.zeros((rows, cols, blocks_per_mb, 64), dtype=np.int32)
    zigzag = zigzag_order()
    for row in range(rows):
        for col in range(cols):
            if frame_type is FrameType.P:
                intra[row, col] = draw(st.booleans())
                if not intra[row, col] and draw(st.booleans()):
                    continue  # zero vector, zero residual: skippable
                # An intra macroblock's vector is not coded at all.
                mvs[row, col] = draw(
                    st.tuples(*[st.integers(-mv_limit, mv_limit)] * 2)
                )
            for block in range(blocks_per_mb):
                events = draw(
                    st.lists(
                        st.tuples(
                            st.integers(0, 63),
                            st.integers(-127, 127).filter(bool),
                        ),
                        max_size=12,
                    )
                )
                for position, level in events:
                    levels[row, col, block, zigzag[position]] = level
                if intra[row, col]:  # the intra DC is 1..254, never zero
                    levels[row, col, block, 0] = draw(st.integers(1, 254))
    levels = levels.reshape(rows, cols, blocks_per_mb, 8, 8)
    return frame_type, intra, mvs, levels


class TestMacroblockLayerOracle:
    """The batched layer against the field-by-field reference syntax."""

    @given(
        inputs=_layer_inputs(),
        allow_skip=st.booleans(),
        lead=st.integers(0, 7),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_layer_equals_chained_reference(self, inputs, allow_skip, lead, data):
        frame_type, intra, mvs, levels = inputs
        head = data.draw(st.integers(0, (1 << lead) - 1))
        blocks_per_mb = levels.shape[2]
        batch, reference = BitWriter(), _CountingWriter()
        for writer in (batch, reference):
            writer.write_bits(head, lead)
        reference.calls = 0

        offsets, n_codewords, symbols = encode_macroblock_layer(
            batch, frame_type, intra, mvs, levels, allow_skip=allow_skip
        )

        encode = encode_macroblock_skippable if allow_skip else encode_macroblock
        want_offsets = []
        want_index, want_levels, want_counts = [], [], []
        for mb, (is_intra, mv, blocks) in enumerate(
            zip(intra.ravel(), mvs.reshape(-1, 2), levels.reshape(-1, blocks_per_mb, 8, 8))
        ):
            want_offsets.append(reference.bit_length)
            mode = MacroblockMode.INTRA if is_intra else MacroblockMode.INTER
            encode(reference, frame_type, mode, (int(mv[0]), int(mv[1])), blocks)
            count = 0
            for block, coefficients in enumerate(blocks):
                position = -1
                zigzagged = coefficients.reshape(64)[zigzag_order()]
                for run, level, _ in run_level_events(zigzagged):
                    position += run + 1
                    block_base = (mb * blocks_per_mb + block) * 64
                    want_index.append(block_base + zigzag_order()[position])
                    want_levels.append(level)
                    count += 1
            want_counts.append(count)
        want_offsets.append(reference.bit_length)

        assert batch.getvalue() == reference.getvalue()
        assert batch.bit_length == reference.bit_length
        assert offsets == want_offsets
        assert n_codewords == reference.calls
        assert symbols.meta[:, 0].tolist() == intra.ravel().tolist()
        inter = ~intra.ravel()
        np.testing.assert_array_equal(symbols.meta[inter, 1:], mvs.reshape(-1, 2)[inter])
        assert not symbols.meta[~inter, 1:].any()
        assert symbols.ev_index.tolist() == want_index
        assert symbols.ev_levels.tolist() == want_levels
        assert symbols.ev_offsets.tolist() == np.concatenate(
            [[0], np.cumsum(want_counts)]
        ).tolist()

    @pytest.mark.parametrize(
        "level, mv", [(1 << 30, (0, 0)), (5, (1 << 20, 1 << 20))]
    )
    def test_a_codeword_wider_than_a_word_is_refused(self, level, mv):
        # Quantizer output never comes near this; the writer would
        # silently corrupt a codeword wider than its 64-bit words.
        levels = np.zeros((1, 1, 4, 8, 8), dtype=np.int64)
        levels[0, 0, 0, 7, 7] = level
        with pytest.raises(ValueError, match="too wide"):
            encode_macroblock_layer(
                BitWriter(),
                FrameType.P,
                np.zeros((1, 1), dtype=bool),
                np.array([[mv]]),
                levels,
            )
