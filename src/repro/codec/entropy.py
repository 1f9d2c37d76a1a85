"""Entropy coding: Exp-Golomb codewords and run-level coefficient coding.

H.263 entropy-codes quantized DCT coefficients as (LAST, RUN, LEVEL)
events with hand-built Huffman tables.  This codec keeps the identical
event structure but encodes each field with Exp-Golomb codes (the
universal codes H.264 later standardized).  The rate is within a few
percent of the Huffman tables for QCIF content, the code is table-free
and exhaustively testable, and the error behaviour (loss of
synchronization after a bit error) is the same — which is what the
paper's resilience analysis depends on.

The encoder side is batched: a whole block array is turned into
``(value, width)`` codeword vectors in numpy (:func:`block_codewords`)
and packed by the word-level :class:`~repro.codec.bitstream.BitWriter`
in one operation, instead of thousands of per-coefficient Python calls.
The decoder is necessarily sequential (VLC codewords must be parsed in
order to know where the next one starts).  Its fast path is the batch
VLD in :func:`repro.codec.syntax.decode_macroblock_layer`, which walks
the 64-bit windows of :func:`~repro.codec.bitstream.build_word_index`
with plain integer arithmetic and scatters each fragment's coefficient
events in one batch.  The per-block codec that the batch paths must
match (:func:`~repro.codec.reference.encode_blocks`,
:func:`~repro.codec.reference.decode_blocks`) lives with the other
scalar oracles in :mod:`repro.codec.reference`.  Both directions are
bit-identical to the original bit-serial
implementation — locked by the golden-bitstream regression tests.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.zigzag import zigzag_order


def write_ue(writer: BitWriter, value: int) -> None:
    """Write an unsigned Exp-Golomb codeword."""
    if value < 0:
        raise ValueError(f"ue(v) requires value >= 0, got {value}")
    augmented = int(value) + 1
    n_bits = augmented.bit_length()
    writer.write_bits(augmented, 2 * n_bits - 1)


def read_ue(reader: BitReader) -> int:
    """Read an unsigned Exp-Golomb codeword."""
    return reader.read_exp_golomb()


def ue_codewords(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ue(v): ``(codeword value, codeword width)`` per input.

    ``np.frexp``'s exponent is the exact bit length of every integer it
    can hold exactly, i.e. of every value below 2**53.
    """
    augmented = np.asarray(values, dtype=np.int64) + 1
    if augmented.size and int(augmented.min()) < 1:
        raise ValueError("ue(v) requires values >= 0")
    n_bits = np.frexp(augmented)[1].astype(np.int64)
    return augmented, 2 * n_bits - 1


def se_codewords(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized se(v) via the H.264 signed mapping."""
    values = np.asarray(values, dtype=np.int64)
    return ue_codewords(np.where(values > 0, 2 * values - 1, -2 * values))


def block_codewords(
    blocks: np.ndarray,
) -> tuple[
    np.ndarray,
    np.ndarray,
    np.ndarray,
    np.ndarray,
    tuple[np.ndarray, np.ndarray, np.ndarray],
]:
    """Batched run-level coding of ``(n, 8, 8)`` level blocks.

    Returns ``(values, widths, bits_per_block, codewords_per_block,
    events)``: the full codeword stream for all blocks in order
    (coded-block flag, then per event ue(run), se(level) and the LAST
    bit) plus each block's coded size in bits and codewords — what the
    macroblock layer needs to compute bit offsets and interleave
    per-macroblock header fields without a second pass.  ``events`` is
    ``(block_index, zigzag_position, level)``, one entry per coded
    coefficient, ordered by block and then by zigzag position: the
    symbols a decoder's parse recovers.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 3 or blocks.shape[1:] != (8, 8):
        raise ValueError(f"expected (n, 8, 8) blocks, got {blocks.shape}")
    n_blocks = blocks.shape[0]
    if n_blocks == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty, (empty, empty, empty)
    zigzagged = blocks.reshape(n_blocks, 64)[:, zigzag_order()]
    nonzero = zigzagged != 0
    coded = nonzero.any(axis=1)
    block_index, scan_position = np.nonzero(nonzero)
    n_events = block_index.size

    # Codeword stream layout: one flag per block at the start of the
    # block's span, then three codewords (run, level, last) per event.
    events_per_block = nonzero.sum(axis=1)
    block_starts = np.zeros(n_blocks, dtype=np.int64)
    np.cumsum(1 + 3 * events_per_block[:-1], out=block_starts[1:])
    n_codewords = n_blocks + 3 * n_events
    values = np.empty(n_codewords, dtype=np.int64)
    widths = np.empty(n_codewords, dtype=np.int64)
    values[block_starts] = coded
    widths[block_starts] = 1
    levels = zigzagged[block_index, scan_position].astype(np.int64)

    if n_events:
        first_of_block = np.empty(n_events, dtype=bool)
        first_of_block[0] = True
        np.not_equal(block_index[1:], block_index[:-1], out=first_of_block[1:])
        previous_position = np.empty(n_events, dtype=np.int64)
        previous_position[1:] = scan_position[:-1]
        previous_position[first_of_block] = -1
        runs = scan_position - previous_position - 1
        last = np.empty(n_events, dtype=np.int64)
        last[-1] = 1
        last[:-1] = first_of_block[1:]

        run_values, run_widths = ue_codewords(runs)
        level_values, level_widths = se_codewords(levels)
        event_mask = np.ones(n_codewords, dtype=bool)
        event_mask[block_starts] = False
        values[event_mask] = np.stack(
            [run_values, level_values, last], axis=1
        ).ravel()
        widths[event_mask] = np.stack(
            [run_widths, level_widths, np.ones(n_events, dtype=np.int64)],
            axis=1,
        ).ravel()

    bits_per_block = np.add.reduceat(widths, block_starts)
    return (
        values,
        widths,
        bits_per_block,
        1 + 3 * events_per_block,
        (block_index, scan_position, levels),
    )
