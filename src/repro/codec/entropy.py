"""Entropy coding: Exp-Golomb codewords and run-level coefficient coding.

H.263 entropy-codes quantized DCT coefficients as (LAST, RUN, LEVEL)
events with hand-built Huffman tables.  This codec keeps the identical
event structure but encodes each field with Exp-Golomb codes (the
universal codes H.264 later standardized).  The rate is within a few
percent of the Huffman tables for QCIF content, the code is table-free
and exhaustively testable, and the error behaviour (loss of
synchronization after a bit error) is the same — which is what the
paper's resilience analysis depends on.

The encoder side is batched: :func:`repro.codec.syntax.encode_macroblock_layer`
turns a whole frame into ``(value, width)`` codeword vectors in numpy,
with the vectorized code numbers and widths below, and the word-level
:class:`~repro.codec.bitstream.BitWriter` packs them in one operation,
instead of thousands of per-coefficient Python calls.
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


def se_codes(values: np.ndarray) -> np.ndarray:
    """Vectorized se(v) code numbers plus one: the value each writes.

    The H.264 signed mapping sends ``v > 0`` to ``2 v - 1`` and
    ``v <= 0`` to ``-2 v``; plus one that is ``2 |v| + (v <= 0)``.
    """
    return 2 * np.abs(values) + (values <= 0)


def exp_golomb_bits(codes: np.ndarray) -> np.ndarray:
    """Bit length of each positive ``code`` (an Exp-Golomb value).

    The codeword of code number ``k`` is ``k + 1`` written in
    ``2 * bit_length(k + 1) - 1`` bits.  ``np.frexp``'s exponent is the
    exact bit length of every integer it can hold exactly, i.e. of
    every value below 2**53.
    """
    return np.frexp(codes)[1]
