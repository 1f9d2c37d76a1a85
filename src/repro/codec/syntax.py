"""Bitstream syntax: macroblock layer and fragment headers.

The coded representation of a frame is its *macroblock layer*: the
macroblocks in raster order, each carrying a mode bit (P-frames), a
motion vector (inter macroblocks) and four entropy-coded 8x8 luma
blocks.  Frame-level parameters travel in a *fragment header* written by
the packetizer, so every packet is independently decodable (RTP
H.263-payload style): losing one fragment of a frame costs only the
macroblocks it carried.

Layout of one fragment payload::

    magic(8) frame_index(16) frame_type(1) qp(5) first_mb ue(v)
    mb_count ue(v) <macroblock layer bits for those macroblocks>
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from repro.codec.bitstream import (
    BitReader,
    BitWriter,
    BitstreamError,
    build_word_index,
)
from repro.codec.entropy import (
    block_codewords,
    read_ue,
    se_codewords,
    write_ue,
)
from repro.codec.types import CodecConfig, EncodedFrame, FrameType, LayerSymbols
from repro.codec.zigzag import zigzag_order

#: Sanity byte opening every fragment.
FRAGMENT_MAGIC = 0xD5
#: Fixed fragment-header widths.
_FRAME_INDEX_BITS = 16
_QP_BITS = 5


@dataclass(frozen=True)
class FragmentHeader:
    """Self-describing header of one packet payload."""

    frame_index: int
    frame_type: FrameType
    qp: int
    first_mb: int
    mb_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.frame_index < (1 << _FRAME_INDEX_BITS):
            raise ValueError(f"frame_index {self.frame_index} out of range")
        if not 1 <= self.qp <= 31:
            raise ValueError(f"qp {self.qp} out of range")
        if self.first_mb < 0 or self.mb_count < 1:
            raise ValueError("fragment must cover at least one macroblock")


def write_fragment_header(writer: BitWriter, header: FragmentHeader) -> None:
    writer.write_bits(FRAGMENT_MAGIC, 8)
    writer.write_bits(header.frame_index, _FRAME_INDEX_BITS)
    writer.write_bit(0 if header.frame_type is FrameType.I else 1)
    writer.write_bits(header.qp, _QP_BITS)
    write_ue(writer, header.first_mb)
    write_ue(writer, header.mb_count - 1)


def read_fragment_header(reader: BitReader) -> FragmentHeader:
    magic = reader.read_bits(8)
    if magic != FRAGMENT_MAGIC:
        raise BitstreamError(f"bad fragment magic 0x{magic:02x}")
    frame_index = reader.read_bits(_FRAME_INDEX_BITS)
    frame_type = FrameType.P if reader.read_bit() else FrameType.I
    qp = reader.read_bits(_QP_BITS)
    first_mb = read_ue(reader)
    mb_count = read_ue(reader) + 1
    try:
        return FragmentHeader(frame_index, frame_type, qp, first_mb, mb_count)
    except ValueError as error:
        # Corrupt bytes can pass the magic check yet carry impossible
        # field values (qp=0, ...); to the decoder that is a damaged
        # fragment, not a programming error.
        raise BitstreamError(f"corrupt fragment header: {error}") from error


def encode_macroblock_layer(
    writer: BitWriter,
    frame_type: FrameType,
    intra: np.ndarray,
    mvs: np.ndarray,
    levels: np.ndarray,
    *,
    allow_skip: bool = False,
) -> tuple[list[int], int, LayerSymbols]:
    """Write one frame's whole macroblock layer as a single codeword batch.

    The per-macroblock syntax is identical to chaining
    :func:`repro.codec.reference.encode_macroblock` (or the skippable
    variant) over the grid in raster order, but the entire frame — mode
    bits, motion vectors, COD bits and all coefficient events — is
    assembled as ``(value, width)`` arrays in numpy and packed by the
    writer in one operation.

    Args:
        intra: ``(mb_rows, mb_cols)`` bool grid of intra decisions.
        mvs: ``(mb_rows, mb_cols, 2)`` motion vectors as coded.
        levels: ``(mb_rows, mb_cols, n, 8, 8)`` quantized levels in
            H.263 block order (``n`` is 4 luma-only, 6 with chroma).

    Returns:
        ``(offsets, n_codewords, symbols)``.  ``offsets`` has one bit
        offset per macroblock plus a final entry for the total bit
        length (absolute, i.e. including whatever the writer already
        held): the packetizer's split points.  ``n_codewords`` counts
        the VLC codewords emitted (observability).  ``symbols`` are the
        coded symbols in the form the decoder's parse recovers them
        (:class:`~repro.codec.types.LayerSymbols`, taken from the same
        coefficient pass), which :func:`seed_parse_memo` turns into
        parses of the packetized fragments.
    """
    base = writer.bit_length
    intra_flat = np.asarray(intra, dtype=bool).reshape(-1)
    mb_count = intra_flat.size
    mvs_flat = np.asarray(mvs, dtype=np.int64).reshape(mb_count, 2)
    levels = np.asarray(levels)
    blocks_per_mb = levels.shape[2]
    blocks = levels.reshape(mb_count, blocks_per_mb, 8, 8)

    if frame_type is FrameType.I and not intra_flat.all():
        raise ValueError("I-frames may only contain intra macroblocks")

    skipped = np.zeros(mb_count, dtype=bool)
    if allow_skip and frame_type is FrameType.P:
        residual_zero = ~blocks.reshape(mb_count, -1).any(axis=1)
        skipped = (
            ~intra_flat & (mvs_flat == 0).all(axis=1) & residual_zero
        )

    # Coefficient codewords for every non-skipped macroblock, in order.
    active = ~skipped
    block_values, block_widths, bits_per_block, cw_per_block, events = (
        block_codewords(blocks[active].reshape(-1, 8, 8))
    )
    block_cw_per_mb = np.zeros(mb_count, dtype=np.int64)
    block_cw_per_mb[active] = cw_per_block.reshape(-1, blocks_per_mb).sum(
        axis=1
    )
    block_bits_per_mb = np.zeros(mb_count, dtype=np.int64)
    block_bits_per_mb[active] = bits_per_block.reshape(
        -1, blocks_per_mb
    ).sum(axis=1)

    # Per-macroblock header codewords (mode / COD bits, motion vectors)
    # as an (mb_count, 4) matrix whose first ``header_count`` columns
    # are real; the rest is masked off per macroblock.
    header_values = np.zeros((mb_count, 4), dtype=np.int64)
    header_widths = np.zeros((mb_count, 4), dtype=np.int64)
    header_count = np.zeros(mb_count, dtype=np.int64)
    if frame_type is FrameType.P:
        inter_flat = ~intra_flat
        mv_col = 0
        if allow_skip:
            header_values[:, 0] = skipped  # COD bit
            header_widths[:, 0] = 1
            header_values[:, 1] = intra_flat  # mode bit (coded MBs)
            header_widths[:, 1] = 1
            header_count = np.where(skipped, 1, np.where(inter_flat, 4, 2))
            mv_col = 2
        else:
            header_values[:, 0] = intra_flat  # mode bit
            header_widths[:, 0] = 1
            header_count = np.where(inter_flat, 3, 1)
            mv_col = 1
        carries_mv = inter_flat & active
        if carries_mv.any():
            mv_values_0, mv_widths_0 = se_codewords(mvs_flat[:, 0])
            mv_values_1, mv_widths_1 = se_codewords(mvs_flat[:, 1])
            header_values[carries_mv, mv_col] = mv_values_0[carries_mv]
            header_widths[carries_mv, mv_col] = mv_widths_0[carries_mv]
            header_values[carries_mv, mv_col + 1] = mv_values_1[carries_mv]
            header_widths[carries_mv, mv_col + 1] = mv_widths_1[carries_mv]
    header_mask = np.arange(4)[None, :] < header_count[:, None]
    header_bits_per_mb = np.where(header_mask, header_widths, 0).sum(axis=1)

    # Interleave: each macroblock's header codewords, then its block
    # codewords.  Both sub-streams are already in macroblock order, so
    # scattering the headers into their slots leaves exactly the block
    # positions for the coefficient stream.
    cw_per_mb = header_count + block_cw_per_mb
    n_codewords = int(cw_per_mb.sum())
    values = np.empty(n_codewords, dtype=np.int64)
    widths = np.empty(n_codewords, dtype=np.int64)
    mb_starts = np.concatenate([[0], np.cumsum(cw_per_mb)[:-1]])
    header_starts = np.concatenate([[0], np.cumsum(header_count)[:-1]])
    n_header = int(header_count.sum())
    if n_header:
        header_positions = (
            np.repeat(mb_starts, header_count)
            + np.arange(n_header)
            - np.repeat(header_starts, header_count)
        )
        is_header = np.zeros(n_codewords, dtype=bool)
        is_header[header_positions] = True
        values[header_positions] = header_values[header_mask]
        widths[header_positions] = header_widths[header_mask]
        values[~is_header] = block_values
        widths[~is_header] = block_widths
    else:
        values[:] = block_values
        widths[:] = block_widths

    writer.write_codewords(values, widths)

    bits_per_mb = header_bits_per_mb + block_bits_per_mb
    offsets = np.empty(mb_count + 1, dtype=np.int64)
    offsets[0] = base
    np.cumsum(bits_per_mb, out=offsets[1:])
    offsets[1:] += base

    # The same symbols in parse form: events renumbered from the coded
    # blocks onto the frame's block grid (skipped macroblocks code none).
    block_index, scan_position, ev_levels = events
    event_mb = np.flatnonzero(active)[block_index // blocks_per_mb]
    ev_index = (
        event_mb * blocks_per_mb + block_index % blocks_per_mb
    ) * 64 + zigzag_order()[scan_position]
    ev_offsets = np.zeros(mb_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(event_mb, minlength=mb_count), out=ev_offsets[1:])
    meta = np.zeros((mb_count, 3), dtype=np.int16)
    meta[:, 0] = intra_flat
    meta[~intra_flat, 1:] = mvs_flat[~intra_flat]
    symbols = LayerSymbols(
        meta, ev_index.astype(np.int32), ev_levels, ev_offsets
    )
    return [int(offset) for offset in offsets], n_codewords, symbols


_MASK64 = (1 << 64) - 1


def _parse_macroblock_fast(
    words: list,
    total: int,
    p: int,
    is_p: bool,
    read_cod: bool,
    blocks_per_mb: int,
    block_base: int,
    block_ids: list,
    block_counts: list,
    ev_positions: list,
    ev_levels: list,
) -> tuple[int, bool, int, int]:
    """Parse one macroblock's syntax off a 64-bit word index.

    Pure-integer transliteration of the sequential readers
    :func:`repro.codec.reference.decode_macroblock` /
    :func:`~repro.codec.reference.decode_macroblock_skippable`: raises
    :class:`BitstreamError` at exactly the bit positions the sequential
    reader would, so the decoder's salvage prefix is unchanged.
    Coefficient events append (zigzag position, level) to the shared
    accumulators; each coded block contributes one ``(global block
    index, event count)`` pair so the caller can scatter everything in
    one batch.

    Returns ``(next_bit_position, intra, mv_y, mv_x)``.
    """
    if read_cod:
        if p >= total:
            raise BitstreamError("bitstream exhausted")
        if (words[p >> 3] >> (63 - (p & 7))) & 1:
            return p + 1, False, 0, 0  # COD: skipped macroblock
        p += 1
    if is_p:
        if p >= total:
            raise BitstreamError("bitstream exhausted")
        intra = (words[p >> 3] >> (63 - (p & 7))) & 1 == 1
        p += 1
    else:
        intra = True
    mv_y = mv_x = 0
    if is_p and not intra:
        for which in (0, 1):
            if p >= total:
                raise BitstreamError("bitstream exhausted")
            window = (words[p >> 3] << (p & 7)) & _MASK64
            zeros = 64 - window.bit_length()
            if zeros > 32:
                raise BitstreamError(
                    "Exp-Golomb prefix too long (corrupt stream)"
                )
            if p + 2 * zeros + 1 > total:
                raise BitstreamError("bitstream exhausted")
            if zeros <= 28:
                # The whole codeword (zeros + 1 + zeros payload bits)
                # fits in the window's >= 57 visible bits: its top
                # 2*zeros+1 bits ARE (1 << zeros) | payload.
                mapped = (window >> (63 - 2 * zeros)) - 1
                p += 2 * zeros + 1
            else:
                q = p + zeros + 1
                mapped = (
                    (1 << zeros)
                    | (
                        (words[q >> 3] >> (64 - (q & 7) - zeros))
                        & ((1 << zeros) - 1)
                    )
                ) - 1
                p = q + zeros
            magnitude = (mapped + 1) >> 1
            value = magnitude if mapped & 1 else -magnitude
            if which:
                mv_x = value
            else:
                mv_y = value
    append_position = ev_positions.append
    append_level = ev_levels.append
    for block in range(blocks_per_mb):
        if p >= total:
            raise BitstreamError("bitstream exhausted")
        coded = (words[p >> 3] >> (63 - (p & 7))) & 1
        p += 1
        if not coded:
            continue
        n_events = 0
        position = -1
        while True:
            # run: ue(v)
            if p >= total:
                raise BitstreamError("bitstream exhausted")
            window = (words[p >> 3] << (p & 7)) & _MASK64
            zeros = 64 - window.bit_length()
            if zeros > 32:
                raise BitstreamError(
                    "Exp-Golomb prefix too long (corrupt stream)"
                )
            if p + 2 * zeros + 1 > total:
                raise BitstreamError("bitstream exhausted")
            if zeros <= 28:
                run = (window >> (63 - 2 * zeros)) - 1
                p += 2 * zeros + 1
            else:
                q = p + zeros + 1
                run = (
                    (1 << zeros)
                    | (
                        (words[q >> 3] >> (64 - (q & 7) - zeros))
                        & ((1 << zeros) - 1)
                    )
                ) - 1
                p = q + zeros
            # level: se(v), with the trailing LAST bit folded into the
            # same window fetch when both fit in its visible bits
            if p >= total:
                raise BitstreamError("bitstream exhausted")
            window = (words[p >> 3] << (p & 7)) & _MASK64
            zeros = 64 - window.bit_length()
            if zeros > 32:
                raise BitstreamError(
                    "Exp-Golomb prefix too long (corrupt stream)"
                )
            if p + 2 * zeros + 1 > total:
                raise BitstreamError("bitstream exhausted")
            if zeros <= 27 and p + 2 * zeros + 2 <= total:
                mapped = (window >> (63 - 2 * zeros)) - 1
                last = (window >> (62 - 2 * zeros)) & 1
                p += 2 * zeros + 2
                if mapped == 0:
                    raise BitstreamError("run-level event with zero level")
            else:
                q = p + zeros + 1
                if zeros:
                    mapped = (
                        (1 << zeros)
                        | (
                            (words[q >> 3] >> (64 - (q & 7) - zeros))
                            & ((1 << zeros) - 1)
                        )
                    ) - 1
                    q += zeros
                else:
                    mapped = 0
                p = q
                if mapped == 0:
                    raise BitstreamError("run-level event with zero level")
                # LAST bit
                if p >= total:
                    raise BitstreamError("bitstream exhausted")
                last = (words[p >> 3] >> (63 - (p & 7))) & 1
                p += 1
            magnitude = (mapped + 1) >> 1
            level = magnitude if mapped & 1 else -magnitude
            position += run + 1
            if position >= 64:
                raise BitstreamError(
                    f"run-level overrun: position {position} >= 64"
                )
            append_position(position)
            append_level(level)
            n_events += 1
            if last:
                break
        block_ids.append(block_base + block)
        block_counts.append(n_events)
    return p, intra, mv_y, mv_x


class ParseMemo(dict):
    """Batch-VLD parses keyed by exact fragment bytes and parse arguments.

    The variable-length decode is a pure function of the payload bytes
    and the arguments of :func:`decode_macroblock_layer`
    (:func:`parse_memo_key`), so it need not run on bytes whose parse
    is already known.  The encoder seeds the memo with every fragment
    it packetizes (:func:`seed_parse_memo`), so an intact fragment is
    never parsed at all; a damaged one, or one of a stream encoded
    elsewhere (a cache), is parsed once and replayed for every other
    decoder of the memo.  Values are :class:`_LayerParse` records,
    read-only, which every lookup returns as they are.  The
    grid runner scopes one memo to the encode and the cells of one
    encode group, or parks it with the group's cached stream
    (:meth:`retain` then bounds it); :func:`~repro.sim.pipeline.simulate`
    scopes one to one run.
    """

    def retain(self, payloads: Iterable[bytes]) -> None:
        """Keep only the parses of ``payloads`` made with a reference.

        That is at most one entry per payload: the one a decoder with a
        reference looks the payload up by, which is also the key
        :func:`seed_parse_memo` stores (:func:`parse_memo_key` takes
        every other part of the key from the bytes or from the codec
        config, which a memo's stream fixes).  Parses of damaged bytes,
        and of P-frames decoded without a reference, are dropped.
        """
        sent = set(payloads)
        for key in [key for key in self if key[0] not in sent or not key[6]]:
            del self[key]


class _LayerParse(NamedTuple):
    """One fragment's batch-VLD outcome, as coefficient events.

    ``end`` is the bit position the reader is left at; ``meta`` holds
    one ``(intra, mv_y, mv_x)`` row per salvaged macroblock; ``ev_index``
    and ``ev_levels`` list every coefficient event as (raster index into
    the flattened coefficient array, level).  The arrays are read-only
    and compact (see :func:`_compact`).
    """

    end: int
    meta: np.ndarray
    ev_index: np.ndarray
    ev_levels: np.ndarray


def parse_memo_key(
    data: bytes,
    start: int,
    frame_type: FrameType,
    mb_count: int,
    blocks_per_mb: int,
    *,
    allow_skip: bool,
    allow_inter: bool,
    mv_limit: int | None,
) -> tuple:
    """The :class:`ParseMemo` key of one :func:`decode_macroblock_layer` call.

    The exact bytes, the start bit and every argument that can change
    the parse.  An I-frame's macroblocks are all intra, which neither
    ``allow_inter`` nor ``mv_limit`` can reject, so both are normalised
    out of I-frame keys: one parse serves a decoder with no reference
    (``allow_inter=False``) and one with.
    """
    is_p = frame_type is FrameType.P
    if not is_p:
        allow_inter, mv_limit = True, None
    return (
        bytes(data),
        start,
        is_p,
        mb_count,
        blocks_per_mb,
        allow_skip and is_p,
        allow_inter,
        mv_limit,
    )


def seed_parse_memo(
    memo: ParseMemo,
    frame: EncodedFrame,
    payloads: Iterable[bytes],
    config: CodecConfig,
) -> None:
    """Store the parse of each of ``frame``'s fragments without parsing.

    ``payloads`` must be the packetizer's fragments of ``frame``.  Each
    gets the :class:`_LayerParse` a cold :func:`decode_macroblock_layer`
    would store under the key a :class:`~repro.codec.decoder.Decoder`
    with a reference looks it up by, sliced from ``frame.symbols`` by
    the fragment's macroblock span, with its bit length from
    ``frame.mb_bit_offsets``.  A frame without ``symbols`` (bytes the
    symbols no longer describe) gets no seeds, and a fragment with a
    vector beyond ``config.mv_limit`` (which a cold parse would cut
    short) is left to the decoder.
    """
    symbols = frame.symbols
    if symbols is None:
        return
    offsets = frame.mb_bit_offsets
    block_values = config.blocks_per_mb * 64
    for payload in payloads:
        reader = BitReader(payload)
        header = read_fragment_header(reader)
        start = reader.bits_consumed
        first = header.first_mb
        stop = first + header.mb_count
        meta = symbols.meta[first:stop]
        if np.abs(meta[:, 1:]).max(initial=0) > config.mv_limit:
            continue
        low, high = symbols.ev_offsets[first], symbols.ev_offsets[stop]
        key = parse_memo_key(
            payload,
            start,
            header.frame_type,
            header.mb_count,
            config.blocks_per_mb,
            allow_skip=config.allow_skip,
            allow_inter=True,
            mv_limit=config.mv_limit,
        )
        memo[key] = _LayerParse(
            start + offsets[stop] - offsets[first],
            _compact(meta),
            _compact(symbols.ev_index[low:high] - first * block_values),
            _compact(symbols.ev_levels[low:high]),
        )


def _compact(values) -> np.ndarray:
    """Integers as a read-only array of the narrowest exact dtype.

    Picks int16, int32 or int64, whichever first holds every value, so
    a group's memo stays small and no stored value can wrap.
    """
    array = np.asarray(values, dtype=np.int64)
    for dtype in (np.int16, np.int32, np.int64):
        limits = np.iinfo(dtype)
        if not array.size or (
            array.min() >= limits.min and array.max() <= limits.max
        ):
            break
    array = array.astype(dtype)
    array.flags.writeable = False
    return array


def decode_macroblock_layer(
    reader: BitReader,
    frame_type: FrameType,
    mb_count: int,
    blocks_per_mb: int = 4,
    *,
    allow_skip: bool = False,
    allow_inter: bool = True,
    mv_limit: int | None = None,
    memo: ParseMemo | None = None,
) -> _LayerParse:
    """Batch VLD of up to ``mb_count`` macroblocks (the decoder fast path).

    Bit-identical to looping :func:`repro.codec.reference.decode_macroblock`
    (or the skippable variant), but the grammar runs over a precomputed
    64-bit word index of the payload with plain integer arithmetic — no
    per-codeword method dispatch.  The salvaged macroblocks come back as
    one :class:`_LayerParse` (mode and vector rows plus coefficient
    events, never scattered into per-macroblock arrays), which the
    decoder batches with the other fragments of the frame.

    Decoding stops at the first corrupt codeword, or — when the
    validation arguments say so — at the first macroblock that cannot
    be predicted (``allow_inter=False`` with an inter macroblock, or a
    motion vector beyond ``mv_limit``).  Either way the decoded prefix
    is returned and the reader is left positioned after the last
    macroblock whose bits were consumed, matching the sequential
    decoder's salvage semantics and bit accounting.

    A level beyond the int32 coefficient range raises
    :class:`OverflowError` after the reader has moved, and nothing is
    stored.  With a ``memo``, a parse of the same bytes from the same
    bit position with the same arguments is replayed instead of re-run;
    the result (parse, reader position, exceptions) is the same either
    way, and a replay returns the stored read-only record itself.
    """
    if blocks_per_mb not in (4, 6):
        raise ValueError(f"blocks_per_mb must be 4 or 6, got {blocks_per_mb}")
    data = reader.data
    start = reader.bits_consumed
    is_p = frame_type is FrameType.P
    read_cod = allow_skip and is_p
    if memo is not None:
        key = parse_memo_key(
            data,
            start,
            frame_type,
            mb_count,
            blocks_per_mb,
            allow_skip=allow_skip,
            allow_inter=allow_inter,
            mv_limit=mv_limit,
        )
        parse = memo.get(key)
        if parse is not None:
            reader.skip_bits(parse.end - start)
            return parse
    total = len(data) * 8
    words = build_word_index(data)
    p = start
    meta: list[tuple[bool, int, int]] = []
    block_ids: list[int] = []
    block_counts: list[int] = []
    ev_positions: list[int] = []
    ev_levels: list[int] = []
    for _ in range(mb_count):
        n_events = len(ev_levels)
        n_blocks = len(block_ids)
        try:
            p_next, intra, mv_y, mv_x = _parse_macroblock_fast(
                words,
                total,
                p,
                is_p,
                read_cod,
                blocks_per_mb,
                len(meta) * blocks_per_mb,
                block_ids,
                block_counts,
                ev_positions,
                ev_levels,
            )
        except BitstreamError:
            # VLC desync: drop the partial macroblock, bits before it
            # stay consumed.
            del block_ids[n_blocks:]
            del block_counts[n_blocks:]
            del ev_positions[n_events:]
            del ev_levels[n_events:]
            break
        p = p_next
        if not intra and (
            not allow_inter
            or (
                mv_limit is not None
                and (
                    mv_y > mv_limit
                    or mv_y < -mv_limit
                    or mv_x > mv_limit
                    or mv_x < -mv_limit
                )
            )
        ):
            # Unpredictable macroblock: its bits were consumed (like the
            # sequential decoder, which parses before validating) but it
            # is not part of the salvaged prefix.
            del block_ids[n_blocks:]
            del block_counts[n_blocks:]
            del ev_positions[n_events:]
            del ev_levels[n_events:]
            break
        meta.append((intra, mv_y, mv_x))
    reader.skip_bits(p - start)

    # Each event lands at its block's base plus the raster position of
    # its zigzag index, so the scatter yields natural order directly.
    ev_index = (
        np.repeat(
            np.asarray(block_ids, dtype=np.int64) * 64,
            np.asarray(block_counts, dtype=np.int64),
        )
        + zigzag_order()[ev_positions]
        if ev_levels
        else ()
    )
    levels = _compact(ev_levels)
    if levels.dtype == np.int64:
        # Wider than the int32 coefficients the decoder reconstructs.
        raise OverflowError("coefficient level beyond the int32 range")
    parse = _LayerParse(p, _compact(meta), _compact(ev_index), levels)
    if memo is not None:
        memo[key] = parse
    return parse
