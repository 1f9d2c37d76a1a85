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
from repro.codec.entropy import exp_golomb_bits, read_ue, se_codes, write_ue
from repro.codec.types import CodecConfig, EncodedFrame, FrameType, LayerSymbols
from repro.codec.zigzag import inverse_zigzag_order, zigzag_order

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

    The bits are identical to chaining
    :func:`repro.codec.reference.encode_macroblock` (or the skippable
    variant) over the grid in raster order, but the frame is assembled
    as ``(value, width)`` arrays in numpy and packed by the writer in
    one operation.  Fields that always travel together share one
    codeword: a P-frame macroblock's COD bit, mode bit and motion
    vector form one header codeword, and each coefficient event's
    ``ue(run)``, ``se(level)`` and LAST bit another.  Only quantizer
    output reaches the layer (``|level| <= 127``, intra DC up to 254),
    so an event codeword is at most 31 bits wide; a wider one raises
    :class:`ValueError`.

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
        the logical VLC codewords (each Exp-Golomb field, mode, COD,
        coded-block and LAST bit; observability), not the merged
        entries the writer packs.  ``symbols`` are the coded symbols
        in the form the decoder's parse recovers them
        (:class:`~repro.codec.types.LayerSymbols`, taken from the same
        coefficient pass), which :func:`seed_parse_memo` turns into
        parses of the packetized fragments.
    """
    base = writer.bit_length
    intra_flat = np.asarray(intra, dtype=bool).reshape(-1)
    mb_count = intra_flat.size
    levels = np.asarray(levels)
    blocks_per_mb = levels.shape[2]
    is_p = frame_type is FrameType.P
    if not is_p and not intra_flat.all():
        raise ValueError("I-frames may only contain intra macroblocks")

    # Coefficient events keyed ``block * 64 + zigzag position``: a frame
    # codes few coefficients, so sorting them is cheaper than scanning
    # every coefficient in zigzag order.
    flat = levels.reshape(-1)
    ev_key = np.flatnonzero(flat != 0)
    ev_key = (ev_key & -64) | inverse_zigzag_order()[ev_key & 63]
    ev_key.sort()
    block_start = ev_key & -64
    scan_position = ev_key - block_start
    ev_index = block_start | zigzag_order()[scan_position]
    ev_levels = flat[ev_index].astype(np.int64)
    n_events = ev_key.size
    block_index = ev_key >> 6
    event_mb = block_index // blocks_per_mb
    ev_offsets = np.zeros(mb_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(event_mb, minlength=mb_count), out=ev_offsets[1:])

    # One codeword per event: ue(run) se(level) LAST.  An Exp-Golomb
    # field is its code number plus one, in 2 * bit_length - 1 bits.
    # run + 1 is the key's distance from the previous event's key in
    # the block, or from one before the block's first key.
    previous = np.empty(n_events, dtype=np.int64)
    previous[:1] = -1
    previous[1:] = ev_key[:-1]
    np.maximum(previous, block_start - 1, out=previous)
    run_code = ev_key - previous  # run + 1
    first = run_code > scan_position  # the first event of its block
    last = np.ones(n_events, dtype=np.int64)
    last[:-1] = first[1:]
    level_code = se_codes(ev_levels)
    level_bits = exp_golomb_bits(level_code)
    ev_widths = 2 * (exp_golomb_bits(run_code) + level_bits) - 1
    ev_values = (run_code << 2 * level_bits) | (level_code << 1) | last
    if n_events and ev_widths.max() > 64:
        raise ValueError("coefficient level too wide for one codeword")

    # One header codeword per P-frame macroblock: [COD] mode [mv_y mv_x].
    # Without a vector it is a single one bit (skipped: COD; intra: the
    # mode bit, after a zero COD bit when the codec skips).
    skipped = np.zeros(mb_count, dtype=bool)
    header_widths = np.zeros(mb_count, dtype=np.int64)
    n_header_fields = 0
    if is_p:
        mvs_flat = np.asarray(mvs, dtype=np.int64).reshape(mb_count, 2)
        if allow_skip:
            skipped = (
                ~intra_flat
                & ~mvs_flat.any(axis=1)
                & (ev_offsets[1:] == ev_offsets[:-1])
            )
        carries_mv = ~intra_flat & ~skipped
        mv_code = se_codes(mvs_flat)
        mv_widths = 2 * exp_golomb_bits(mv_code) - 1
        header_values = np.where(
            carries_mv, (mv_code[:, 0] << mv_widths[:, 1]) | mv_code[:, 1], 1
        )
        header_widths = (
            np.where(carries_mv, mv_widths.sum(axis=1), 0)
            + (1 + allow_skip)
            - skipped
        )
        if header_widths.max() > 64:
            raise ValueError("motion vector too wide for one codeword")
        n_header_fields = (
            (1 + allow_skip) * mb_count
            - int(skipped.sum())
            + 2 * int(carries_mv.sum())
        )

    # Placement: each macroblock's header, then per block its coded-block
    # flag followed by its events (a skipped macroblock has neither).
    # Every entry not written below is an uncoded block's zero flag.
    mb_index = np.arange(mb_count)
    # Per macroblock: its header and the earlier headers, less the flags
    # the skipped macroblocks before it do not have.
    skipped_before = np.cumsum(skipped) - skipped
    shift = is_p * (mb_index + 1) - blocks_per_mb * skipped_before
    n_active_blocks = blocks_per_mb * (mb_count - int(skipped.sum()))
    n_entries = is_p * mb_count + n_active_blocks + n_events
    values = np.zeros(n_entries, dtype=np.int64)
    widths = np.ones(n_entries, dtype=np.int64)
    # An event follows every earlier event, the flags of its block and
    # of the blocks before it, and the headers up to its macroblock's.
    ev_positions = np.arange(1, n_events + 1) + block_index + shift[event_mb]
    values[ev_positions] = ev_values
    widths[ev_positions] = ev_widths
    values[ev_positions[first] - 1] = 1  # coded-block flags
    if is_p:
        mb_starts = shift - 1 + blocks_per_mb * mb_index + ev_offsets[:-1]
        values[mb_starts] = header_values
        widths[mb_starts] = header_widths
    writer.write_codewords(values, widths)

    # Bit offsets: headers and flags per macroblock, events by prefix sum.
    offsets = np.zeros(mb_count + 1, dtype=np.int64)
    np.cumsum(header_widths + blocks_per_mb * ~skipped, out=offsets[1:])
    event_bits = np.zeros(n_events + 1, dtype=np.int64)
    np.cumsum(ev_widths, out=event_bits[1:])
    offsets += event_bits[ev_offsets] + base

    meta = np.zeros((mb_count, 3), dtype=np.int16)
    meta[:, 0] = intra_flat
    if is_p:
        meta[~intra_flat, 1:] = mvs_flat[~intra_flat]
    symbols = LayerSymbols(
        meta, ev_index.astype(np.int32), ev_levels, ev_offsets
    )
    n_codewords = n_header_fields + n_active_blocks + 3 * n_events
    return offsets.tolist(), n_codewords, symbols


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
    fragments: Iterable[tuple[bytes, int, int, int]],
    config: CodecConfig,
) -> None:
    """Store the parse of each of ``frame``'s fragments without parsing.

    ``fragments`` are the packetizer's cuts of ``frame``, each as
    ``(payload, start, first_mb, mb_count)``: the bytes, the bit the
    macroblock layer starts at and the macroblock span the header
    names, so no header is read back.  Each gets the
    :class:`_LayerParse` a cold :func:`decode_macroblock_layer` would
    store under the key a :class:`~repro.codec.decoder.Decoder` with a
    reference looks it up by, sliced from ``frame.symbols`` by the
    span, with its bit length from ``frame.mb_bit_offsets``.  A frame
    without ``symbols`` (bytes the symbols no longer describe) gets no
    seeds, and a fragment with a vector beyond ``config.mv_limit``
    (which a cold parse would cut short) is left to the decoder.
    """
    symbols = frame.symbols
    if symbols is None:
        return
    offsets = frame.mb_bit_offsets
    block_values = config.blocks_per_mb * 64
    for payload, start, first, mb_count in fragments:
        stop = first + mb_count
        meta = symbols.meta[first:stop]
        if np.abs(meta[:, 1:]).max(initial=0) > config.mv_limit:
            continue
        low, high = symbols.ev_offsets[first], symbols.ev_offsets[stop]
        key = parse_memo_key(
            payload,
            start,
            frame.frame_type,
            mb_count,
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


#: The dtypes :func:`_compact` picks from, narrowest first, with bounds.
_COMPACT_DTYPES = tuple(
    (dtype, int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    for dtype in (np.int16, np.int32, np.int64)
)


def _compact(values) -> np.ndarray:
    """Integers as a read-only array of the narrowest exact dtype.

    Picks int16, int32 or int64, whichever first holds every value, so
    a group's memo stays small and no stored value can wrap.
    """
    array = np.asarray(values, dtype=np.int64)
    low = int(array.min(initial=0))
    high = int(array.max(initial=0))
    for dtype, lowest, highest in _COMPACT_DTYPES:
        if lowest <= low and high <= highest:
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
