"""Word-level bitstream writer and reader.

The VLC layer of the codec needs true bit-granular I/O: the paper's error
model operates on the resulting byte stream, and the decoder must detect
truncated or corrupt streams gracefully (a single bit error in VLC data
desynchronizes everything after it — the motivation for intra refresh).

Both ends used to work one bit at a time; profiling showed that made
entropy coding the dominant cost of the whole pipeline (~600k Python
calls for 8 QCIF frames).  The substrate is now word-level but
**bit-identical**:

* :class:`BitWriter` accumulates MSB-first into an unbounded integer and
  flushes full bytes in bulk via ``int.to_bytes``; whole codeword
  batches arrive as ``(value, width)`` arrays and are OR-ed straight
  into 64-bit words in numpy (:meth:`BitWriter.write_codewords`), one
  ``np.bitwise_or.reduceat`` per batch.
* :class:`BitReader` refills a 64-bit window from the byte string and
  serves ``read_bits``/``read_unary``/``read_exp_golomb`` by shifting
  that window, using a precomputed 256-entry leading-zero table to scan
  Exp-Golomb prefixes a byte at a time.  It raises
  :class:`BitstreamError` instead of returning garbage when the stream
  ends early, so the decoder can fall back to concealment.
* :func:`append_bit_slice` copies arbitrary bit ranges through one
  big-integer shift instead of a per-bit loop (the packetizer's hot
  path).
"""

from __future__ import annotations

import numpy as np

#: Flush the writer's pending integer once it holds this many bits, so
#: it stays a few machine words instead of growing without bound.
_FLUSH_THRESHOLD = 4096

#: Leading zeros of each byte value (8 for 0) — the Exp-Golomb prefix
#: scanner consumes zero runs one table lookup per byte.
_LEADING_ZEROS_8 = tuple(8 - value.bit_length() for value in range(256))


class BitstreamError(Exception):
    """Raised when a bitstream is exhausted or structurally invalid."""


class BitWriter:
    """Accumulates bits most-significant-bit first."""

    __slots__ = ("_buffer", "_pending", "_pending_bits", "_total_bits")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pending = 0  # the last _pending_bits bits, MSB-first
        self._pending_bits = 0
        self._total_bits = 0

    @property
    def bit_length(self) -> int:
        """Number of bits written so far (before padding)."""
        return self._total_bits

    def _flush_full_bytes(self) -> None:
        remainder = self._pending_bits & 7
        n_bytes = (self._pending_bits - remainder) >> 3
        if n_bytes:
            self._buffer += (self._pending >> remainder).to_bytes(n_bytes, "big")
            self._pending &= (1 << remainder) - 1
            self._pending_bits = remainder

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        self._pending = (self._pending << 1) | int(bit)
        self._pending_bits += 1
        self._total_bits += 1
        if self._pending_bits >= _FLUSH_THRESHOLD:
            self._flush_full_bytes()

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of the unsigned integer ``value``."""
        value = int(value)
        width = int(width)
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._pending = (self._pending << width) | value
        self._pending_bits += width
        self._total_bits += width
        if self._pending_bits >= _FLUSH_THRESHOLD:
            self._flush_full_bytes()

    def write_codewords(self, values: np.ndarray, widths: np.ndarray) -> None:
        """Append a batch of ``(value, width)`` codewords MSB-first.

        The codewords are OR-ed straight into 64-bit big-endian words.
        Each is shifted into place in the word its first bit falls in
        and one ``np.bitwise_or.reduceat`` merges every word's share; a
        codeword that crosses into the next word (at most one per word
        boundary) leaves its low bits there with one more OR.  Widths
        must lie in ``[1, 64]`` and values must fit them.
        """
        widths = np.asarray(widths, dtype=np.int64)
        if widths.size == 0:
            return
        values = np.asarray(values).astype(np.uint64, copy=False)
        self._flush_full_bytes()
        lead = self._pending_bits  # at most 7 bits precede the batch
        ends = np.cumsum(widths) + lead
        total = int(ends[-1])
        word = (ends - widths) >> 6
        # Each codeword's end, counted from its own word's first bit.
        end_in_word = ends - (word << 6)
        placed = values << np.maximum(64 - end_in_word, 0).astype(np.uint64)
        spill = np.flatnonzero(end_in_word > 64)
        over = (end_in_word[spill] - 64).astype(np.uint64)
        placed[spill] = values[spill] >> over
        # Every word up to the last codeword's first holds a codeword
        # start (no codeword is wider than a word), so each of those
        # words' first codeword opens one reduceat segment.
        first = np.searchsorted(word, np.arange(word[-1] + 1))
        words = np.zeros((total + 63) >> 6, dtype=np.uint64)
        words[: first.size] = np.bitwise_or.reduceat(placed, first)
        words[word[spill] + 1] |= values[spill] << (64 - over)
        if lead:
            words[0] |= np.uint64(self._pending << (64 - lead))
        data = words.astype(">u8").tobytes()
        n_bytes = total >> 3
        self._buffer += data[:n_bytes]
        self._pending_bits = total & 7
        self._pending = (
            data[n_bytes] >> (8 - self._pending_bits) if self._pending_bits else 0
        )
        self._total_bits += total - lead

    def getvalue(self) -> bytes:
        """Return the stream padded with zero bits to a byte boundary."""
        out = bytearray(self._buffer)
        if self._pending_bits:
            pad = (-self._pending_bits) & 7
            out += (self._pending << pad).to_bytes(
                (self._pending_bits + pad) >> 3, "big"
            )
        return bytes(out)


def build_word_index(data: bytes) -> list[int]:
    """64-bit big-endian windows of ``data`` at every byte offset.

    ``words[b]`` holds bits ``[8 b, 8 b + 64)`` of the stream, zero-padded
    past the end: the random-access view the batch VLD walks with plain
    integer arithmetic instead of a stateful reader window.  Because the
    padding is all zeros, a one bit found in any window is always a real
    data bit.
    """
    if not data:
        return []
    arr = np.frombuffer(data, dtype=np.uint8)
    padded = np.concatenate([arr, np.zeros(8, dtype=np.uint8)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, 8)[: arr.size]
    weights = np.array([1 << (8 * i) for i in range(7, -1, -1)], dtype=np.uint64)
    return (windows * weights).sum(axis=1, dtype=np.uint64).tolist()


class BitReader:
    """Reads bits MSB-first from a byte string via a word-sized window."""

    __slots__ = ("_data", "_size", "_byte_pos", "_window", "_window_bits")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._size = len(data)
        self._byte_pos = 0  # bytes already pulled into the window
        self._window = 0  # the next _window_bits bits, MSB-first
        self._window_bits = 0

    @property
    def data(self) -> bytes:
        """The underlying byte string (for batch decoders that index it)."""
        return self._data

    @property
    def bits_consumed(self) -> int:
        return self._byte_pos * 8 - self._window_bits

    @property
    def bits_remaining(self) -> int:
        return self._size * 8 - self.bits_consumed

    def _refill(self) -> None:
        """Pull up to eight more bytes into the (near-empty) window."""
        take = self._size - self._byte_pos
        if take > 8:
            take = 8
        chunk = self._data[self._byte_pos : self._byte_pos + take]
        self._window = (self._window << (take * 8)) | int.from_bytes(
            chunk, "big"
        )
        self._window_bits += take * 8
        self._byte_pos += take

    def read_bit(self) -> int:
        window_bits = self._window_bits
        if not window_bits:
            if self._byte_pos >= self._size:
                raise BitstreamError("bitstream exhausted")
            self._refill()
            window_bits = self._window_bits
        window_bits -= 1
        bit = self._window >> window_bits
        self._window &= (1 << window_bits) - 1
        self._window_bits = window_bits
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        width = int(width)
        if width < 0:
            raise ValueError("width must be >= 0")
        if width > self.bits_remaining:
            raise BitstreamError(
                f"requested {width} bits, only {self.bits_remaining} remain"
            )
        value = 0
        remaining = width
        while remaining:
            window_bits = self._window_bits
            if not window_bits:
                self._refill()
                window_bits = self._window_bits
            take = window_bits if window_bits < remaining else remaining
            window_bits -= take
            value = (value << take) | (self._window >> window_bits)
            self._window &= (1 << window_bits) - 1
            self._window_bits = window_bits
            remaining -= take
        return value

    def skip_bits(self, width: int) -> None:
        """Advance past ``width`` bits without interpreting them."""
        if width > self.bits_remaining:
            raise BitstreamError(
                f"cannot skip {width} bits, only {self.bits_remaining} remain"
            )
        consumed = self.bits_consumed + width
        byte_pos, bit_offset = divmod(consumed, 8)
        if bit_offset:
            self._byte_pos = byte_pos + 1
            self._window_bits = 8 - bit_offset
            self._window = self._data[byte_pos] & ((1 << self._window_bits) - 1)
        else:
            self._byte_pos = byte_pos
            self._window = 0
            self._window_bits = 0

    def _count_prefix_zeros(self, limit: int) -> int:
        """Consume a zero run and its terminating one bit; return the run.

        Scans the window at most a byte per step through the precomputed
        leading-zero table.  Raises :class:`BitstreamError` once the run
        exceeds ``limit`` zeros (corrupt stream) or the data ends before
        the terminating one bit.
        """
        zeros = 0
        while True:
            window_bits = self._window_bits
            if not window_bits:
                if self._byte_pos >= self._size:
                    raise BitstreamError("bitstream exhausted")
                self._refill()
                window_bits = self._window_bits
            window = self._window
            peek = window_bits if window_bits < 8 else 8
            chunk = (window >> (window_bits - peek)) << (8 - peek)
            leading = _LEADING_ZEROS_8[chunk]
            if leading >= peek:
                # Every peeked bit is zero: consume them and keep going.
                zeros += peek
                self._window_bits = window_bits - peek
                self._window = window & ((1 << self._window_bits) - 1)
            else:
                zeros += leading
                # Consume the zeros and the terminating one bit.
                self._window_bits = window_bits - leading - 1
                self._window = window & ((1 << self._window_bits) - 1)
            if zeros > limit:
                raise BitstreamError(
                    f"zero run exceeded {limit} (corrupt stream)"
                )
            if leading < peek:
                return zeros

    def read_unary(self, max_zeros: int = 64) -> int:
        """Read a unary codeword; guards against runaway zero runs.

        A corrupt stream can contain an implausibly long zero run; the
        guard turns that into a :class:`BitstreamError` rather than an
        unbounded scan.
        """
        try:
            return self._count_prefix_zeros(max_zeros)
        except BitstreamError as error:
            if "zero run exceeded" in str(error):
                raise BitstreamError(
                    f"unary run exceeded {max_zeros} zeros"
                ) from None
            raise

    def read_exp_golomb(self) -> int:
        """Read one unsigned Exp-Golomb codeword (the VLD fast path).

        Equivalent to counting the zero prefix bit by bit and then
        reading ``zeros + 1`` payload bits, but the prefix scan runs a
        byte at a time off the leading-zero table.  A prefix longer than
        32 zeros is rejected as corrupt.
        """
        try:
            zeros = self._count_prefix_zeros(32)
        except BitstreamError as error:
            if "zero run exceeded" in str(error):
                raise BitstreamError(
                    "Exp-Golomb prefix too long (corrupt stream)"
                ) from None
            raise
        if not zeros:
            return 0
        return ((1 << zeros) | self.read_bits(zeros)) - 1


def append_bit_slice(
    writer: BitWriter, data: bytes, start_bit: int, n_bits: int
) -> None:
    """Append bits ``[start_bit, start_bit + n_bits)`` of ``data`` to a writer.

    Used by the packetizer to split a frame's macroblock layer at
    (bit-granular) macroblock boundaries without re-encoding.  The whole
    slice moves as one big-integer shift — byte-aligned or not — rather
    than a bit-at-a-time copy.
    """
    if start_bit < 0 or n_bits < 0:
        raise ValueError("start_bit and n_bits must be non-negative")
    total_bits = len(data) * 8
    if start_bit + n_bits > total_bits:
        raise BitstreamError(
            f"bit slice [{start_bit}, {start_bit + n_bits}) exceeds "
            f"{total_bits} available bits"
        )
    if n_bits == 0:
        return
    # Only the bytes overlapping the slice participate in the shift.
    first_byte = start_bit >> 3
    last_byte = (start_bit + n_bits + 7) >> 3
    word = int.from_bytes(data[first_byte:last_byte], "big")
    tail = (last_byte - first_byte) * 8 - (start_bit - first_byte * 8) - n_bits
    writer.write_bits((word >> tail) & ((1 << n_bits) - 1), n_bits)
