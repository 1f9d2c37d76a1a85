"""RTP-like packetization of encoded frames.

Per the paper's setup, "the variable-size encoded output of each frame
is contained by a single packet as long as it does not exceed the
maximum transfer unit (MTU)".  Frames larger than the MTU are split into
several packets.  Splitting happens at macroblock boundaries (the
encoder records each macroblock's bit offset), and every fragment gets a
self-describing header (frame index, type, QP, macroblock range) so it
is independently decodable — the RTP H.263 payload-format idea.  Losing
one fragment therefore costs only the macroblocks it carried.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec.bitstream import BitWriter, append_bit_slice
from repro.codec.syntax import (
    FragmentHeader,
    ParseMemo,
    seed_parse_memo,
    write_fragment_header,
)
from repro.codec.types import CodecConfig, EncodedFrame

#: Default maximum transfer unit in bytes (802.11 / Ethernet payload).
DEFAULT_MTU = 1500

#: Bytes of RTP-ish transport header accounted per packet (RTP fixed
#: header is 12 bytes; we bill it for bitrate accounting but do not
#: serialize it).
TRANSPORT_HEADER_BYTES = 12


@dataclass(frozen=True)
class Packet:
    """One transmitted packet.

    Attributes:
        sequence_number: global packet sequence number.
        frame_index: the video frame this packet belongs to.
        fragment_index: position among the frame's fragments.
        fragments_in_frame: total fragments the frame was split into.
        payload: fragment bytes (header + macroblock layer bits).
    """

    sequence_number: int
    frame_index: int
    fragment_index: int
    fragments_in_frame: int
    payload: bytes

    @property
    def size_bytes(self) -> int:
        """On-the-wire size including transport header."""
        return len(self.payload) + TRANSPORT_HEADER_BYTES


class Packetizer:
    """Splits encoded frames into MTU-sized, independently decodable packets."""

    def __init__(self, config: CodecConfig, mtu: int = DEFAULT_MTU) -> None:
        if mtu < 64:
            raise ValueError(f"MTU {mtu} is unrealistically small")
        self.config = config
        self.mtu = mtu
        self._sequence = 0

    def reset(self) -> None:
        self._sequence = 0

    def packetize(
        self, frame: EncodedFrame, parse_memo: ParseMemo | None = None
    ) -> list[Packet]:
        """Turn one encoded frame into one or more packets.

        With a ``parse_memo``, every fragment is also seeded with its
        parse (:func:`~repro.codec.syntax.seed_parse_memo`), from the
        span and header length this cut gave it.
        """
        if not frame.mb_bit_offsets:
            raise ValueError("encoded frame carries no macroblock offsets")
        budget_bits = (self.mtu - TRANSPORT_HEADER_BYTES) * 8
        spans = self._split_spans(frame, budget_bits)
        fragments = [self._fragment(frame, *span) for span in spans]
        if parse_memo is not None:
            seed_parse_memo(parse_memo, frame, fragments, self.config)
        packets = []
        for fragment_index, (payload, *_) in enumerate(fragments):
            packets.append(
                Packet(
                    sequence_number=self._sequence,
                    frame_index=frame.frame_index,
                    fragment_index=fragment_index,
                    fragments_in_frame=len(spans),
                    payload=payload,
                )
            )
            self._sequence += 1
        return packets

    def _split_spans(
        self, frame: EncodedFrame, budget_bits: int
    ) -> list[tuple[int, int]]:
        """Greedy split of the macroblock range into MTU-sized spans."""
        offsets = frame.mb_bit_offsets
        mb_count = len(offsets) - 1
        header_slack = 64  # fragment header upper bound in bits
        spans: list[tuple[int, int]] = []
        first = 0
        while first < mb_count:
            last = first
            while (
                last + 1 < mb_count
                and offsets[last + 2] - offsets[first] + header_slack
                <= budget_bits
            ):
                last += 1
            spans.append((first, last - first + 1))
            first = last + 1
        return spans

    def _fragment(
        self, frame: EncodedFrame, first_mb: int, mb_count: int
    ) -> tuple[bytes, int, int, int]:
        """``(payload, layer start bit, first_mb, mb_count)`` of one cut."""
        writer = BitWriter()
        write_fragment_header(
            writer,
            FragmentHeader(
                frame_index=frame.frame_index,
                frame_type=frame.frame_type,
                qp=frame.qp,
                first_mb=first_mb,
                mb_count=mb_count,
            ),
        )
        layer_start = writer.bit_length
        start = frame.mb_bit_offsets[first_mb]
        stop = frame.mb_bit_offsets[first_mb + mb_count]
        append_bit_slice(writer, frame.payload, start, stop - start)
        return writer.getvalue(), layer_start, first_mb, mb_count


class Depacketizer:
    """Groups surviving packets back into per-frame fragment lists."""

    def group_by_frame(
        self, packets: list[Packet], n_frames: int
    ) -> list[list[bytes]]:
        """Fragment payloads per frame index; empty list = frame lost."""
        if n_frames < 0:
            raise ValueError("n_frames must be >= 0")
        frames: list[list[tuple[int, bytes]]] = [[] for _ in range(n_frames)]
        for packet in packets:
            if 0 <= packet.frame_index < n_frames:
                frames[packet.frame_index].append(
                    (packet.fragment_index, packet.payload)
                )
        return [
            [payload for _, payload in sorted(fragments)]
            for fragments in frames
        ]
