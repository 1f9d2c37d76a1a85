"""The lossy channel: applies a loss model to a packet stream."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.loss import LossModel
from repro.network.packet import Packet
from repro.obs.tracer import get_tracer


@dataclass
class ChannelLog:
    """What happened on the wire, for reporting.

    Attributes:
        sent: data packets offered to the channel.
        delivered: data packets that survived (including recoveries).
        lost_packets: sequence numbers of dropped data packets.
        lost_frames: frame indices that lost at least one packet.
        bytes_sent / bytes_delivered: transport-level byte counts
            (``bytes_sent`` includes parity and retransmission
            overhead when a resilience wrapper is active).
        fec_parity_sent: XOR-parity packets injected by FEC.
        fec_recovered: data packets reconstructed from parity.
        retransmissions: retry transmissions attempted.
        deadline_drops: packets abandoned with the retry budget spent.
    """

    sent: int = 0
    delivered: int = 0
    lost_packets: list[int] = field(default_factory=list)
    lost_frames: set[int] = field(default_factory=set)
    bytes_sent: int = 0
    bytes_delivered: int = 0
    fec_parity_sent: int = 0
    fec_recovered: int = 0
    retransmissions: int = 0
    deadline_drops: int = 0

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.delivered / self.sent if self.sent else 0.0


class Channel:
    """Pushes packets through a :class:`LossModel` and logs the outcome."""

    def __init__(self, loss_model: LossModel) -> None:
        self.loss_model = loss_model
        self.log = ChannelLog()

    def reset(self) -> None:
        self.loss_model.reset()
        self.log = ChannelLog()

    def transmit(self, packets: list[Packet]) -> list[Packet]:
        """Return the packets that survive, preserving order."""
        survivors = []
        for packet in packets:
            self.log.sent += 1
            self.log.bytes_sent += packet.size_bytes
            if self.loss_model.survives(packet):
                survivors.append(packet)
                self.log.delivered += 1
                self.log.bytes_delivered += packet.size_bytes
            else:
                self.log.lost_packets.append(packet.sequence_number)
                self.log.lost_frames.add(packet.frame_index)
        lost = len(packets) - len(survivors)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count(packets_sent=len(packets), packets_lost=lost)
            tracer.metrics.inc("channel.packets_sent", len(packets))
            tracer.metrics.inc("channel.packets_lost", lost)
        return survivors
