"""Channel-boundary resilience: XOR-parity FEC and bounded retransmission.

The paper's schemes fight loss at the *encoder* (intra refresh placement);
real mobile stacks also fight it at the *channel* with forward error
correction and ARQ.  :class:`ResilienceWrapper` adds both around any
:class:`~repro.network.loss.LossModel`, at the same boundary where
:class:`~repro.network.channel.Channel` sits, so scenario packs can
compare encoder-side and channel-side protection under one accounting
scheme (every parity packet and retry is billed to ``bytes_sent``).

Mechanics per transmitted frame:

* **FEC** (``fec_window >= 2``): data packets are grouped into windows
  of ``fec_window``; each window sends one XOR-parity packet.  A window
  that loses exactly one data packet while its parity survives is
  repaired by XOR-ing the parity with the survivors — the classic
  single-erasure property of a parity code.
* **Retransmission** (``retx_limit >= 1``): each data packet still lost
  after FEC is re-offered to the loss model up to ``retx_limit`` times;
  a packet that exhausts its budget is abandoned as a *deadline drop*
  (the playout deadline passes before another retry could land).

Both mechanisms only help against *independent* packet fates.  Under a
frame-granularity loss model every fragment of a frame shares one fate,
so neither a parity packet of that frame nor an immediate retry can
survive — pair the wrapper with packet-granularity models
(:class:`~repro.network.loss.MarkovBurstLoss`, packet-mode
:class:`~repro.network.loss.UniformLoss`), as the shipped scenario
packs do.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.network.channel import ChannelLog
from repro.network.loss import LossModel
from repro.network.packet import Packet
from repro.obs.tracer import get_tracer


def xor_parity_payload(packets: list[Packet]) -> bytes:
    """XOR of the window's payloads, padded to the longest one."""
    length = max(len(p.payload) for p in packets)
    buffer = np.zeros(length, dtype=np.uint8)
    for packet in packets:
        payload = np.frombuffer(packet.payload, dtype=np.uint8)
        buffer[: payload.size] ^= payload
    return buffer.tobytes()


class ResilienceWrapper:
    """FEC/retransmission protection around a loss model.

    Duck-types :class:`~repro.network.channel.Channel` — ``transmit``,
    ``log``, ``reset`` — so the simulation pipeline can use either
    interchangeably.  ``log`` counts only *data* packets in
    ``sent``/``delivered`` (keeping loss-rate numbers comparable with
    an unprotected channel) and bills parity/retry overhead to
    ``bytes_sent`` and the dedicated resilience counters.

    Args:
        loss_model: fate oracle for every transmission, including
            parity packets and retries (a retry is a fresh offer, so
            stateful models naturally advance between attempts).
        fec_window: data packets per XOR-parity window; 0 disables FEC.
        retx_limit: retries per lost packet; 0 disables retransmission.
        log: optional shared :class:`ChannelLog` — a multi-segment
            scenario channel passes one log to every segment's wrapper
            so the run's accounting stays in one place.
    """

    def __init__(
        self,
        loss_model: LossModel,
        *,
        fec_window: int = 0,
        retx_limit: int = 0,
        log: Optional[ChannelLog] = None,
    ) -> None:
        if fec_window < 0 or fec_window == 1:
            raise ValueError(
                f"fec_window must be 0 (off) or >= 2, got {fec_window}"
            )
        if retx_limit < 0:
            raise ValueError(f"retx_limit must be >= 0, got {retx_limit}")
        self.loss_model = loss_model
        self.fec_window = fec_window
        self.retx_limit = retx_limit
        self._owns_log = log is None
        self.log = ChannelLog() if log is None else log

    def reset(self) -> None:
        self.loss_model.reset()
        if self._owns_log:
            self.log = ChannelLog()

    def _parity_packet(self, window: list[Packet]) -> Packet:
        # Parity rides in the window's frame so frame-keyed loss models
        # see a consistent frame index; the sequence number is never
        # delivered (parity is internal to the wrapper).
        first = window[0]
        return Packet(
            sequence_number=-(first.sequence_number + 1),
            frame_index=first.frame_index,
            fragment_index=first.fragment_index,
            fragments_in_frame=first.fragments_in_frame,
            payload=xor_parity_payload(window),
        )

    def _apply_fec(self, packets: list[Packet], fates: list[bool]) -> None:
        for start in range(0, len(packets), self.fec_window):
            window = packets[start : start + self.fec_window]
            parity = self._parity_packet(window)
            parity_survives = self.loss_model.survives(parity)
            self.log.fec_parity_sent += 1
            self.log.bytes_sent += parity.size_bytes
            lost = [
                start + offset
                for offset in range(len(window))
                if not fates[start + offset]
            ]
            if len(lost) == 1 and parity_survives:
                # Reconstruct the erased payload from parity ^ survivors
                # (exact for a single erasure), then deliver the repair.
                index = lost[0]
                survivors = [
                    p for j, p in enumerate(window, start) if j != index
                ]
                rebuilt = xor_parity_payload([parity, *survivors])
                original = packets[index]
                packets[index] = dataclasses.replace(
                    original, payload=rebuilt[: len(original.payload)]
                )
                fates[index] = True
                self.log.fec_recovered += 1

    def _apply_retx(self, packets: list[Packet], fates: list[bool]) -> None:
        for index, packet in enumerate(packets):
            if fates[index]:
                continue
            for _ in range(self.retx_limit):
                self.log.retransmissions += 1
                self.log.bytes_sent += packet.size_bytes
                if self.loss_model.survives(packet):
                    fates[index] = True
                    break
            if not fates[index]:
                self.log.deadline_drops += 1

    def transmit(self, packets: list[Packet]) -> list[Packet]:
        """Return the data packets that survive, preserving order."""
        packets = list(packets)
        fates = []
        for packet in packets:
            self.log.sent += 1
            self.log.bytes_sent += packet.size_bytes
            fates.append(self.loss_model.survives(packet))
        if self.fec_window and packets:
            self._apply_fec(packets, fates)
        if self.retx_limit:
            self._apply_retx(packets, fates)
        survivors = []
        for packet, fate in zip(packets, fates):
            if fate:
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
