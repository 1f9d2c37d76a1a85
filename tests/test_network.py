"""Unit tests for packetization, loss models and the channel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.encoder import Encoder
from repro.network.channel import Channel
from repro.network.loss import (
    GilbertElliottLoss,
    MarkovBurstLoss,
    NoLoss,
    ScriptedLoss,
    TraceLoss,
    UniformLoss,
    structural_rng,
)
from repro.network.protection import ResilienceWrapper, xor_parity_payload
from repro.network.packet import (
    DEFAULT_MTU,
    Depacketizer,
    Packet,
    Packetizer,
    TRANSPORT_HEADER_BYTES,
)
from repro.resilience.none import NoResilience

from tests.conftest import small_config, small_sequence


@pytest.fixture(scope="module")
def encoded_frames():
    config = small_config()
    encoder = Encoder(config, NoResilience())
    return config, encoder.encode_sequence(small_sequence(n_frames=5))


def _packet(seq=0, frame=0):
    return Packet(
        sequence_number=seq,
        frame_index=frame,
        fragment_index=0,
        fragments_in_frame=1,
        payload=b"x" * 50,
    )


class TestPacketizer:
    def test_single_packet_when_under_mtu(self, encoded_frames):
        config, frames = encoded_frames
        packetizer = Packetizer(config, mtu=DEFAULT_MTU)
        for ef in frames:
            if ef.size_bytes < DEFAULT_MTU - 100:
                packets = packetizer.packetize(ef)
                assert len(packets) == max(1, len(packets))
                if ef.size_bytes < 1000:
                    assert len(packets) == 1

    def test_fragments_respect_mtu(self, encoded_frames):
        config, frames = encoded_frames
        packetizer = Packetizer(config, mtu=200)
        for ef in frames:
            for packet in packetizer.packetize(ef):
                assert packet.size_bytes <= 200

    def test_fragments_cover_all_macroblocks(self, encoded_frames):
        config, frames = encoded_frames
        packetizer = Packetizer(config, mtu=150)
        from repro.codec.bitstream import BitReader
        from repro.codec.syntax import read_fragment_header

        for ef in frames:
            covered = []
            for packet in packetizer.packetize(ef):
                header = read_fragment_header(BitReader(packet.payload))
                covered.extend(
                    range(header.first_mb, header.first_mb + header.mb_count)
                )
            assert covered == list(range(config.mb_count))

    def test_sequence_numbers_monotone(self, encoded_frames):
        config, frames = encoded_frames
        packetizer = Packetizer(config, mtu=300)
        packets = [p for ef in frames for p in packetizer.packetize(ef)]
        numbers = [p.sequence_number for p in packets]
        assert numbers == list(range(len(numbers)))

    def test_fragment_metadata(self, encoded_frames):
        config, frames = encoded_frames
        packetizer = Packetizer(config, mtu=150)
        packets = packetizer.packetize(frames[0])
        assert all(p.fragments_in_frame == len(packets) for p in packets)
        assert [p.fragment_index for p in packets] == list(range(len(packets)))

    def test_tiny_mtu_rejected(self, encoded_frames):
        config, _ = encoded_frames
        with pytest.raises(ValueError):
            Packetizer(config, mtu=10)

    def test_reset_restarts_sequence(self, encoded_frames):
        config, frames = encoded_frames
        packetizer = Packetizer(config)
        packetizer.packetize(frames[0])
        packetizer.reset()
        packets = packetizer.packetize(frames[0])
        assert packets[0].sequence_number == 0


class TestDepacketizer:
    def test_groups_by_frame(self):
        packets = [_packet(0, 0), _packet(1, 2), _packet(2, 2)]
        groups = Depacketizer().group_by_frame(packets, 3)
        assert len(groups[0]) == 1
        assert len(groups[1]) == 0
        assert len(groups[2]) == 2

    def test_orders_fragments_within_frame(self):
        a = Packet(0, 0, 1, 2, b"second")
        b = Packet(1, 0, 0, 2, b"first")
        groups = Depacketizer().group_by_frame([a, b], 1)
        assert groups[0] == [b"first", b"second"]

    def test_ignores_out_of_range_frames(self):
        groups = Depacketizer().group_by_frame([_packet(0, 99)], 3)
        assert all(not g for g in groups)


class TestUniformLoss:
    def test_zero_plr_drops_nothing(self):
        model = UniformLoss(plr=0.0)
        assert all(model.survives(_packet(i, i)) for i in range(100))

    def test_frame_rate_statistically_matches(self):
        model = UniformLoss(plr=0.3, seed=42, protect_first_frame=False)
        outcomes = [model.survives(_packet(i, i)) for i in range(4000)]
        loss_rate = 1 - sum(outcomes) / len(outcomes)
        assert abs(loss_rate - 0.3) < 0.03

    def test_packet_rate_statistically_matches(self):
        model = UniformLoss(
            plr=0.3, seed=42, protect_first_frame=False, granularity="packet"
        )
        outcomes = [model.survives(_packet(i, 1)) for i in range(4000)]
        loss_rate = 1 - sum(outcomes) / len(outcomes)
        assert abs(loss_rate - 0.3) < 0.03

    def test_frame_granularity_all_fragments_share_fate(self):
        model = UniformLoss(plr=0.5, seed=1, protect_first_frame=False)
        for frame in range(50):
            outcomes = {
                model.survives(Packet(i, frame, i, 3, b"")) for i in range(3)
            }
            assert len(outcomes) == 1

    def test_frame_granularity_order_independent(self):
        model = UniformLoss(plr=0.5, seed=4, protect_first_frame=False)
        forward = [model.survives(_packet(i, i)) for i in range(50)]
        model.reset()
        backward = [
            model.survives(_packet(i, i)) for i in reversed(range(50))
        ]
        assert forward == list(reversed(backward))

    def test_reproducible_with_seed(self):
        a = UniformLoss(plr=0.5, seed=9)
        b = UniformLoss(plr=0.5, seed=9)
        pa = [a.survives(_packet(i, i)) for i in range(200)]
        pb = [b.survives(_packet(i, i)) for i in range(200)]
        assert pa == pb

    def test_reset_replays_packet_mode(self):
        model = UniformLoss(plr=0.5, seed=3, granularity="packet")
        first = [model.survives(_packet(i, 1)) for i in range(100)]
        model.reset()
        second = [model.survives(_packet(i, 1)) for i in range(100)]
        assert first == second

    def test_first_frame_protected(self):
        model = UniformLoss(plr=1.0, seed=0, protect_first_frame=True)
        assert model.survives(_packet(0, 0))
        assert not model.survives(_packet(1, 1))

    def test_rejects_bad_plr(self):
        with pytest.raises(ValueError):
            UniformLoss(plr=1.5)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            UniformLoss(plr=0.1, granularity="bit")


class TestScriptedLoss:
    def test_drops_exactly_listed_frames(self):
        model = ScriptedLoss([2, 5])
        for frame in range(8):
            survived = model.survives(_packet(0, frame))
            assert survived == (frame not in (2, 5))

    def test_all_fragments_of_lost_frame_dropped(self):
        model = ScriptedLoss([3])
        assert not model.survives(Packet(0, 3, 0, 2, b""))
        assert not model.survives(Packet(1, 3, 1, 2, b""))

    def test_rejects_negative_frames(self):
        with pytest.raises(ValueError):
            ScriptedLoss([-1])


class TestGilbertElliott:
    def test_steady_state_rate(self):
        model = GilbertElliottLoss(
            p_good_to_bad=0.1,
            p_bad_to_good=0.4,
            seed=7,
            protect_first_frame=False,
        )
        expected = model.steady_state_loss_rate
        outcomes = [model.survives(_packet(i, 1)) for i in range(8000)]
        measured = 1 - sum(outcomes) / len(outcomes)
        assert abs(measured - expected) < 0.03

    def test_losses_are_bursty(self):
        model = GilbertElliottLoss(
            p_good_to_bad=0.02,
            p_bad_to_good=0.3,
            seed=11,
            protect_first_frame=False,
        )
        outcomes = [model.survives(_packet(i, 1)) for i in range(5000)]
        # Mean burst length of losses must exceed i.i.d. expectation.
        bursts, current = [], 0
        for ok in outcomes:
            if not ok:
                current += 1
            elif current:
                bursts.append(current)
                current = 0
        assert bursts and np.mean(bursts) > 1.5

    def test_reset(self):
        model = GilbertElliottLoss(0.1, 0.4, seed=5, protect_first_frame=False)
        first = [model.survives(_packet(i, 1)) for i in range(100)]
        model.reset()
        second = [model.survives(_packet(i, 1)) for i in range(100)]
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(1.5, 0.5)


class TestChannel:
    def test_lossless_channel_delivers_everything(self):
        channel = Channel(NoLoss())
        packets = [_packet(i, i) for i in range(10)]
        assert channel.transmit(packets) == packets
        assert channel.log.loss_rate == 0.0
        assert channel.log.bytes_sent == channel.log.bytes_delivered

    def test_log_tracks_losses(self):
        channel = Channel(ScriptedLoss([1]))
        packets = [_packet(0, 0), _packet(1, 1), _packet(2, 2)]
        delivered = channel.transmit(packets)
        assert len(delivered) == 2
        assert channel.log.lost_packets == [1]
        assert channel.log.lost_frames == {1}
        assert channel.log.loss_rate == pytest.approx(1 / 3)

    def test_byte_accounting_includes_transport_header(self):
        channel = Channel(NoLoss())
        channel.transmit([_packet()])
        assert channel.log.bytes_sent == 50 + TRANSPORT_HEADER_BYTES

    def test_reset(self):
        channel = Channel(ScriptedLoss([0]))
        channel.transmit([_packet(0, 0)])
        channel.reset()
        assert channel.log.sent == 0


class TestStructuralRng:
    def test_same_key_same_stream(self):
        a = structural_rng(7, "x", 3).random(4)
        b = structural_rng(7, "x", 3).random(4)
        assert np.array_equal(a, b)

    def test_any_key_component_changes_stream(self):
        base = structural_rng(7, "x", 3).random()
        assert structural_rng(8, "x", 3).random() != base
        assert structural_rng(7, "y", 3).random() != base
        assert structural_rng(7, "x", 4).random() != base


class TestTraceLoss:
    def test_frame_pattern_replays_by_index(self):
        model = TraceLoss.from_loss_rate_pattern(".x.")
        assert model.survives(_packet(0, 0))
        assert not model.survives(_packet(1, 1))
        assert model.survives(_packet(2, 2))
        # Past the trace: default_survives.
        assert model.survives(_packet(9, 9))
        # Frame mode is stateless: re-querying frame 1 needs no reset.
        assert not model.survives(_packet(1, 1))

    def test_packet_mode_consumes_cursor_and_reset_rewinds(self):
        model = TraceLoss([True, False, True], granularity="packet")
        first = [model.survives(_packet(i, 1)) for i in range(5)]
        assert first == [True, False, True, True, True]
        model.reset()
        assert [model.survives(_packet(i, 1)) for i in range(5)] == first

    def test_record_replays_another_model_exactly(self):
        original = UniformLoss(
            plr=0.5, seed=12, protect_first_frame=False, granularity="packet"
        )
        packets = [_packet(i, 1) for i in range(60)]
        fates = [original.survives(p) for p in packets]
        original.reset()
        trace = TraceLoss.record(original, packets)
        assert [trace.survives(p) for p in packets] == fates

    def test_from_plr_series_is_structural(self):
        series = (0.0, 1.0, 0.5, 0.5, 0.2)
        a = TraceLoss.from_plr_series(series, seed=3)
        b = TraceLoss.from_plr_series(series, seed=3)
        assert a.trace == b.trace
        assert a.trace[0] is True  # PLR 0 never drops
        assert a.trace[1] is False  # PLR 1 always drops
        assert TraceLoss.from_plr_series(series, seed=4).trace != a.trace or (
            # different seeds *may* coincide on 5 fates; the distribution
            # check below is the real assertion
            True
        )

    def test_from_plr_series_statistics(self):
        series = [0.3] * 4000
        trace = TraceLoss.from_plr_series(series, seed=1).trace
        loss_rate = 1 - sum(trace) / len(trace)
        assert abs(loss_rate - 0.3) < 0.03

    def test_from_plr_series_validates(self):
        with pytest.raises(ValueError):
            TraceLoss.from_plr_series([0.5, 1.2])

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            TraceLoss.from_loss_rate_pattern("")
        with pytest.raises(ValueError):
            TraceLoss.from_loss_rate_pattern(".x?")

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            TraceLoss([True], granularity="bit")


class TestMarkovBurstLoss:
    def test_steady_state_matches_empirical(self):
        model = MarkovBurstLoss(
            p_enter=0.05, escape=(0.6, 0.4, 0.25), seed=5,
            protect_first_frame=False,
        )
        n = 30_000
        losses = sum(
            not model.survives(_packet(i, 1)) for i in range(n)
        )
        assert abs(losses / n - model.steady_state_loss_rate) < 0.01

    def test_expected_burst_length_matches_empirical(self):
        model = MarkovBurstLoss(
            p_enter=0.05, escape=(0.6, 0.4), seed=8,
            protect_first_frame=False,
        )
        fates = [model.survives(_packet(i, 1)) for i in range(30_000)]
        bursts = []
        run = 0
        for survived in fates:
            if not survived:
                run += 1
            elif run:
                bursts.append(run)
                run = 0
        mean = sum(bursts) / len(bursts)
        assert abs(mean - model.expected_burst_length) < 0.15

    def test_single_state_is_geometric(self):
        # k=1 degenerates to Gilbert-Elliott with good_loss=0, bad_loss=1.
        model = MarkovBurstLoss(p_enter=0.1, escape=0.5)
        assert model.escape == (0.5,)
        assert model.expected_burst_length == pytest.approx(2.0)
        assert model.steady_state_loss_rate == pytest.approx(
            2.0 / (10.0 + 2.0)
        )

    def test_reset_replays_identical_fates(self):
        model = MarkovBurstLoss(p_enter=0.2, escape=(0.5, 0.3), seed=2)
        first = [model.survives(_packet(i, i)) for i in range(500)]
        model.reset()
        second = [model.survives(_packet(i, i)) for i in range(500)]
        assert first == second

    def test_two_instances_same_seed_agree(self):
        a = MarkovBurstLoss(p_enter=0.2, escape=(0.5,), seed=3)
        b = MarkovBurstLoss(p_enter=0.2, escape=(0.5,), seed=3)
        assert [a.survives(_packet(i, i)) for i in range(200)] == [
            b.survives(_packet(i, i)) for i in range(200)
        ]

    def test_burst_deepens_and_never_exceeds_k(self):
        model = MarkovBurstLoss(p_enter=1.0, escape=(0.01, 0.01), seed=0,
                                protect_first_frame=False)
        for i in range(50):
            model.survives(_packet(i, 1))
        assert model._state in (0, 1, 2)

    def test_first_frame_protected_but_chain_advances(self):
        model = MarkovBurstLoss(p_enter=1.0, escape=(0.001,), seed=0)
        assert model.survives(_packet(0, 0))  # protected
        assert not model.survives(_packet(1, 1))  # chain already in burst

    def test_zero_enter_never_drops(self):
        model = MarkovBurstLoss(p_enter=0.0, escape=(0.5,))
        assert model.steady_state_loss_rate == 0.0
        assert all(model.survives(_packet(i, i)) for i in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovBurstLoss(p_enter=1.2, escape=(0.5,))
        with pytest.raises(ValueError):
            MarkovBurstLoss(p_enter=0.1, escape=())
        with pytest.raises(ValueError):
            MarkovBurstLoss(p_enter=0.1, escape=(0.0,))


class TestXorParity:
    def test_parity_recovers_any_single_erasure(self):
        payloads = [b"abcd", b"xy", b"12345", b"zz"]
        packets = [
            Packet(i, 1, i, len(payloads), payloads[i])
            for i in range(len(payloads))
        ]
        parity = xor_parity_payload(packets)
        for erased in range(len(packets)):
            survivors = [p for i, p in enumerate(packets) if i != erased]
            rebuilt = xor_parity_payload(
                [Packet(-1, 1, 0, 1, parity), *survivors]
            )
            assert rebuilt[: len(payloads[erased])] == payloads[erased]


class TestResilienceWrapper:
    def test_fec_recovers_single_loss_window(self):
        # Lose exactly one packet in a 4-packet window; parity survives.
        loss = TraceLoss(
            [True, False, True, True, True], granularity="packet"
        )
        wrapper = ResilienceWrapper(loss, fec_window=4)
        packets = [_packet(i, 1) for i in range(4)]
        delivered = wrapper.transmit(packets)
        assert [p.sequence_number for p in delivered] == [0, 1, 2, 3]
        assert wrapper.log.fec_recovered == 1
        assert wrapper.log.fec_parity_sent == 1
        assert wrapper.log.delivered == 4
        # The rebuilt payload is byte-identical to the original.
        assert delivered[1].payload == packets[1].payload

    def test_fec_cannot_recover_double_loss(self):
        loss = TraceLoss(
            [False, False, True, True, True], granularity="packet"
        )
        wrapper = ResilienceWrapper(loss, fec_window=4)
        delivered = wrapper.transmit([_packet(i, 1) for i in range(4)])
        assert [p.sequence_number for p in delivered] == [2, 3]
        assert wrapper.log.fec_recovered == 0

    def test_fec_lost_parity_recovers_nothing(self):
        loss = TraceLoss(
            [True, False, True, True, False], granularity="packet"
        )
        wrapper = ResilienceWrapper(loss, fec_window=4)
        delivered = wrapper.transmit([_packet(i, 1) for i in range(4)])
        assert [p.sequence_number for p in delivered] == [0, 2, 3]
        assert wrapper.log.fec_recovered == 0

    def test_retx_repairs_within_budget(self):
        # Packet 1 lost, first retry survives.
        loss = TraceLoss(
            [True, False, True, True], granularity="packet"
        )
        wrapper = ResilienceWrapper(loss, retx_limit=2)
        delivered = wrapper.transmit([_packet(i, 1) for i in range(3)])
        assert [p.sequence_number for p in delivered] == [0, 1, 2]
        assert wrapper.log.retransmissions == 1
        assert wrapper.log.deadline_drops == 0

    def test_retx_budget_exhaustion_is_deadline_drop(self):
        loss = TraceLoss([False] * 10, granularity="packet")
        wrapper = ResilienceWrapper(loss, retx_limit=2)
        delivered = wrapper.transmit([_packet(0, 1)])
        assert delivered == []
        assert wrapper.log.retransmissions == 2
        assert wrapper.log.deadline_drops == 1
        assert wrapper.log.lost_packets == [0]

    def test_data_only_sent_delivered_accounting(self):
        loss = TraceLoss([True] * 20, granularity="packet")
        wrapper = ResilienceWrapper(loss, fec_window=2, retx_limit=1)
        packets = [_packet(i, 1) for i in range(4)]
        wrapper.transmit(packets)
        # sent/delivered count data packets only; parity rides in
        # bytes_sent and its own counter.
        assert wrapper.log.sent == 4
        assert wrapper.log.delivered == 4
        assert wrapper.log.fec_parity_sent == 2
        data_bytes = sum(p.size_bytes for p in packets)
        assert wrapper.log.bytes_delivered == data_bytes
        assert wrapper.log.bytes_sent > data_bytes

    def test_degenerate_wrapper_matches_plain_channel(self):
        fates = [True, False, True, False, True]
        plain = Channel(TraceLoss(list(fates), granularity="packet"))
        wrapped = ResilienceWrapper(
            TraceLoss(list(fates), granularity="packet")
        )
        packets = [_packet(i, i) for i in range(5)]
        assert [p.sequence_number for p in plain.transmit(packets)] == [
            p.sequence_number for p in wrapped.transmit(list(packets))
        ]
        assert plain.log.sent == wrapped.log.sent
        assert plain.log.delivered == wrapped.log.delivered
        assert plain.log.bytes_sent == wrapped.log.bytes_sent

    def test_reset_restores_loss_model_and_log(self):
        wrapper = ResilienceWrapper(
            TraceLoss([False, True], granularity="packet"), retx_limit=1
        )
        wrapper.transmit([_packet(0, 1)])
        wrapper.reset()
        assert wrapper.log.sent == 0
        assert wrapper.log.retransmissions == 0
        # The trace cursor rewound: the same fates replay.
        delivered = wrapper.transmit([_packet(0, 1)])
        assert [p.sequence_number for p in delivered] == [0]

    def test_shared_log_is_not_reset(self):
        from repro.network.channel import ChannelLog

        shared = ChannelLog()
        wrapper = ResilienceWrapper(NoLoss(), fec_window=2, log=shared)
        wrapper.transmit([_packet(0, 1)])
        wrapper.reset()
        assert shared.sent == 1  # a scenario channel owns the shared log

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceWrapper(NoLoss(), fec_window=1)
        with pytest.raises(ValueError):
            ResilienceWrapper(NoLoss(), retx_limit=-1)
