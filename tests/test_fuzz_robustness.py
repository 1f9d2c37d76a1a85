"""Fuzz tests: the decoder must never crash, whatever arrives.

The error model of this whole line of work is that transmission hands
the decoder arbitrary garbage: truncated fragments, flipped bits,
duplicated or reordered packets.  A production decoder's contract is to
salvage what it can and conceal the rest — never to throw, hang, or
read out of bounds.  These tests drive that contract with hypothesis.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.network.packet import Depacketizer, Packetizer
from repro.resilience.none import NoResilience

from tests.conftest import small_config, small_sequence

CONFIG = small_config()


@pytest.fixture(scope="module")
def real_payloads():
    encoder = Encoder(CONFIG, NoResilience())
    packetizer = Packetizer(CONFIG, mtu=256)
    payloads = []
    for frame in small_sequence(n_frames=4):
        ef = encoder.encode_frame(frame)
        payloads.extend(p.payload for p in packetizer.packetize(ef))
    return payloads


def _decode(fragments, reference=None):
    decoder = Decoder(CONFIG)
    return decoder.decode_frame(fragments, reference, expected_index=0)


def _valid_result(result):
    assert result.frame.dtype == np.uint8
    assert result.frame.shape == (CONFIG.height, CONFIG.width)
    assert result.received.shape == (CONFIG.mb_rows, CONFIG.mb_cols)


class TestRandomGarbage:
    @given(st.binary(min_size=0, max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_crash(self, payload):
        result = _decode([payload])
        _valid_result(result)

    @given(st.lists(st.binary(min_size=0, max_size=120), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_random_fragment_lists_never_crash(self, payloads):
        result = _decode(payloads)
        _valid_result(result)


class TestCorruptedRealStreams:
    @given(data=st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bit_flips_never_crash(self, real_payloads, data):
        payload = bytearray(
            real_payloads[data.draw(st.integers(0, len(real_payloads) - 1))]
        )
        n_flips = data.draw(st.integers(1, 16))
        for _ in range(n_flips):
            position = data.draw(st.integers(0, len(payload) * 8 - 1))
            payload[position // 8] ^= 1 << (position % 8)
        reference = np.full((CONFIG.height, CONFIG.width), 100, dtype=np.uint8)
        result = _decode([bytes(payload)], reference)
        _valid_result(result)

    @given(data=st.data())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncations_never_crash(self, real_payloads, data):
        payload = real_payloads[
            data.draw(st.integers(0, len(real_payloads) - 1))
        ]
        cut = data.draw(st.integers(0, len(payload)))
        result = _decode([payload[:cut]])
        _valid_result(result)

    def test_duplicated_fragments_are_idempotent(self, real_payloads):
        reference = np.full((CONFIG.height, CONFIG.width), 90, dtype=np.uint8)
        once = _decode([real_payloads[0]], reference)
        twice = _decode([real_payloads[0], real_payloads[0]], reference)
        np.testing.assert_array_equal(once.frame, twice.frame)
        np.testing.assert_array_equal(once.received, twice.received)

    def test_reordered_fragments_equivalent(self, real_payloads):
        # Fragments of one frame may arrive in any order.
        encoder = Encoder(CONFIG, NoResilience())
        packetizer = Packetizer(CONFIG, mtu=160)
        ef = encoder.encode_frame(small_sequence(n_frames=1)[0])
        payloads = [p.payload for p in packetizer.packetize(ef)]
        assert len(payloads) >= 2
        forward = _decode(payloads)
        backward = _decode(list(reversed(payloads)))
        np.testing.assert_array_equal(forward.frame, backward.frame)

    def test_cross_frame_fragments_coexist(self, real_payloads):
        # Misrouted fragments from another frame must not corrupt the
        # result structure (last decoded header wins the metadata).
        result = _decode([real_payloads[0], real_payloads[-1]])
        _valid_result(result)


@lru_cache(maxsize=1)
def _pristine_packets():
    """One encoded frame's packets, shared by every stateful example."""
    encoder = Encoder(CONFIG, NoResilience())
    packetizer = Packetizer(CONFIG, mtu=160)
    ef = encoder.encode_frame(small_sequence(n_frames=1)[0])
    return tuple(packetizer.packetize(ef))


class FaultedTransportMachine(RuleBasedStateMachine):
    """Arbitrary fault interleavings must never break the receive path.

    The machine holds one frame's real packet stream and, step by step,
    mauls it through single-fault :class:`FaultPlan` injectors —
    truncation, byte flips, duplication, reordering, drops — in any
    order hypothesis cares to interleave.  After every step the whole
    receive path (depacketizer grouping, fragment-level faults, the
    decoder) must still produce a structurally valid frame: the decode
    rule is also the invariant.
    """

    MAX_PACKETS = 48

    def __init__(self):
        super().__init__()
        self.packets = list(_pristine_packets())
        self.reference = np.full(
            (CONFIG.height, CONFIG.width), 120, dtype=np.uint8
        )

    def _apply(self, kind, seed, **knobs):
        plan = FaultPlan(faults=(FaultSpec(kind=kind, **knobs),), seed=seed)
        injector = FaultInjector(plan)
        self.packets = injector.apply_to_packets(self.packets, 0)
        # Duplication compounds across steps; keep the pool bounded so
        # runaway growth cannot dominate the step budget.
        del self.packets[self.MAX_PACKETS:]

    @rule(seed=st.integers(0, 999))
    def truncate_packets(self, seed):
        self._apply("truncate", seed, probability=0.5)

    @rule(seed=st.integers(0, 999), amount=st.integers(1, 8))
    def flip_bytes(self, seed, amount):
        self._apply("byteflip", seed, probability=0.5, amount=amount)

    @rule(seed=st.integers(0, 999), amount=st.integers(1, 2))
    def duplicate_packets(self, seed, amount):
        self._apply("duplicate", seed, probability=0.4, amount=amount)

    @rule(seed=st.integers(0, 999))
    def reorder_packets(self, seed):
        self._apply("reorder", seed)

    @rule(seed=st.integers(0, 999))
    def drop_packets(self, seed):
        self._apply("drop", seed, probability=0.3)

    @rule(seed=st.integers(0, 999), kind=st.sampled_from(
        ["corrupt_fragment", "truncate_fragment"]
    ))
    def decode_with_fragment_faults(self, seed, kind):
        plan = FaultPlan(
            faults=(FaultSpec(kind=kind, probability=0.5),), seed=seed
        )
        self._decode(FaultInjector(plan))

    @rule()
    def decode(self):
        self._decode(None)

    def _decode(self, injector):
        fragments = Depacketizer().group_by_frame(self.packets, 1)[0]
        if injector is not None:
            fragments = injector.apply_to_fragments(fragments, 0)
        result = Decoder(CONFIG).decode_frame(
            fragments, self.reference, expected_index=0
        )
        _valid_result(result)
        assert 0 <= result.damaged_fragments <= len(fragments)


TestFaultedTransport = FaultedTransportMachine.TestCase
TestFaultedTransport.settings = settings(
    max_examples=25, stateful_step_count=10, deadline=None
)
