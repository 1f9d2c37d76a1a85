"""The frame-batched decoder against its cold, scalar twin.

:meth:`~repro.codec.decoder.Decoder.decode_frame` parses each fragment
on its own, then dequantizes, transforms, predicts and writes every
salvaged macroblock of the frame in one batch, transforming only the
coded blocks.  :func:`~repro.codec.reference.decode_frame_scalar` does
the same work one fragment, one macroblock and one block at a time,
with the sequential syntax readers and no memo.  The property here
draws what a lossy, damaging channel can deliver — any subset of a
frame's fragments, in any order, duplicated, truncated, bit-flipped,
mixed with fragments of another encode at another QP — over every
codec variant, and requires the two to agree on every output and every
billed operation, with no memo, a cold memo, a warm memo and an
encoder-seeded memo.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.codec.bitstream import BitWriter
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.codec.entropy import write_ue
from repro.codec.reference import decode_frame_scalar
from repro.codec.syntax import (
    FragmentHeader,
    ParseMemo,
    write_fragment_header,
)
from repro.codec.types import FrameType
from repro.energy.counters import OperationCounters
from repro.network.packet import Packetizer
from repro.obs.tracer import Tracer, use_tracer
from repro.resilience.registry import build_strategy

from tests.conftest import small_config, small_sequence

N_FRAMES = 3
#: The clips: a mostly static one (skipped macroblocks, uncoded blocks)
#: and one under camera shake (fractional vectors in every direction).
CLIPS = ({}, {"camera_jitter": 1.5})
#: Two encodes of one clip: the second at another QP, so a frame can
#: mix fragment headers that disagree on it.
QUANTIZERS = (6, 13)


def _config(chroma, half_pel, fixed, skip, quantizer=QUANTIZERS[0]):
    return small_config(
        chroma=chroma,
        half_pel=half_pel,
        use_fixed_point_dct=fixed,
        allow_skip=skip,
        quantizer=quantizer,
    )


@lru_cache(maxsize=None)
def encodes(chroma, half_pel, fixed, skip, clip=0):
    """Per quantizer: the encoded frames and each frame's fragments."""
    out = []
    for quantizer in QUANTIZERS:
        config = _config(chroma, half_pel, fixed, skip, quantizer)
        encoder = Encoder(config, build_strategy("AIR-4"))
        packetizer = Packetizer(config, mtu=64)
        frames = []
        for frame in small_sequence(
            n_frames=N_FRAMES, chroma=chroma, **CLIPS[clip]
        ):
            encoded = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(encoded)]
            frames.append((encoded, payloads))
        out.append(frames)
    return out


def _fragments(data, frames, index):
    """A channel's worth of damage to frame ``index``'s fragments."""
    pool = frames[0][index][1]
    if data.draw(st.booleans()):
        pool = pool + data.draw(
            st.sampled_from([frames[1][index][1], frames[0][-1][1]])
        )
    chosen = data.draw(
        st.lists(st.integers(0, len(pool) - 1), max_size=2 * len(pool))
    )
    fragments = []
    for position in chosen:
        payload = bytearray(pool[position])
        for _ in range(data.draw(st.integers(0, 2))):
            bit = data.draw(st.integers(0, len(payload) * 8 - 1))
            payload[bit // 8] ^= 1 << (bit % 8)
        if data.draw(st.integers(0, 4)) == 0:
            del payload[data.draw(st.integers(0, len(payload))) :]
        fragments.append(bytes(payload))
    return fragments


def _assert_same(got, want, got_counters, want_counters):
    assert got.frame_index == want.frame_index
    assert got.frame_type is want.frame_type
    assert got.damaged_fragments == want.damaged_fragments
    np.testing.assert_array_equal(got.frame, want.frame)
    np.testing.assert_array_equal(got.received, want.received)
    assert got.modes.tolist() == want.modes.tolist()
    np.testing.assert_array_equal(got.mvs_pixels, want.mvs_pixels)
    assert (got.chroma is None) == (want.chroma is None)
    if want.chroma is not None:
        for plane, want_plane in zip(got.chroma, want.chroma):
            np.testing.assert_array_equal(plane, want_plane)
    assert dataclasses.asdict(got_counters) == dataclasses.asdict(want_counters)


@given(
    chroma=st.booleans(),
    half_pel=st.booleans(),
    fixed=st.booleans(),
    skip=st.booleans(),
    clip=st.integers(0, len(CLIPS) - 1),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_batched_decoder_equals_the_scalar_oracle(
    chroma, half_pel, fixed, skip, clip, data
):
    config = _config(chroma, half_pel, fixed, skip)
    frames = encodes(chroma, half_pel, fixed, skip, clip)
    index = data.draw(st.integers(0, N_FRAMES - 1))
    fragments = _fragments(data, frames, index)
    # Mostly the previous reconstruction; sometimes no reference, or
    # (which forbids inter prediction with chroma) no chroma reference.
    references = data.draw(st.sampled_from(["both", "both", "luma", "none"]))
    reference = reference_chroma = None
    if index and references != "none":
        previous = frames[0][index - 1][0]
        reference = previous.reconstruction
        if references == "both":
            reference_chroma = previous.reconstruction_chroma

    want_counters = OperationCounters()
    want = decode_frame_scalar(
        config, fragments, reference, index, reference_chroma, want_counters
    )
    seeded = ParseMemo()
    Packetizer(config, mtu=64).packetize(frames[0][index][0], seeded)
    for memo in (None, ParseMemo(), seeded):
        for _ in range(1 if memo is None else 2):  # cold, then warm
            counters = OperationCounters()
            got = Decoder(config, counters, memo).decode_frame(
                fragments, reference, index, reference_chroma
            )
            _assert_same(got, want, counters, want_counters)


def test_an_overflowing_level_damages_only_its_own_fragment():
    config = _config(False, False, True, False)
    writer = BitWriter()
    write_fragment_header(
        writer, FragmentHeader(0, FrameType.I, 6, first_mb=0, mb_count=1)
    )
    writer.write_bit(1)  # block 0 coded
    write_ue(writer, 0)  # run
    write_ue(writer, (1 << 32) - 1)  # level +2**31, one past int32
    writer.write_bit(1)  # last
    for _ in range(3):
        writer.write_bit(0)  # blocks 1-3 empty
    overflowing = writer.getvalue()
    intact = encodes(False, False, True, False)[0][0][1]
    fragments = [intact[0], overflowing, *intact[1:]]

    want_counters = OperationCounters()
    want = decode_frame_scalar(config, fragments, None, 0, None, want_counters)
    assert want.damaged_fragments == 1
    assert want.received.all()
    for memo in (None, ParseMemo()):
        counters = OperationCounters()
        got = Decoder(config, counters, memo).decode_frame(fragments, None, 0)
        _assert_same(got, want, counters, want_counters)


def test_trace_counts_billed_and_executed_transforms():
    config = _config(False, False, True, True)
    frames = encodes(False, False, True, True)[0]
    counters = OperationCounters()
    decoder = Decoder(config, counters)
    with use_tracer(Tracer()) as tracer:
        reference = None
        for index, (_, payloads) in enumerate(frames):
            reference = decoder.decode_frame(payloads, reference, index).frame
    traced = tracer.metrics.snapshot()["counters"]
    billed = traced["decoder.idct_blocks_billed"]
    assert billed == counters.idct_blocks
    assert 0 < traced["decoder.idct_blocks_executed"] < billed
