"""The array-built encoder against the cold, scalar decoder.

:meth:`~repro.codec.encoder.Encoder.encode_frame` transforms and
quantizes a frame's blocks in one batch and reconstructs only the coded
blocks.  Its reconstruction must still be exactly what a decoder makes
of the stream, so the property below decodes every frame's lossless
fragments with :func:`~repro.codec.reference.decode_frame_scalar` (one
block at a time, every block transformed) and parses the payload with
the sequential syntax readers.  It draws every codec variant the golden
streams leave out — the float DCT, the full and three-step searches —
under each paper scheme, over small random clips.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.codec.bitstream import BitReader
from repro.codec.encoder import Encoder
from repro.codec.reference import (
    decode_frame_scalar,
    decode_macroblock,
    decode_macroblock_skippable,
)
from repro.codec.types import MacroblockMode
from repro.energy.counters import OperationCounters
from repro.network.packet import Packetizer
from repro.obs.tracer import Tracer, use_tracer
from repro.resilience.registry import build_strategy

from tests.conftest import small_config, small_sequence

SCHEMES = ("NO", "AIR-24", "GOP-3", "PGOP-3", "PBPAIR")
N_FRAMES = 4
BILLED = ("dct_blocks", "quant_blocks", "dequant_blocks", "idct_blocks")


def _parse(encoded, config):
    """Every macroblock of a frame's payload, read sequentially."""
    read = decode_macroblock_skippable if config.allow_skip else decode_macroblock
    reader = BitReader(encoded.payload)
    return [
        read(reader, encoded.frame_type, config.blocks_per_mb)
        for _ in range(config.mb_count)
    ]


# The shared kernel's dtype corners, always run: fixed-point (int64) and
# float residuals, each under a full-pel gather and the int16 half-pel
# prediction, with chroma and skip on.  PGOP-3 on this clip mixes intra
# and inter macroblocks in every P-frame, at half-pel positions too.
@example(
    fixed=True, chroma=True, half_pel=False, skip=True,
    search="diamond", scheme="PGOP-3", seed=7, jitter=1.5,
)
@example(
    fixed=True, chroma=True, half_pel=True, skip=True,
    search="diamond", scheme="PGOP-3", seed=7, jitter=1.5,
)
@example(
    fixed=False, chroma=True, half_pel=False, skip=True,
    search="diamond", scheme="PGOP-3", seed=7, jitter=1.5,
)
@example(
    fixed=False, chroma=True, half_pel=True, skip=True,
    search="diamond", scheme="PGOP-3", seed=7, jitter=1.5,
)
@given(
    fixed=st.booleans(),
    chroma=st.booleans(),
    half_pel=st.booleans(),
    skip=st.booleans(),
    search=st.sampled_from(("diamond", "full", "three-step")),
    scheme=st.sampled_from(SCHEMES),
    seed=st.integers(0, 2**16),
    jitter=st.sampled_from((0.0, 1.5)),
)
@settings(max_examples=40, deadline=None)
def test_encoder_reconstruction_equals_the_scalar_decode(
    fixed, chroma, half_pel, skip, search, scheme, seed, jitter
):
    config = small_config(
        use_fixed_point_dct=fixed,
        chroma=chroma,
        half_pel=half_pel,
        allow_skip=skip,
        motion_search=search,
    )
    counters = OperationCounters()
    encoder = Encoder(config, build_strategy(scheme), counters)
    packetizer = Packetizer(config, mtu=64)
    clip = small_sequence(
        n_frames=N_FRAMES, seed=seed, chroma=chroma, camera_jitter=jitter
    )
    reference = reference_chroma = None
    for frame in clip:
        before = [getattr(counters, name) for name in BILLED]
        with use_tracer(Tracer()) as tracer:
            encoded = encoder.encode_frame(frame)
        billed = config.blocks_per_mb * config.mb_count
        assert [getattr(counters, name) for name in BILLED] == [
            value + billed for value in before
        ]

        fragments = [p.payload for p in packetizer.packetize(encoded)]
        decoded = decode_frame_scalar(
            config, fragments, reference, frame.index, reference_chroma
        )
        np.testing.assert_array_equal(decoded.frame, encoded.reconstruction)
        assert (encoded.reconstruction_chroma is None) == (not chroma)
        if chroma:
            for plane, want in zip(
                decoded.chroma, encoded.reconstruction_chroma
            ):
                np.testing.assert_array_equal(plane, want)
        reference = encoded.reconstruction
        reference_chroma = encoded.reconstruction_chroma

        # The decision arrays are what the stream codes.
        decisions = encoded.decisions
        parsed = _parse(encoded, config)
        assert decisions.mode.ravel().tolist() == [mb.mode for mb in parsed]
        np.testing.assert_array_equal(
            decisions.mv.reshape(-1, 2), [mb.mv for mb in parsed]
        )
        intra = decisions.mode == MacroblockMode.INTRA
        assert not decisions.mv[intra].any()
        assert (decisions.forced(None) == ~intra).all()
        assert not decisions.sad_mv[decisions.me_skipped].any()

        # The encoder executes the IDCT of the coded blocks only.
        coded = sum(
            int(mb.coefficients.reshape(-1, 64).any(axis=1).sum())
            for mb in parsed
        )
        metrics = tracer.metrics.snapshot()["counters"]
        assert metrics["encoder.idct_blocks_billed"] == billed
        assert metrics.get("encoder.idct_blocks_executed", 0) == coded
