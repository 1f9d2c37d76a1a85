"""The shared prediction and reconstruction kernels.

:func:`~repro.codec.recon.predict` is the one prediction the encoder,
the decoder and (through ``predict_half``) half-pel search form.  The
property here holds it to the scalar per-macroblock prediction that the
cold decoder oracle uses,
:func:`~repro.codec.reference.predict_macroblock_scalar` (a slice of an
edge-padded reference, ``fetch_block_half`` and ``chroma_vector``), at
full and half pel, with and without chroma, for vectors up to the coded
limit that reach past every edge and corner of the frame.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.blocks import (
    blocks_to_macroblocks,
    blocks_to_plane,
    macroblocks_to_frame,
)
from repro.codec.recon import predict, reconstruct
from repro.codec.reference import pad_references, predict_macroblock_scalar
from repro.codec.types import CodecConfig


def predict_frame(reference, mvs, half_pel=False, reference_chroma=None):
    """Every macroblock of an ``(mb_rows, mb_cols, 2)`` field predicted
    through :func:`predict`, as planes: ``[luma]`` or ``[luma, cb, cr]``."""
    mb_rows, mb_cols = mvs.shape[:2]
    rows, cols = np.indices((mb_rows, mb_cols))
    blocks = predict(
        reference,
        reference_chroma,
        rows.ravel(),
        cols.ravel(),
        np.asarray(mvs, dtype=np.int64).reshape(-1, 2),
        half_pel,
    ).reshape(mb_rows, mb_cols, -1, 8, 8)
    planes = [macroblocks_to_frame(blocks_to_macroblocks(blocks[:, :, :4]))]
    planes += [blocks_to_plane(blocks[:, :, k]) for k in range(4, blocks.shape[2])]
    return planes


def _scalar(reference, reference_chroma, rows, cols, mv, half_pel, search_range):
    pad = search_range + 2
    padded, padded_chroma = pad_references(reference, reference_chroma, pad)
    return np.stack(
        [
            predict_macroblock_scalar(
                padded, padded_chroma, pad, int(r), int(c), tuple(v), half_pel
            )
            for r, c, v in zip(rows, cols, mv)
        ]
    )


def _planes(rng, mb_rows, mb_cols, chroma):
    reference = rng.integers(0, 256, (16 * mb_rows, 16 * mb_cols)).astype(np.uint8)
    reference_chroma = (
        tuple(
            rng.integers(0, 256, (8 * mb_rows, 8 * mb_cols)).astype(np.uint8)
            for _ in range(2)
        )
        if chroma
        else None
    )
    return reference, reference_chroma


@settings(max_examples=80, deadline=None)
@given(
    mb_rows=st.integers(1, 3),
    mb_cols=st.integers(1, 4),
    half_pel=st.booleans(),
    chroma=st.booleans(),
    search_range=st.integers(1, 15),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_predict_equals_the_scalar_prediction(
    mb_rows, mb_cols, half_pel, chroma, search_range, seed, data
):
    limit = CodecConfig(search_range=search_range, half_pel=half_pel).mv_limit
    reference, reference_chroma = _planes(
        np.random.default_rng(seed), mb_rows, mb_cols, chroma
    )
    positions = np.array(
        data.draw(
            st.lists(
                st.integers(0, mb_rows * mb_cols - 1),
                min_size=1,
                max_size=mb_rows * mb_cols,
                unique=True,
            )
        )
    )
    mv = data.draw(
        arrays(np.int64, (positions.size, 2), elements=st.integers(-limit, limit))
    )
    rows, cols = np.divmod(positions, mb_cols)
    got = predict(reference, reference_chroma, rows, cols, mv, half_pel)
    assert got.dtype == np.int64
    assert got.shape == (positions.size, 6 if chroma else 4, 8, 8)
    np.testing.assert_array_equal(
        got,
        _scalar(reference, reference_chroma, rows, cols, mv, half_pel, search_range),
    )


@pytest.mark.parametrize("half_pel", [False, True])
@pytest.mark.parametrize("chroma", [False, True])
def test_vectors_past_every_edge_and_corner(rng, half_pel, chroma):
    # Every macroblock of a 3x4 grid points up to the coded limit off
    # the frame, so each edge and corner is crossed, at odd (half-pel)
    # and even components alike.
    search_range = 15
    limit = CodecConfig(search_range=search_range, half_pel=half_pel).mv_limit
    reference, reference_chroma = _planes(rng, 3, 4, chroma)
    rows, cols = np.divmod(np.arange(12), 4)
    extremes = (-limit, -limit + 1, 0, limit - 1, limit)
    for dy in extremes:
        for dx in extremes:
            mv = np.broadcast_to(np.array([dy, dx]), (12, 2))
            np.testing.assert_array_equal(
                predict(reference, reference_chroma, rows, cols, mv, half_pel),
                _scalar(
                    reference, reference_chroma, rows, cols, mv, half_pel, search_range
                ),
            )


class TestReconstruct:
    def test_uncoded_blocks_reconstruct_to_their_prediction(self):
        transformed = np.full((1, 8, 8), 5, dtype=np.int64)
        inter = np.array([True, False])
        prediction = np.full((1, 4, 8, 8), 300, dtype=np.int64)
        prediction[0, 1] = 7
        out = reconstruct(transformed, np.array([4]), (2, 4), inter, prediction)
        assert out.dtype == np.uint8 and out.shape == (2, 4, 8, 8)
        assert (out[0, 0] == 255).all()  # clipped
        assert (out[0, 1] == 7).all()  # uncoded inter block: the prediction
        assert (out[1, 0] == 5).all()  # coded intra block: the residual
        assert (out[1, 1:] == 0).all()  # uncoded intra blocks: zero

    def test_float_residual_stays_float_until_the_clip(self):
        # 10 + 0.6 would round to 11 if the residual were rounded before
        # the add; the reconstruction truncates the float sum instead.
        transformed = np.full((4, 8, 8), 0.6)
        prediction = np.full((1, 4, 8, 8), 10, dtype=np.int64)
        out = reconstruct(
            transformed, np.arange(4), (1, 4), np.array([True]), prediction
        )
        assert (out == 10).all()
        negative = reconstruct(
            -transformed, np.arange(4), (1, 4), np.array([False]), None
        )
        assert (negative == 0).all()
