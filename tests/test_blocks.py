"""Unit tests for frame/macroblock/block reshaping helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.blocks import (
    blocks_to_macroblocks,
    colocated_sad,
    frame_to_macroblocks,
    gather_blocks,
    macroblocks_to_blocks,
    macroblocks_to_frame,
    sad_self,
)


class TestFrameMacroblockReshape:
    def test_roundtrip(self, rng):
        frame = rng.integers(0, 256, size=(48, 64))
        mbs = frame_to_macroblocks(frame)
        assert mbs.shape == (3, 4, 16, 16)
        np.testing.assert_array_equal(macroblocks_to_frame(mbs), frame)

    def test_block_placement(self):
        frame = np.zeros((32, 32), dtype=np.int64)
        frame[16:32, 16:32] = 7
        mbs = frame_to_macroblocks(frame)
        assert (mbs[1, 1] == 7).all()
        assert mbs[0, 0].sum() == 0

    def test_rejects_non_multiple_dims(self):
        with pytest.raises(ValueError):
            frame_to_macroblocks(np.zeros((30, 32)))

    @given(
        arrays(np.int64, (32, 48), elements=st.integers(0, 255))
    )
    @settings(max_examples=25)
    def test_roundtrip_property(self, frame):
        np.testing.assert_array_equal(
            macroblocks_to_frame(frame_to_macroblocks(frame)), frame
        )


class TestMacroblockBlockReshape:
    def test_roundtrip(self, rng):
        mbs = rng.integers(0, 256, size=(2, 3, 16, 16))
        blocks = macroblocks_to_blocks(mbs)
        assert blocks.shape == (2, 3, 4, 8, 8)
        np.testing.assert_array_equal(blocks_to_macroblocks(blocks), mbs)

    def test_h263_block_order(self):
        mb = np.zeros((16, 16), dtype=np.int64)
        mb[:8, :8] = 1  # top-left
        mb[:8, 8:] = 2  # top-right
        mb[8:, :8] = 3  # bottom-left
        mb[8:, 8:] = 4  # bottom-right
        blocks = macroblocks_to_blocks(mb)
        assert [int(blocks[i, 0, 0]) for i in range(4)] == [1, 2, 3, 4]

    def test_batch_axis_preserved(self, rng):
        mbs = rng.integers(0, 256, size=(5, 16, 16))
        blocks = macroblocks_to_blocks(mbs)
        assert blocks.shape == (5, 4, 8, 8)


class TestSadSelf:
    def test_constant_macroblock_is_zero(self):
        frame = np.full((32, 32), 77, dtype=np.uint8)
        assert (sad_self(frame) == 0).all()

    def test_high_variance_means_high_sad(self, rng):
        flat = np.full((16, 32), 100, dtype=np.uint8)
        noisy = np.concatenate(
            [flat[:, :16], rng.integers(0, 256, (16, 16)).astype(np.uint8)],
            axis=1,
        )
        sads = sad_self(noisy)
        assert sads[0, 0] == 0
        assert sads[0, 1] > 5000

    def test_shape(self, rng):
        frame = rng.integers(0, 256, size=(48, 80)).astype(np.uint8)
        assert sad_self(frame).shape == (3, 5)


class TestColocatedSad:
    def test_identical_frames_zero(self, rng):
        frame = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        assert (colocated_sad(frame, frame) == 0).all()

    def test_counts_differences_per_block(self):
        a = np.zeros((32, 32), dtype=np.uint8)
        b = a.copy()
        b[0, 0] = 10  # only MB (0,0) differs
        sads = colocated_sad(a, b)
        assert sads[0, 0] == 10
        assert sads.sum() == 10

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            colocated_sad(np.zeros((32, 32)), np.zeros((32, 48)))

    def test_symmetry(self, rng):
        a = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        b = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        np.testing.assert_array_equal(colocated_sad(a, b), colocated_sad(b, a))


def _gather_clamped(plane, top, left, size):
    """The clamped fancy-index form: each coordinate clamped on its own."""
    offsets = np.arange(size)
    ys = np.clip(top[:, None] + offsets, 0, plane.shape[0] - 1)
    xs = np.clip(left[:, None] + offsets, 0, plane.shape[1] - 1)
    return plane[ys[:, :, None], xs[:, None, :]]


class TestGatherBlocks:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_clamped_fancy_index(self, data):
        size = data.draw(st.sampled_from((8, 16, 17)))
        height = data.draw(st.integers(1, 40))
        width = data.draw(st.integers(1, 40))
        plane = data.draw(
            arrays(np.uint8, (height, width), elements=st.integers(0, 255))
        )
        # Corners from 3*size before the first pixel to 3*size past the
        # last: windows inside, straddling an edge or wholly outside.
        reach = 3 * size
        n = data.draw(st.integers(1, 12))

        def corners(dim):
            values = st.integers(-reach - size, dim + reach)
            drawn = data.draw(st.lists(values, min_size=n, max_size=n))
            return np.array(drawn, dtype=np.int64)

        top, left = corners(height), corners(width)
        blocks = gather_blocks(plane, top, left, size)
        assert blocks.shape == (n, size, size) and blocks.dtype == plane.dtype
        np.testing.assert_array_equal(
            blocks, _gather_clamped(plane, top, left, size)
        )
