"""Unit tests for the float and fixed-point DCTs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec import reference
from repro.codec.dct import (
    _EXACT_FLOAT_LIMIT,
    FIXED_POINT_BITS,
    _round_half_away,
    dct_basis,
    forward_dct_blocks,
    forward_dct_float,
    forward_dct_int,
    inverse_dct_blocks,
    inverse_dct_float,
    inverse_dct_int,
)


class TestBasis:
    def test_orthonormal(self):
        basis = dct_basis()
        np.testing.assert_allclose(basis @ basis.T, np.eye(8), atol=1e-12)

    def test_dc_row_is_constant(self):
        basis = dct_basis()
        np.testing.assert_allclose(basis[0], np.full(8, np.sqrt(1 / 8)))


class TestFloatDCT:
    def test_roundtrip_identity(self, rng):
        blocks = rng.uniform(-255, 255, size=(10, 8, 8))
        back = inverse_dct_float(forward_dct_float(blocks))
        np.testing.assert_allclose(back, blocks, atol=1e-9)

    def test_constant_block_energy_in_dc(self):
        block = np.full((8, 8), 100.0)
        coeffs = forward_dct_float(block)[0]
        assert coeffs[0, 0] == pytest.approx(800.0)
        assert np.abs(coeffs).sum() == pytest.approx(800.0)

    def test_parseval_energy_preserved(self, rng):
        block = rng.uniform(-128, 128, size=(1, 8, 8))
        coeffs = forward_dct_float(block)
        assert np.sum(block**2) == pytest.approx(np.sum(coeffs**2))

    def test_single_block_2d_input_accepted(self, rng):
        block = rng.uniform(0, 255, size=(8, 8))
        out = forward_dct_float(block)
        assert out.shape == (1, 8, 8)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            forward_dct_float(np.zeros((8, 7)))
        with pytest.raises(ValueError):
            forward_dct_float(np.zeros((2, 8, 7)))

    def test_linearity(self, rng):
        a = rng.uniform(-50, 50, size=(3, 8, 8))
        b = rng.uniform(-50, 50, size=(3, 8, 8))
        lhs = forward_dct_float(a + b)
        rhs = forward_dct_float(a) + forward_dct_float(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestFixedPointDCT:
    def test_close_to_float_forward(self, rng):
        blocks = rng.integers(-255, 256, size=(20, 8, 8))
        int_out = forward_dct_int(blocks)
        float_out = forward_dct_float(blocks.astype(np.float64))
        assert np.abs(int_out - float_out).max() <= 2.0

    def test_roundtrip_error_within_two_levels(self, rng):
        blocks = rng.integers(0, 256, size=(30, 8, 8))
        back = inverse_dct_int(forward_dct_int(blocks))
        assert np.abs(back - blocks).max() <= 2

    @given(
        arrays(np.int64, (2, 8, 8), elements=st.integers(-255, 255))
    )
    def test_roundtrip_property(self, blocks):
        back = inverse_dct_int(forward_dct_int(blocks))
        assert np.abs(back - blocks).max() <= 3

    def test_integer_output_dtype(self, rng):
        out = forward_dct_int(rng.integers(0, 256, size=(2, 8, 8)))
        assert np.issubdtype(out.dtype, np.integer)

    def test_constant_block(self):
        coeffs = forward_dct_int(np.full((1, 8, 8), 128, dtype=np.int64))[0]
        assert abs(int(coeffs[0, 0]) - 1024) <= 1
        assert np.abs(coeffs).sum() - abs(coeffs[0, 0]) <= 4


class TestDispatch:
    def test_forward_dispatch(self, rng):
        blocks = rng.integers(0, 256, size=(4, 8, 8))
        np.testing.assert_array_equal(
            forward_dct_blocks(blocks, fixed_point=True), forward_dct_int(blocks)
        )
        np.testing.assert_allclose(
            forward_dct_blocks(blocks, fixed_point=False),
            forward_dct_float(blocks.astype(np.float64)),
        )

    def test_inverse_dispatch(self, rng):
        coeffs = rng.integers(-500, 500, size=(4, 8, 8))
        np.testing.assert_array_equal(
            inverse_dct_blocks(coeffs, fixed_point=True), inverse_dct_int(coeffs)
        )


#: Stage outputs of the exact float path: products of inputs below
#: ``_EXACT_FLOAT_LIMIT`` with the 13-bit basis, summed, stay below 2**52.
_STAGE_LIMIT = 1 << 52
_HALF = 1 << (FIXED_POINT_BITS - 1)


def _stage_values():
    """Unscaled stage outputs: anything in range, exact ties, and zero."""
    steps = (_STAGE_LIMIT >> FIXED_POINT_BITS) - 1
    ties = st.integers(-steps, steps)
    return st.one_of(
        st.integers(-_STAGE_LIMIT + 1, _STAGE_LIMIT - 1),
        ties.map(lambda k: (k << FIXED_POINT_BITS) + _HALF),
        ties.map(lambda k: (k << FIXED_POINT_BITS) - _HALF),
        st.just(0),
    )


class TestExactFloatRounding:
    """The in-place rounding of the exact float path, pinned to the oracle."""

    @given(st.lists(_stage_values(), min_size=1, max_size=64))
    def test_equals_the_integer_rounded_shift(self, values):
        values = np.array(values, dtype=np.int64)
        scaled = values.astype(np.float64) * 2.0**-FIXED_POINT_BITS
        _round_half_away(scaled, np.empty_like(scaled))
        np.testing.assert_array_equal(
            scaled.astype(np.int64), reference._rounded_shift(values, FIXED_POINT_BITS)
        )

    def test_ties_round_away_from_zero(self):
        values = np.array([_HALF, -_HALF, 3 * _HALF, -3 * _HALF, 0], dtype=np.int64)
        scaled = values * 2.0**-FIXED_POINT_BITS
        _round_half_away(scaled, np.empty_like(scaled))
        assert scaled.tolist() == [1, -1, 2, -2, 0]

    @given(
        arrays(
            np.int64,
            (3, 8, 8),
            elements=st.integers(-_EXACT_FLOAT_LIMIT + 1, _EXACT_FLOAT_LIMIT - 1),
        )
    )
    def test_transforms_equal_the_int64_path_up_to_the_limit(self, blocks):
        np.testing.assert_array_equal(
            forward_dct_int(blocks), reference.forward_dct_scalar(blocks)
        )
        np.testing.assert_array_equal(
            inverse_dct_int(blocks), reference.inverse_dct_scalar(blocks)
        )
