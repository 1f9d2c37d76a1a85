"""Unit tests for the H.263-style quantizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.quant import (
    COEFF_MAX,
    COEFF_MIN,
    INTRA_DC_STEP,
    LEVEL_MAX,
    dequantize_blocks,
    quantize_blocks,
)


def _block(fill: int = 0) -> np.ndarray:
    return np.full((1, 8, 8), fill, dtype=np.int64)


class TestQuantize:
    def test_rejects_bad_qp(self):
        for qp in (0, 32, -3):
            with pytest.raises(ValueError):
                quantize_blocks(_block(), False, qp)
            with pytest.raises(ValueError):
                dequantize_blocks(_block(), False, qp)

    def test_inter_dead_zone_kills_small_coeffs(self):
        qp = 8
        block = _block(qp)  # below the dead zone (< QP/2 + step)
        levels = quantize_blocks(block, False, qp)
        assert levels[0, 1:, :].sum() == 0 and levels[0, 0, 1:].sum() == 0

    def test_intra_has_no_dead_zone_beyond_step(self):
        qp = 8
        block = _block(2 * qp)  # exactly one step
        levels = quantize_blocks(block, True, qp)
        assert levels[0, 3, 3] == 1

    def test_sign_preserved(self, rng):
        coeffs = rng.integers(-500, 500, size=(4, 8, 8))
        levels = quantize_blocks(coeffs, False, 5)
        product = levels.astype(np.int64) * coeffs
        assert (product >= 0).all()

    def test_levels_clamped(self):
        levels = quantize_blocks(_block(COEFF_MAX), False, 1)
        assert levels.max() <= LEVEL_MAX

    def test_intra_dc_special_step(self):
        block = _block(0)
        block[0, 0, 0] = 800
        levels = quantize_blocks(block, True, 10)
        assert levels[0, 0, 0] == 800 // INTRA_DC_STEP

    def test_intra_dc_clamped_positive(self):
        block = _block(0)  # DC of zero would be illegal in H.263
        levels = quantize_blocks(block, True, 10)
        assert levels[0, 0, 0] == 1


class TestDequantize:
    def test_zero_levels_stay_zero(self):
        out = dequantize_blocks(np.zeros((1, 8, 8), dtype=np.int32), False, 7)
        assert (out[..., 1:, :] == 0).all()

    def test_h263_reconstruction_formula_odd_qp(self):
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 2, 2] = 3
        out = dequantize_blocks(levels, False, 7)
        assert out[0, 2, 2] == 7 * (2 * 3 + 1)

    def test_h263_oddification_even_qp(self):
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 2, 2] = 3
        out = dequantize_blocks(levels, False, 8)
        assert out[0, 2, 2] == 8 * (2 * 3 + 1) - 1
        assert out[0, 2, 2] % 2 == 1

    def test_intra_dc_reconstruction(self):
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 0, 0] = 100
        out = dequantize_blocks(levels, True, 12)
        assert out[0, 0, 0] == 100 * INTRA_DC_STEP

    def test_output_clamped(self):
        levels = np.full((1, 8, 8), LEVEL_MAX, dtype=np.int32)
        out = dequantize_blocks(levels, False, 31)
        assert out.max() <= COEFF_MAX and out.min() >= COEFF_MIN


class TestRoundTripError:
    @pytest.mark.parametrize("qp", [1, 4, 8, 15, 31])
    @pytest.mark.parametrize("intra", [True, False])
    def test_ac_error_bounded_by_step(self, qp, intra, rng):
        coeffs = rng.integers(-1500, 1500, size=(8, 8, 8))
        levels = quantize_blocks(coeffs, intra, qp)
        recon = dequantize_blocks(levels, intra, qp)
        error = np.abs(recon.astype(np.int64) - coeffs)
        step = 2 * qp
        # AC positions only (DC is special-cased for intra), and only
        # where the level did not clamp.  Truncating quantization with
        # mid-rise reconstruction errs at most ~1 step; the inter dead
        # zone widens the zero bin by another half step.
        ac = np.ones((8, 8), dtype=bool)
        ac[0, 0] = False
        unclamped = np.abs(levels) < LEVEL_MAX
        mask = unclamped & ac[None, :, :]
        bound = 1.5 * step + qp if not intra else step + qp
        assert (error[mask] <= bound).all()

    def test_intra_dc_roundtrip_error(self, rng):
        coeffs = rng.integers(8, 2000, size=(10, 8, 8))
        levels = quantize_blocks(coeffs, True, 10)
        recon = dequantize_blocks(levels, True, 10)
        dc_err = np.abs(recon[:, 0, 0] - coeffs[:, 0, 0])
        clamped = levels[:, 0, 0] == 254
        assert (dc_err[~clamped] <= INTRA_DC_STEP // 2).all()

    @given(
        arrays(np.int64, (1, 8, 8), elements=st.integers(-2000, 2000)),
        st.integers(1, 31),
        st.booleans(),
    )
    def test_roundtrip_never_flips_sign(self, coeffs, qp, intra):
        levels = quantize_blocks(coeffs, intra, qp)
        recon = dequantize_blocks(levels, intra, qp)
        ac = recon[..., 1:, 1:] * coeffs[..., 1:, 1:]
        assert (ac >= 0).all()
