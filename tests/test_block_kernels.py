"""Differential tests: batched block kernels vs the scalar reference.

The batched DCT/quantization/SAD kernels must be *bit-identical* to the
one-block-at-a-time formulation in :mod:`repro.codec.reference` — same
coefficients, same motion vectors, same operation counts — because the
golden bitstreams and the energy accounting both assume batching is a
pure implementation detail.  These tests drive both implementations
over random macroblock stacks and full synthetic sequences and require
exact equality everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import reference as ref
from repro.codec.dct import forward_dct_blocks, inverse_dct_blocks
from repro.codec.motion import (
    DiamondSearchMotionEstimator,
    ThreeStepMotionEstimator,
)
from repro.codec.quant import dequantize_blocks, quantize_blocks
from repro.obs.tracer import Tracer, use_tracer
from repro.video.synthetic import SEQUENCE_GENERATORS

SEQUENCES = sorted(SEQUENCE_GENERATORS)  # akiyo, foreman, garden
N_RANDOM_STACKS = 200


def _random_stack(rng: np.random.Generator) -> np.ndarray:
    """A random ``(n, 8, 8)`` stack spanning residual/coefficient ranges."""
    n = int(rng.integers(1, 7))
    kind = int(rng.integers(0, 3))
    if kind == 0:  # pixel-range blocks (intra residuals)
        return rng.integers(0, 256, size=(n, 8, 8)).astype(np.int64)
    if kind == 1:  # signed residuals
        return rng.integers(-255, 256, size=(n, 8, 8)).astype(np.int64)
    # full coefficient range, exercises the quantizer clamps
    return rng.integers(-2500, 2501, size=(n, 8, 8)).astype(np.int64)


class TestRandomStacks:
    def test_forward_dct_matches_scalar_reference(self, rng):
        for _ in range(N_RANDOM_STACKS):
            blocks = _random_stack(rng)
            batched = forward_dct_blocks(blocks)
            scalar = ref.forward_dct_scalar(blocks)
            np.testing.assert_array_equal(batched, scalar)

    def test_inverse_dct_matches_scalar_reference(self, rng):
        for _ in range(N_RANDOM_STACKS):
            coeffs = _random_stack(rng)
            batched = inverse_dct_blocks(coeffs)
            scalar = ref.inverse_dct_scalar(coeffs)
            np.testing.assert_array_equal(batched, scalar)

    def test_float_dct_matches_scalar_reference(self, rng):
        for _ in range(20):
            blocks = _random_stack(rng)
            np.testing.assert_allclose(
                forward_dct_blocks(blocks, fixed_point=False),
                ref.forward_dct_scalar(blocks, fixed_point=False),
                rtol=1e-12,
                atol=1e-9,
            )

    def test_quantize_matches_scalar_reference(self, rng):
        for _ in range(N_RANDOM_STACKS):
            coeffs = _random_stack(rng)
            qp = int(rng.integers(1, 32))
            intra = rng.random(coeffs.shape[0]) < 0.5
            batched = quantize_blocks(coeffs, intra, qp)
            scalar = ref.quantize_scalar(coeffs, intra, qp)
            np.testing.assert_array_equal(batched, scalar)

    def test_dequantize_matches_scalar_reference(self, rng):
        for _ in range(N_RANDOM_STACKS):
            coeffs = _random_stack(rng)
            qp = int(rng.integers(1, 32))
            intra = rng.random(coeffs.shape[0]) < 0.5
            levels = quantize_blocks(coeffs, intra, qp)
            batched = dequantize_blocks(levels, intra, qp)
            scalar = ref.dequantize_scalar(levels, intra, qp)
            np.testing.assert_array_equal(batched, scalar)

    def test_quant_roundtrip_uniform_mode_flags(self, rng):
        # Scalar bools (whole-stack mode) must behave like a full mask.
        for intra in (False, True):
            coeffs = _random_stack(rng)
            qp = int(rng.integers(1, 32))
            np.testing.assert_array_equal(
                quantize_blocks(coeffs, intra, qp),
                ref.quantize_scalar(coeffs, intra, qp),
            )


def _biased_cost(sad, dy, dx, row, col):
    """Deterministic, broadcast-safe stand-in for the PBPAIR ME cost."""
    return sad + 3.5 * (np.abs(dy) + np.abs(dx)) + 0.25 * ((row + col) % 5)


def _assert_fields_equal(batched, scalar):
    np.testing.assert_array_equal(batched.mvs, scalar.mvs)
    np.testing.assert_array_equal(batched.sads, scalar.sads)
    assert batched.candidates_evaluated == scalar.candidates_evaluated
    np.testing.assert_array_equal(
        batched.candidates_per_mb, scalar.candidates_per_mb
    )


class TestSequenceDifferential:
    """Batched vs scalar search over full synthetic sequences."""

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_diamond_search_matches_scalar(self, name):
        frames = SEQUENCE_GENERATORS[name](6).frames
        estimator = DiamondSearchMotionEstimator(15, early_exit_sad=1600)
        for prev, cur in zip(frames, frames[1:]):
            tracer = Tracer()
            with use_tracer(tracer), tracer.span("me"):
                batched = estimator.estimate(cur.pixels, prev.pixels)
            scalar = ref.diamond_search_scalar(
                cur.pixels, prev.pixels, 15, early_exit_sad=1600
            )
            _assert_fields_equal(batched, scalar)
            (record,) = tracer.records
            assert record.counters["sad_blocks"] == scalar.candidates_evaluated

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_diamond_search_matches_scalar_with_cost(self, name):
        frames = SEQUENCE_GENERATORS[name](4).frames
        estimator = DiamondSearchMotionEstimator(15, early_exit_sad=1600)
        for prev, cur in zip(frames, frames[1:]):
            batched = estimator.estimate(
                cur.pixels, prev.pixels, cost_function=_biased_cost
            )
            scalar = ref.diamond_search_scalar(
                cur.pixels,
                prev.pixels,
                15,
                early_exit_sad=1600,
                cost_function=_biased_cost,
            )
            _assert_fields_equal(batched, scalar)

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_three_step_search_matches_scalar(self, name):
        frames = SEQUENCE_GENERATORS[name](4).frames
        estimator = ThreeStepMotionEstimator(7)
        for prev, cur in zip(frames, frames[1:]):
            batched = estimator.estimate(
                cur.pixels, prev.pixels, cost_function=_biased_cost
            )
            scalar = ref.three_step_search_scalar(
                cur.pixels, prev.pixels, 7, cost_function=_biased_cost
            )
            _assert_fields_equal(batched, scalar)

    def test_diamond_respects_active_mask(self, rng):
        frames = SEQUENCE_GENERATORS["foreman"](3).frames
        prev, cur = frames[1], frames[2]
        mb_rows = cur.pixels.shape[0] // 16
        mb_cols = cur.pixels.shape[1] // 16
        active = rng.random((mb_rows, mb_cols)) < 0.6
        estimator = DiamondSearchMotionEstimator(15, early_exit_sad=1600)
        batched = estimator.estimate(cur.pixels, prev.pixels, active=active)
        scalar = ref.diamond_search_scalar(
            cur.pixels, prev.pixels, 15, early_exit_sad=1600, active=active
        )
        _assert_fields_equal(batched, scalar)
        assert (batched.candidates_per_mb[~active] == 0).all()

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_dct_quant_on_sequence_residuals(self, name):
        frames = SEQUENCE_GENERATORS[name](3).frames
        prev, cur = frames[0].pixels, frames[1].pixels
        residual = cur.astype(np.int64) - prev.astype(np.int64)
        h, w = residual.shape
        blocks = (
            residual.reshape(h // 8, 8, w // 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(-1, 8, 8)
        )
        coeffs = forward_dct_blocks(blocks)
        np.testing.assert_array_equal(coeffs, ref.forward_dct_scalar(blocks))
        for qp in (1, 8, 31):
            intra = np.arange(blocks.shape[0]) % 3 == 0
            levels = quantize_blocks(coeffs, intra, qp)
            np.testing.assert_array_equal(
                levels, ref.quantize_scalar(coeffs, intra, qp)
            )
            recon = dequantize_blocks(levels, intra, qp)
            np.testing.assert_array_equal(
                recon, ref.dequantize_scalar(levels, intra, qp)
            )
            np.testing.assert_array_equal(
                inverse_dct_blocks(recon), ref.inverse_dct_scalar(recon)
            )
