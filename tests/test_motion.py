"""Unit tests for the motion estimators and motion compensation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.motion import (
    DiamondSearchMotionEstimator,
    FullSearchMotionEstimator,
    ThreeStepMotionEstimator,
    build_motion_estimator,
)

from tests.test_recon import predict_frame

ESTIMATORS = [
    FullSearchMotionEstimator(7),
    ThreeStepMotionEstimator(7),
    DiamondSearchMotionEstimator(7, early_exit_sad=0),
]


def _textured_frame(rng, h=48, w=64):
    # Strong unique texture so translation recovery is unambiguous.
    return rng.integers(0, 256, size=(h, w)).astype(np.uint8)


def _translate(frame, dy, dx):
    return np.roll(np.roll(frame, dy, axis=0), dx, axis=1)


def _smooth_frame(rng, h=48, w=64):
    # Low-frequency texture: the SAD surface is unimodal, which is the
    # regime gradient searches (TSS, diamond) are designed for.
    field = rng.standard_normal((h + 8, w + 8))
    kernel = np.ones(9) / 9.0
    field = np.apply_along_axis(lambda r: np.convolve(r, kernel, "same"), 0, field)
    field = np.apply_along_axis(lambda r: np.convolve(r, kernel, "same"), 1, field)
    field = field[4 : 4 + h, 4 : 4 + w]
    field = (field - field.min()) / (field.max() - field.min() + 1e-9)
    return (field * 255).astype(np.uint8)


class TestTranslationRecovery:
    @pytest.mark.parametrize("shift", [(0, 0), (2, -3), (-4, 4), (6, 1)])
    def test_full_search_recovers_exactly(self, shift, rng):
        dy, dx = shift
        reference = _textured_frame(rng)
        current = _translate(reference, dy, dx)
        field = FullSearchMotionEstimator(7).estimate(current, reference)
        # current[y] = reference[y - dy], so the motion vector pointing
        # into the reference is the *negated* roll.  Interior
        # macroblocks (away from the wrap-around border) must find it.
        interior = field.mvs[1:-1, 1:-1]
        expected = np.array([-dy, -dx])
        matches = (interior == expected).all(axis=-1)
        assert matches.mean() > 0.9
        assert (field.sads[1:-1, 1:-1][matches[:, :]] == 0).all()

    @pytest.mark.parametrize(
        "estimator",
        [ThreeStepMotionEstimator(7), DiamondSearchMotionEstimator(7, 0)],
        ids=lambda e: type(e).__name__,
    )
    @pytest.mark.parametrize("shift", [(1, -1), (2, 3), (-4, 2)])
    def test_heuristic_search_tracks_smooth_motion(self, estimator, shift, rng):
        # Gradient searches need a well-behaved SAD surface; on smooth
        # content they must land within one pixel of the optimum for
        # most interior macroblocks.
        dy, dx = shift
        reference = _smooth_frame(rng)
        current = _translate(reference, dy, dx)
        field = estimator.estimate(current, reference)
        interior = field.mvs[1:-1, 1:-1]
        expected = np.array([-dy, -dx])
        error = np.abs(interior - expected).max(axis=-1)
        assert np.median(error) <= 1

    @pytest.mark.parametrize("estimator", ESTIMATORS, ids=lambda e: type(e).__name__)
    def test_identical_frames_zero_motion(self, estimator, rng):
        frame = _textured_frame(rng)
        field = estimator.estimate(frame, frame)
        assert (field.mvs == 0).all()
        assert (field.sads == 0).all()


class TestActiveMask:
    @pytest.mark.parametrize("estimator", ESTIMATORS, ids=lambda e: type(e).__name__)
    def test_inactive_blocks_cost_nothing(self, estimator, rng):
        reference = _textured_frame(rng)
        current = _translate(reference, 1, 1)
        active = np.zeros((3, 4), dtype=bool)
        active[1, 2] = True
        field = estimator.estimate(current, reference, active=active)
        assert (field.mvs[~active] == 0).all()
        assert field.candidates_evaluated > 0
        full = estimator.estimate(current, reference)
        assert field.candidates_evaluated < full.candidates_evaluated

    @pytest.mark.parametrize("estimator", ESTIMATORS, ids=lambda e: type(e).__name__)
    def test_all_inactive(self, estimator, rng):
        frame = _textured_frame(rng)
        field = estimator.estimate(
            frame, frame, active=np.zeros((3, 4), dtype=bool)
        )
        assert field.candidates_evaluated == 0
        assert (field.candidates_per_mb == 0).all()


class TestCandidateAccounting:
    def test_full_search_count_exact(self, rng):
        frame = _textured_frame(rng)
        field = FullSearchMotionEstimator(3).estimate(frame, frame)
        assert field.candidates_evaluated == 49 * 12
        assert (field.candidates_per_mb == 49).all()

    def test_per_mb_sums_to_total(self, rng):
        reference = _textured_frame(rng)
        current = _translate(reference, 3, -2)
        for estimator in ESTIMATORS:
            field = estimator.estimate(current, reference)
            assert field.candidates_per_mb.sum() == pytest.approx(
                field.candidates_evaluated, abs=field.mvs.shape[0] * field.mvs.shape[1]
            )

    def test_diamond_early_exit_is_cheap(self, rng):
        frame = _textured_frame(rng)
        est = DiamondSearchMotionEstimator(15, early_exit_sad=100)
        field = est.estimate(frame, frame)
        assert (field.candidates_per_mb == 1).all()

    def test_diamond_cost_scales_with_motion(self, rng):
        reference = _textured_frame(rng)
        est = DiamondSearchMotionEstimator(15, early_exit_sad=100)
        near = est.estimate(_translate(reference, 1, 0), reference)
        far = est.estimate(_translate(reference, 0, 9), reference)
        assert far.candidates_evaluated > near.candidates_evaluated

    def test_diamond_search_cheaper_than_full(self, rng):
        reference = _textured_frame(rng)
        current = _translate(reference, 2, 2)
        diamond = DiamondSearchMotionEstimator(7, early_exit_sad=0)
        full = FullSearchMotionEstimator(7)
        assert (
            diamond.estimate(current, reference).candidates_evaluated
            < full.estimate(current, reference).candidates_evaluated
        )


class TestCostFunction:
    def test_cost_function_steers_choice(self, rng):
        # A cost that forbids the true displacement forces second best.
        reference = _textured_frame(rng)
        current = _translate(reference, 0, 3)

        def veto_true_mv(sad, dy, dx, r, c):
            penalty = np.where((np.asarray(dy) == 0) & (np.asarray(dx) == 3), 1e9, 0.0)
            return sad + penalty

        field = FullSearchMotionEstimator(7).estimate(
            current, reference, cost_function=veto_true_mv
        )
        assert not ((field.mvs[1:-1, 1:-1] == [0, 3]).all(axis=-1)).any()

    def test_reported_sad_is_true_sad(self, rng):
        # Even under a biased cost, `sads` holds the real SAD of the
        # winner, not the biased cost.
        reference = _textured_frame(rng)
        current = _translate(reference, 1, 1)

        def biased(sad, dy, dx, r, c):
            return sad + 1000.0

        field = FullSearchMotionEstimator(3).estimate(
            current, reference, cost_function=biased
        )
        # Constant bias changes nothing; SADs must be the unbiased optima.
        baseline = FullSearchMotionEstimator(3).estimate(current, reference)
        np.testing.assert_array_equal(field.sads, baseline.sads)


class TestValidation:
    def test_mismatched_frames_rejected(self):
        with pytest.raises(ValueError):
            FullSearchMotionEstimator(3).estimate(
                np.zeros((32, 32)), np.zeros((32, 48))
            )

    def test_bad_search_range(self):
        for cls in (FullSearchMotionEstimator, ThreeStepMotionEstimator):
            with pytest.raises(ValueError):
                cls(0)
            with pytest.raises(ValueError):
                cls(16)
        with pytest.raises(ValueError):
            DiamondSearchMotionEstimator(0)

    def test_factory(self):
        assert isinstance(
            build_motion_estimator("full", 7), FullSearchMotionEstimator
        )
        assert isinstance(
            build_motion_estimator("three-step", 7), ThreeStepMotionEstimator
        )
        assert isinstance(
            build_motion_estimator("diamond", 7), DiamondSearchMotionEstimator
        )
        with pytest.raises(ValueError):
            build_motion_estimator("psychic", 7)


class TestMotionCompensate:
    def test_zero_motion_is_identity(self, rng):
        frame = _textured_frame(rng)
        mvs = np.zeros((3, 4, 2), dtype=np.int64)
        np.testing.assert_array_equal(predict_frame(frame, mvs)[0], frame)

    def test_uniform_shift(self, rng):
        reference = _textured_frame(rng)
        mvs = np.full((3, 4, 2), 2, dtype=np.int64)
        [predicted] = predict_frame(reference, mvs)
        np.testing.assert_array_equal(
            predicted[:-2, :-2], reference[2:, 2:]
        )

    def test_edge_padding(self, rng):
        reference = _textured_frame(rng)
        mvs = np.zeros((3, 4, 2), dtype=np.int64)
        mvs[0, 0] = (-5, -5)  # points outside the frame at the corner
        [predicted] = predict_frame(reference, mvs)
        # Top-left pixels replicate the frame edge.
        assert predicted[0, 0] == reference[0, 0]

    def test_consistency_with_estimator(self, rng):
        # MC at the estimated vectors must reproduce the estimator's SAD.
        reference = _textured_frame(rng)
        current = _translate(reference, 2, -1)
        field = FullSearchMotionEstimator(7).estimate(current, reference)
        [predicted] = predict_frame(reference, field.mvs)
        diff = np.abs(current.astype(np.int64) - predicted.astype(np.int64))
        sads = diff.reshape(3, 16, 4, 16).sum(axis=(1, 3))
        np.testing.assert_array_equal(sads, field.sads)
