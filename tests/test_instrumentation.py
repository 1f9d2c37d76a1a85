"""Tests for the PBPAIR instrumentation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.encoder import Encoder
from repro.codec.types import FrameType
from repro.core.instrumentation import (
    InstrumentedPBPAIRStrategy,
    SigmaTrace,
    SigmaSnapshot,
    sigma_heatmap,
)
from repro.core.pbpair import PBPAIRConfig
from repro.resilience.pbpair_strategy import PBPAIRStrategy

from tests.conftest import small_config, small_sequence


@pytest.fixture(scope="module")
def instrumented_run():
    config = small_config()
    sequence = small_sequence(n_frames=10)
    strategy = InstrumentedPBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.2))
    encoder = Encoder(config, strategy)
    encoded = encoder.encode_sequence(sequence)
    return config, sequence, strategy, encoded


class TestInstrumentedStrategy:
    def test_records_one_snapshot_per_frame(self, instrumented_run):
        _, sequence, strategy, _ = instrumented_run
        assert len(strategy.trace) == len(sequence)
        indices = [s.frame_index for s in strategy.trace.snapshots]
        assert indices == list(range(len(sequence)))

    def test_behaviour_identical_to_plain_pbpair(self):
        config = small_config()
        sequence = small_sequence(n_frames=8)
        plain = Encoder(
            config, PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.2))
        )
        instrumented = Encoder(
            config,
            InstrumentedPBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.2)),
        )
        plain_out = plain.encode_sequence(sequence)
        instr_out = instrumented.encode_sequence(sequence)
        assert [e.payload for e in plain_out] == [e.payload for e in instr_out]
        assert plain.counters.as_dict() == instrumented.counters.as_dict()

    def test_sigma_values_in_unit_interval(self, instrumented_run):
        _, _, strategy, _ = instrumented_run
        for snapshot in strategy.trace.snapshots:
            for sigma in (snapshot.sigma_before, snapshot.sigma_after):
                assert (sigma >= 0).all() and (sigma <= 1).all()

    def test_intra_mask_matches_encoder_stats(self, instrumented_run):
        _, _, strategy, encoded = instrumented_run
        for snapshot, ef in zip(strategy.trace.snapshots, encoded):
            assert int(snapshot.intra_mask.sum()) == ef.stats.intra_mbs

    def test_reference_sigma_only_on_p_frames(self, instrumented_run):
        _, _, strategy, _ = instrumented_run
        first = strategy.trace.snapshots[0]
        assert first.frame_type is FrameType.I
        assert first.reference_sigma_mean is None
        p_frames = [
            s
            for s in strategy.trace.snapshots
            if s.frame_type is FrameType.P and not s.intra_mask.all()
        ]
        assert all(s.reference_sigma_mean is not None for s in p_frames)

    def test_reset_clears_trace(self, instrumented_run):
        config = small_config()
        strategy = InstrumentedPBPAIRStrategy(PBPAIRConfig())
        encoder = Encoder(config, strategy)
        encoder.encode_sequence(small_sequence(n_frames=3))
        encoder.reset()
        assert len(strategy.trace) == 0


class TestSigmaTrace:
    def test_series_lengths(self, instrumented_run):
        _, sequence, strategy, _ = instrumented_run
        trace = strategy.trace
        assert len(trace.mean_sigma_series()) == len(sequence)
        assert len(trace.min_sigma_series()) == len(sequence)
        assert len(trace) == len(sequence)

    def test_min_never_exceeds_mean(self, instrumented_run):
        _, _, strategy, _ = instrumented_run
        for low, mean in zip(
            strategy.trace.min_sigma_series(),
            strategy.trace.mean_sigma_series(),
        ):
            assert low <= mean + 1e-12

    def test_refresh_intervals_shape_and_bounds(self, instrumented_run):
        config, sequence, strategy, _ = instrumented_run
        intervals = strategy.trace.refresh_intervals()
        assert intervals.shape == (config.mb_rows, config.mb_cols)
        finite = intervals[np.isfinite(intervals)]
        if finite.size:
            assert (finite >= 1).all()
            assert (finite <= len(sequence)).all()

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            SigmaTrace().refresh_intervals()


class TestHeatmap:
    def test_extremes(self):
        art = sigma_heatmap(np.array([[0.0, 1.0]]))
        assert art == " @"

    def test_mark_overrides_shade(self):
        art = sigma_heatmap(
            np.array([[1.0, 1.0]]), mark=np.array([[True, False]])
        )
        assert art == "R@"

    def test_multirow_layout(self):
        art = sigma_heatmap(np.full((3, 5), 0.5))
        lines = art.splitlines()
        assert len(lines) == 3
        assert all(len(line) == 5 for line in lines)

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_heatmap(np.zeros(4))
        with pytest.raises(ValueError):
            sigma_heatmap(np.zeros((2, 2)), mark=np.zeros((3, 3), dtype=bool))
