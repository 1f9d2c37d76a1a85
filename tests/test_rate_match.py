"""Matched operating points: calibration stats, rate-aware cache keys
and grid determinism under rate control."""

from __future__ import annotations

import pickle

import pytest

from repro.codec.rate import RateControlConfig
from repro.sim.experiment import CalibrationResult, calibrate_intra_th
from repro.sim.pipeline import SimulationConfig
from repro.sim.runner import (
    JobSpec,
    RunnerOptions,
    encode_stream_key,
    run_grid,
)
from repro.video.synthetic import SyntheticConfig

from tests.conftest import SMALL_H, SMALL_W, small_config, small_sequence

TINY_CLIP = SyntheticConfig(
    width=SMALL_W,
    height=SMALL_H,
    n_frames=8,
    texture_scale=30.0,
    object_radius=10,
    object_motion_amplitude=10.0,
    object_motion_period=8,
    seed=11,
)


@pytest.fixture(scope="module")
def clip():
    return small_sequence(n_frames=10)


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(codec=small_config())


class TestCalibrationResultStats:
    """The float subclass keeps its calibration-cost stats pinned."""

    def test_stats_present_and_consistent(self, clip, sim_config):
        result = calibrate_intra_th(
            clip, 6000, plr=0.1, config=sim_config, max_iterations=3
        )
        assert result.probes >= 1
        assert result.unique_encodes == result.probes  # a private cache
        assert result.saved_encodes == result.probes - result.unique_encodes

    def test_float_semantics_preserved(self):
        result = CalibrationResult(0.5, probes=4, unique_encodes=3)
        assert result == 0.5 and result * 2 == 1.0
        assert f"{result:.3f}" == "0.500"
        assert isinstance(result + 0.0, float)

    def test_stats_survive_pickling(self):
        result = CalibrationResult(0.5, probes=4, unique_encodes=3)
        clone = pickle.loads(pickle.dumps(result))
        assert float(clone) == 0.5
        assert (clone.probes, clone.unique_encodes) == (4, 3)


class TestRateAwareCacheKeys:
    def test_job_hash_changes_with_rate(self, sim_config):
        base = JobSpec(scheme="NO", plr=0.1, channel_seed=0,
                       sequence="foreman", n_frames=8, config=sim_config)
        rated = JobSpec(scheme="NO", plr=0.1, channel_seed=0,
                        sequence="foreman", n_frames=8, config=sim_config,
                        rate=RateControlConfig(target_kbps=200.0))
        assert base.content_hash() != rated.content_hash()

    def test_job_hash_changes_with_rate_parameters(self, sim_config):
        def spec(kbps):
            return JobSpec(
                scheme="NO", plr=0.1, channel_seed=0, sequence="foreman",
                n_frames=8, config=sim_config,
                rate=RateControlConfig(target_kbps=kbps),
            )

        assert spec(200.0).content_hash() != spec(300.0).content_hash()
        assert spec(200.0).content_hash() == spec(200.0).content_hash()

    def test_stream_key_changes_with_rate(self, sim_config):
        def key(rate):
            return encode_stream_key(
                sequence=("foreman", 8), scheme="NO", strategy_kwargs={},
                config=sim_config, rate=rate,
            )

        off = key(None)
        on = key(RateControlConfig(target_kbps=200.0))
        other = key(RateControlConfig(target_kbps=300.0))
        assert len({off, on, other}) == 3
        assert key(RateControlConfig(target_kbps=200.0)) == on


class TestRateControlledGrid:
    def _jobs(self, sim_config, rate=None):
        return [
            JobSpec(
                scheme=scheme, plr=0.1, channel_seed=3, sequence="tiny",
                synthetic=TINY_CLIP, config=sim_config, rate=rate,
            )
            for scheme in ("NO", "GOP-3", "PBPAIR")
        ]

    def test_serial_and_pooled_grids_agree_under_rate(self, sim_config):
        rate = RateControlConfig(target_kbps=150.0)
        jobs = self._jobs(sim_config, rate=rate)
        serial = run_grid(
            jobs, options=RunnerOptions(jobs=1, use_cache=False)
        )
        pooled = run_grid(
            jobs, options=RunnerOptions(jobs=2, use_cache=False)
        )
        for a, b in zip(serial, pooled):
            assert a.ok and b.ok
            assert a.result.total_bytes == b.result.total_bytes
            assert a.result.average_psnr_decoder == pytest.approx(
                b.result.average_psnr_decoder
            )

    def test_rate_changes_the_encode(self, sim_config):
        free = run_grid(
            self._jobs(sim_config),
            options=RunnerOptions(jobs=1, use_cache=False),
        )
        squeezed = run_grid(
            self._jobs(
                sim_config, rate=RateControlConfig(target_kbps=50.0)
            ),
            options=RunnerOptions(jobs=1, use_cache=False),
        )
        assert sum(r.result.total_bytes for r in squeezed) < sum(
            r.result.total_bytes for r in free
        )
