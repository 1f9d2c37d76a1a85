"""Unit and integration tests for frame-level rate control."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.encoder import Encoder
from repro.codec.rate import (
    ClosedLoopRateController,
    QPBitsModel,
    RateControlConfig,
    build_rate_controller,
)
from repro.network.loss import NoLoss
from repro.network.packet import Packetizer
from repro.codec.decoder import Decoder
from repro.resilience.none import NoResilience
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.core.pbpair import PBPAIRConfig
from repro.sim.pipeline import SimulationConfig, simulate

from tests.conftest import small_config, small_sequence


class TestEncoderQPPlumbing:
    def test_per_frame_qp_recorded(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoder.quantizer = 4
        first = encoder.encode_frame(sequence[0])
        encoder.quantizer = 12
        second = encoder.encode_frame(sequence[1])
        assert first.qp == 4 and second.qp == 12

    def test_invalid_qp_rejected(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoder.quantizer = 0
        with pytest.raises(ValueError):
            encoder.encode_frame(sequence[0])

    def test_reset_restores_config_qp(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        encoder.quantizer = 20
        encoder.reset()
        assert encoder.quantizer == codec_config.quantizer

    def test_coarser_qp_means_fewer_bits(self, sequence, codec_config):
        fine = Encoder(codec_config, NoResilience())
        fine.quantizer = 3
        coarse = Encoder(codec_config, NoResilience())
        coarse.quantizer = 20
        assert (
            coarse.encode_frame(sequence[0]).size_bytes
            < fine.encode_frame(sequence[0]).size_bytes
        )

    def test_decoder_follows_varying_qp(self, sequence, codec_config):
        encoder = Encoder(codec_config, NoResilience())
        packetizer = Packetizer(codec_config)
        decoder = Decoder(codec_config)
        reference = None
        for qp, frame in zip((4, 14, 7, 22), sequence):
            encoder.quantizer = qp
            ef = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(ef)]
            result = decoder.decode_frame(payloads, reference, frame.index)
            assert result.received.all()
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            reference = result.frame


def fixed_intra_controller(target_bits: int) -> ClosedLoopRateController:
    """QP-only control toward ``target_bits`` per frame at 30 fps.

    ``steer_intra=False`` leaves PBPAIR's ``Intra_Th`` alone, so these
    tests exercise the paper's claim that rate control and PBPAIR are
    independent mechanisms.
    """
    return ClosedLoopRateController(
        RateControlConfig(
            target_kbps=target_bits * 30 / 1000, base_qp=6, steer_intra=False
        )
    )


class TestRateControlledSimulation:
    def test_tracks_target_rate(self, codec_config):
        clip = small_sequence(n_frames=16)
        target_bits = 4000
        controller = fixed_intra_controller(target_bits)
        result = simulate(
            clip,
            NoResilience(),
            NoLoss(),
            SimulationConfig(codec=codec_config),
            rate_controller=controller,
        )
        steady = [r.size_bytes * 8 for r in result.frames[4:]]
        assert abs(np.mean(steady) - target_bits) / target_bits < 0.5

    def test_compatible_with_pbpair(self, codec_config):
        clip = small_sequence(n_frames=12)
        controller = fixed_intra_controller(10000)
        result = simulate(
            clip,
            PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.2)),
            NoLoss(),
            SimulationConfig(codec=codec_config),
            rate_controller=controller,
        )
        assert result.n_frames == len(clip)
        assert result.intra_fraction > 0.05  # PBPAIR still refreshing


class TestRateControlConfig:
    def test_defaults_and_budget(self):
        config = RateControlConfig(target_kbps=300.0)
        assert config.target_bits_per_frame == pytest.approx(10000.0)
        assert config.base_qp == 6 and config.steer_intra

    @pytest.mark.parametrize(
        "overrides",
        [
            {"target_kbps": 0.0},
            {"target_kbps": -10.0},
            {"fps": 0.0},
            {"min_qp": 0},
            {"base_qp": 0},
            {"max_qp": 32},
            {"base_qp": 5, "min_qp": 6},  # min above base
            {"base_qp": 30, "max_qp": 20},  # base above max
            {"sensitivity": 0.0},
            {"recovery_frames": 0},
            {"max_qp_step": 0},
            {"model_smoothing": 0.0},
            {"model_smoothing": 1.5},
            {"intra_gain": -0.1},
            {"intra_gain": 1.1},
        ],
    )
    def test_validation(self, overrides):
        kwargs = dict(target_kbps=300.0)
        kwargs.update(overrides)
        with pytest.raises(ValueError):
            RateControlConfig(**kwargs)

    def test_hashable_and_frozen(self):
        config = RateControlConfig(target_kbps=200.0)
        assert hash(config) == hash(RateControlConfig(target_kbps=200.0))
        with pytest.raises(AttributeError):
            config.target_kbps = 100.0


class TestQPBitsModel:
    def test_empty_model_declines_to_predict(self):
        model = QPBitsModel()
        assert model.predict(6) is None
        assert model.select_qp(10000) is None

    def test_prediction_monotone_in_qp(self):
        model = QPBitsModel()
        model.update(6, 12000)
        predictions = [model.predict(qp) for qp in range(1, 32)]
        assert predictions == sorted(predictions, reverse=True)

    def test_select_qp_smallest_that_fits(self):
        model = QPBitsModel()
        model.update(10, 1000)  # complexity = 10000 -> predict(qp)=10000/qp
        assert model.select_qp(2000) == 5
        assert model.select_qp(10000) == 1

    def test_select_qp_falls_back_to_max(self):
        model = QPBitsModel()
        model.update(1, 100000)
        assert model.select_qp(1, max_qp=31) == 31

    def test_complexity_tracks_recent_content(self):
        model = QPBitsModel(smoothing=1.0)  # trust only the last frame
        model.update(6, 60000)
        model.update(6, 600)
        assert model.predict(6) == pytest.approx(600.0)

    def test_observation_table_kept_for_introspection(self):
        model = QPBitsModel()
        model.update(6, 1200)
        model.update(8, 900)
        assert model.observed_qps == (6, 8)
        assert model.observed_bits_at(6) == pytest.approx(1200.0)
        assert model.observed_bits_at(12) is None

    def test_validation(self):
        model = QPBitsModel()
        with pytest.raises(ValueError):
            QPBitsModel(smoothing=0.0)
        with pytest.raises(ValueError):
            model.update(0, 100)
        with pytest.raises(ValueError):
            model.update(6, -1)
        model.update(6, 100)
        with pytest.raises(ValueError):
            model.predict(32)


class _FakePBPAIRController:
    def __init__(self, intra_th=0.9):
        self.intra_th = intra_th


class _FakePBPAIRStrategy:
    def __init__(self, intra_th=0.9):
        self.controller = _FakePBPAIRController(intra_th)


class TestClosedLoopRateControllerUnit:
    def make(self, **overrides):
        kwargs = dict(target_kbps=300.0, fps=30.0)  # 10000 bits/frame
        kwargs.update(overrides)
        return ClosedLoopRateController(RateControlConfig(**kwargs))

    def test_starts_at_base_qp(self):
        controller = self.make(base_qp=8)
        assert controller.quantizer == 8
        assert controller.frames_observed == 0
        assert controller.delivered_kbps == 0.0

    def test_overshoot_shrinks_budget(self):
        controller = self.make()
        controller.observe(30000)
        assert controller.debt_bits == pytest.approx(20000.0)
        assert controller.frame_budget < controller.target_bits_per_frame

    def test_undershoot_grows_budget(self):
        controller = self.make()
        controller.observe(0)
        assert controller.frame_budget > controller.target_bits_per_frame

    def test_budget_clamped_to_sane_band(self):
        controller = self.make()
        for _ in range(50):
            controller.observe(400000)
        target = controller.target_bits_per_frame
        assert controller.frame_budget >= 0.125 * target
        controller.reset()
        for _ in range(50):
            controller.observe(0)
        assert controller.frame_budget <= 4.0 * target

    def test_qp_moves_toward_fitting_budget(self):
        controller = self.make(base_qp=6)
        controller.observe(40000)  # 4x over at qp 6 -> must coarsen
        assert controller.quantizer > 6

    def test_qp_step_bounded(self):
        controller = self.make(base_qp=6, max_qp_step=2)
        controller.observe(10_000_000)  # grotesque overshoot
        assert controller.quantizer == 8  # 6 + max_qp_step, not 31

    def test_observe_returns_next_qp(self):
        controller = self.make()
        assert controller.observe(10000) == controller.quantizer

    def test_observe_rejects_negative(self):
        with pytest.raises(ValueError):
            self.make().observe(-1)

    def test_delivered_bitrate_accounting(self):
        controller = self.make()
        for _ in range(10):
            controller.observe(10000)
        assert controller.delivered_kbps == pytest.approx(300.0)

    def test_steering_lowers_threshold_when_over_budget(self):
        controller = self.make()
        strategy = _FakePBPAIRStrategy(intra_th=0.8)
        for _ in range(10):
            controller.observe(40000)
        controller.steer_strategy(strategy)
        assert strategy.controller.intra_th < 0.8

    def test_steering_raises_threshold_when_under_budget(self):
        controller = self.make()
        strategy = _FakePBPAIRStrategy(intra_th=0.8)
        for _ in range(10):
            controller.observe(0)
        controller.steer_strategy(strategy)
        assert strategy.controller.intra_th > 0.8

    def test_steering_relative_to_first_seen_threshold(self):
        controller = self.make()
        strategy = _FakePBPAIRStrategy(intra_th=0.8)
        for _ in range(30):
            controller.observe(40000)
            controller.steer_strategy(strategy)
        # swing bounded by intra_gain around the latched base threshold
        floor = 0.8 * (1.0 - controller.config.intra_gain)
        assert strategy.controller.intra_th >= floor - 1e-9

    def test_steering_ignores_plain_strategies(self):
        controller = self.make()
        controller.steer_strategy(NoResilience())  # must not raise

    def test_steering_disabled_by_config(self):
        controller = self.make(steer_intra=False)
        strategy = _FakePBPAIRStrategy(intra_th=0.8)
        controller.observe(40000)
        controller.steer_strategy(strategy)
        assert strategy.controller.intra_th == 0.8

    def test_reset_restores_initial_state(self):
        controller = self.make()
        controller.observe(40000)
        controller.steer_strategy(_FakePBPAIRStrategy())
        controller.reset()
        assert controller.debt_bits == 0.0
        assert controller.frames_observed == 0
        assert controller.quantizer == controller.config.base_qp

    def test_separate_intra_inter_models(self, sequence, codec_config):
        controller = self.make()
        encoder = Encoder(codec_config, NoResilience())
        controller.observe_frame(encoder.encode_frame(sequence[0]))  # I
        controller.observe_frame(encoder.encode_frame(sequence[1]))  # P
        assert controller.intra_model.complexity is not None
        assert controller.inter_model.complexity is not None
        # The I frame must not poison the P-frame cost estimate.
        assert (
            controller.inter_model.complexity
            < controller.intra_model.complexity
        )


class TestClosedLoopConvergence:
    def _delivered_kbps(self, result, fps=30.0):
        return result.total_bytes * 8 / result.n_frames * fps / 1000.0

    def _feasible_target_kbps(self, clip, codec_config, qp=10):
        """A bitrate inside the clip's feasible band: its size at ``qp``."""
        encoder = Encoder(codec_config, NoResilience())
        bits = [encoder.encode_frame(f).stats.bits for f in clip]
        return np.mean(bits) * 30.0 / 1000.0

    def test_converges_on_synthetic_sequence(self, codec_config):
        clip = small_sequence(n_frames=48)
        target = self._feasible_target_kbps(clip, codec_config)
        rate = RateControlConfig(target_kbps=target)
        result = simulate(
            clip,
            NoResilience(),
            NoLoss(),
            SimulationConfig(codec=codec_config),
            rate_controller=build_rate_controller(rate),
        )
        delivered = self._delivered_kbps(result)
        assert abs(delivered - target) / target < 0.10

    def test_converges_with_pbpair(self, codec_config):
        clip = small_sequence(n_frames=48)
        target = self._feasible_target_kbps(clip, codec_config)
        result = simulate(
            clip,
            PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.1)),
            NoLoss(),
            SimulationConfig(codec=codec_config),
            rate_controller=build_rate_controller(
                RateControlConfig(target_kbps=target)
            ),
        )
        delivered = self._delivered_kbps(result)
        assert abs(delivered - target) / target < 0.15

    def test_rate_control_changes_the_stream(self, codec_config):
        clip = small_sequence(n_frames=12)
        config = SimulationConfig(codec=codec_config)
        free = simulate(clip, NoResilience(), NoLoss(), config)
        target = 0.25 * self._delivered_kbps(free)
        squeezed = simulate(
            clip,
            NoResilience(),
            NoLoss(),
            config,
            rate_controller=build_rate_controller(
                RateControlConfig(target_kbps=target)
            ),
        )
        assert squeezed.total_bytes < free.total_bytes


class TestBuildRateController:
    def test_none_means_off(self):
        assert build_rate_controller(None) is None

    def test_builds_fresh_controller(self):
        config = RateControlConfig(target_kbps=200.0)
        first = build_rate_controller(config)
        second = build_rate_controller(config)
        assert isinstance(first, ClosedLoopRateController)
        assert first is not second and first.config == config
