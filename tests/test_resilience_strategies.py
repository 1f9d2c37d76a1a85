"""Unit tests for the baseline resilience strategies and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.encoder import Encoder
from repro.codec.types import FrameType, MacroblockMode
from repro.resilience.air import AIRStrategy
from repro.resilience.gop import GOPStrategy
from repro.resilience.none import NoResilience
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.resilience.pgop import PGOPStrategy
from repro.resilience.registry import build_strategy

from tests.conftest import small_config, small_sequence


class TestNoResilience:
    def test_only_first_frame_intra(self):
        strategy = NoResilience()
        assert strategy.begin_frame(0) is FrameType.I
        for k in range(1, 10):
            assert strategy.begin_frame(k) is FrameType.P

    def test_no_forced_macroblocks(self):
        config = small_config()
        encoder = Encoder(config, NoResilience())
        encoded = encoder.encode_sequence(small_sequence(n_frames=5))
        for ef in encoded[1:]:
            decisions = ef.decisions
            assert (decisions.forced(None) | decisions.forced("sad-test")).all()


class TestGOP:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_cadence(self, n):
        strategy = GOPStrategy(n)
        types = [strategy.begin_frame(k) for k in range(3 * (n + 1))]
        for k, t in enumerate(types):
            assert t is (FrameType.I if k % (n + 1) == 0 else FrameType.P)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            GOPStrategy(0)

    def test_name(self):
        assert GOPStrategy(3).name == "GOP-3"


class TestAIR:
    def test_forces_exactly_n_macroblocks(self):
        config = small_config()
        strategy = AIRStrategy(refresh_mbs=3)
        encoder = Encoder(config, strategy)
        encoded = encoder.encode_sequence(small_sequence(n_frames=6))
        for ef in encoded[1:]:
            air_forced = int(ef.decisions.forced("air").sum())
            sad_forced = int(ef.decisions.forced("sad-test").sum())
            assert air_forced == min(3, config.mb_count - sad_forced)

    def test_never_skips_me(self):
        # AIR decides after ME: every macroblock pays the search.
        config = small_config()
        strategy = AIRStrategy(refresh_mbs=4)
        encoder = Encoder(config, strategy)
        encoded = encoder.encode_sequence(small_sequence(n_frames=6))
        for ef in encoded[1:]:
            assert ef.stats.me_skipped_mbs == 0

    def test_targets_highest_sad(self):
        config = small_config()
        strategy = AIRStrategy(refresh_mbs=2)
        encoder = Encoder(config, strategy)
        encoded = encoder.encode_sequence(small_sequence(n_frames=6))
        for ef in encoded[1:]:
            decisions = ef.decisions
            forced_sads = decisions.sad_mv[decisions.forced("air")]
            natural_inter = decisions.sad_mv[
                decisions.mode == MacroblockMode.INTER
            ]
            if forced_sads.size and natural_inter.size:
                assert forced_sads.min() >= natural_inter.max() - 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            AIRStrategy(0)


class TestPGOP:
    def test_sweeps_left_to_right(self):
        config = small_config()  # 4 MB columns
        strategy = PGOPStrategy(columns_per_frame=1)
        encoder = Encoder(config, strategy)
        sequence = small_sequence(n_frames=9)
        refreshed_columns = []
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            if ef.frame_type is FrameType.P:
                _, cols = np.nonzero(ef.decisions.forced("pre-me"))
                refreshed_columns.append(sorted(set(cols.tolist())))
        # Columns 0..3 in order, then the sweep restarts.
        assert refreshed_columns[:4] == [[0], [1], [2], [3]]
        assert refreshed_columns[4] == [0]

    def test_multi_column_refresh(self):
        config = small_config()
        strategy = PGOPStrategy(columns_per_frame=3)
        encoder = Encoder(config, strategy)
        sequence = small_sequence(n_frames=4)
        encoder.encode_frame(sequence[0])
        ef = encoder.encode_frame(sequence[1])
        _, cols = np.nonzero(ef.decisions.forced("pre-me"))
        assert set(cols.tolist()) == {0, 1, 2}

    def test_refresh_columns_skip_me(self):
        config = small_config()
        strategy = PGOPStrategy(columns_per_frame=2)
        encoder = Encoder(config, strategy)
        for frame in small_sequence(n_frames=5):
            ef = encoder.encode_frame(frame)
            if ef.frame_type is FrameType.P:
                assert ef.stats.me_skipped_mbs >= 2 * config.mb_rows

    def test_stride_back_fires_on_rightward_reference(self):
        # Content that shifts left each frame makes clean-column
        # macroblocks reference rightward (dx > 0), i.e. into columns
        # the sweep has not refreshed yet -- exactly the propagation
        # stride-back exists to trap.
        from repro.video.frame import Frame, VideoSequence

        # Smooth texture so the diamond search can actually track the
        # shift (white noise has a flat SAD surface away from the true
        # match and every macroblock would fall to the SAD test).
        rng = np.random.default_rng(21)
        field = rng.standard_normal((48, 64))
        kernel = np.ones(9) / 9.0
        field = np.apply_along_axis(
            lambda r: np.convolve(r, kernel, "same"), 0, field
        )
        field = np.apply_along_axis(
            lambda r: np.convolve(r, kernel, "same"), 1, field
        )
        field = (field - field.min()) / (field.max() - field.min() + 1e-9)
        base = (field * 255).astype(np.uint8)
        frames = tuple(
            Frame(np.roll(base, -6 * k, axis=1), k) for k in range(4)
        )
        sequence = VideoSequence(frames, name="roller")
        config = small_config()
        strategy = PGOPStrategy(columns_per_frame=1)
        encoder = Encoder(config, strategy)
        stride_backs = 0
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            stride_backs += int(ef.decisions.forced("stride-back").sum())
        assert stride_backs > 0

    def test_reset(self):
        strategy = PGOPStrategy(columns_per_frame=2)
        config = small_config()
        encoder = Encoder(config, strategy)
        sequence = small_sequence(n_frames=3)
        first = [
            ef.stats.me_skipped_mbs for ef in encoder.encode_sequence(sequence)
        ]
        encoder.reset()
        second = [
            ef.stats.me_skipped_mbs for ef in encoder.encode_sequence(sequence)
        ]
        assert first == second

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            PGOPStrategy(0)


class TestRegistry:
    @pytest.mark.parametrize(
        "spec,expected_type,attr",
        [
            ("NO", NoResilience, None),
            ("GOP-3", GOPStrategy, ("p_frames", 3)),
            ("AIR-24", AIRStrategy, ("refresh_mbs", 24)),
            ("PGOP-1", PGOPStrategy, ("columns_per_frame", 1)),
            ("PBPAIR", PBPAIRStrategy, None),
        ],
    )
    def test_builds_paper_specs(self, spec, expected_type, attr):
        strategy = build_strategy(spec)
        assert isinstance(strategy, expected_type)
        if attr:
            name, value = attr
            assert getattr(strategy, name) == value

    def test_case_insensitive(self):
        assert isinstance(build_strategy("gop-2"), GOPStrategy)

    def test_pbpair_kwargs(self):
        strategy = build_strategy("PBPAIR", intra_th=0.7, plr=0.25)
        assert strategy.config.intra_th == 0.7
        assert strategy.config.plr == 0.25

    @pytest.mark.parametrize(
        "spec", ["GOP", "AIR", "PGOP", "NO-3", "PBPAIR-5", "GOP-0", "GOP-x", "WAT"]
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            build_strategy(spec)

    def test_strategy_names_match_specs(self):
        for spec in ("NO", "GOP-3", "AIR-24", "PGOP-1", "PBPAIR"):
            assert build_strategy(spec).name == spec


class TestAIRCyclic:
    def test_sweeps_all_macroblocks(self):
        config = small_config()  # 12 macroblocks
        strategy = AIRStrategy(refresh_mbs=4, selection="cyclic")
        encoder = Encoder(config, strategy)
        sequence = small_sequence(n_frames=5)
        refreshed = set()
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            if ef.frame_type is FrameType.P:
                refreshed.update(
                    np.flatnonzero(ef.decisions.forced("air")).tolist()
                )
        # 4 per frame x 3+ P-frames covers all 12 macroblock positions
        # (minus any that happened to be intra already).
        assert len(refreshed) >= 10

    def test_pointer_wraps(self):
        config = small_config()
        strategy = AIRStrategy(refresh_mbs=5, selection="cyclic")
        encoder = Encoder(config, strategy)
        for frame in small_sequence(n_frames=6):
            encoder.encode_frame(frame)
        assert 0 <= strategy._next_mb < config.mb_count

    def test_name_and_validation(self):
        assert AIRStrategy(7, selection="cyclic").name == "AIR-7-cyclic"
        with pytest.raises(ValueError):
            AIRStrategy(3, selection="psychic")

    def test_guarantees_refresh_of_quiet_macroblocks(self):
        # A frozen scene: SAD-based AIR keeps picking the same noisy
        # macroblocks; cyclic AIR refreshes every macroblock within one
        # sweep, so under a mid-clip loss its damage clears while the
        # SAD variant's may persist.
        from repro.network.loss import ScriptedLoss
        from repro.sim.pipeline import SimulationConfig, simulate

        clip = small_sequence(n_frames=12, object_motion_amplitude=0.0,
                              texture_drift=0.0, sensor_noise=0.3)
        config = SimulationConfig(codec=small_config())
        cyclic = simulate(
            clip,
            AIRStrategy(4, selection="cyclic"),
            ScriptedLoss([4]),
            config,
        )
        tail = cyclic.frames[-1]
        assert tail.psnr_decoder >= tail.psnr_encoder - 2.0


class TestRegistryAIRVariants:
    def test_cyclic_spec(self):
        strategy = build_strategy("AIR-10-cyclic")
        assert isinstance(strategy, AIRStrategy)
        assert strategy.selection == "cyclic"
        assert strategy.refresh_mbs == 10
        assert strategy.name == "AIR-10-cyclic"

    def test_plain_air_still_sad(self):
        assert build_strategy("AIR-24").selection == "sad"

    def test_variant_on_other_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_strategy("GOP-3-cyclic")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_strategy("AIR-10-psychic")
