"""Unit tests for the PBPAIR controller and its strategy adapter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.encoder import Encoder
from repro.codec.types import MacroblockMode
from repro.core.pbpair import PBPAIRConfig, PBPAIRController
from repro.resilience.pbpair_strategy import PBPAIRStrategy

from tests.conftest import small_config, small_sequence

ROWS, COLS = 3, 4


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(intra_th=-0.1),
            dict(intra_th=1.1),
            dict(plr=-0.5),
            dict(plr=2.0),
            dict(loss_penalty_per_pixel=-1.0),
            dict(similarity_scale=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PBPAIRConfig(**kwargs)

    def test_defaults_valid(self):
        config = PBPAIRConfig()
        assert 0 <= config.intra_th <= 1


class TestModeSelection:
    def test_fresh_state_selects_nothing(self):
        controller = PBPAIRController(PBPAIRConfig(intra_th=0.9), ROWS, COLS)
        assert not controller.select_intra_macroblocks().any()

    def test_threshold_one_selects_everything(self):
        controller = PBPAIRController(PBPAIRConfig(intra_th=1.0), ROWS, COLS)
        # sigma == 1 < 1.0 is false; but after any decay all qualify.
        modes = np.full((ROWS, COLS), MacroblockMode.INTER, dtype=object)
        controller.update_after_frame(
            modes,
            np.zeros((ROWS, COLS, 2), dtype=np.int64),
            np.full((ROWS, COLS), 256 * 64.0),  # similarity 0
        )
        assert controller.select_intra_macroblocks().all()

    def test_threshold_zero_never_selects(self):
        controller = PBPAIRController(PBPAIRConfig(intra_th=0.0, plr=0.5), ROWS, COLS)
        modes = np.full((ROWS, COLS), MacroblockMode.INTER, dtype=object)
        for _ in range(20):
            controller.update_after_frame(
                modes,
                np.zeros((ROWS, COLS, 2), dtype=np.int64),
                np.full((ROWS, COLS), 256 * 64.0),
            )
        assert not controller.select_intra_macroblocks().any()

    def test_decay_crosses_threshold_eventually(self):
        controller = PBPAIRController(PBPAIRConfig(intra_th=0.5, plr=0.2), ROWS, COLS)
        modes = np.full((ROWS, COLS), MacroblockMode.INTER, dtype=object)
        for _ in range(10):
            controller.update_after_frame(
                modes,
                np.zeros((ROWS, COLS, 2), dtype=np.int64),
                np.full((ROWS, COLS), 256 * 64.0),  # similarity 0
            )
        assert controller.select_intra_macroblocks().all()

    def test_runtime_knobs_settable(self):
        controller = PBPAIRController(PBPAIRConfig(), ROWS, COLS)
        controller.intra_th = 0.7
        controller.plr = 0.25
        assert controller.intra_th == 0.7
        assert controller.plr == 0.25
        with pytest.raises(ValueError):
            controller.intra_th = 1.5
        with pytest.raises(ValueError):
            controller.plr = -0.1

    def test_reset_restores_config(self):
        controller = PBPAIRController(PBPAIRConfig(intra_th=0.3, plr=0.1), ROWS, COLS)
        controller.intra_th = 0.9
        modes = np.full((ROWS, COLS), MacroblockMode.INTER, dtype=object)
        controller.update_after_frame(
            modes, np.zeros((ROWS, COLS, 2), dtype=np.int64), np.zeros((ROWS, COLS))
        )
        controller.reset()
        assert controller.intra_th == 0.3
        assert (controller.matrix.sigma == 1.0).all()


class TestMECost:
    def _decayed_controller(self):
        controller = PBPAIRController(
            PBPAIRConfig(intra_th=0.0, plr=0.3, loss_penalty_per_pixel=4.0),
            ROWS,
            COLS,
        )
        # Damage one macroblock's sigma.
        intra = np.ones((ROWS, COLS), bool)
        intra[1, 1] = False
        modes = np.where(
            intra,
            np.full((ROWS, COLS), MacroblockMode.INTRA, dtype=object),
            np.full((ROWS, COLS), MacroblockMode.INTER, dtype=object),
        )
        for _ in range(6):
            controller.update_after_frame(
                modes,
                np.zeros((ROWS, COLS, 2), dtype=np.int64),
                np.full((ROWS, COLS), 256 * 64.0),
            )
        return controller

    def test_penalizes_low_sigma_references(self):
        controller = self._decayed_controller()
        cost = controller.me_cost_function()
        sad = np.array([1000])
        safe = cost(sad, np.array([0]), np.array([0]), np.array([0]), np.array([0]))
        risky = cost(sad, np.array([0]), np.array([0]), np.array([1]), np.array([1]))
        assert risky > safe

    def test_cost_reduces_to_sad_when_sigma_is_one(self):
        controller = PBPAIRController(PBPAIRConfig(), ROWS, COLS)
        cost = controller.me_cost_function()
        sad = np.array([123.0, 456.0])
        out = cost(sad, np.array([0, 0]), np.array([0, 0]), np.array([0, 1]), np.array([0, 1]))
        np.testing.assert_allclose(out, sad)

    def test_displacement_pulls_in_neighbour_sigma(self):
        controller = self._decayed_controller()
        cost = controller.me_cost_function()
        sad = np.array([1000])
        # Candidate for MB (1,2) displaced left overlaps damaged (1,1).
        toward = cost(sad, np.array([0]), np.array([-4]), np.array([1]), np.array([2]))
        away = cost(sad, np.array([0]), np.array([4]), np.array([1]), np.array([2]))
        assert toward > away

    def test_snapshot_semantics(self):
        # The cost function binds the sigma at build time.
        controller = self._decayed_controller()
        cost = controller.me_cost_function()
        before = cost(
            np.array([0.0]), np.array([0]), np.array([0]), np.array([1]), np.array([1])
        )
        controller.matrix.reset()
        after_reset = cost(
            np.array([0.0]), np.array([0]), np.array([0]), np.array([1]), np.array([1])
        )
        assert before == after_reset  # still the old snapshot


class TestStrategyAdapter:
    def test_lazy_controller_creation(self):
        strategy = PBPAIRStrategy(PBPAIRConfig())
        assert strategy.controller is None

    def test_end_to_end_encoding_produces_refresh(self):
        config = small_config()
        sequence = small_sequence(n_frames=10)
        strategy = PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.3))
        encoder = Encoder(config, strategy)
        encoded = encoder.encode_sequence(sequence)
        pre_me = sum(
            int(ef.decisions.forced("pre-me").sum()) for ef in encoded[1:]
        )
        assert pre_me > 0
        assert strategy.controller is not None

    def test_me_skipped_for_pre_me_intras(self):
        config = small_config()
        sequence = small_sequence(n_frames=10)
        strategy = PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.3))
        encoder = Encoder(config, strategy)
        for ef in encoder.encode_sequence(sequence)[1:]:
            pre_me = ef.decisions.forced("pre-me")
            assert ef.decisions.me_skipped[pre_me].all()
            assert not ef.decisions.mv[pre_me].any()

    def test_zero_penalty_disables_cost_function(self):
        strategy = PBPAIRStrategy(PBPAIRConfig(loss_penalty_per_pixel=0.0))
        config = small_config()
        encoder = Encoder(config, strategy)
        encoder.encode_frame(small_sequence(n_frames=1)[0])
        assert strategy.me_cost_function() is None

    def test_probability_updates_charged(self):
        config = small_config()
        sequence = small_sequence(n_frames=4)
        strategy = PBPAIRStrategy(PBPAIRConfig())
        encoder = Encoder(config, strategy)
        encoder.encode_sequence(sequence)
        assert encoder.counters.probability_updates == config.mb_count * 4

    def test_reset_between_runs(self):
        config = small_config()
        sequence = small_sequence(n_frames=6)
        strategy = PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.3))
        encoder = Encoder(config, strategy)
        first = [ef.stats.intra_mbs for ef in encoder.encode_sequence(sequence)]
        encoder.reset()
        second = [ef.stats.intra_mbs for ef in encoder.encode_sequence(sequence)]
        assert first == second


class TestRefreshCap:
    def _decayed(self, cap):
        controller = PBPAIRController(
            PBPAIRConfig(intra_th=0.9, plr=0.3, max_refresh_per_frame=cap),
            ROWS,
            COLS,
        )
        modes = np.full((ROWS, COLS), MacroblockMode.INTER, dtype=object)
        sad = np.full((ROWS, COLS), 256 * 64.0)
        sad[0, 0] = 0.0  # this macroblock keeps similarity 1
        for _ in range(4):
            controller.update_after_frame(
                modes, np.zeros((ROWS, COLS, 2), dtype=np.int64), sad
            )
        return controller

    def test_cap_limits_selection(self):
        controller = self._decayed(cap=3)
        mask = controller.select_intra_macroblocks()
        assert int(mask.sum()) == 3

    def test_cap_prefers_lowest_sigma(self):
        controller = self._decayed(cap=3)
        mask = controller.select_intra_macroblocks()
        sigma = controller.matrix.sigma
        worst_selected = sigma[mask].max()
        best_unselected = sigma[
            ~mask & (sigma < controller.intra_th)
        ].min()
        assert worst_selected <= best_unselected + 1e-12

    def test_no_cap_selects_everything_below_threshold(self):
        controller = self._decayed(cap=None)
        mask = controller.select_intra_macroblocks()
        assert int(mask.sum()) > 3

    def test_deferred_macroblocks_refresh_later(self):
        config = small_config()
        sequence = small_sequence(n_frames=14)
        strategy = PBPAIRStrategy(
            PBPAIRConfig(intra_th=0.95, plr=0.3, max_refresh_per_frame=2)
        )
        encoder = Encoder(config, strategy)
        encoded = encoder.encode_sequence(sequence)
        per_frame = [ef.stats.intra_mbs for ef in encoded[1:]]
        # Never above the cap (plus any SAD-test intras), and the total
        # budget is still being spent steadily.
        pre_me = [
            int(ef.decisions.forced("pre-me").sum()) for ef in encoded[1:]
        ]
        assert max(pre_me) <= 2
        assert sum(pre_me) >= 10

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            PBPAIRConfig(max_refresh_per_frame=0)


class TestControllerProperties:
    """Hypothesis invariants on the decision machinery."""

    from hypothesis import given, settings, strategies as st

    @given(
        th_low=st.floats(0.0, 1.0),
        th_high=st.floats(0.0, 1.0),
        plr=st.floats(0.05, 0.5),
        steps=st.integers(1, 6),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=40, deadline=None)
    def test_higher_threshold_selects_superset(
        self, th_low, th_high, plr, steps, seed
    ):
        import numpy as np
        from hypothesis import assume

        assume(th_low <= th_high)
        rng = np.random.default_rng(seed)
        controller = PBPAIRController(PBPAIRConfig(intra_th=0.5, plr=plr), ROWS, COLS)
        modes = np.full((ROWS, COLS), MacroblockMode.INTER, dtype=object)
        for _ in range(steps):
            controller.update_after_frame(
                modes,
                rng.integers(-7, 8, size=(ROWS, COLS, 2)),
                rng.uniform(0, 256 * 64.0, size=(ROWS, COLS)),
            )
        controller.intra_th = th_low
        low_mask = controller.select_intra_macroblocks()
        controller.intra_th = th_high
        high_mask = controller.select_intra_macroblocks()
        assert (high_mask | low_mask == high_mask).all()  # low ⊆ high

    @given(
        cap=st.integers(1, ROWS * COLS),
        plr=st.floats(0.1, 0.5),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=40, deadline=None)
    def test_cap_is_respected_and_subset_of_uncapped(self, cap, plr, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        capped = PBPAIRController(
            PBPAIRConfig(intra_th=0.95, plr=plr, max_refresh_per_frame=cap),
            ROWS,
            COLS,
        )
        plain = PBPAIRController(
            PBPAIRConfig(intra_th=0.95, plr=plr), ROWS, COLS
        )
        modes = np.full((ROWS, COLS), MacroblockMode.INTER, dtype=object)
        for _ in range(4):
            mvs = rng.integers(-7, 8, size=(ROWS, COLS, 2))
            sads = rng.uniform(0, 256 * 64.0, size=(ROWS, COLS))
            capped.update_after_frame(modes, mvs, sads)
            plain.update_after_frame(modes, mvs, sads)
        capped_mask = capped.select_intra_macroblocks()
        plain_mask = plain.select_intra_macroblocks()
        assert int(capped_mask.sum()) <= cap
        assert (capped_mask & ~plain_mask).sum() == 0  # capped ⊆ plain


class TestCorrectnessMathProperties:
    from hypothesis import given, settings, strategies as st

    @given(
        th_a=st.floats(0.01, 0.99),
        th_b=st.floats(0.01, 0.99),
        plr=st.floats(0.01, 0.9),
    )
    @settings(max_examples=60)
    def test_refresh_interval_monotone_in_threshold(self, th_a, th_b, plr):
        from hypothesis import assume
        from repro.core.correctness import refresh_interval

        assume(th_a < th_b)
        # A higher threshold is crossed sooner.
        assert refresh_interval(plr, th_b) <= refresh_interval(plr, th_a)

    @given(sad_a=st.floats(0, 1e7), sad_b=st.floats(0, 1e7))
    @settings(max_examples=60)
    def test_similarity_antitone_in_sad(self, sad_a, sad_b):
        import numpy as np
        from hypothesis import assume
        from repro.core.correctness import similarity_from_sad

        assume(sad_a <= sad_b)
        a = similarity_from_sad(np.array([[sad_a]]))[0, 0]
        b = similarity_from_sad(np.array([[sad_b]]))[0, 0]
        assert b <= a
