"""Unit tests for operation counters, device profiles and the model."""

from __future__ import annotations

import pytest

from repro.energy.counters import OperationCounters
from repro.energy.model import EnergyModel
from repro.energy.profiles import DEVICE_PROFILES, IPAQ_H5555, ZAURUS_SL5600


class TestCounters:
    def test_starts_at_zero(self):
        counters = OperationCounters()
        assert counters.total_operations() == 0

    def test_add(self):
        a = OperationCounters(sad_blocks=5, entropy_bits=100)
        b = OperationCounters(sad_blocks=3, dct_blocks=2)
        a.add(b)
        assert a.sad_blocks == 8
        assert a.dct_blocks == 2
        assert a.entropy_bits == 100

    def test_copy_is_independent(self):
        a = OperationCounters(sad_blocks=5)
        b = a.copy()
        b.sad_blocks += 1
        assert a.sad_blocks == 5

    def test_diff(self):
        early = OperationCounters(sad_blocks=5, mc_blocks=1)
        late = OperationCounters(sad_blocks=9, mc_blocks=4)
        delta = late.diff(early)
        assert delta.sad_blocks == 4 and delta.mc_blocks == 3

    def test_as_dict_covers_all_fields(self):
        d = OperationCounters().as_dict()
        assert set(d) == {
            "sad_blocks",
            "dct_blocks",
            "idct_blocks",
            "quant_blocks",
            "dequant_blocks",
            "mc_blocks",
            "entropy_bits",
            "mode_decisions",
            "probability_updates",
        }


class TestProfiles:
    def test_every_counter_has_a_cost(self):
        for profile in DEVICE_PROFILES.values():
            for name in OperationCounters().as_dict():
                assert profile.cost_of(name) >= 0

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            IPAQ_H5555.cost_of("hallucinated_ops")

    def test_registry(self):
        assert DEVICE_PROFILES["ipaq"] is IPAQ_H5555
        assert DEVICE_PROFILES["zaurus"] is ZAURUS_SL5600

    def test_sad_dominates_per_macroblock_budget(self):
        # The paper's premise: a motion search (tens of SAD candidates)
        # outweighs the transform chain of one macroblock.
        for profile in (IPAQ_H5555, ZAURUS_SL5600):
            search_cost = 20 * profile.sad_block_uj
            transform_cost = 4 * (
                profile.dct_block_uj
                + profile.idct_block_uj
                + profile.quant_block_uj
                + profile.dequant_block_uj
            )
            assert search_cost > transform_cost


class TestModel:
    def test_zero_work_zero_energy(self):
        model = EnergyModel(IPAQ_H5555)
        assert model.joules(OperationCounters()) == 0.0

    def test_pricing(self):
        model = EnergyModel(IPAQ_H5555)
        counters = OperationCounters(sad_blocks=1000)
        expected = 1000 * IPAQ_H5555.sad_block_uj * 1e-6
        assert model.joules(counters) == pytest.approx(expected)

    def test_breakdown_sums_to_total(self):
        model = EnergyModel(IPAQ_H5555)
        counters = OperationCounters(
            sad_blocks=100, dct_blocks=50, entropy_bits=999, mc_blocks=7
        )
        breakdown = model.breakdown(counters)
        assert breakdown.total_joules == pytest.approx(
            sum(breakdown.by_class.values())
        )
        assert breakdown.device == IPAQ_H5555.name

    def test_me_fraction(self):
        model = EnergyModel(IPAQ_H5555)
        counters = OperationCounters(sad_blocks=100, dct_blocks=10)
        breakdown = model.breakdown(counters)
        assert 0 < breakdown.fraction("sad_blocks") < 1
        assert breakdown.by_class["sad_blocks"] == pytest.approx(
            100 * IPAQ_H5555.sad_block_uj * 1e-6
        )

    def test_energy_additivity(self):
        model = EnergyModel(ZAURUS_SL5600)
        a = OperationCounters(sad_blocks=10, dct_blocks=5)
        b = OperationCounters(sad_blocks=7, entropy_bits=100)
        combined = a.copy()
        combined.add(b)
        assert model.joules(combined) == pytest.approx(
            model.joules(a) + model.joules(b)
        )
