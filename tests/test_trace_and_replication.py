"""Tests for trace-driven loss."""

from __future__ import annotations

import pytest

from repro.network.loss import TraceLoss
from repro.network.packet import Packet
from repro.resilience.none import NoResilience
from repro.sim.pipeline import SimulationConfig, simulate

from tests.conftest import small_config, small_sequence


def _packet(frame):
    return Packet(0, frame, 0, 1, b"")


class TestTraceLoss:
    def test_replays_trace(self):
        model = TraceLoss([True, False, True, False])
        outcomes = [model.survives(_packet(i)) for i in range(4)]
        assert outcomes == [True, False, True, False]

    def test_beyond_trace_uses_default(self):
        model = TraceLoss([False], default_survives=True)
        assert model.survives(_packet(5))
        model = TraceLoss([False], default_survives=False)
        assert not model.survives(_packet(5))

    def test_from_pattern(self):
        model = TraceLoss.from_loss_rate_pattern("..x.x")
        assert [model.survives(_packet(i)) for i in range(5)] == [
            True,
            True,
            False,
            True,
            False,
        ]

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            TraceLoss.from_loss_rate_pattern("")
        with pytest.raises(ValueError):
            TraceLoss.from_loss_rate_pattern("..?")

    def test_in_simulation(self):
        clip = small_sequence(n_frames=6)
        model = TraceLoss.from_loss_rate_pattern("...x..")
        result = simulate(
            clip,
            NoResilience(),
            model,
            SimulationConfig(codec=small_config()),
        )
        lost = [r.frame_index for r in result.frames if r.packets_lost > 0]
        assert lost == [3]
