"""Unit tests for operating-point matching and reporting."""

from __future__ import annotations

import pytest

from repro.sim.experiment import calibrate_intra_th, total_encoded_bytes
from repro.sim.pipeline import SimulationConfig
from repro.sim.report import format_series, format_table
from repro.resilience.registry import build_strategy

from tests.conftest import small_config, small_sequence


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(codec=small_config())


@pytest.fixture(scope="module")
def clip():
    return small_sequence(n_frames=8)


class TestSizeMatching:
    def test_size_monotone_in_threshold(self, clip, sim_config):
        sizes = [
            total_encoded_bytes(
                clip, build_strategy("PBPAIR", intra_th=th, plr=0.3), sim_config
            )
            for th in (0.2, 0.9, 1.0)
        ]
        assert sizes[0] < sizes[-1]

    def test_match_finds_reasonable_threshold(self, clip, sim_config):
        target = total_encoded_bytes(clip, build_strategy("GOP-3"), sim_config)
        th = calibrate_intra_th(
            clip, target, plr=0.3, config=sim_config, max_iterations=6
        )
        matched = total_encoded_bytes(
            clip, build_strategy("PBPAIR", intra_th=th, plr=0.3), sim_config
        )
        assert abs(matched - target) / target < 0.35

    def test_validation(self, clip, sim_config):
        with pytest.raises(ValueError):
            calibrate_intra_th(clip, 0, plr=0.1)
        with pytest.raises(ValueError):
            calibrate_intra_th(clip, 100, plr=0.1, tolerance=0)

    def test_zero_iterations_rejected(self, clip):
        with pytest.raises(ValueError, match="max_iterations"):
            calibrate_intra_th(clip, 100, plr=0.1, max_iterations=0)
        with pytest.raises(ValueError, match="max_iterations"):
            calibrate_intra_th(clip, 100, plr=0.1, max_iterations=-3)

    def test_single_iteration_returns_first_probe(self, clip, sim_config):
        th = calibrate_intra_th(
            clip, 10_000, plr=0.3, config=sim_config, max_iterations=1
        )
        assert th == 0.5  # one bisection probe: the midpoint

    def test_calibration_cache_reused(self, clip, sim_config, tmp_path):
        from repro.sim.runner import EncodedStreamCache

        target = total_encoded_bytes(clip, build_strategy("GOP-3"), sim_config)
        th_cold = calibrate_intra_th(
            clip, target, plr=0.3, config=sim_config, max_iterations=4,
            stream_cache=EncodedStreamCache(tmp_path),
        )
        probes = th_cold.probes
        assert probes >= 1
        # A fresh handle on the same directory: only the disk tier is warm.
        disk = EncodedStreamCache(tmp_path)
        th_warm = calibrate_intra_th(
            clip, target, plr=0.3, config=sim_config, max_iterations=4,
            stream_cache=disk,
        )
        assert th_warm == th_cold
        assert disk.hits == probes  # every probe answered from disk
        assert disk.encodes == 0
        assert th_warm.unique_encodes == 0


class TestCalibrationResult:
    def test_behaves_as_float(self):
        from repro.sim.experiment import CalibrationResult

        th = CalibrationResult(0.5, probes=4, unique_encodes=3)
        assert th == 0.5
        assert f"{th:.3f}" == "0.500"
        assert th * 2 == 1.0
        assert th.saved_encodes == 1

    def test_reports_probe_and_encode_counts(self, clip, sim_config):
        target = total_encoded_bytes(clip, build_strategy("GOP-3"), sim_config)
        th = calibrate_intra_th(
            clip, target, plr=0.3, config=sim_config, max_iterations=4
        )
        assert th.probes >= 1
        assert th.unique_encodes == th.probes  # no cache: every probe encodes
        assert th.saved_encodes == 0

    def test_warm_stream_cache_skips_encodes(self, clip, sim_config):
        from repro.sim.runner import EncodedStreamCache

        target = total_encoded_bytes(clip, build_strategy("GOP-3"), sim_config)
        stream_cache = EncodedStreamCache(max_entries=16)
        cold = calibrate_intra_th(
            clip, target, plr=0.3, config=sim_config, max_iterations=4,
            stream_cache=stream_cache,
        )
        assert cold.unique_encodes == cold.probes
        assert stream_cache.encodes == cold.probes
        warm = calibrate_intra_th(
            clip, target, plr=0.3, config=sim_config, max_iterations=4,
            stream_cache=stream_cache,
        )
        assert warm == cold
        assert warm.unique_encodes == 0
        assert warm.saved_encodes == warm.probes
        assert stream_cache.encodes == cold.probes  # no new encoder runs


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(
            ["scheme", "psnr"],
            [["NO", 31.234], ["PBPAIR", 33.5]],
            title="Fig 5(a)",
        )
        lines = out.splitlines()
        assert lines[0] == "Fig 5(a)"
        assert "scheme" in lines[1] and "psnr" in lines[1]
        assert "31.23" in out and "33.50" in out

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_series(self):
        out = format_series("PSNR", [30.0, 31.5], precision=1)
        assert out == "PSNR: 30.0 31.5"


class TestCSV:
    def test_basic_csv(self):
        from repro.sim.report import format_csv

        out = format_csv(["a", "b"], [[1, 2.5], ["x", 3]])
        assert out == "a,b\n1,2.5\nx,3\n"

    def test_quoting(self):
        from repro.sim.report import format_csv

        out = format_csv(["name"], [['say "hi", ok']])
        assert out.splitlines()[1] == '"say ""hi"", ok"'

    def test_float_precision_preserved(self):
        from repro.sim.report import format_csv

        out = format_csv(["v"], [[1.23456789012345]])
        assert "1.23456789012345" in out

    def test_ragged_rejected(self):
        from repro.sim.report import format_csv

        with pytest.raises(ValueError):
            format_csv(["a", "b"], [[1]])
