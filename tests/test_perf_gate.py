"""Unit tests for the CI perf-regression gate (benchmarks/perf_gate.py)."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_gate.py"
REPO = GATE.parents[1]
COMMITTED = sorted(REPO.glob("BENCH_*.json"))

_spec = importlib.util.spec_from_file_location("perf_gate", GATE)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def record(gated, **body):
    return {
        "benchmark": "toy",
        "workload": {},
        "host": {"cpu_count": 1, "platform": "p", "python": "3"},
        "gated": gated,
        **body,
    }


def run_gate(tmp_path, baseline, measured):
    base_path = tmp_path / "baseline.json"
    meas_path = tmp_path / "measured.json"
    base_path.write_text(json.dumps(baseline), encoding="utf-8")
    meas_path.write_text(json.dumps(measured), encoding="utf-8")
    return gate_files(base_path, meas_path)


def gate_files(base_path, meas_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(GATE),
            "--baseline",
            str(base_path),
            "--measured",
            str(meas_path),
        ],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


SPEEDUP = {"speedup": {"tolerance": 0.25}}
CEILING = {
    "speedup_vs_serial.4": {
        "tolerance": 0.25,
        "ceiling": "parallel_ceiling.4",
    }
}


class TestPerfGate:
    def test_within_tolerance_passes(self, tmp_path):
        code, out = run_gate(
            tmp_path,
            record(SPEEDUP, speedup=4.0),
            record(SPEEDUP, speedup=3.2),
        )
        assert code == 0
        assert "OK" in out

    def test_improvement_passes(self, tmp_path):
        code, _ = run_gate(
            tmp_path,
            record(SPEEDUP, speedup=4.0),
            record(SPEEDUP, speedup=9.0),
        )
        assert code == 0

    def test_regression_fails(self, tmp_path):
        code, out = run_gate(
            tmp_path,
            record(SPEEDUP, speedup=4.0),
            record(SPEEDUP, speedup=2.9),
        )
        assert code == 1
        assert "REGRESSION" in out

    def test_tolerance_is_configurable(self, tmp_path):
        """The tolerance is the record's own rule, not a gate default."""
        loose = {"speedup": {"tolerance": 0.5}}
        code, _ = run_gate(
            tmp_path,
            record(loose, speedup=4.0),
            record(loose, speedup=2.9),
        )
        assert code == 0

    def test_zero_tolerance_rule_is_exact(self, tmp_path):
        exact = {"ratio": {"tolerance": 0}}
        code, _ = run_gate(
            tmp_path, record(exact, ratio=1.0), record(exact, ratio=1.0)
        )
        assert code == 0
        code, out = run_gate(
            tmp_path, record(exact, ratio=1.0), record(exact, ratio=0.999)
        )
        assert code == 1
        assert "REGRESSION" in out

    def test_every_rule_is_checked(self, tmp_path):
        both = {"a": {"tolerance": 0}, "b": {"tolerance": 0}}
        code, out = run_gate(
            tmp_path,
            record(both, a=1.0, b=1.0),
            record(both, a=1.0, b=0.5),
        )
        assert code == 1
        assert "OK: a" in out and "REGRESSION: b" in out

    def test_dotted_field_path(self, tmp_path):
        nested = {"after.encode_fps": {"tolerance": 0.25}}
        code, _ = run_gate(
            tmp_path,
            record(nested, after={"encode_fps": 100.0}),
            record(nested, after={"encode_fps": 95.0}),
        )
        assert code == 0

    def test_missing_field_is_a_config_error(self, tmp_path):
        code, out = run_gate(
            tmp_path, record(SPEEDUP, speedup=4.0), record(SPEEDUP)
        )
        assert code == 2
        assert "could not compare" in out

    def test_ceiling_skip_when_baseline_unreachable(self, tmp_path):
        """A 4x baseline cannot regress on a 1-core host: skip, not fail."""
        code, out = run_gate(
            tmp_path,
            record(CEILING, speedup_vs_serial={"4": 3.8}),
            record(
                CEILING,
                speedup_vs_serial={"4": 1.0},
                parallel_ceiling={"4": 1},
            ),
        )
        assert code == 0
        assert "SKIP" in out

    def test_ceiling_within_reach_still_gates(self, tmp_path):
        code, out = run_gate(
            tmp_path,
            record(CEILING, speedup_vs_serial={"4": 3.8}),
            record(
                CEILING,
                speedup_vs_serial={"4": 1.1},
                parallel_ceiling={"4": 4},
            ),
        )
        assert code == 1
        assert "REGRESSION" in out

    def test_missing_ceiling_field_is_a_config_error(self, tmp_path):
        code, out = run_gate(
            tmp_path,
            record(CEILING, speedup_vs_serial={"4": 3.8}),
            record(CEILING, speedup_vs_serial={"4": 3.8}),
        )
        assert code == 2
        assert "could not compare" in out

    @pytest.mark.parametrize(
        "gated",
        [
            None,
            {},
            {"speedup": {}},
            {"speedup": {"tolerance": 1.0}},
            {"speedup": {"tolerance": 0.25, "floor": 3.0}},
            {"speedup": {"tolerance": 0.25, "ceiling": 4}},
        ],
        ids=["no-gated-block", "empty", "no-tolerance", "tolerance-1",
             "unknown-key", "ceiling-not-a-field"],
    )
    def test_malformed_gated_block_is_a_config_error(self, tmp_path, gated):
        baseline = record(gated, speedup=4.0)
        if gated is None:
            del baseline["gated"]
        code, out = run_gate(tmp_path, baseline, baseline)
        assert code == 2
        assert "could not compare" in out

    def test_gated_block_mismatch_is_a_config_error(self, tmp_path):
        """A script whose rules drifted from the committed record fails."""
        code, out = run_gate(
            tmp_path,
            record(SPEEDUP, speedup=4.0),
            record({"speedup": {"tolerance": 0.5}}, speedup=4.0),
        )
        assert code == 2
        assert "drifted" in out

    def test_committed_baselines_carry_the_gated_fields(self):
        grid = json.loads((REPO / "BENCH_grid.json").read_text("utf-8"))
        assert grid["cells_per_unique_encode"] >= 4.0
        assert grid["results_identical"] is True
        runner = json.loads((REPO / "BENCH_runner.json").read_text("utf-8"))
        for workers, speedup in runner["speedup_vs_serial"].items():
            # committed ratios honor the clamp: no speedup above the
            # host's physical parallelism ceiling
            assert speedup <= runner["parallel_ceiling"][workers]


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_record_gates_against_itself(path):
    committed = json.loads(path.read_text(encoding="utf-8"))
    assert list(committed)[:4] == list(perf_gate.HEADER)
    assert set(committed["host"]) == {"cpu_count", "platform", "python"}
    for field, rule in perf_gate.rules(committed).items():
        assert perf_gate.lookup(committed, field) > 0
        if "ceiling" in rule:
            assert perf_gate.lookup(committed, rule["ceiling"]) > 0
    code, out = gate_files(path, path)
    assert code == 0, out
