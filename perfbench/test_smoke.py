"""Smoke tests of the benchmark itself, at reduced run length.

Run from the root of a checkout (about three minutes)::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracer import SpanRecorder, coverage  # noqa: E402
from workloads import PINS, Fig5Cold, ScenarioFleet, Session, run_schedule  # noqa: E402


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=900,
    )


def last_json(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        completed = run_bench(
            "--workload", "all", "--seed", "3", "--seconds", "2", "--trace", str(trace)
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        result = last_json(completed)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        for workload in workloads:
            for metric in spec[table]:
                entry = result["metrics"][f"{workload}.{metric['name']}"]
                assert entry["unit"] == metric["unit"], (workload, metric)
                assert isinstance(entry["value"], (int, float)), (workload, metric)


def copy_benchmark(tmp_path: Path, with_source: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    if with_source:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_tampered_digest_fails_the_run(tmp_path):
    root = copy_benchmark(tmp_path)
    pins = root / "perfbench" / "pins" / "fig5_cold.json"
    record = json.loads(pins.read_text())
    victim = Fig5Cold.key(Fig5Cold.cells(Fig5Cold.channel_seeds(5))[0])
    record["digests"][victim] = "0" * 64
    pins.write_text(json.dumps(record))

    completed = run_bench(
        "--workload", "fig5-cold", "--seed", "5", "--seconds", "1", root=root
    )
    assert completed.returncode != 0
    result = last_json(completed)
    assert not result["correct"] and result["failed"] >= 1
    saved = json.loads(
        (root / ".perfbench_work" / "records" / "fig5-cold.seed5.trace0.json").read_text()
    )
    assert saved["error_ratio"] > 0
    assert any(victim in m for m in saved["mismatches"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = copy_benchmark(tmp_path, with_source=False)
    completed = run_bench("--workload", "service-bursts", "--seconds", "1", root=root)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_generator_charges_a_stall_to_the_sessions_behind_it():
    """A submit that blocks shows up as lag and latency, not as a gap."""
    now = [0.0]

    def clock():
        return now[0]

    def sleep(seconds):
        now[0] += seconds

    def submit(burst):
        now[0] += 1.0 if burst[0].index == 2 else 0.001  # burst 1 stalls
        return [f"job{s.index}" for s in burst]

    # Bursts of two sessions, due every 0.1 s.
    sessions = [Session(i, 0.1 * (i // 2), "bulk", 0, None) for i in range(8)]
    start, sends = run_schedule(sessions, submit, clock=clock, sleep=sleep)
    lags = [sent_at - (start + s.due_s) for s, (_, sent_at, _) in zip(sessions, sends)]
    assert all(abs(lag) < 1e-9 for lag in lags[:4])
    # Bursts 2 and 3 came due during the stall: each is sent late by what
    # remained of it, and the lag stays charged (no catch-up skipping).
    assert lags[4] == lags[5] and lags[4] > 0.8
    assert lags[6] == lags[7] and lags[6] > 0.7
    assert [job for job, _, _ in sends] == [f"job{i}" for i in range(8)]


def test_time_no_leaf_layer_claims_is_not_covered():
    """Self time left in a catch-all span (here run_job) lowers coverage."""
    recorder = SpanRecorder()

    def job():
        time.sleep(0.06)  # as if an unwrapped function ran here
        recorder.call("codec.encoder.encode_frame", time.sleep, 0.02)

    recorder.call("bench.pass", recorder.call, "sim.runner.run_job", job)
    assert 0.1 < coverage(recorder.aggregate()) < 0.5


def test_fleet_pins_reproduce_the_committed_cell_digests():
    committed = json.loads((ROOT / "BENCH_scenarios.json").read_text())
    pins = json.loads((PINS / "scenario_fleet.json").read_text())
    assert len(committed["cells"]) == 45
    for cell in committed["cells"]:
        want = ScenarioFleet.cell_digest(
            pins["digests"][f"{cell['scheme']}|{cell['pack']}|{r}"]
            for r in range(ScenarioFleet.replicas)
        )
        assert want == cell["digest"]


def test_inputs_follow_the_seed():
    assert Fig5Cold.channel_seeds(7) == Fig5Cold.channel_seeds(7)
    assert Fig5Cold.channel_seeds(7) != Fig5Cold.channel_seeds(8)
    pool = range(Fig5Cold.loss_seed, Fig5Cold.loss_seed + Fig5Cold.seed_pool)
    assert set(Fig5Cold.channel_seeds(7)) <= set(pool)
