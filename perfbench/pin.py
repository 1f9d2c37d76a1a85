"""Regenerate the pinned digests the batch workloads are checked against.

Run from the root of a checkout (takes a few minutes)::

    PYTHONPATH=src python3 perfbench/pin.py

Every pinned digest comes from one serial, cache-free run with stream
sharing off, so each cell pays its own full encode: the benchmark's
timed path (which shares encoded streams) is checked against a run that
never took it.  The scenario-fleet pins must reproduce, at base seed 0,
the 45 cell digests committed in ``BENCH_scenarios.json``; the script
refuses to write them otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import PINS, Fig5Cold, ScenarioFleet  # noqa: E402


def digests(specs, key) -> dict:
    from repro.api import RunnerOptions, run_grid, session_result_digest

    options = RunnerOptions(jobs=1, use_cache=False, share_streams=False)
    pinned = {}
    for result in run_grid(specs, options=options):
        if not result.ok:
            raise RuntimeError(f"{key(result.spec)}: {result.message}")
        pinned[key(result.spec)] = session_result_digest(result.result)
    return pinned


def pin_fig5() -> dict:
    pool = [Fig5Cold.loss_seed + j for j in range(Fig5Cold.seed_pool)]
    specs = [
        spec
        for channel_seed in pool
        for spec in Fig5Cold.cells([channel_seed] * 15)
    ]
    return {
        "workload": Fig5Cold.name,
        "params": Fig5Cold.params(0),
        "channel_seeds": pool,
        "digests": digests(specs, Fig5Cold.key),
    }


def pin_fleet(committed: dict) -> dict:
    # Base seeds 0..pool-1 with two replicas reach channel seeds 0..pool.
    cells = [spec for spec in ScenarioFleet.fleet(0) if spec.channel_seed == 0]
    specs = [
        replace(spec, channel_seed=seed)
        for seed in range(ScenarioFleet.seed_pool + 1)
        for spec in cells
    ]
    sessions = digests(specs, ScenarioFleet.key)
    for cell in committed["cells"]:
        want = ScenarioFleet.cell_digest(
            sessions[f"{cell['scheme']}|{cell['pack']}|{r}"]
            for r in range(ScenarioFleet.replicas)
        )
        if want != cell["digest"]:
            raise RuntimeError(
                f"{cell['scheme']}|{cell['pack']}: pinned sessions do not "
                "reproduce the committed cell digest"
            )
    return {
        "workload": ScenarioFleet.name,
        "params": ScenarioFleet.params(0),
        "channel_seeds": list(range(ScenarioFleet.seed_pool + 1)),
        "committed_cells": {
            f"{c['scheme']}|{c['pack']}": c["digest"] for c in committed["cells"]
        },
        "digests": sessions,
    }


def main() -> int:
    committed = json.loads(
        (HERE.parent / "BENCH_scenarios.json").read_text(encoding="utf-8")
    )
    PINS.mkdir(exist_ok=True)
    for name, record in (
        ("scenario_fleet.json", pin_fleet(committed)),
        ("fig5_cold.json", pin_fig5()),
    ):
        (PINS / name).write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {PINS / name}: {len(record['digests'])} digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
