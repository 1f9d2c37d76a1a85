"""Scenario-pack fleet sweep: determinism gate and percentile tables.

The fleet report (``repro fleet``) claims two things worth pinning in
CI.  First, determinism: a (scheme, pack, seed) cell delivers the same
per-frame values whether the grid runs serially or on a process pool —
every loss model draws from structural RNG keys, so worker scheduling
must not leak into results.  Second, coverage: every shipped pack runs
against the full Figure-5 scheme set and yields a sane percentile
table (finite PSNR percentiles, loss within [0, 1], resilience
counters that only fire in packs that enable protection).

The gated field is ``determinism_ratio``: the fraction of fleet cells
whose content digest matches between the serial and the pooled sweep
of the identical grid.  It is exact by construction, so CI gates it
at 1.0 with zero tolerance — any mismatch means scheduling or shared
state leaked into a simulation result, which is a correctness bug,
not host noise.

The serial sweep runs traced, so the record also carries its exact
decoder work: ``fragments_decoded`` (fragments whose macroblock layer
reached the VLD) and ``fragments_parsed`` (those actually parsed —
the rest replayed a parse the stream's encoder seeded, or one another
cell of the same encoded stream already made).  The second gated field
is ``parse_reuse_ratio``, the share of ``fragments_decoded`` that
replayed a known parse instead of being parsed.  The encoder seeds
every fragment it sends and no pack damages bytes, so no delivered
fragment is parsed: the ratio is exactly 1.0 and is also gated with
zero tolerance.  A drop means some delivered fragments miss
their seeds (a key drift between encoder and decoder, or a group
whose encode stopped seeding its memo).

The serial trace also counts the frames the decoder never ran:
``frames_replayed`` (frames a cell served from its encode group's
sender states, the encoder's reconstruction of each frame, because
the frame reached the cell's decoder exactly as sent while that
decoder was in sync with the encoder) and ``decodes_per_frame`` (the
executed decodes per cell frame).  Both are exact for a given
workload; ``frames_replayed`` is gated at zero tolerance (the CI gate
therefore re-measures the committed workload, not a reduced one), and
``decodes_per_frame``, which is ``1 - frames_replayed / cell_frames``
with ``cell_frames`` fixed by the workload, is informational.
``fragments_decoded`` counts only the fragments of decoded frames.

Entry points mirror the other benchmarks: run standalone with
``python benchmarks/bench_scenarios.py [--out BENCH_scenarios.json]``,
or under pytest for the structural smoke check.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.api import (
    FLEET_SCHEMES,
    RunnerOptions,
    available_packs,
    load_trace,
    run_fleet,
)
try:
    from benchmarks.perf_gate import emit, make_record
except ImportError:  # standalone: python benchmarks/bench_scenarios.py
    from perf_gate import emit, make_record

DEFAULT_SEQUENCE = "foreman"
DEFAULT_FRAMES = 30
DEFAULT_REPLICAS = 2


def measure(
    n_frames: int = DEFAULT_FRAMES,
    sequence: str = DEFAULT_SEQUENCE,
    replicas: int = DEFAULT_REPLICAS,
    schemes=FLEET_SCHEMES,
    packs=None,
) -> dict:
    """Sweep scheme × pack serially and pooled, and diff the digests."""
    pack_names = tuple(packs if packs is not None else available_packs())
    kwargs = dict(
        schemes=tuple(schemes),
        packs=pack_names,
        sequence=sequence,
        n_frames=n_frames,
        replicas=replicas,
    )
    with tempfile.TemporaryDirectory() as trace_dir:
        serial = run_fleet(
            **kwargs,
            options=RunnerOptions(
                jobs=1, use_cache=False, trace_dir=trace_dir
            ),
        )
        trace = load_trace(Path(trace_dir) / "trace.jsonl")
    counters = trace.metrics.snapshot()["counters"]
    parsed = int(counters.get("decoder.fragments_parsed", 0))
    reused = int(counters.get("decoder.fragments_reused", 0))
    replayed = int(counters.get("decoder.frames_replayed", 0))
    # Every cell frame opens one decode_frame span, replayed or not.
    cell_frames = sum(1 for span in trace.spans if span.name == "decode_frame")
    pooled = run_fleet(
        **kwargs, options=RunnerOptions(jobs=2, use_cache=False)
    )

    matched = sum(
        1
        for cell in serial.cells
        if pooled.cell(cell.scheme, cell.pack).digest == cell.digest
    )
    protected = [
        cell
        for cell in serial.cells
        if cell.fec_recovered or cell.retransmissions or cell.deadline_drops
    ]

    return make_record(
        "scenarios",
        workload={
            "schemes": list(serial.schemes),
            "packs": list(serial.packs),
            "sequence": sequence,
            "n_frames": n_frames,
            "replicas": replicas,
        },
        gated={
            "determinism_ratio": {"tolerance": 0},
            "parse_reuse_ratio": {"tolerance": 0},
            "frames_replayed": {"tolerance": 0},
        },
        cells=[cell.to_json() for cell in serial.cells],
        fleet_digest=serial.digest,
        pooled_digest=pooled.digest,
        cells_total=len(serial.cells),
        cells_matched=matched,
        protected_cells=len(protected),
        fragments_decoded=parsed + reused,
        fragments_parsed=parsed,
        determinism_ratio=round(matched / len(serial.cells), 3),
        parse_reuse_ratio=round(reused / (parsed + reused), 3),
        cell_frames=cell_frames,
        frames_replayed=replayed,
        decodes_per_frame=round((cell_frames - replayed) / cell_frames, 4),
        note=(
            "determinism_ratio is gated: the fraction of (scheme, pack) "
            "cells whose content digest is identical between a serial "
            "and a pooled sweep of the same grid.  Every channel "
            "decision comes from structural RNG keys, so 1.0 is exact "
            "on any host and gates with zero tolerance.  "
            "parse_reuse_ratio is gated: the share of the serial "
            "sweep's fragments_decoded that replayed a known parse "
            "instead of being parsed.  The encoder seeds every fragment "
            "it sends and no pack damages bytes, so 1.0 is exact and "
            "gates with zero tolerance.  frames_replayed is gated: the "
            "exact count of the serial sweep's frames served from an "
            "encode group's sender states (intact frames at an in-sync "
            "decoder), for this workload.  "
            "decodes_per_frame (executed decodes per cell frame) and "
            "the percentile tables in `cells` are informational"
        ),
    )


def test_scenarios_benchmark_smoke():
    """Structural check on a reduced grid (kept fast for CI's tier 1)."""
    # recorded-trace loses frames 7 and 8 on every run, so some frames
    # decode; every other frame reaches its decoder intact and in sync.
    record = measure(
        n_frames=12,
        sequence="akiyo",
        replicas=1,
        schemes=("GOP-3", "PBPAIR"),
        packs=("steady-uniform", "recorded-trace"),
    )
    assert record["benchmark"] == "scenarios"
    assert record["cells_total"] == 4
    assert record["determinism_ratio"] == 1.0
    assert record["fleet_digest"] == record["pooled_digest"]
    assert record["fragments_parsed"] == 0 < record["fragments_decoded"]
    assert record["parse_reuse_ratio"] == 1.0
    assert record["cell_frames"] == 4 * 12
    assert 0 < record["frames_replayed"] < record["cell_frames"]
    assert record["decodes_per_frame"] == round(
        1 - record["frames_replayed"] / record["cell_frames"], 4
    )
    for cell in record["cells"]:
        assert 0.0 <= cell["loss_rate"] <= 1.0
        assert cell["psnr_db"]["p50"] is None or cell["psnr_db"]["p50"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sweep scheme × scenario pack and gate determinism"
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON record to this path"
    )
    parser.add_argument(
        "--frames", type=int, default=DEFAULT_FRAMES,
        help=f"frames per cell (default: {DEFAULT_FRAMES})",
    )
    parser.add_argument(
        "--sequence", default=DEFAULT_SEQUENCE,
        help=f"clip to encode (default: {DEFAULT_SEQUENCE})",
    )
    parser.add_argument(
        "--replicas", type=int, default=DEFAULT_REPLICAS,
        help=f"channel seeds per cell (default: {DEFAULT_REPLICAS})",
    )
    args = parser.parse_args(argv)
    record = measure(
        n_frames=args.frames,
        sequence=args.sequence,
        replicas=args.replicas,
    )
    emit(record, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
