"""Closed-loop rate control: convergence and bitrate accuracy per scheme.

The matched-bitrate comparison (``repro compare --target-kbps``: one
:class:`JobSpec` per scheme, all carrying the same
:class:`RateControlConfig`) only means something if the controller
actually lands every scheme on the shared target.  This benchmark runs
the Figure-5 scheme set under one closed-loop config and records, per
scheme:

* the delivered bitrate and its signed error against the target;
* the PSNR at the matched rate (the number the paper's comparison is
  actually about);
* the convergence frame — the first frame after which the cumulative
  bitrate stays inside the convergence band to the end of the clip.

The gated field is ``matched_ratio``: the fraction of schemes whose
delivered bitrate lands within ±3% of the target.  It is exact by
construction (the controller is deterministic, the clip is committed),
so CI gates it with zero tolerance — any scheme drifting off target is
a control-law regression, not host noise.

Entry points mirror the other benchmarks: run standalone with
``python benchmarks/bench_rate.py [--out BENCH_rate.json]``, or under
pytest for the structural smoke check.
"""

from __future__ import annotations

import argparse

from repro.api import (
    JobSpec,
    RateControlConfig,
    RunnerOptions,
    run_grid,
)
try:
    from benchmarks.perf_gate import emit, make_record
except ImportError:  # standalone: python benchmarks/bench_rate.py
    from perf_gate import emit, make_record

#: Matched-bitrate error budget: the acceptance band for a scheme to
#: count as "on target" (3%), and the wider band used to locate the
#: convergence frame (10%).
MATCH_TOLERANCE = 0.03
CONVERGENCE_BAND = 0.10

#: 200 kbps sits inside every scheme's feasible band on FOREMAN QCIF:
#: above the intra-heavy schemes' QP-31 bitrate floor (GOP-3 ~131 kbps)
#: and far below everyone's QP-1 ceiling (~3100+ kbps).
DEFAULT_TARGET_KBPS = 200.0
DEFAULT_FRAMES = 90
DEFAULT_SEQUENCE = "foreman"
DEFAULT_PLR = 0.1

#: The Figure-5 legend, in the order the record lists the schemes.
SCHEMES = ("NO", "GOP-3", "AIR-24", "PGOP-3", "PBPAIR")


def convergence_frame(frame_bits, target_bits_per_frame, band) -> int | None:
    """First frame index after which the cumulative rate stays in band.

    "Stays" means every cumulative prefix from that frame to the end of
    the clip is within ``band`` of the target — a scheme that wanders
    out again has not converged at the earlier crossing.  None when the
    clip never settles.
    """
    total = 0.0
    errors = []
    for index, bits in enumerate(frame_bits, start=1):
        total += bits
        errors.append(abs(total / index - target_bits_per_frame)
                      / target_bits_per_frame)
    settled = None
    for index in range(len(errors) - 1, -1, -1):
        if errors[index] > band:
            break
        settled = index
    return settled


def measure(
    target_kbps: float = DEFAULT_TARGET_KBPS,
    n_frames: int = DEFAULT_FRAMES,
    sequence: str = DEFAULT_SEQUENCE,
    plr: float = DEFAULT_PLR,
) -> dict:
    """Run the matched-bitrate grid and score each scheme's tracking."""
    rate = RateControlConfig(target_kbps=target_kbps)
    jobs = [
        JobSpec(
            scheme=scheme,
            plr=plr,
            sequence=sequence,
            n_frames=n_frames,
            rate=rate,
        )
        for scheme in SCHEMES
    ]
    outcomes = run_grid(
        jobs, options=RunnerOptions(jobs=1, use_cache=False)
    )
    failures = [o for o in outcomes if not o.ok]
    if failures:
        raise RuntimeError(
            f"{len(failures)} matched-bitrate cells failed: "
            f"{failures[0].error_type}: {failures[0].message}"
        )

    schemes = []
    matched = 0
    for scheme, outcome in zip(SCHEMES, outcomes):
        result = outcome.result
        delivered_kbps = (
            result.total_bytes * 8 / result.n_frames * rate.fps / 1000.0
        )
        error = (delivered_kbps - target_kbps) / target_kbps
        if abs(error) <= MATCH_TOLERANCE:
            matched += 1
        settled = convergence_frame(
            [f.size_bytes * 8 for f in result.frames],
            rate.target_bits_per_frame,
            CONVERGENCE_BAND,
        )
        schemes.append(
            {
                "scheme": scheme,
                "delivered_kbps": round(delivered_kbps, 2),
                "bitrate_error_pct": round(100.0 * error, 2),
                "psnr_db": round(result.average_psnr_decoder, 2),
                "intra_pct": round(100.0 * result.intra_fraction, 2),
                "convergence_frame": settled,
            }
        )

    return make_record(
        "rate_control",
        workload={
            "target_kbps": target_kbps,
            "schemes": list(SCHEMES),
            "plr": plr,
            "sequence": sequence,
            "n_frames": n_frames,
            "fps": rate.fps,
        },
        gated={"matched_ratio": {"tolerance": 0}},
        schemes=schemes,
        match_tolerance_pct=100.0 * MATCH_TOLERANCE,
        matched_ratio=round(matched / len(schemes), 3),
        max_abs_error_pct=max(abs(s["bitrate_error_pct"]) for s in schemes),
        note=(
            "matched_ratio is the gated field: the fraction of schemes "
            "whose delivered bitrate lands within the match tolerance "
            "of the shared target.  The controller and the clip are "
            "both deterministic, so 1.0 is exact on any host and gates "
            "with zero tolerance; convergence_frame and psnr_db are "
            "informational"
        ),
    )


def test_rate_benchmark_smoke():
    """Structural check on a reduced grid (kept fast for CI's tier 1)."""
    record = measure(
        target_kbps=400.0, n_frames=24, sequence="akiyo", plr=0.1
    )
    assert record["benchmark"] == "rate_control"
    assert [s["scheme"] for s in record["schemes"]] == [
        "NO", "GOP-3", "AIR-24", "PGOP-3", "PBPAIR",
    ]
    assert 0.0 <= record["matched_ratio"] <= 1.0
    for entry in record["schemes"]:
        assert entry["delivered_kbps"] > 0
        assert entry["psnr_db"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="measure closed-loop rate-control convergence per scheme"
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON record to this path"
    )
    parser.add_argument(
        "--target-kbps", type=float, default=DEFAULT_TARGET_KBPS,
        help=f"shared bitrate target (default: {DEFAULT_TARGET_KBPS:g})",
    )
    parser.add_argument(
        "--frames", type=int, default=DEFAULT_FRAMES,
        help=f"frames per scheme (default: {DEFAULT_FRAMES})",
    )
    parser.add_argument(
        "--sequence", default=DEFAULT_SEQUENCE,
        help=f"clip to encode (default: {DEFAULT_SEQUENCE})",
    )
    args = parser.parse_args(argv)
    record = measure(
        target_kbps=args.target_kbps,
        n_frames=args.frames,
        sequence=args.sequence,
    )
    emit(record, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
