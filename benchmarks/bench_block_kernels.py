"""Batched vs scalar macroblock-kernel throughput (DCT / quant / SAD).

The codec's hot loops are the 8x8 transforms, the H.263 quantizer and
the diamond-search SAD evaluations.  All three run batched — whole
``(n, 8, 8)`` stacks per transform call, whole search rounds per SAD
reduction — and :mod:`repro.codec.reference` keeps the bit-identical
one-block-at-a-time formulation.  This benchmark times both on the same
real residual workload and records the ratios in ``BENCH_blocks.json``;
the CI perf gate (``benchmarks/perf_gate.py``) fails the build when the
combined speedup regresses.

Outputs are checked for exact equality before anything is timed, so a
kernel that drifts from its reference can never report a "speedup".

Two entry points:

* ``python benchmarks/bench_block_kernels.py [--frames N] [--runs R]
  [--out BENCH_blocks.json]`` measures standalone and prints the JSON.
* Under pytest the module contributes a smoke test that runs one
  reduced round and sanity-checks the record's structure.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.api import (
    DiamondSearchMotionEstimator,
    dequantize_blocks,
    dequantize_scalar,
    diamond_search_scalar,
    foreman_like,
    forward_dct_blocks,
    forward_dct_scalar,
    quantize_blocks,
    quantize_scalar,
)
try:
    from benchmarks.perf_gate import emit, make_record
except ImportError:  # standalone: python benchmarks/bench_block_kernels.py
    from perf_gate import emit, make_record

DEFAULT_FRAMES = 5
DEFAULT_RUNS = 3
QP = 8
SEARCH_RANGE = 15
EARLY_EXIT_SAD = 1600


def _residual_blocks(frames) -> np.ndarray:
    """All 8x8 residual blocks of every consecutive frame pair."""
    stacks = []
    for prev, cur in zip(frames, frames[1:]):
        residual = cur.pixels.astype(np.int64) - prev.pixels.astype(np.int64)
        h, w = residual.shape
        stacks.append(
            residual.reshape(h // 8, 8, w // 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(-1, 8, 8)
        )
    return np.concatenate(stacks)


def _median_time(fn, runs: int) -> float:
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure(n_frames: int = DEFAULT_FRAMES, runs: int = DEFAULT_RUNS) -> dict:
    """Time each kernel pair on a synthetic-clip residual workload."""
    frames = foreman_like(n_frames).frames
    blocks = _residual_blocks(frames)
    intra = np.arange(blocks.shape[0]) % 3 == 0

    coeffs = forward_dct_blocks(blocks)
    levels = quantize_blocks(coeffs, intra, QP)
    estimator = DiamondSearchMotionEstimator(SEARCH_RANGE, EARLY_EXIT_SAD)
    pairs = list(zip(frames, frames[1:]))

    # Equality guards: a drifted kernel must never report a speedup.
    np.testing.assert_array_equal(coeffs, forward_dct_scalar(blocks))
    np.testing.assert_array_equal(levels, quantize_scalar(coeffs, intra, QP))
    np.testing.assert_array_equal(
        dequantize_blocks(levels, intra, QP),
        dequantize_scalar(levels, intra, QP),
    )
    for prev, cur in pairs:
        batched = estimator.estimate(cur.pixels, prev.pixels)
        scalar = diamond_search_scalar(
            cur.pixels, prev.pixels, SEARCH_RANGE, EARLY_EXIT_SAD
        )
        np.testing.assert_array_equal(batched.mvs, scalar.mvs)
        assert batched.candidates_evaluated == scalar.candidates_evaluated

    def sad_batched():
        for prev, cur in pairs:
            estimator.estimate(cur.pixels, prev.pixels)

    def sad_scalar():
        for prev, cur in pairs:
            diamond_search_scalar(
                cur.pixels, prev.pixels, SEARCH_RANGE, EARLY_EXIT_SAD
            )

    scalar_s = {
        "dct": _median_time(lambda: forward_dct_scalar(blocks), runs),
        "quant": _median_time(
            lambda: dequantize_scalar(
                quantize_scalar(coeffs, intra, QP), intra, QP
            ),
            runs,
        ),
        "sad": _median_time(sad_scalar, runs),
    }
    batched_s = {
        "dct": _median_time(lambda: forward_dct_blocks(blocks), runs),
        "quant": _median_time(
            lambda: dequantize_blocks(
                quantize_blocks(coeffs, intra, QP), intra, QP
            ),
            runs,
        ),
        "sad": _median_time(sad_batched, runs),
    }
    total_scalar = sum(scalar_s.values())
    total_batched = sum(batched_s.values())
    return make_record(
        "block_kernels",
        workload={
            "sequence": "foreman",
            "n_frames": n_frames,
            "runs": runs,
            "blocks": int(blocks.shape[0]),
            "frame_pairs": len(pairs),
            "qp": QP,
            "search_range": SEARCH_RANGE,
            "early_exit_sad": EARLY_EXIT_SAD,
        },
        gated={"combined_block_speedup": {"tolerance": 0.25}},
        scalar_s={k: round(v, 5) for k, v in scalar_s.items()},
        batched_s={k: round(v, 5) for k, v in batched_s.items()},
        speedups={
            kernel: round(scalar_s[kernel] / batched_s[kernel], 2)
            for kernel in scalar_s
            if batched_s[kernel]
        },
        combined_block_speedup=(
            round(total_scalar / total_batched, 2) if total_batched else None
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="measure batched vs scalar block-kernel throughput"
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON record to this path"
    )
    parser.add_argument(
        "--frames", type=int, default=DEFAULT_FRAMES, help="clip length"
    )
    parser.add_argument(
        "--runs", type=int, default=DEFAULT_RUNS, help="timing repetitions"
    )
    args = parser.parse_args(argv)
    emit(measure(n_frames=args.frames, runs=args.runs), args.out)
    return 0


# --- pytest entry point ----------------------------------------------------


def test_block_kernel_record_structure():
    """One reduced round: record shape, guards, and sane ratios."""
    record = measure(n_frames=3, runs=1)
    assert record["benchmark"] == "block_kernels"
    for section in ("scalar_s", "batched_s", "speedups"):
        assert set(record[section]) == {"dct", "quant", "sad"}
    assert record["combined_block_speedup"] > 0
    assert record["workload"]["blocks"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
