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

The record also counts how the decoder batches those kernels on a fixed
lossy foreman decode (the same whatever ``--frames`` says), as two
exact ratios gated at tolerance 0:

* ``decoder_frames_per_kernel_call`` — frames with any salvaged
  macroblock per decoder ``dequantize_blocks`` call (and per
  ``inverse_dct_blocks`` call, asserted equal): 1.0 when every frame
  takes one dequantization and one IDCT;
* ``idct_skip_ratio`` — the share of the IDCT blocks billed to the
  paper's decoder that the batch never executes, because they hold no
  coefficient.

The encode of that clip gives a third, ``encoder_idct_skip_ratio``:
the share of the IDCT blocks billed to the paper's encoder that its
reconstruction never executes, because every level is zero.

Two entry points:

* ``python benchmarks/bench_block_kernels.py [--frames N] [--runs R]
  [--out BENCH_blocks.json]`` measures standalone and prints the JSON.
* Under pytest the module contributes a smoke test that runs one
  reduced round and sanity-checks the record's structure.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import Counter

import numpy as np

from repro.api import (
    CodecConfig,
    Decoder,
    DiamondSearchMotionEstimator,
    Encoder,
    OperationCounters,
    Packetizer,
    Tracer,
    build_strategy,
    dequantize_blocks,
    dequantize_scalar,
    diamond_search_scalar,
    foreman_like,
    forward_dct_blocks,
    forward_dct_scalar,
    quantize_blocks,
    quantize_scalar,
    use_tracer,
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
#: The fixed decode workload behind the decoder-batching ratios.
DECODE_FRAMES = 8
DECODE_SCHEME = "AIR-24"
DECODE_MTU = 256


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


def _delivered(index: int, payloads: list) -> list:
    """A fixed loss pattern: one frame gets nothing, others lose some."""
    if index == DECODE_FRAMES // 2:
        return []
    return [p for j, p in enumerate(payloads) if (index + j) % 4 != 3]


def decoder_batching() -> dict:
    """Encode and decode a lossy foreman clip, counting IDCT blocks and
    the decoder's kernel calls."""
    config = CodecConfig()
    encoder_counters = OperationCounters()
    encoder = Encoder(config, build_strategy(DECODE_SCHEME), encoder_counters)
    packetizer = Packetizer(config, mtu=DECODE_MTU)
    with use_tracer(Tracer()) as encode_tracer:
        frames = [
            [p.payload for p in packetizer.packetize(encoder.encode_frame(frame))]
            for frame in foreman_like(DECODE_FRAMES).frames
        ]
    encoded = encode_tracer.metrics.snapshot()["counters"]
    encoder_billed = int(encoded["encoder.idct_blocks_billed"])
    assert encoder_billed == encoder_counters.idct_blocks

    # The decoder calls its kernels through its own module's globals;
    # wrapping those counts every call it makes.
    decoder_module = sys.modules[Decoder.__module__]
    calls: Counter = Counter()
    originals = {
        name: getattr(decoder_module, name)
        for name in ("dequantize_blocks", "inverse_dct_blocks")
    }

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    counters = OperationCounters()
    decoder = Decoder(config, counters)
    salvaged_frames = 0
    try:
        for name in originals:
            setattr(decoder_module, name, counting(name))
        with use_tracer(Tracer()) as tracer:
            reference = None
            for index, payloads in enumerate(frames):
                result = decoder.decode_frame(
                    _delivered(index, payloads), reference, index
                )
                salvaged_frames += int(result.received.any())
                reference = result.frame
    finally:
        for name, original in originals.items():
            setattr(decoder_module, name, original)

    traced = tracer.metrics.snapshot()["counters"]
    billed = int(traced["decoder.idct_blocks_billed"])
    executed = int(traced["decoder.idct_blocks_executed"])
    assert billed == counters.idct_blocks == counters.dequant_blocks
    assert calls["inverse_dct_blocks"] == calls["dequantize_blocks"]
    return {
        "frames": DECODE_FRAMES,
        "salvaged_frames": salvaged_frames,
        "dequantize_calls": calls["dequantize_blocks"],
        "idct_calls": calls["inverse_dct_blocks"],
        "idct_blocks_billed": billed,
        "idct_blocks_executed": executed,
        "encoder_idct_blocks_billed": encoder_billed,
        "encoder_idct_blocks_executed": int(
            encoded["encoder.idct_blocks_executed"]
        ),
    }


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
    decode = decoder_batching()
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
            "decode": {
                "sequence": "foreman",
                "n_frames": DECODE_FRAMES,
                "scheme": DECODE_SCHEME,
                "mtu": DECODE_MTU,
            },
        },
        gated={
            "combined_block_speedup": {"tolerance": 0.25},
            "decoder_frames_per_kernel_call": {"tolerance": 0},
            "idct_skip_ratio": {"tolerance": 0},
            "encoder_idct_skip_ratio": {"tolerance": 0},
        },
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
        decode=decode,
        decoder_frames_per_kernel_call=round(
            decode["salvaged_frames"] / decode["dequantize_calls"], 4
        ),
        idct_skip_ratio=round(
            1 - decode["idct_blocks_executed"] / decode["idct_blocks_billed"], 4
        ),
        encoder_idct_skip_ratio=round(
            1
            - decode["encoder_idct_blocks_executed"]
            / decode["encoder_idct_blocks_billed"],
            4,
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
    decode = record["decode"]
    assert decode["salvaged_frames"] == decode["frames"] - 1
    assert record["decoder_frames_per_kernel_call"] == 1.0
    assert 0 < record["idct_skip_ratio"] < 1
    assert 0 < record["encoder_idct_skip_ratio"] < 1


if __name__ == "__main__":
    raise SystemExit(main())
