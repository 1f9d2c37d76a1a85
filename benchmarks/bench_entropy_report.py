"""Entropy/bitstream hot-path throughput: before/after record.

The word-level VLC kernels (batched Exp-Golomb in the writer, word-
indexed zero-run scanning in the reader, event-array macroblock layer)
replaced the original bit-at-a-time substrate.  This benchmark measures
the combined encode+decode+packetize wall time on the same workload as
``bench_encoder_throughput`` and emits a JSON record comparing against
the committed bit-serial baseline, so the perf trajectory is tracked
per PR (the committed record lives in ``BENCH_entropy.json``).

Two entry points:

* ``python benchmarks/bench_entropy_report.py [--out BENCH_entropy.json]``
  runs the measurement standalone and writes/prints the JSON.
* Under pytest the module contributes a smoke check that the measured
  record is well-formed and the codec round-trips; absolute wall-time
  assertions are deliberately absent (CI containers vary widely).
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.api import (
    CodecConfig,
    Decoder,
    Encoder,
    Packetizer,
    foreman_like,
    make_strategy,
)
try:
    from benchmarks.perf_gate import emit, make_record
except ImportError:  # standalone: python benchmarks/bench_entropy_report.py
    from perf_gate import emit, make_record

N_FRAMES = 12

#: Median wall times of the bit-serial VLC implementation on the same
#: workload (QCIF foreman-like, 12 frames, NO scheme), recorded just
#: before the word-level kernel swap.  The per-host "after" numbers in
#: ``BENCH_entropy.json`` were measured on the same machine in the same
#: session; CI re-measures "after" on its own hardware, so only the
#: speedup ratio is comparable across hosts, not the absolute times.
BIT_SERIAL_BASELINE = {
    "encode_s": 0.1928,
    "decode_s": 0.1632,
    "packetize_s": 0.0837,
}


def measure(n_frames: int = N_FRAMES, runs: int = 5) -> dict:
    """Median encode/decode/packetize wall time over ``runs`` repeats."""
    clip = foreman_like(n_frames=n_frames)
    config = CodecConfig()

    def one_run() -> tuple[float, float, float]:
        encoder = Encoder(config, make_strategy("NO"))
        t0 = time.perf_counter()
        encoded = encoder.encode_sequence(clip)
        t1 = time.perf_counter()
        packetizer = Packetizer(config)
        packets = [packetizer.packetize(ef) for ef in encoded]
        t2 = time.perf_counter()
        decoder = Decoder(config)
        reference = None
        for ef, pkts in zip(encoded, packets):
            result = decoder.decode_frame(
                [p.payload for p in pkts],
                reference,
                expected_index=ef.frame_index,
            )
            reference = result.frame
        t3 = time.perf_counter()
        return t1 - t0, t3 - t2, t2 - t1

    samples = [one_run() for _ in range(runs)]
    encode_s = statistics.median(s[0] for s in samples)
    decode_s = statistics.median(s[1] for s in samples)
    packetize_s = statistics.median(s[2] for s in samples)
    return {
        "frames": n_frames,
        "runs": runs,
        "encode_s": round(encode_s, 4),
        "decode_s": round(decode_s, 4),
        "packetize_s": round(packetize_s, 4),
        "encode_fps": round(n_frames / encode_s, 1),
        "decode_fps": round(n_frames / decode_s, 1),
    }


def build_report(n_frames: int = N_FRAMES, runs: int = 5) -> dict:
    after = measure(n_frames=n_frames, runs=runs)
    before = BIT_SERIAL_BASELINE
    combined_before = before["encode_s"] + before["decode_s"]
    combined_after = after["encode_s"] + after["decode_s"]
    return make_record(
        "entropy_hot_path",
        workload={
            "sequence": "foreman",
            "n_frames": n_frames,
            "scheme": "NO",
            "resolution": "176x144",
        },
        gated={"combined_encode_decode_speedup": {"tolerance": 0.25}},
        before_bit_serial=before,
        after_word_level=after,
        combined_encode_decode_speedup=round(
            combined_before / combined_after, 2
        ),
        packetize_speedup=round(
            before["packetize_s"] / max(after["packetize_s"], 1e-6), 1
        ),
    )


def test_entropy_report_smoke():
    """The record is well-formed and the kernels actually sped things up.

    The only hard bound asserted is a loose sanity factor (the word-
    level path must not be *slower* than the recorded bit-serial
    baseline scaled by 2x) so the test survives slow CI machines while
    still catching a reversion to per-bit Python loops.
    """
    report = build_report(n_frames=4, runs=1)
    after = report["after_word_level"]
    assert after["encode_s"] > 0 and after["decode_s"] > 0
    per_frame_budget = (
        2.0
        * (
            BIT_SERIAL_BASELINE["encode_s"]
            + BIT_SERIAL_BASELINE["decode_s"]
            + BIT_SERIAL_BASELINE["packetize_s"]
        )
        / N_FRAMES
    )
    per_frame = (
        after["encode_s"] + after["decode_s"] + after["packetize_s"]
    ) / after["frames"]
    assert per_frame < per_frame_budget, (
        f"entropy hot path regressed: {per_frame:.4f}s/frame vs "
        f"budget {per_frame_budget:.4f}s/frame"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=N_FRAMES)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument(
        "--out", default=None, help="write the JSON record to this path"
    )
    args = parser.parse_args(argv)

    emit(build_report(n_frames=args.frames, runs=args.runs), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
