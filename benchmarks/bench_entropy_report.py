"""Entropy/bitstream hot-path throughput: word-level against bit-serial.

The word-level VLC kernels (batched Exp-Golomb in the writer, word-
indexed zero-run scanning in the reader, event-array macroblock layer)
replaced the original bit-at-a-time substrate.  This benchmark times
the combined encode+decode wall time on the same workload as
``bench_encoder_throughput`` against a bit-serial baseline measured in
the same run, from the codec's own oracles:

* the writer: the same encoder with every codeword appended by one
  ``BitWriter.write_bits`` call instead of the batched
  ``write_codewords``;
* the reader: :func:`repro.codec.reference.decode_frame_scalar`, the
  cold per-fragment, per-macroblock, per-block decoder.  It is the
  fully scalar decoder, block kernels included (one dequantization,
  IDCT and prediction per block), so the decode side of the ratio
  measures the batched block kernels as well as the word-level VLC
  reader: it is not an entropy-only speedup.

The two sides alternate within each run, so host speed and load cancel
out of the ratio ``combined_encode_decode_speedup``; it is recorded,
not gated, because it still spreads with the host (3.30–4.67 over seven
runs of one 2-vCPU VM).  The baseline must reproduce the word-level
bytes and frames exactly, or the record is not written.

The gate is an exact count instead: ``codewords_per_writer_call``, the
VLC codewords the encoder's macroblock layer emits over the whole clip
per ``BitWriter`` call it makes there (``write_bits`` plus
``write_codewords``).  The word-level writer packs a frame's layer in
one call; a writer that falls back to one ``write_bits`` per codeword
drops the ratio to about 1, on any host.

Two entry points:

* ``python benchmarks/bench_entropy_report.py [--out BENCH_entropy.json]``
  runs the measurement standalone and writes/prints the JSON.
* Under pytest the module contributes a smoke check that the measured
  record is well-formed and that the word-level path beats the
  bit-serial one; absolute wall-time assertions are deliberately
  absent (CI containers vary widely).
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import time
from unittest import mock

import numpy as np

from repro.api import (
    BitWriter,
    CodecConfig,
    Decoder,
    Encoder,
    Packetizer,
    Tracer,
    decode_frame_scalar,
    foreman_like,
    make_strategy,
    use_tracer,
)

try:
    from benchmarks.perf_gate import emit, make_record
except ImportError:  # standalone: python benchmarks/bench_entropy_report.py
    from perf_gate import emit, make_record

N_FRAMES = 12


def _write_codewords_bit_serial(writer, values, widths) -> None:
    """``BitWriter.write_codewords`` as one ``write_bits`` per codeword."""
    for value, width in zip(np.asarray(values).tolist(), np.asarray(widths).tolist()):
        writer.write_bits(value, width)


def _encode(clip, config: CodecConfig, bit_serial: bool):
    encoder = Encoder(config, make_strategy("NO"))
    with (
        mock.patch.object(
            BitWriter, "write_codewords", _write_codewords_bit_serial
        )
        if bit_serial
        else contextlib.nullcontext()
    ):
        start = time.perf_counter()
        encoded = encoder.encode_sequence(clip)
        return encoded, time.perf_counter() - start


def _decode(config: CodecConfig, packets, bit_serial: bool):
    decoder = Decoder(config)
    frames = []
    reference = None
    start = time.perf_counter()
    for index, frame_packets in enumerate(packets):
        fragments = [packet.payload for packet in frame_packets]
        if bit_serial:
            result = decode_frame_scalar(
                config, fragments, reference, expected_index=index
            )
        else:
            result = decoder.decode_frame(
                fragments, reference, expected_index=index
            )
        reference = result.frame
        frames.append(result.frame)
    return frames, time.perf_counter() - start


def count_writer_calls(n_frames: int = N_FRAMES) -> dict:
    """VLC codewords and ``BitWriter`` calls of the encoder's macroblock
    layer (its ``entropy_code`` spans) over one word-level encode of
    the clip: exact and host-independent."""
    tracer = Tracer()

    def counted(method):
        def wrapper(self, *args):
            tracer.count(writer_calls=1)  # lands on the innermost span
            return method(self, *args)

        return wrapper

    with (
        use_tracer(tracer),
        mock.patch.object(BitWriter, "write_bits", counted(BitWriter.write_bits)),
        mock.patch.object(
            BitWriter, "write_codewords", counted(BitWriter.write_codewords)
        ),
    ):
        Encoder(CodecConfig(), make_strategy("NO")).encode_sequence(
            foreman_like(n_frames=n_frames)
        )
    layer = [r.counters for r in tracer.records if r.name == "entropy_code"]
    return {
        name: int(sum(counters.get(key, 0) for counters in layer))
        for name, key in (
            ("codewords", "vlc_codewords"),
            ("writer_calls", "writer_calls"),
        )
    }


def measure(n_frames: int = N_FRAMES, runs: int = 5) -> dict:
    """Median wall times of both sides over ``runs`` alternating repeats."""
    clip = foreman_like(n_frames=n_frames)
    config = CodecConfig()
    times: dict[str, list[float]] = {
        name: []
        for name in (
            "word_encode_s", "word_decode_s", "packetize_s",
            "serial_encode_s", "serial_decode_s",
        )
    }
    # One untimed pass of both sides first: the first call of each
    # kernel pays one-time costs that would land on whichever side ran
    # first.
    for bit_serial in (False, True):
        warm, _ = _encode(clip[:2], config, bit_serial)
        _decode(config, [Packetizer(config).packetize(f) for f in warm], bit_serial)
    for _ in range(runs):
        encoded, elapsed = _encode(clip, config, bit_serial=False)
        times["word_encode_s"].append(elapsed)
        serial, elapsed = _encode(clip, config, bit_serial=True)
        times["serial_encode_s"].append(elapsed)
        if [f.payload for f in serial] != [f.payload for f in encoded]:
            raise AssertionError("the bit-serial writer changed the stream")

        packetizer = Packetizer(config)
        start = time.perf_counter()
        packets = [packetizer.packetize(frame) for frame in encoded]
        times["packetize_s"].append(time.perf_counter() - start)

        decoded, elapsed = _decode(config, packets, bit_serial=False)
        times["word_decode_s"].append(elapsed)
        scalar, elapsed = _decode(config, packets, bit_serial=True)
        times["serial_decode_s"].append(elapsed)
        for got, want in zip(scalar, decoded):
            np.testing.assert_array_equal(got, want)

    median = {name: statistics.median(values) for name, values in times.items()}
    after = {
        "encode_s": round(median["word_encode_s"], 4),
        "decode_s": round(median["word_decode_s"], 4),
        "packetize_s": round(median["packetize_s"], 4),
        "encode_fps": round(n_frames / median["word_encode_s"], 1),
        "decode_fps": round(n_frames / median["word_decode_s"], 1),
    }
    before = {
        "encode_s": round(median["serial_encode_s"], 4),
        "decode_s": round(median["serial_decode_s"], 4),
    }
    combined_before = median["serial_encode_s"] + median["serial_decode_s"]
    combined_after = median["word_encode_s"] + median["word_decode_s"]
    return {
        "before_bit_serial": before,
        "after_word_level": after,
        "combined_encode_decode_speedup": round(
            combined_before / combined_after, 2
        ),
    }


def build_report(n_frames: int = N_FRAMES, runs: int = 5) -> dict:
    measured = measure(n_frames=n_frames, runs=runs)
    counts = count_writer_calls(n_frames=n_frames)
    return make_record(
        "entropy_hot_path",
        workload={
            "sequence": "foreman",
            "n_frames": n_frames,
            "scheme": "NO",
            "resolution": "176x144",
        },
        gated={"codewords_per_writer_call": {"tolerance": 0}},
        runs=runs,
        macroblock_layer=counts,
        codewords_per_writer_call=round(
            counts["codewords"] / counts["writer_calls"], 3
        ),
        before_bit_serial=measured["before_bit_serial"],
        after_word_level=measured["after_word_level"],
        combined_encode_decode_speedup=measured[
            "combined_encode_decode_speedup"
        ],
        note=(
            "codewords_per_writer_call is gated exactly: the VLC "
            "codewords the encoder's macroblock layer emits over the "
            "clip per BitWriter call (write_bits plus write_codewords) "
            "it makes there, a count that is the same on every host.  "
            "combined_encode_decode_speedup is recorded, not gated: the "
            "bit-serial encode+decode time over the word-level one, "
            "both measured in the same run, alternating.  The bit-serial "
            "writer appends each codeword with one BitWriter.write_bits "
            "call; the decode baseline is reference.decode_frame_scalar, "
            "the fully scalar decoder including its per-block "
            "dequantization, IDCT and prediction, so the ratio is not "
            "an entropy-only speedup.  Both reproduce the word-level "
            "bytes and frames exactly"
        ),
    )


def test_entropy_report_smoke():
    """The record is well-formed and the word-level path is the faster."""
    report = build_report(n_frames=4, runs=1)
    after = report["after_word_level"]
    assert after["encode_s"] > 0 and after["decode_s"] > 0
    assert report["before_bit_serial"]["encode_s"] > 0
    assert report["combined_encode_decode_speedup"] > 1.0
    layer = report["macroblock_layer"]
    assert layer["writer_calls"] == 4  # one write_codewords per frame
    assert report["codewords_per_writer_call"] > 100


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
