"""Span recorder and the call-boundary wrappers of the traced run.

The benchmark's per-layer split comes from this module alone: it wraps
the public functions of each layer of ``repro`` from the outside and
records one span per call (name, start, end, parent).  Spans stay in
memory and are aggregated when the workload ends.  A layer's self time
is its span's duration minus the time its child spans cover, so the
self times of a span tree add up to its root exactly.

Some modules import their kernels by name (``from repro.codec.quant
import quantize_blocks``); for those the wrapper replaces the caller's
binding, because patching the defining module would not reach them.

The wrappers observe and never change values: each returns exactly
what the wrapped callable returned.  The program's own ``repro.obs``
tracer stays off.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: Spans whose self time no leaf layer claims: the benchmark's own roots
#: and the runner's and daemon's catch-all entry points.  Their self
#: time is left out of coverage, so time spent in code that no wrapper
#: names shows up as missing coverage instead of as its parent's.
CATCH_ALL = (
    "bench.",
    "sim.runner.run_grid",
    "sim.runner.run_job",
    "service.daemon.run_grid",
)


class SpanRecorder:
    """In-memory spans with per-thread parent tracking, plus counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(self, name: str, function: Callable, /, *args: Any, **kwargs: Any):
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def aggregate(self) -> dict:
        """Self time and call count per span name, plus root totals.

        Returns a JSON-ready dict: ``layers`` maps a span name to
        ``{"self_s", "total_s", "calls"}``; ``root_s`` sums the
        durations of the top-level spans; ``min_self_s`` is the
        smallest self time seen (negative would mean broken nesting).
        """
        child_time: dict[int, float] = defaultdict(float)
        for _span_id, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict[str, dict[str, float]] = {}
        root_s = 0.0
        min_self = 0.0
        for span_id, parent, name, start, end in self.spans:
            duration = end - start
            own = duration - child_time.get(span_id, 0.0)
            min_self = min(min_self, own)
            entry = layers.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            entry["self_s"] += own
            entry["total_s"] += duration
            entry["calls"] += 1
            if parent is None:
                root_s += duration
        return {
            "layers": layers,
            "counters": dict(self.counters),
            "root_s": root_s,
            "min_self_s": min_self,
        }


def coverage(aggregate: dict) -> float:
    """Share of root time the program's leaf layers account for."""
    if aggregate["root_s"] <= 0:
        return 0.0
    layer_self = sum(
        entry["self_s"]
        for name, entry in aggregate["layers"].items()
        if not name.startswith(CATCH_ALL)
    )
    return layer_self / aggregate["root_s"]


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _blocks(array) -> int:
    """Number of 8x8 blocks in a ``(..., 8, 8)`` batch."""
    shape = getattr(array, "shape", ())
    count = 1
    for size in shape[:-2]:
        count *= int(size)
    return count


def _wrap(owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
    setattr(owner, attribute, make(getattr(owner, attribute)))


def _span(recorder: SpanRecorder, name: str, after=None):
    """Wrapper factory: one span per call, ``after(result, args)`` counts."""

    def make(original):
        def wrapper(*args, **kwargs):
            result = recorder.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    return make


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer table reports.

    Call once per process, before the workload imports its data.
    """
    from repro.codec import decoder, encoder, motion
    from repro.concealment.copy import CopyConcealment
    from repro.network.channel import Channel
    from repro.network.packet import Depacketizer, Packetizer
    from repro.network.protection import ResilienceWrapper
    from repro.scenarios import channel as scenario_channel
    from repro.scenarios import fleet
    from repro.service import daemon, queue, wire
    from repro.sim import pipeline, runner
    from repro.video import synthetic

    count = recorder.count

    # video.synthetic: the generators call their module's binding, the
    # runner calls its own for explicit SyntheticConfig clips.
    for owner in (synthetic, runner):
        _wrap(
            owner,
            "generate_sequence",
            _span(
                recorder,
                "video.synthetic.generate",
                lambda result, args: count("video.synthetic.calls"),
            ),
        )

    # codec.encoder / codec.decoder
    def encoded(result, args):
        count("codec.encoder.frames")
        count("codec.syntax.bits", result.stats.bits)

    _wrap(
        encoder.Encoder,
        "encode_frame",
        _span(recorder, "codec.encoder.encode_frame", encoded),
    )

    def decoded(result, args):
        count("codec.decoder.frames")
        count("codec.decoder.damaged_fragments", result.damaged_fragments)

    _wrap(
        decoder.Decoder,
        "decode_frame",
        _span(recorder, "codec.decoder.decode_frame", decoded),
    )

    # codec.motion: every concrete estimator class.
    def estimated(result, args):
        count("codec.motion.sad_blocks", result.candidates_evaluated)

    for estimator in (
        motion.FullSearchMotionEstimator,
        motion.ThreeStepMotionEstimator,
        motion.DiamondSearchMotionEstimator,
    ):
        _wrap(
            estimator, "estimate", _span(recorder, "codec.motion.estimate", estimated)
        )

    # codec.dct / codec.quant: the callers' bindings.
    def transformed(result, args):
        count("codec.dct.blocks", _blocks(args[0]))

    def quantized(result, args):
        count("codec.quant.blocks", _blocks(args[0]))

    for owner, names in (
        (encoder, ("forward_dct_blocks", "inverse_dct_blocks")),
        (decoder, ("inverse_dct_blocks",)),
    ):
        for name in names:
            _wrap(owner, name, _span(recorder, "codec.dct.transform", transformed))
    for owner, names in (
        (encoder, ("quantize_blocks", "dequantize_blocks")),
        (decoder, ("dequantize_blocks",)),
    ):
        for name in names:
            _wrap(owner, name, _span(recorder, "codec.quant.quantize", quantized))

    # One plain span each: codec.syntax, network.packet, concealment,
    # metrics (the pipeline's bindings), the transmit phase and run_job.
    for owner, name, span_name in (
        (encoder, "encode_macroblock_layer", "codec.syntax.encode"),
        (decoder, "decode_macroblock_layer", "codec.syntax.decode"),
        (Packetizer, "packetize", "network.packet.packetize"),
        (Depacketizer, "group_by_frame", "network.packet.depacketize"),
        (CopyConcealment, "conceal", "concealment.conceal"),
        (pipeline, "psnr", "metrics.quality"),
        (pipeline, "bad_pixel_count", "metrics.quality"),
        (runner, "transmit_phase", "sim.pipeline.transmit_phase"),
        (runner, "run_job", "sim.runner.run_job"),
    ):
        _wrap(owner, name, _span(recorder, span_name))

    # network.channel / scenarios.channel / network.protection
    def make_channel(name):
        def make(original):
            def wrapper(self, packets):
                sent = len(packets)
                survivors = recorder.call(name, original, self, packets)
                count("network.channel.packets_sent", sent)
                count("network.channel.packets_lost", sent - len(survivors))
                return survivors

            return wrapper

        return make

    _wrap(Channel, "transmit", make_channel("network.channel.transmit"))
    _wrap(
        scenario_channel.ScenarioChannel,
        "transmit",
        make_channel("scenarios.channel.transmit"),
    )

    def make_protection(original):
        def wrapper(self, packets):
            fec, retx = self.log.fec_recovered, self.log.retransmissions
            survivors = recorder.call(
                "network.protection.transmit", original, self, packets
            )
            log = self.log
            count("network.protection.fec_recovered", log.fec_recovered - fec)
            count("network.protection.retransmissions", log.retransmissions - retx)
            return survivors

        return wrapper

    _wrap(ResilienceWrapper, "transmit", make_protection)

    # sim.pipeline: the encode side, as the runner calls it (``simulate``
    # is the whole pipeline, taken when a cell shares no stream).
    def encode_counted(result, args):
        count("sim.runner.encodes")

    for name in ("encode_phase", "simulate"):
        _wrap(
            runner, name, _span(recorder, f"sim.pipeline.{name}", encode_counted)
        )

    # sim.runner: grid, job, caches
    def gridded(result, args):
        for outcome in result:
            spec = outcome.spec
            count("sim.runner.cells")
            count(
                "sim.runner.cell_frames",
                spec.synthetic.n_frames if spec.synthetic else spec.n_frames,
            )

    for owner, name in (
        (runner, "sim.runner.run_grid"),
        (fleet, "sim.runner.run_grid"),
        (daemon, "service.daemon.run_grid"),
    ):
        _wrap(owner, "run_grid", _span(recorder, name, gridded))

    def make_stream_cache(original):
        def wrapper(self, key, encode):
            stream, reused = recorder.call(
                "sim.runner.stream_cache", original, self, key, encode
            )
            count("sim.runner.stream_cache.lookups")
            count("sim.runner.stream_cache.hits", int(reused))
            return stream, reused

        return wrapper

    _wrap(runner.EncodedStreamCache, "get_or_encode", make_stream_cache)

    # The stream cache's disk tier is a ResultCache too: calls made inside
    # a stream-cache span belong to the stream cache.
    def in_stream_cache() -> bool:
        current = recorder.current()
        return current is not None and current.startswith("sim.runner.stream_cache")

    def make_cache_get(original):
        def wrapper(self, key):
            if in_stream_cache():
                return recorder.call(
                    "sim.runner.stream_cache.disk", original, self, key
                )
            value = recorder.call(
                "sim.runner.result_cache.get", original, self, key
            )
            count("sim.runner.result_cache.gets")
            count("sim.runner.result_cache.hits", int(value is not None))
            return value

        return wrapper

    def make_cache_put(original):
        def wrapper(self, key, value):
            if in_stream_cache():
                return recorder.call(
                    "sim.runner.stream_cache.disk", original, self, key, value
                )
            result = recorder.call(
                "sim.runner.result_cache.put", original, self, key, value
            )
            try:
                written = self.path_for(key).stat().st_size
            except OSError:
                written = 0
            count("sim.runner.result_cache.bytes_written", written)
            return result

        return wrapper

    _wrap(runner.ResultCache, "get", make_cache_get)
    _wrap(runner.ResultCache, "put", make_cache_put)

    # service.queue
    for method in ("submit", "claim_batch", "complete", "depth", "get", "heartbeat"):
        _wrap(queue.JobQueue, method, _span(recorder, f"service.queue.{method}"))
    for method in ("statuses", "counts", "release_stale"):
        _wrap(queue.JobQueue, method, _span(recorder, "service.queue.scan"))

    def make_read(original):
        def wrapper(self, job_id):
            count("service.queue.records_read")
            return original(self, job_id)

        return wrapper

    _wrap(queue.JobQueue, "_read_record", make_read)

    # service.wire (classmethods are re-bound as classmethods) and the
    # daemon's entry points, which are the roots of its span trees.
    for cls, name, span_name in (
        (wire.JobSubmit, "from_json", "service.wire.decode"),
        (wire.SessionResult, "from_simulation", "service.wire.result"),
    ):
        function = cls.__dict__[name].__func__
        setattr(cls, name, classmethod(_span(recorder, span_name)(function)))
    for name in ("_json_bytes", "_jsonl_bytes"):
        _wrap(daemon, name, _span(recorder, "service.wire.encode"))
    for method, name in (
        ("_route", "bench.daemon.request"),
        ("_execute_batch", "bench.daemon.execute"),
        ("_report_batch", "bench.daemon.report"),
    ):
        _wrap(daemon.EncodeDaemon, method, _span(recorder, name))
