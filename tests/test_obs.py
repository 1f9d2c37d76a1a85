"""Tests for the per-stage observability layer (:mod:`repro.obs`)."""

from __future__ import annotations

import json

import pytest

from repro.energy.profiles import IPAQ_H5555
from repro.network.loss import UniformLoss
from repro.obs.export import (
    MERGED_TRACE_NAME,
    TraceData,
    TraceFormatError,
    job_trace_files,
    load_trace,
    merge_job_traces,
    merge_traces,
    write_trace,
)
from repro.obs.metrics import HistogramSummary, MetricsRegistry
from repro.obs.summary import aggregate_stages, coverage, trace_summary
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.resilience.registry import build_strategy
from repro.sim.pipeline import SimulationConfig, simulate
from repro.sim.runner import JobSpec, run_grid
from repro.video.synthetic import SyntheticConfig

from tests.conftest import (
    SMALL_H,
    SMALL_W,
    runner_options,
    small_config,
    small_sequence,
)


class TestTracer:
    def test_spans_record_nesting(self):
        tracer = Tracer(trace_id="t")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records  # inner closes first
        assert inner.name == "inner"
        assert inner.parent == "outer"
        assert inner.depth == 2
        assert outer.name == "outer"
        assert outer.parent is None
        assert outer.depth == 1
        assert inner.trace_id == outer.trace_id == "t"
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_span_counters_accumulate(self):
        tracer = Tracer()
        with tracer.span("stage", bits=10) as span:
            span.add(bits=5, blocks=2)
            span.add(blocks=1)
        (record,) = tracer.records
        assert record.counters == {"bits": 15, "blocks": 3}

    def test_count_attaches_to_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.count(sad_blocks=7)
            tracer.count(bits=3)
        inner, outer = tracer.records
        assert inner.counters == {"sad_blocks": 7}
        assert outer.counters == {"bits": 3}

    def test_count_without_open_span_is_dropped(self):
        tracer = Tracer()
        tracer.count(bits=1)  # must not raise
        assert tracer.records == []

    def test_default_tracer_is_noop(self):
        tracer = get_tracer()
        assert tracer is NULL_TRACER
        assert not tracer.enabled
        with tracer.span("anything") as span:
            span.add(bits=1)
        tracer.count(bits=1)
        tracer.metrics.inc("x")
        assert tracer.records == []
        assert not tracer.metrics

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(Tracer())
        assert isinstance(get_tracer(), Tracer)
        set_tracer(None)
        assert get_tracer() is NULL_TRACER
        set_tracer(previous)

    def test_null_tracer_reuses_one_span_object(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        metrics = MetricsRegistry()
        metrics.inc("packets", 3)
        metrics.inc("packets")
        metrics.gauge("frames", 20)
        metrics.gauge("frames", 24)
        assert metrics.counter_value("packets") == 4
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["packets"] == 4
        assert snapshot["gauges"]["frames"] == 24

    def test_histograms(self):
        metrics = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            metrics.observe("psnr", value)
        histogram = metrics.histogram("psnr")
        assert histogram.count == 3
        assert histogram.minimum == 1.0
        assert histogram.maximum == 3.0
        assert histogram.mean == pytest.approx(2.0)

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        a.observe("h", 1.0)
        b.observe("h", 5.0)
        a.gauge("g", 1)
        b.gauge("g", 9)
        a.merge(b.snapshot())
        assert a.counter_value("n") == 3
        merged = a.histogram("h")
        assert merged.count == 2 and merged.maximum == 5.0
        assert a.snapshot()["gauges"]["g"] == 9  # last writer wins

    def test_bool_reflects_content(self):
        metrics = MetricsRegistry()
        assert not metrics
        metrics.inc("x")
        assert metrics

    def test_histogram_summary_merge(self):
        a, b = HistogramSummary(), HistogramSummary()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b.as_dict())
        assert a.count == 2
        assert a.mean == pytest.approx(2.0)


class TestTraceFiles:
    def _traced_run(self, trace_id="t"):
        tracer = Tracer(trace_id=trace_id)
        with tracer.span("simulate") as root:
            with tracer.span("encode_frame") as span:
                span.add(bits=100)
            root.add(frames=1)
        tracer.metrics.inc("channel.packets_sent", 4)
        return tracer

    def test_round_trip(self, tmp_path):
        tracer = self._traced_run()
        path = write_trace(tmp_path / "trace.jsonl", tracer)
        data = load_trace(path)
        assert data.spans == tracer.records
        assert data.trace_ids == ["t"]
        assert data.metrics.counter_value("channel.packets_sent") == 4

    def test_file_is_schema_versioned_jsonl(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", self._traced_run())
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert isinstance(header["schema"], int)
        assert all(json.loads(line) for line in lines)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header"\n')
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"type": "header", "schema": 999}\n')
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_load_rejects_schema_1(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"type": "header", "schema": 1, "format": "repro-trace"}\n'
        )
        with pytest.raises(TraceFormatError, match="schema 1"):
            load_trace(path)

    def test_load_rejects_unknown_record_type(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_merge_traces_concatenates(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", self._traced_run("a"))
        b = write_trace(tmp_path / "b.jsonl", self._traced_run("b"))
        merged = merge_traces([a, b], tmp_path / "merged.jsonl")
        data = load_trace(merged)
        assert sorted(data.trace_ids) == ["a", "b"]
        assert len(data.spans) == 4
        assert data.metrics.counter_value("channel.packets_sent") == 8

    def test_merge_job_traces_empty_dir(self, tmp_path):
        assert merge_job_traces(tmp_path) is None
        assert job_trace_files(tmp_path) == []


#: Tiny clip for end-to-end traced runs (shape shared with test_runner).
TINY_CLIP = SyntheticConfig(
    width=SMALL_W,
    height=SMALL_H,
    n_frames=4,
    texture_scale=30.0,
    object_radius=10,
    object_motion_amplitude=10.0,
    object_motion_period=8,
    seed=11,
)


def _run(tracer=None):
    video = small_sequence(n_frames=4)
    strategy = build_strategy("PBPAIR", intra_th=0.9, plr=0.2)
    loss = UniformLoss(plr=0.2, seed=3)
    config = SimulationConfig(codec=small_config())
    if tracer is None:
        return simulate(video, strategy, loss_model=loss, config=config)
    with use_tracer(tracer):
        return simulate(video, strategy, loss_model=loss, config=config)


class TestPipelineTracing:
    def test_traced_run_is_bit_identical_to_untraced(self):
        baseline = _run()
        traced = _run(Tracer())
        assert traced.frames == baseline.frames
        assert traced.counters == baseline.counters
        assert traced.channel_log.lost_packets == (
            baseline.channel_log.lost_packets
        )
        assert traced.size_stats == baseline.size_stats

    def test_expected_stage_spans_present(self):
        tracer = Tracer()
        _run(tracer)
        names = {record.name for record in tracer.records}
        assert {
            "simulate",
            "encode_frame",
            "quantize",
            "entropy_code",
            "packetize",
            "channel",
            "decode_frame",
            "conceal",
        } <= names

    def test_stage_coverage_within_two_percent(self):
        tracer = Tracer()
        _run(tracer)
        ratio = coverage(tracer.records).ratio
        assert 0.98 <= ratio <= 1.02

    def test_counters_match_run_totals(self):
        tracer = Tracer()
        result = _run(tracer)
        stages = {s.name: s for s in aggregate_stages(tracer.records)}
        assert stages["encode_frame"].counters["intra_mbs"] == sum(
            record.intra_mbs for record in result.frames
        )
        assert stages["packetize"].counters["packets"] == (
            result.channel_log.sent
        )
        assert stages["channel"].counters["packets_lost"] == len(
            result.channel_log.lost_packets
        )

    def test_energy_attribution_uses_device_prices(self):
        tracer = Tracer()
        _run(tracer)
        stages = {s.name: s for s in aggregate_stages(tracer.records)}
        assert stages["quantize"].energy_joules(IPAQ_H5555) > 0.0
        assert stages["channel"].energy_joules(IPAQ_H5555) == 0.0

    def test_trace_summary_renders(self, tmp_path):
        tracer = Tracer()
        _run(tracer)
        path = write_trace(tmp_path / "trace.jsonl", tracer)
        text = trace_summary(load_trace(path), IPAQ_H5555)
        assert "simulate" in text
        assert "encode_frame" in text
        assert "stage coverage" in text


class TestSummaryOrder:
    def test_stages_sit_under_their_parent(self):
        """Encoder sub-stages render under ``encode_frame`` even when
        ``decode_frame`` outweighs some of them."""

        def span(name, duration, depth, parent):
            return SpanRecord(name, 0.0, duration, depth, parent)

        spans = [
            span("simulate", 1.0, 1, None),
            span("encode_frame", 0.5, 2, "simulate"),
            span("motion_estimation", 0.25, 3, "encode_frame"),
            span("quantize", 0.1, 3, "encode_frame"),
            span("entropy_code", 0.05, 3, "encode_frame"),
            span("decode_frame", 0.3, 2, "simulate"),
            span("channel", 0.15, 2, "simulate"),
        ]
        text = trace_summary(TraceData(spans=spans, trace_ids=["run"]))
        rows = [
            line.split()[0]
            for line in text.splitlines()[3:]
            if not line.startswith("stage coverage")
        ]
        assert rows == [
            "simulate",
            "encode_frame",
            "motion_estimation",
            "quantize",
            "entropy_code",
            "decode_frame",
            "channel",
        ]
        assert "    motion_estimation" in text
        assert "  decode_frame" in text


class TestRunnerTracing:
    def _jobs(self):
        config = SimulationConfig(codec=small_config())
        return [
            JobSpec(
                scheme=scheme,
                plr=0.2,
                channel_seed=1,
                sequence="tiny",
                synthetic=TINY_CLIP,
                config=config,
            )
            for scheme in ("NO", "GOP-2")
        ]

    def test_run_grid_merges_job_traces(self, tmp_path):
        trace_dir = tmp_path / "traces"
        outcomes = run_grid(
            self._jobs(), runner_options(jobs=1, trace_dir=trace_dir)
        )
        assert len(outcomes) == 2
        assert len(job_trace_files(trace_dir)) == 2
        data = load_trace(trace_dir / MERGED_TRACE_NAME)
        assert len(data.trace_ids) == 2
        roots = [span for span in data.spans if span.name == "simulate"]
        assert len(roots) == 2

    def test_untraced_grid_writes_nothing(self, tmp_path):
        run_grid(self._jobs(), runner_options(jobs=1))
        assert list(tmp_path.iterdir()) == []

    def test_grid_results_unchanged_by_tracing(self, tmp_path):
        plain = run_grid(self._jobs(), runner_options(jobs=1))
        traced = run_grid(
            self._jobs(), runner_options(jobs=1, trace_dir=tmp_path)
        )
        for a, b in zip(plain, traced):
            assert a.result.frames == b.result.frames
