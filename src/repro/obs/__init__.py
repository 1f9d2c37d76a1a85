"""repro.obs — per-stage observability: tracing, metrics, trace files.

The measurement substrate for every performance claim this repo makes.
The paper's argument is an accounting argument (*where* the intra/inter
decision moves time, energy and bits), so the pipeline is instrumented
with nested spans at every Figure-1 stage:

====================  =======================================================
span                  opened around
====================  =======================================================
``simulate``          one whole end-to-end run (the root)
``encode_frame``      :meth:`repro.codec.encoder.Encoder.encode_frame`
``motion_estimation``   the ME search + half-pel refinement (inside encode)
``quantize``            transform/quantize/reconstruct (inside encode)
``entropy_code``        VLC bit writing (inside encode)
``packetize``         the packetizer
``channel``           the lossy channel transmit
``decode_frame``      depacketize + decode
``conceal``           concealment repair
``metrics``           PSNR / bad-pixel measurement
====================  =======================================================

Everything is a no-op by default (:class:`NullTracer`); a traced run
installs a real :class:`Tracer` with :func:`use_tracer`, then exports
its spans and metrics snapshot with :func:`write_trace`.  Multi-process
grids (:func:`repro.sim.runner.run_grid`) give each worker its own
tracer and per-job trace file, merged by the parent with
:func:`merge_job_traces`.  ``repro trace <file>`` renders the result.
"""

from repro.obs.export import (
    MERGED_TRACE_NAME,
    TRACE_SCHEMA_VERSION,
    TraceData,
    TraceFormatError,
    job_trace_files,
    load_trace,
    merge_job_traces,
    merge_traces,
    write_trace,
)
from repro.obs.metrics import (
    HistogramSummary,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.summary import (
    Coverage,
    StageStats,
    aggregate_stages,
    coverage,
    trace_summary,
)
from repro.obs.tracer import (
    NULL_TRACER,
    EventRecord,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanRecord",
    "EventRecord",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "HistogramSummary",
    "TraceData",
    "TraceFormatError",
    "TRACE_SCHEMA_VERSION",
    "MERGED_TRACE_NAME",
    "write_trace",
    "load_trace",
    "merge_traces",
    "merge_job_traces",
    "job_trace_files",
    "StageStats",
    "Coverage",
    "aggregate_stages",
    "coverage",
    "trace_summary",
]
