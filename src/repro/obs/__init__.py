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

Everything is a no-op by default (``NullTracer``); a traced run
installs a real ``Tracer`` with ``use_tracer`` (all three in
:mod:`repro.obs.tracer`), then exports its spans and metrics snapshot
with :func:`repro.obs.export.write_trace`.  Multi-process grids
(:func:`repro.sim.runner.run_grid`) give each worker its own tracer and
per-job trace file, merged by the parent with
:func:`repro.obs.export.merge_job_traces`.  ``repro trace <file>``
renders the result.
"""
