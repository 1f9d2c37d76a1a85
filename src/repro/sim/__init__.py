"""End-to-end simulation: source -> encoder -> channel -> decoder -> metrics.

:func:`repro.sim.pipeline.simulate` wires the whole Figure-1 system
together and returns a :class:`repro.sim.pipeline.SimulationResult` with
everything the paper's figures plot; :mod:`repro.sim.runner` runs
declarative job grids (one :class:`JobSpec` per cell) across a process
pool with on-disk result caching; :mod:`repro.sim.experiment` matches
schemes' operating points (equal size, equal bitrate);
:mod:`repro.sim.report` prints figure-shaped tables.
"""

from repro.sim.pipeline import (
    EncodedStream,
    SimulationConfig,
    SimulationResult,
    FrameRecord,
    StreamFrame,
    simulate,
    encode_phase,
    transmit_phase,
)
from repro.sim.experiment import (
    CalibrationResult,
    calibrate_intra_th,
)
from repro.sim.runner import (
    EncodedStreamCache,
    JobFailure,
    JobResult,
    JobSpec,
    ResultCache,
    build_grid,
    encode_content_hash,
    encode_stream_key,
    run_grid,
    run_job,
    stable_hash,
)
from repro.sim.report import format_table, format_series, format_csv

__all__ = [
    "JobSpec",
    "JobResult",
    "JobFailure",
    "ResultCache",
    "EncodedStreamCache",
    "build_grid",
    "encode_content_hash",
    "encode_stream_key",
    "run_grid",
    "run_job",
    "stable_hash",
    "SimulationConfig",
    "SimulationResult",
    "FrameRecord",
    "EncodedStream",
    "StreamFrame",
    "simulate",
    "encode_phase",
    "transmit_phase",
    "CalibrationResult",
    "calibrate_intra_th",
    "format_table",
    "format_series",
    "format_csv",
]
