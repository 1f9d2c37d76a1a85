"""End-to-end simulation: source -> encoder -> channel -> decoder -> metrics.

:func:`repro.sim.pipeline.simulate` wires the whole Figure-1 system
together and returns a :class:`repro.sim.pipeline.SimulationResult` with
everything the paper's figures plot; :mod:`repro.sim.experiment` runs
parameter sweeps over schemes/sequences/channels; :mod:`repro.sim.runner`
fans declarative job grids across a process pool with on-disk result
caching; :mod:`repro.sim.report` prints figure-shaped tables.
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
    encode_only,
)
from repro.sim.experiment import (
    CalibrationResult,
    ExperimentSpec,
    ExperimentResult,
    RateMatchSpec,
    ReplicationSummary,
    run_experiment,
    sweep,
    replicate,
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
    "encode_only",
    "CalibrationResult",
    "ExperimentSpec",
    "ExperimentResult",
    "RateMatchSpec",
    "run_experiment",
    "sweep",
    "calibrate_intra_th",
    "ReplicationSummary",
    "replicate",
    "format_table",
    "format_series",
    "format_csv",
]
