"""End-to-end simulation: source -> encoder -> channel -> decoder -> metrics.

:func:`repro.sim.pipeline.simulate` wires the whole Figure-1 system
together and returns a :class:`repro.sim.pipeline.SimulationResult` with
everything the paper's figures plot; :mod:`repro.sim.runner` runs
declarative job grids (one :class:`~repro.sim.runner.JobSpec` per cell)
across a process pool with on-disk result caching;
:mod:`repro.sim.experiment` matches
schemes' operating points (equal size, equal bitrate);
:mod:`repro.sim.report` prints figure-shaped tables.
"""
