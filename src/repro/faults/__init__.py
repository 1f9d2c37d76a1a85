"""repro.faults — deterministic fault injection for the whole pipeline.

The PBPAIR argument is about graceful behaviour under loss; this package
makes the harness itself provable under *failure*.  A seeded,
declarative :class:`~repro.faults.plan.FaultPlan` injects faults at
named pipeline stages — packet truncation/reordering/duplication/
byte-flips after the channel model, fragment corruption at the decoder
input, and worker crash/hang/poison-cache faults at the experiment
runner — with every injection recorded as a structured
:class:`~repro.faults.plan.FaultEvent` in both the simulation result and
the obs trace.  :mod:`repro.faults.inject` applies a plan.

The consumers are hardened against everything a plan can inject:
:class:`repro.codec.decoder.Decoder` conceals damaged fragments and
keeps decoding, and :func:`repro.sim.runner.run_grid` retries with
backoff, quarantines poison jobs, and reports partial grids through a
machine-readable failure manifest.
"""
