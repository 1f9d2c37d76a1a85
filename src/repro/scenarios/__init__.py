"""Declarative channel scenario packs and the fleet sweep.

A :class:`~repro.scenarios.pack.ScenarioPack` describes a channel as a
timeline of segments — loss model, bandwidth cap, optional
FEC/retransmission wrapper — as plain versioned data (JSON files under
``repro/scenarios/packs/``).
:class:`~repro.scenarios.channel.ScenarioChannel` interprets a pack at
simulation time, and :func:`~repro.scenarios.fleet.run_fleet` sweeps
every scheme × every pack into a percentile quality/energy report.  See
``docs/architecture.md`` ("Scenario packs") for the pack schema and
authoring guide.
"""
