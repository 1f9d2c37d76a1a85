"""Declarative channel scenario packs and the fleet sweep.

A :class:`ScenarioPack` describes a channel as a timeline of segments —
loss model, bandwidth cap, optional FEC/retransmission wrapper — as
plain versioned data (JSON files under ``repro/scenarios/packs/``).
:class:`ScenarioChannel` interprets a pack at simulation time, and
:func:`run_fleet` sweeps every scheme × every pack into a percentile
quality/energy report.  See ``docs/architecture.md`` ("Scenario
packs") for the pack schema and authoring guide.
"""

from repro.scenarios.pack import (
    LOSS_KINDS,
    SCENARIO_SCHEMA_VERSION,
    LossSpec,
    ResilienceSpec,
    ScenarioFormatError,
    ScenarioPack,
    ScenarioSegment,
    available_packs,
    load_pack,
    packs_dir,
    parse_scenario,
    write_pack,
)
from repro.scenarios.channel import ScenarioChannel, segment_seed

# Fleet names resolve lazily: repro.sim.runner imports repro.scenarios.pack
# (which initialises this package), while repro.scenarios.fleet imports the
# runner back.  Deferring the fleet import until first attribute access keeps
# the pack/channel surface importable from anywhere in that cycle.
_FLEET_NAMES = (
    "FLEET_COLUMNS",
    "FLEET_SCHEMES",
    "RECOVERY_DIP_DB",
    "FleetCell",
    "FleetReport",
    "build_cell",
    "fleet_jobs",
    "recovery_summary",
    "resolve_packs",
    "run_fleet",
)


def __getattr__(name):
    if name in _FLEET_NAMES:
        from repro.scenarios import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "LOSS_KINDS",
    "SCENARIO_SCHEMA_VERSION",
    "LossSpec",
    "ResilienceSpec",
    "ScenarioFormatError",
    "ScenarioPack",
    "ScenarioSegment",
    "available_packs",
    "load_pack",
    "packs_dir",
    "parse_scenario",
    "write_pack",
    "ScenarioChannel",
    "segment_seed",
    "FLEET_COLUMNS",
    "FLEET_SCHEMES",
    "RECOVERY_DIP_DB",
    "FleetCell",
    "FleetReport",
    "build_cell",
    "fleet_jobs",
    "recovery_summary",
    "resolve_packs",
    "run_fleet",
]
