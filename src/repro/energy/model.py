"""Pricing operation counts into energy figures."""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.counters import OperationCounters
from repro.energy.profiles import DeviceProfile


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy attributed to each operation class, in joules."""

    device: str
    by_class: dict[str, float]

    @property
    def total_joules(self) -> float:
        return sum(self.by_class.values())

    def fraction(self, counter_name: str) -> float:
        total = self.total_joules
        if total == 0:
            return 0.0
        return self.by_class.get(counter_name, 0.0) / total


class EnergyModel:
    """Prices :class:`OperationCounters` with a :class:`DeviceProfile`."""

    def __init__(self, profile: DeviceProfile) -> None:
        self.profile = profile

    def breakdown(self, counters: OperationCounters) -> EnergyBreakdown:
        """Full per-class energy attribution in joules."""
        by_class = {
            name: count * self.profile.cost_of(name) * 1e-6
            for name, count in counters.as_dict().items()
        }
        return EnergyBreakdown(device=self.profile.name, by_class=by_class)

    def joules(self, counters: OperationCounters) -> float:
        """Total energy in joules for the given work tally."""
        return self.breakdown(counters).total_joules
