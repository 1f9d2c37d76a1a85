"""Building strategies from the paper's spec strings.

The figures label schemes "NO", "GOP-3", "AIR-24", "PGOP-1", "PBPAIR";
:func:`build_strategy` turns exactly those strings into strategy
objects so benchmark tables can be written in the paper's own
vocabulary.  PBPAIR accepts its tuning knobs as keyword arguments
(``intra_th``, ``plr``, ...), which map onto
:class:`repro.core.pbpair.PBPAIRConfig`.

A spec string plus a kwargs dict is also how the grid runner
(:mod:`repro.sim.runner`) names a scheme: plain data pickles to worker
processes and hashes into cache keys, and each worker builds its own
fresh, stateful strategy from it.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.pbpair import PBPAIRConfig
from repro.resilience.air import AIRStrategy
from repro.resilience.base import ResilienceStrategy
from repro.resilience.gop import GOPStrategy
from repro.resilience.none import NoResilience
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.resilience.pgop import PGOPStrategy


def _build_no(parameter: int | None, **_: object) -> ResilienceStrategy:
    if parameter is not None:
        raise ValueError("NO takes no numeric parameter")
    return NoResilience()


def _build_gop(parameter: int | None, **_: object) -> ResilienceStrategy:
    if parameter is None:
        raise ValueError("GOP needs a parameter, e.g. 'GOP-3'")
    return GOPStrategy(parameter)


def _build_air(
    parameter: int | None, variant: str | None = None, **_: object
) -> ResilienceStrategy:
    if parameter is None:
        raise ValueError("AIR needs a parameter, e.g. 'AIR-24'")
    selection = variant or "sad"
    return AIRStrategy(parameter, selection=selection)


def _build_pgop(parameter: int | None, **_: object) -> ResilienceStrategy:
    if parameter is None:
        raise ValueError("PGOP needs a parameter, e.g. 'PGOP-3'")
    return PGOPStrategy(parameter)


def _build_pbpair(parameter: int | None, **kwargs: object) -> ResilienceStrategy:
    if parameter is not None:
        raise ValueError(
            "PBPAIR takes keyword arguments (intra_th=..., plr=...), "
            "not a numeric suffix"
        )
    config = PBPAIRConfig(**kwargs)  # type: ignore[arg-type]
    return PBPAIRStrategy(config)


STRATEGY_BUILDERS: Dict[str, Callable[..., ResilienceStrategy]] = {
    "NO": _build_no,
    "GOP": _build_gop,
    "AIR": _build_air,
    "PGOP": _build_pgop,
    "PBPAIR": _build_pbpair,
}


def build_strategy(spec: str, **kwargs: object) -> ResilienceStrategy:
    """Build a strategy from a figure-style spec string.

    Examples::

        build_strategy("NO")
        build_strategy("GOP-3")
        build_strategy("AIR-24")
        build_strategy("AIR-10-cyclic")
        build_strategy("PGOP-1")
        build_strategy("PBPAIR", intra_th=0.35, plr=0.1)
    """
    spec = spec.strip()
    name, _, suffix = spec.partition("-")
    name = name.upper()
    if name not in STRATEGY_BUILDERS:
        known = ", ".join(sorted(STRATEGY_BUILDERS))
        raise ValueError(f"unknown strategy {spec!r}; known: {known}")
    parameter: int | None = None
    variant: str | None = None
    if suffix:
        number, _, variant_part = suffix.partition("-")
        try:
            parameter = int(number)
        except ValueError:
            raise ValueError(f"bad numeric suffix in strategy spec {spec!r}")
        if parameter < 1:
            raise ValueError(f"strategy parameter must be >= 1 in {spec!r}")
        if variant_part:
            if name != "AIR":
                raise ValueError(
                    f"only AIR takes a variant suffix, got {spec!r}"
                )
            variant = variant_part.lower()
    if name == "AIR":
        return STRATEGY_BUILDERS[name](parameter, variant=variant, **kwargs)
    return STRATEGY_BUILDERS[name](parameter, **kwargs)

