"""The benchmark record shape, and the CI gate that checks it.

Every committed ``BENCH_*.json`` record starts with the same header::

    {"benchmark": name,
     "workload": {...what was measured...},
     "host": {"cpu_count": n, "platform": ..., "python": ...},
     "gated": {"dotted.field": {"tolerance": t, "ceiling": "dotted.field"}},
     ...body...}

The ``gated`` block is the only place a gate rule lives.  Each gated
field is a *ratio* (a speedup, a fraction of cells that matched), not a
wall time: CI runners differ wildly in absolute speed, but a ratio
measured on one host is comparable to the same ratio on another.  A
rule fails when the measured value falls more than ``tolerance`` below
the baseline; ``tolerance: 0`` makes an exact-by-construction ratio
gate exactly.  The optional ``ceiling`` names a field in the *measured*
record holding that host's physical ceiling for the ratio (a parallel
speedup is bounded by the core count); a baseline above it is
unreachable there, so the rule is skipped, not failed.

The bench scripts build their records with :func:`make_record` and
write them with :func:`emit`, so the header and the gate rules come
from one place.  Usage::

    python benchmarks/perf_gate.py \\
        --baseline BENCH_blocks.json --measured measured.json

Exit status: 0 when every rule passes, 1 on any regression, 2 on a
malformed record, a field that does not resolve, or a measured
``gated`` block that differs from the baseline's (the bench script and
the committed record have drifted apart).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HEADER = ("benchmark", "workload", "host", "gated")
RULE_KEYS = {"tolerance", "ceiling"}


def make_record(benchmark: str, workload: dict, gated: dict, **body) -> dict:
    """A benchmark record: the shared header, then the script's body."""
    return {
        "benchmark": benchmark,
        "workload": workload,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "gated": gated,
        **body,
    }


def emit(record: dict, out: str | None) -> None:
    """Print ``record`` as JSON and, when ``out`` is given, write it there."""
    rendered = json.dumps(record, indent=2)
    print(rendered)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {out}", file=sys.stderr)


def lookup(record: dict, field: str):
    """Resolve a dotted field path inside a JSON record."""
    value = record
    for part in field.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(field)
        value = value[part]
    return value


def rules(record: dict) -> dict:
    """The record's validated ``gated`` block."""
    missing = [key for key in HEADER if key not in record]
    if missing:
        raise ValueError(f"record lacks header keys {missing}")
    gated = record["gated"]
    if not isinstance(gated, dict) or not gated:
        raise ValueError("record's gated block must be a non-empty object")
    for field, rule in gated.items():
        if (
            not isinstance(rule, dict)
            or set(rule) - RULE_KEYS
            or not 0 <= rule.get("tolerance", -1) < 1
            or not isinstance(rule.get("ceiling", ""), str)
        ):
            raise ValueError(
                f"{field}: a rule is {{tolerance in [0, 1), ceiling?}}, "
                f"got {rule!r}"
            )
    return gated


def check(baseline: dict, measured: dict) -> list[tuple[bool, str]]:
    """Apply every rule of the baseline; one (passed, line) per rule."""
    gated = rules(baseline)
    if rules(measured) != gated:
        raise ValueError(
            "measured gated block differs from the baseline's: "
            "the bench script and the committed record have drifted apart"
        )
    results = []
    for field, rule in gated.items():
        base = float(lookup(baseline, field))
        got = float(lookup(measured, field))
        if base <= 0:
            raise ValueError(f"baseline {field} must be positive, got {base}")
        ceiling_field = rule.get("ceiling")
        if ceiling_field is not None:
            ceiling = float(lookup(measured, ceiling_field))
            if base > ceiling:
                results.append((True, (
                    f"SKIP: {field} baseline {base:.3g} exceeds this host's "
                    f"ceiling {ceiling:.3g} ({ceiling_field}) — "
                    "not comparable on this hardware"
                )))
                continue
        tolerance = rule["tolerance"]
        floor = base * (1.0 - tolerance)
        passed = got >= floor
        verdict = "OK" if passed else "REGRESSION"
        results.append((passed, (
            f"{verdict}: {field} measured {got:.3g} vs baseline {base:.3g} "
            f"(floor {floor:.3g}, tolerance {tolerance:.0%})"
        )))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a gated benchmark ratio regresses"
    )
    parser.add_argument(
        "--baseline", required=True, help="committed benchmark JSON"
    )
    parser.add_argument(
        "--measured", required=True, help="freshly measured benchmark JSON"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(args.measured, encoding="utf-8") as handle:
            measured = json.load(handle)
        results = check(baseline, measured)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"perf gate could not compare: {error!r}")
        return 2
    for _, line in results:
        print(line)
    return 0 if all(passed for passed, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
