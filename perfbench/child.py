"""One workload in a fresh process: set up, measure, report.

``run.py`` starts this script once per measurement so that imports,
the runner's per-process clip memo and the stream cache never carry
set-up time or memory from one workload into the next::

    python3 perfbench/child.py --workload NAME --seed N --seconds S \\
        --mode {setup,measure,trace} [--passes P] --work DIR --out FILE

``setup`` stops after set-up (a set-up time sample); ``measure`` runs
the timed region with tracing off; ``trace`` installs the span
wrappers first.  The result goes to ``--out`` as JSON, including
``ready_at``: the wall-clock time set-up ended.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, ServiceBursts

    cls = WORKLOADS[args.workload]
    tracing = args.mode == "trace"
    recorder = None
    # The service workload's system process is the daemon: it is traced
    # there, never in this generator (whose batch reference run would
    # otherwise pollute the layer totals).
    if tracing and cls is not ServiceBursts:
        from tracer import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    def span(name, function, /, *call_args, **kwargs):
        if recorder is None:
            return function(*call_args, **kwargs)
        return recorder.call(name, function, *call_args, **kwargs)

    workload = span(
        "bench.setup", cls, args.seed, Path(args.work), args.seconds, tracing
    )
    ready_at = time.time()
    outcome = None
    try:
        if args.mode != "setup":
            outcome = workload.measure(args.seconds, args.passes, span)
    finally:
        workload.close()

    import numpy

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready_at": ready_at,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "outcome": dataclasses.asdict(outcome) if outcome is not None else None,
        "trace": recorder.aggregate() if recorder is not None else None,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
