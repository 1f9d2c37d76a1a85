"""Run the encode daemon in its own process for the service workload.

Started by the service workload's generator::

    python3 perfbench/daemon_main.py --queue-dir Q --cache-dir C \\
        --report daemon.json [--trace]

Prints the daemon's URL once it is listening, serves until a line (or
end of file) arrives on standard input, then stops the daemon and
writes its report: peak RSS, the CPU seconds spent between listening
and the stop line (every thread of the daemon) and, with ``--trace``,
the aggregated spans of the benchmark's wrappers.  End of file stops it
too, so the daemon never outlives a generator that died.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queue-dir", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from tracer import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    from repro.api import RunnerOptions, ServiceConfig, start_daemon

    config = ServiceConfig(
        queue_dir=args.queue_dir,
        port=0,
        runner=RunnerOptions(jobs=1, cache_dir=args.cache_dir),
    )
    handle = start_daemon(config)
    try:
        ready_cpu_s = cpu_seconds()
        print(handle.url, flush=True)
        sys.stdin.readline()
        serve_cpu_s = cpu_seconds() - ready_cpu_s
    finally:
        handle.stop()
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "serve_cpu_s": serve_cpu_s,
        "trace": recorder.aggregate() if recorder is not None else None,
    }
    with open(args.report, "w", encoding="utf-8") as handle_out:
        json.dump(report, handle_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
