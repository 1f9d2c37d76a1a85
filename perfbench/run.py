"""One benchmark for the whole system, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 30 --trace 0

Workloads: ``fig5-cold`` (the paper's Figure 5 grid, every cell cold),
``scenario-fleet`` (5 schemes x 9 scenario packs x 2 replicas) and
``service-bursts`` (bursty open-loop sessions against the encode
daemon), or ``all`` for each in turn.  Every measurement runs in a
fresh process (``child.py``).

``--trace 0`` reports the end-to-end metrics with tracing off: set-up
time (the median of several fresh set-ups), frames per second,
latency percentiles and the peak RSS of the process running the
system.  ``--trace 1`` runs the workload once untraced and once under
the span wrappers of ``tracer.py`` and reports the per-layer split,
the tracing overhead and coverage.  Either way every output is checked
(pinned digests, or a batch ``run_grid`` of the service's specs); the
last line of standard output is one JSON object, and any mismatch
makes the exit code nonzero.  The full record, with its host header,
lands in ``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

from tracer import coverage  # noqa: E402
from workloads import WORKLOADS, ServiceBursts, median, percentile  # noqa: E402

#: Fresh set-ups per run besides the measuring process's own.
SETUP_PROBES = 5
#: The traced run fails below this share of root time in named layers.
COVERAGE_BAR = 0.90
#: Per child process; the contract gives a whole run 180 s.
CHILD_TIMEOUT_S = 170.0


def run_child(workload, seed, seconds, mode, base, index, passes=None) -> dict:
    """Start ``child.py`` in a fresh interpreter; return its result."""
    out = base / f"{mode}{index}.json"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--work", str(base / f"{mode}{index}"),
        "--out", str(out),
    ]
    if passes is not None:
        command += ["--passes", str(passes)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned_at = time.time()
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} {mode} child exited {completed.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def system_rss_mb(result: dict) -> float:
    """Peak RSS of the process running the system (the daemon, if any)."""
    daemon = result["outcome"]["extra"].get("daemon")
    return daemon["peak_rss_mb"] if daemon else result["peak_rss_mb"]


def cell_latencies(units: list[dict]) -> list[dict]:
    """One unit per batch cell: its fastest pass.

    Every pass repeats the same cold work on empty caches, and host
    noise only ever adds time, so a cell's best pass is its latency; a
    slow stretch of the host that hits one pass then moves no percentile.
    """
    best: dict[str, dict] = {}
    for unit in units:
        cell = unit["key"].split("|", 1)[1]
        if cell not in best or unit["latency_s"] < best[cell]["latency_s"]:
            best[cell] = unit
    return list(best.values())


def cell_percentile(units: list[dict], q: float) -> float:
    return percentile([u["latency_s"] for u in units], q)


def burst_percentile(units: list[dict], q: float) -> float:
    """The median over bursts of each burst's ``q``-th percentile.

    A typical burst's tail, so one burst that met a slow stretch of the
    host (or the daemon's cold first claim) moves it little.
    """
    bursts: dict[int, list[float]] = {}
    for unit in units:
        bursts.setdefault(unit["burst"], []).append(unit["latency_s"])
    return median(percentile(values, q) for values in bursts.values())


def end_to_end(workload: str, results: list[dict]) -> dict:
    measured = results[-1]["outcome"]
    if workload == ServiceBursts.name:
        units = measured["units"]
        top = [u for u in units if u["class"] == "interactive"]
        tail = burst_percentile
        # The schedule fixes the window's wall length whatever the daemon
        # does, so the service's rate is per daemon CPU second instead.
        frames_per_s = measured["frames"] / sum(measured["busy_s"])
    else:
        # The contract asks for every metric on every workload; the batch
        # workloads have one class, so there the interactive tail is
        # simply the p80 of all cells.
        units = top = cell_latencies(measured["units"])
        tail = cell_percentile
        frames_per_s = sum(u["frames"] for u in units) / sum(
            u["latency_s"] for u in units
        )
    return {
        "setup_s": (median(r["setup_s"] for r in results), "s"),
        "frames_per_s": (frames_per_s, "frames/s"),
        "latency_p50_s": (tail(units, 50), "s"),
        # (p85 would sit on the scenario fleet's step between the 13% of
        # cells that pay an encode and the rest.)
        "latency_p90_s": (tail(units, 90), "s"),
        "interactive_latency_p80_s": (tail(top, 80), "s"),
        "peak_rss_mb": (system_rss_mb(results[-1]), "MB"),
    }


def per_layer(aggregate: dict, outcome: dict, overhead: float) -> dict:
    layers = aggregate["layers"]
    counters = aggregate["counters"]

    def self_s(*names: str) -> float:
        return sum(layers.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    def counter(name: str) -> float:
        return counters.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def unit_pct(field: str, q: float) -> float:
        values = [u[field] for u in outcome["units"] if field in u]
        return percentile(values, q) if values else 0.0

    return {
        "video.synthetic.generate_s": (self_s("video.synthetic.generate"), "s"),
        "video.synthetic.calls": (counter("video.synthetic.calls"), "count"),
        "codec.encoder.encode_frame_s": (self_s("codec.encoder.encode_frame"), "s"),
        "codec.encoder.frames": (counter("codec.encoder.frames"), "count"),
        "codec.motion.estimate_s": (self_s("codec.motion.estimate"), "s"),
        "codec.motion.sad_blocks": (counter("codec.motion.sad_blocks"), "count"),
        "codec.dct.transform_s": (self_s("codec.dct.transform"), "s"),
        "codec.dct.blocks": (counter("codec.dct.blocks"), "count"),
        "codec.quant.quantize_s": (self_s("codec.quant.quantize"), "s"),
        "codec.quant.blocks": (counter("codec.quant.blocks"), "count"),
        "codec.syntax.encode_s": (self_s("codec.syntax.encode"), "s"),
        "codec.syntax.bits": (counter("codec.syntax.bits"), "bits"),
        "codec.syntax.decode_s": (self_s("codec.syntax.decode"), "s"),
        "codec.decoder.decode_frame_s": (self_s("codec.decoder.decode_frame"), "s"),
        "codec.decoder.frames": (counter("codec.decoder.frames"), "count"),
        "codec.decoder.damaged_fragments": (
            counter("codec.decoder.damaged_fragments"),
            "count",
        ),
        "network.packet.packetize_s": (self_s("network.packet.packetize"), "s"),
        "network.packet.depacketize_s": (self_s("network.packet.depacketize"), "s"),
        "network.channel.transmit_s": (self_s("network.channel.transmit"), "s"),
        "network.protection.transmit_s": (
            self_s("network.protection.transmit"),
            "s",
        ),
        "scenarios.channel.transmit_s": (self_s("scenarios.channel.transmit"), "s"),
        "network.channel.packets_sent": (
            counter("network.channel.packets_sent"),
            "count",
        ),
        "network.channel.packets_lost": (
            counter("network.channel.packets_lost"),
            "count",
        ),
        "network.protection.fec_recovered": (
            counter("network.protection.fec_recovered"),
            "count",
        ),
        "network.protection.retransmissions": (
            counter("network.protection.retransmissions"),
            "count",
        ),
        "concealment.conceal_s": (self_s("concealment.conceal"), "s"),
        "metrics.quality_s": (self_s("metrics.quality"), "s"),
        "sim.pipeline.encode_phase_s": (
            self_s("sim.pipeline.encode_phase", "sim.pipeline.simulate"),
            "s",
        ),
        "sim.pipeline.transmit_phase_s": (self_s("sim.pipeline.transmit_phase"), "s"),
        "sim.runner.run_grid_s": (self_s("sim.runner.run_grid"), "s"),
        "sim.runner.job_overhead_s": (self_s("sim.runner.run_job"), "s"),
        "sim.runner.stream_cache_s": (
            self_s("sim.runner.stream_cache", "sim.runner.stream_cache.disk"),
            "s",
        ),
        "sim.runner.stream_cache.hit_ratio": (
            ratio(
                counter("sim.runner.stream_cache.hits"),
                counter("sim.runner.stream_cache.lookups"),
            ),
            "ratio",
        ),
        "sim.runner.encodes_per_cell": (
            ratio(counter("sim.runner.encodes"), counter("sim.runner.cells")),
            "ratio",
        ),
        "sim.runner.decodes_per_frame": (
            ratio(counter("codec.decoder.frames"), counter("sim.runner.cell_frames")),
            "ratio",
        ),
        "sim.runner.result_cache.get_s": (self_s("sim.runner.result_cache.get"), "s"),
        "sim.runner.result_cache.put_s": (self_s("sim.runner.result_cache.put"), "s"),
        "sim.runner.result_cache.hit_ratio": (
            ratio(
                counter("sim.runner.result_cache.hits"),
                counter("sim.runner.result_cache.gets"),
            ),
            "ratio",
        ),
        "sim.runner.result_cache.bytes_written": (
            counter("sim.runner.result_cache.bytes_written"),
            "bytes",
        ),
        "service.queue.submit_s": (self_s("service.queue.submit"), "s"),
        "service.queue.claim_batch_s": (self_s("service.queue.claim_batch"), "s"),
        "service.queue.complete_s": (self_s("service.queue.complete"), "s"),
        "service.queue.depth_s": (self_s("service.queue.depth"), "s"),
        "service.queue.depth_calls": (calls("service.queue.depth"), "count"),
        "service.queue.scan_s": (self_s("service.queue.scan"), "s"),
        "service.queue.records_read": (
            counter("service.queue.records_read"),
            "count",
        ),
        "service.wire.codec_s": (
            self_s("service.wire.decode", "service.wire.encode", "service.wire.result"),
            "s",
        ),
        "service.daemon.queue_wait_p50_s": (unit_pct("queue_wait_s", 50), "s"),
        "service.daemon.queue_wait_p99_s": (unit_pct("queue_wait_s", 99), "s"),
        "service.daemon.execute_p50_s": (unit_pct("execute_s", 50), "s"),
        "service.daemon.run_grid_s": (self_s("service.daemon.run_grid"), "s"),
        "service.client.submit_rtt_p50_s": (unit_pct("rtt_s", 50), "s"),
        "service.client.generator_lag_p99_s": (unit_pct("lag_s", 99), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage": (coverage(aggregate), "ratio"),
    }


def host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, base: Path):
    """Measure one workload; returns its record."""
    problems: list[str] = []
    if not trace:
        results = [
            run_child(workload, seed, seconds, "setup", base, i)
            for i in range(SETUP_PROBES)
        ]
        results.append(run_child(workload, seed, seconds, "measure", base, 0))
        measured = results[-1]
        metrics = end_to_end(workload, results)
    else:
        # Fixed work on both sides: one pass of a batch grid, the whole
        # schedule of the service.
        untraced = run_child(workload, seed, seconds, "measure", base, 0, passes=1)
        measured = run_child(workload, seed, seconds, "trace", base, 0, passes=1)
        results = [untraced, measured]
        daemon = measured["outcome"]["extra"].get("daemon")
        aggregate = daemon["trace"] if daemon else measured["trace"]
        overhead = sum(measured["outcome"]["busy_s"]) / sum(
            untraced["outcome"]["busy_s"]
        )
        metrics = per_layer(aggregate, measured["outcome"], overhead)
        plain = {u["key"]: u["digest"] for u in untraced["outcome"]["units"]}
        traced = {u["key"]: u["digest"] for u in measured["outcome"]["units"]}
        if plain != traced:
            problems.append("traced digests differ from the untraced run's")
        if metrics["trace.coverage"][0] < COVERAGE_BAR:
            problems.append(
                f"layer self times cover {metrics['trace.coverage'][0]:.3f} "
                f"of the root spans, below the {COVERAGE_BAR} bar"
            )
        if aggregate["min_self_s"] < -1e-6:
            problems.append("a span's children outlast it: broken nesting")

    attempted = sum(r["outcome"]["attempted"] for r in results if r["outcome"])
    failed = sum(r["outcome"]["failed"] for r in results if r["outcome"])
    mismatches = [m for r in results if r["outcome"] for m in r["outcome"]["mismatches"]]
    error_ratio = failed / attempted if attempted else 1.0
    if trace:
        metrics["check.error_ratio"] = (error_ratio, "ratio")
    cls = WORKLOADS[workload]
    record = {
        "benchmark": "perfbench",
        "workload": workload,
        "why": cls.why,
        "params": cls.params(seconds),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": {**host(), "numpy": measured["numpy"]},
        "samples": {
            "units": len(measured["outcome"]["units"]),
            "passes": len(measured["outcome"]["busy_s"]),
            "setup_s": [r["setup_s"] for r in results],
        },
        "per_layer" if trace else "end_to_end": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "attempted": attempted,
        "failed": failed,
        "error_ratio": error_ratio,
        "mismatches": mismatches[:20],
        "problems": problems,
        "correct": failed == 0 and not problems,
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        base = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), base)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        records.append(record)
        out = WORK / "records" / f"{name}.seed{args.seed}.trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        table = record["per_layer" if args.trace else "end_to_end"]
        print(f"{name} (seed {args.seed}, trace {args.trace}): {record['why']}")
        for metric, entry in table.items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        print(
            f"  attempted {record['attempted']}, failed {record['failed']}, "
            f"error_ratio {record['error_ratio']:.4g}"
        )
        for problem in record["problems"] + record["mismatches"][:5]:
            print(f"  MISMATCH: {problem}")

    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{metric}" if prefix else metric): entry
        for r in records
        for metric, entry in r["per_layer" if args.trace else "end_to_end"].items()
    }
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    correct = all(r["correct"] for r in records)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
