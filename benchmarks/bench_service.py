"""Fleet benchmark: ≥1000 short sessions through the encode daemon.

The closing benchmark of the streaming session service: drives a fleet
of short encode sessions through ``repro serve``'s HTTP+JSONL API on
one box — three session classes (interactive/standard/bulk) at three
priorities across three schemes — and reports:

* p50/p95/p99 end-to-end latency and delivered PSNR per session class
  (straight from the daemon's :class:`FleetSummary`);
* throughput (sessions/s) and the structural
  ``sessions_per_unique_encode`` ratio the encode-once stream cache
  exploits;
* three gated ratios, all host-portable: ``completion_ratio`` —
  every accepted session must finish ok — and ``digest_match_ratio``
  — every session's result digest must equal a batch
  :func:`run_grid` of the same spec, proving the daemon changes
  scheduling, never values — are exact by construction;
  ``sessions_per_queue_file_op`` divides the sessions by the queue's
  file operations on the submit/claim/complete/fail path (exclusive
  creates, journal appends, file reads, unlinks and replacements, each
  counted at its one helper), so bookkeeping that writes or reads a
  file more per session shows up as a falling ratio.  A single daemon
  makes seven per session: the submit file and the claim file, three
  journal lines, one claim read and one claim unlink.  Heartbeat and
  reaper operations are recorded beside it, ungated: how many happen
  depends on wall time.

The daemon runs its batches serially (``RunnerOptions(jobs=1)``, as in
perfbench's ``service-bursts``) under one process-wide
:class:`~repro.obs.tracer.Tracer`, so the record also carries the
decoder work its batches did: ``parse_reuse_ratio``, the share of the
fragments that reached the VLD which replayed a known parse, and
``decodes_per_frame``, the executed decodes per session frame (the
rest were served from an encode group's sender states: a frame that
reached an in-sync decoder exactly as sent).  The stream cache
outlives the batches, and each encoded stream's scope is parked on its
entry, so the memo and the sender states the one encode per class
seeded serve every later batch, and the uniform frame losses damage no
delivered byte: with one dispatcher (the default),
``parse_reuse_ratio`` is exactly 1.0 at any fleet size and is gated
with zero tolerance.  A second dispatcher would share the tracer,
which is not thread-safe, and would replay a stream on a per-grid
scope whenever the other holds its parked one.  ``decodes_per_frame``
is informational.

Entry points mirror the other benchmarks: standalone with
``python benchmarks/bench_service.py [--sessions N] [--out FILE]``
(the committed ``BENCH_service.json`` uses the ≥1000-session default),
or under pytest for a reduced-fleet smoke check.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro.api import (
    JobSpec,
    JobSubmit,
    RunnerOptions,
    ServiceClient,
    ServiceConfig,
    SimulationConfig,
    SyntheticConfig,
    CodecConfig,
    Tracer,
    encode_content_hash,
    load_service_manifest,
    run_grid,
    session_result_digest,
    start_daemon,
    use_tracer,
)
try:
    from benchmarks.perf_gate import emit, make_record
except ImportError:  # standalone: python benchmarks/bench_service.py
    from perf_gate import emit, make_record

DEFAULT_SESSIONS = 1002

#: One tiny clip shared by every session: 64x48 x 8 frames keeps a
#: 1000-session fleet in CI territory while leaving seven droppable
#: frames per session (frame 0 is protected), so delivered quality
#: genuinely spreads across channel seeds.
BENCH_CLIP = SyntheticConfig(
    width=64,
    height=48,
    n_frames=8,
    texture_scale=30.0,
    object_radius=10,
    object_motion_amplitude=10.0,
    object_motion_period=8,
    seed=11,
)

#: The three session classes of the fleet.  Every class pins one scheme
#: (one encode key — the stream cache makes the fleet pay for three
#: encodes total) and a priority, so the benchmark exercises the
#: priority queue, not just throughput.
SESSION_CLASSES = (
    ("interactive", "NO", 2),
    ("standard", "PBPAIR", 1),
    ("bulk", "GOP-3", 0),
)


def fleet_submits(n_sessions: int) -> list[JobSubmit]:
    """``n_sessions`` submits round-robined over the session classes.

    Each session gets a unique channel seed, so every cell is a
    distinct simulation sharing its class's encoded stream.
    """
    # A small MTU splits each tiny frame over several packets, so the
    # per-session channel seed actually spreads the delivered quality.
    config = SimulationConfig(
        codec=CodecConfig(width=64, height=48), mtu=200
    )
    submits = []
    for i in range(n_sessions):
        session_class, scheme, priority = SESSION_CLASSES[
            i % len(SESSION_CLASSES)
        ]
        spec = JobSpec(
            scheme=scheme,
            plr=0.1,
            channel_seed=i,
            sequence="bench",
            synthetic=BENCH_CLIP,
            config=config,
            pbpair_kwargs={"intra_th": 0.9} if scheme == "PBPAIR" else {},
        )
        submits.append(
            JobSubmit(
                spec=spec, priority=priority, session_class=session_class
            )
        )
    return submits


def measure(
    n_sessions: int = DEFAULT_SESSIONS,
    service_workers: int = 1,
    batch_size: int = 64,
) -> dict:
    """Run the fleet through a daemon and verify against batch run_grid."""
    submits = fleet_submits(n_sessions)
    unique_encodes = len(
        {encode_content_hash(s.spec) for s in submits}
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        config = ServiceConfig(
            queue_dir=tmp_path / "queue",
            port=0,
            runner=RunnerOptions(jobs=1, cache_dir=tmp_path / "cache"),
            service_workers=service_workers,
            batch_size=batch_size,
            max_pending=n_sessions + 1,
            poll_s=0.02,
        )
        # The daemon's batches run in its one dispatcher thread, the
        # only code that reports to the tracer.
        tracer = Tracer(trace_id="service fleet")
        fleet_start = time.perf_counter()
        with use_tracer(tracer), start_daemon(config) as handle:
            client = ServiceClient(handle.url)
            submit_start = time.perf_counter()
            job_ids = client.submit(submits, max_wait_s=600.0)
            submit_s = time.perf_counter() - submit_start
            done = client.wait(
                job_ids, timeout=3600.0, poll_s=0.2
            )
            fleet_s = time.perf_counter() - fleet_start
            counters = client.metrics()["counters"]
            records_read = counters["service.queue.records_read"]
            prefix = "service.queue.file_ops."
            file_ops = {
                name[len(prefix):]: count
                for name, count in counters.items()
                if name.startswith(prefix)
            }
            session_ops = {
                op: count for op, count in file_ops.items() if "." not in op
            }
            summary = client.summary()
            daemon_digests = {
                job_id: client.result(job_id).result_digest
                for job_id, status in done.items()
                if status.ok
            }
            client.drain()
        manifest = load_service_manifest(config.resolved_manifest_path)

        ok = sum(1 for s in done.values() if s.ok)
        completion_ratio = ok / n_sessions
        decoder = tracer.metrics.snapshot()["counters"]
        parsed = int(decoder.get("decoder.fragments_parsed", 0))
        reused = int(decoder.get("decoder.fragments_reused", 0))
        replayed = int(decoder.get("decoder.frames_replayed", 0))
        session_frames = BENCH_CLIP.n_frames * sum(
            cls.ok - cls.cached for cls in summary.classes
        )

        # The bit-identity half: the same specs through plain batch
        # run_grid (its own caches) must reproduce every digest.
        batch_start = time.perf_counter()
        outcomes = run_grid(
            [s.spec for s in submits],
            options=RunnerOptions(
                jobs=0, cache_dir=tmp_path / "batch_cache"
            ),
        )
        batch_s = time.perf_counter() - batch_start

    matches = sum(
        1
        for job_id, outcome in zip(job_ids, outcomes)
        if outcome.ok
        and daemon_digests.get(job_id) == session_result_digest(outcome.result)
    )
    digest_match_ratio = matches / n_sessions

    classes = {
        cls.session_class: {
            "sessions": cls.sessions,
            "ok": cls.ok,
            "cached": cls.cached,
            "failed": cls.failed,
            "quarantined": cls.quarantined,
            "latency_s": {k: round(v, 4) for k, v in cls.latency_s.items()},
            "psnr_db": {k: round(v, 3) for k, v in cls.psnr_db.items()},
        }
        for cls in summary.classes
    }

    return make_record(
        "service_fleet",
        workload={
            "sessions": n_sessions,
            "session_classes": [
                {"name": name, "scheme": scheme, "priority": priority}
                for name, scheme, priority in SESSION_CLASSES
            ],
            "clip": {
                "width": BENCH_CLIP.width,
                "height": BENCH_CLIP.height,
                "n_frames": BENCH_CLIP.n_frames,
            },
            "plr": 0.1,
            "service_workers": service_workers,
            "batch_size": batch_size,
            "runner_jobs": config.runner.jobs,
        },
        gated={
            "completion_ratio": {"tolerance": 0},
            "digest_match_ratio": {"tolerance": 0},
            "sessions_per_queue_file_op": {"tolerance": 0},
            "parse_reuse_ratio": {"tolerance": 0},
        },
        counts=manifest.counts,
        classes=classes,
        unique_encodes=unique_encodes,
        sessions_per_unique_encode=round(n_sessions / unique_encodes, 3),
        wall_time_s={
            "submit": round(submit_s, 3),
            "fleet_total": round(fleet_s, 3),
            "batch_run_grid": round(batch_s, 3),
        },
        sessions_per_second=(
            round(n_sessions / fleet_s, 3) if fleet_s else None
        ),
        completion_ratio=completion_ratio,
        digest_match_ratio=digest_match_ratio,
        records_read=records_read,
        queue_file_ops=session_ops,
        lease_upkeep_file_ops={
            op: count for op, count in file_ops.items() if op not in session_ops
        },
        sessions_per_queue_file_op=round(
            n_sessions / sum(session_ops.values()), 3
        ),
        fragments_decoded=parsed + reused,
        fragments_parsed=parsed,
        parse_reuse_ratio=round(reused / (parsed + reused), 3),
        session_frames=session_frames,
        frames_replayed=replayed,
        decodes_per_frame=round((session_frames - replayed) / session_frames, 4),
        note=(
            "completion_ratio and digest_match_ratio are exact by "
            "construction (every session finishes ok; every daemon "
            "result digest equals the batch run_grid digest of the same "
            "spec), so any drop is a correctness bug, not noise.  "
            "sessions_per_queue_file_op is an exact count, so it "
            "transfers across hosts: 1/7 at any fleet size (two "
            "exclusive creates, three journal appends, one claim read "
            "and one claim unlink per session).  records_read counts "
            "submit-file reads and is 0 when the daemon submitted every "
            "job itself.  lease_upkeep_file_ops (heartbeats, reaper) "
            "depend on wall time and are not gated.  parse_reuse_ratio "
            "is gated: the share of the daemon's fragments_decoded that "
            "replayed a known parse.  Each class's one encode seeds the "
            "parse memo parked with its stream, which serves every later "
            "batch, and frame losses damage no delivered byte, so 1.0 is "
            "exact at any fleet size and batch size.  decodes_per_frame "
            "(executed decodes per session frame; the rest were served "
            "from the sender states parked with each stream) is "
            "informational.  Latency "
            "percentiles and sessions/s depend on the host and do not "
            "transfer."
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="drive a fleet of short sessions through the daemon"
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=DEFAULT_SESSIONS,
        help=f"fleet size (default: {DEFAULT_SESSIONS})",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=1,
        help="daemon dispatcher tasks (default: 1)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="jobs claimed per dispatch (default: 64)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON record to this path"
    )
    args = parser.parse_args(argv)
    record = measure(
        n_sessions=args.sessions,
        service_workers=args.service_workers,
        batch_size=args.batch_size,
    )
    emit(record, args.out)
    return 0


# --- pytest entry points ---------------------------------------------------


def test_fleet_specs_structural():
    submits = fleet_submits(30)
    assert len(submits) == 30
    # Three classes, three schemes, three encode keys at any fleet size.
    assert len({s.session_class for s in submits}) == 3
    assert len({encode_content_hash(s.spec) for s in submits}) == 3
    # Every session is still a distinct simulation cell.
    assert len({s.spec.content_hash() for s in submits}) == 30


def test_measure_smoke():
    record = measure(n_sessions=9, batch_size=4)
    assert record["completion_ratio"] == 1.0
    assert record["digest_match_ratio"] == 1.0
    assert record["counts"] == {"ok": 9}
    assert record["sessions_per_unique_encode"] == 3.0
    assert record["records_read"] == 0
    assert record["queue_file_ops"] == {
        "create": 18, "append": 27, "read": 9, "unlink": 9,
    }
    assert record["sessions_per_queue_file_op"] == round(1 / 7, 3)
    assert record["fragments_parsed"] == 0 < record["fragments_decoded"]
    assert record["parse_reuse_ratio"] == 1.0
    assert record["session_frames"] == 9 * BENCH_CLIP.n_frames
    assert 0 < record["decodes_per_frame"] <= 1
    for name, _scheme, _priority in SESSION_CLASSES:
        cls = record["classes"][name]
        assert cls["sessions"] == 3
        assert cls["latency_s"]["p99"] >= cls["latency_s"]["p50"] > 0
        assert cls["psnr_db"]["p50"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
