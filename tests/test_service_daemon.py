"""End-to-end tests of the encode daemon and its HTTP+JSONL API."""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.codec.rate import RateControlConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.tracer import Tracer, use_tracer
from repro.scenarios.pack import load_pack
from repro.service.client import ServiceBusy, ServiceClient, ServiceClientError
from repro.service.daemon import EncodeDaemon, ServiceConfig, start_daemon
from repro.service.queue import JobQueue
from repro.service.wire import JobSubmit, load_service_manifest, session_result_digest
from repro.sim.pipeline import SimulationConfig
from repro.sim import runner
from repro.sim.runner import JobSpec, RunnerOptions, run_grid
from repro.video.synthetic import SyntheticConfig

from tests.conftest import SMALL_H, SMALL_W, runner_options, small_config

TINY_CLIP = SyntheticConfig(
    width=SMALL_W, height=SMALL_H, n_frames=4, seed=11
)

#: Plenty for tiny 4-frame sessions, short enough to keep failures fast.
WAIT_S = 120.0


def tiny_spec(seed: int = 1, **overrides) -> JobSpec:
    defaults = dict(
        scheme="NO",
        plr=0.2,
        channel_seed=seed,
        sequence="tiny",
        synthetic=TINY_CLIP,
        config=SimulationConfig(codec=small_config()),
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def daemon_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        queue_dir=tmp_path / "queue",
        port=0,  # ephemeral: tests never fight over a port
        runner=RunnerOptions(jobs=1, cache_dir=tmp_path / "cache"),
        service_workers=2,
        batch_size=4,
        lease_s=5.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def wait_until(predicate, timeout: float = 30.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestEndToEnd:
    def test_submit_execute_results_summary_manifest(self, tmp_path):
        config = daemon_config(tmp_path)
        with start_daemon(config) as handle:
            client = ServiceClient(handle.url)
            health = client.health()
            assert health["ok"] and not health["draining"]

            submits = [
                JobSubmit(
                    spec=tiny_spec(seed=i),
                    priority=i % 2,
                    session_class="interactive" if i % 2 else "bulk",
                )
                for i in range(5)
            ]
            job_ids = client.submit(submits)
            assert len(job_ids) == len(set(job_ids)) == 5

            done = client.wait(job_ids, timeout=WAIT_S)
            assert sorted(s.state for s in done.values()) == ["ok"] * 5

            # Every completed session has a full SessionResult.
            for job_id in job_ids:
                result = client.result(job_id)
                assert result.job_id == job_id
                assert result.scheme == "NO"
                assert result.n_frames == TINY_CLIP.n_frames
                assert len(result.result_digest) == 64
                assert result.latency_s > 0

            summary = client.summary()
            assert summary.sessions == 5
            assert summary.counts == {"ok": 5}
            assert [c.session_class for c in summary.classes] == [
                "bulk",
                "interactive",
            ]
            for cls in summary.classes:
                assert cls.latency_s["p50"] > 0
                assert cls.psnr_db["p99"] >= cls.psnr_db["p50"] > 0

            live_manifest = client.manifest()
            assert live_manifest.counts == {"ok": 5}

            metrics = client.metrics()
            assert metrics["counters"]["service.completed"] == 5
            assert metrics["counters"]["service.submitted"] == 5

            client.drain()
        # The daemon wrote its durable manifest on the way out.
        final = handle.manifest
        assert final is not None and final.complete
        on_disk = load_service_manifest(config.resolved_manifest_path)
        assert on_disk.counts == {"ok": 5}
        assert {j.job_id for j in on_disk.jobs} == set(job_ids)

    def test_repeat_submission_served_from_cache(self, tmp_path):
        with start_daemon(daemon_config(tmp_path)) as handle:
            client = ServiceClient(handle.url)
            first = client.submit(JobSubmit(spec=tiny_spec(seed=7)))
            client.wait(first, timeout=WAIT_S)
            assert client.status(first[0]).state == "ok"

            second = client.submit(JobSubmit(spec=tiny_spec(seed=7)))
            done = client.wait(second, timeout=WAIT_S)
            assert done[second[0]].state == "cached"
            assert (
                client.result(second[0]).result_digest
                == client.result(first[0]).result_digest
            )
            client.shutdown()

    def test_results_bit_identical_to_batch_run_grid(self, tmp_path):
        """The service redesign changes scheduling, never values."""
        specs = [tiny_spec(seed=i, plr=0.3) for i in range(3)]
        with start_daemon(daemon_config(tmp_path)) as handle:
            client = ServiceClient(handle.url)
            job_ids = client.submit([JobSubmit(spec=s) for s in specs])
            client.wait(job_ids, timeout=WAIT_S)
            daemon_digests = [
                client.result(job_id).result_digest for job_id in job_ids
            ]
            client.shutdown()
        # no cache: a fully independent run
        batch = run_grid(specs, runner_options(jobs=0))
        batch_digests = [session_result_digest(o.result) for o in batch]
        assert daemon_digests == batch_digests

    def test_run_level_rate_and_scenario_reach_the_daemon(self, tmp_path):
        """A run's rate config and scenario pack ride on every spec it
        submits (as ``repro submit --target-kbps --scenario`` sends
        them) and reach the daemon's execution: its results match batch
        ``run_grid`` on the same specs, and differ from plain specs."""
        rate = RateControlConfig(target_kbps=60.0)
        scenario = load_pack("bursty-wifi")
        plain = [tiny_spec(seed=i, scheme="GOP-2") for i in range(2)]
        specs = [
            dataclasses.replace(s, rate=rate, scenario=scenario)
            for s in plain
        ]
        with start_daemon(daemon_config(tmp_path)) as handle:
            client = ServiceClient(handle.url)
            job_ids = client.submit([JobSubmit(spec=s) for s in specs])
            client.wait(job_ids, timeout=WAIT_S)
            daemon_digests = [
                client.result(job_id).result_digest for job_id in job_ids
            ]
            client.shutdown()
        batch = run_grid(specs, runner_options())
        assert daemon_digests == [
            session_result_digest(o.result) for o in batch
        ]
        unrated = run_grid(plain, runner_options())
        assert daemon_digests != [
            session_result_digest(o.result) for o in unrated
        ]

    def test_unknown_job_is_404(self, tmp_path):
        with start_daemon(daemon_config(tmp_path)) as handle:
            client = ServiceClient(handle.url)
            with pytest.raises(ServiceClientError) as excinfo:
                client.status("nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceClientError) as excinfo:
                client.result("nope")
            assert excinfo.value.status == 404
            client.shutdown()

    def test_metrics_count_queue_record_reads(self, tmp_path):
        """Health answers from the queue's in-memory counts, and the
        queue's record reads and file operations are reported as
        metrics."""
        with start_daemon(daemon_config(tmp_path)) as handle:
            client = ServiceClient(handle.url)
            job_ids = client.submit(
                [JobSubmit(spec=tiny_spec(seed=i)) for i in range(3)]
            )
            client.wait(job_ids, timeout=WAIT_S)
            counters = client.metrics()["counters"]
            reads = counters["service.queue.records_read"]
            assert reads == handle.daemon.queue.records_read
            assert reads == 0  # the daemon submitted every job itself
            n = len(job_ids)
            assert {
                op: counters[f"service.queue.file_ops.{op}"]
                for op in ("create", "append", "read", "unlink")
            } == {"create": 2 * n, "append": 3 * n, "read": n, "unlink": n}
            for _ in range(5):
                assert client.health()["drained"]
            after = client.metrics()["counters"]["service.queue.records_read"]
            assert after == reads
            client.shutdown()

    def test_malformed_submit_is_400(self, tmp_path):
        with start_daemon(daemon_config(tmp_path)) as handle:
            client = ServiceClient(handle.url)
            status, _headers, _body = client._request(
                "POST", "/v1/jobs", {"jobs": [{"not": "a submit"}]}
            )
            assert status == 400
            client.shutdown()

    def test_unknown_scheme_is_400_and_never_queued(self, tmp_path):
        record = JobSubmit(spec=tiny_spec()).to_json()
        record["spec"]["scheme"] = "NOPE"
        with start_daemon(daemon_config(tmp_path)) as handle:
            client = ServiceClient(handle.url)
            status, _headers, body = client._request(
                "POST", "/v1/jobs", {"jobs": [record]}
            )
            assert status == 400
            assert b"NOPE" in body
            assert handle.daemon.queue.counts() == {}
            client.shutdown()


class TestBatchesShareWork:
    """What one daemon batch computes, the next one reuses."""

    @staticmethod
    def run_batch(daemon, specs):
        for spec in specs:
            daemon.queue.submit(JobSubmit(spec=spec))
        batch = daemon.queue.claim_batch("dispatcher-0", len(specs))
        assert [job.submit.spec for job in batch] == specs
        return batch, daemon._execute_batch(batch)

    def test_second_batch_on_one_encode_key_parses_nothing(self, tmp_path):
        daemon = EncodeDaemon(daemon_config(tmp_path))
        first = [tiny_spec(seed=seed) for seed in range(3)]
        second = [tiny_spec(seed=seed) for seed in range(3, 6)]
        assert len({runner.encode_content_hash(s) for s in first + second}) == 1
        self.run_batch(daemon, first)
        tracer = Tracer(trace_id="second batch")
        with use_tracer(tracer):
            _, outcomes = self.run_batch(daemon, second)
        assert all(outcome.ok and not outcome.from_cache for outcome in outcomes)
        counters = tracer.metrics.snapshot()["counters"]
        # Every delivered fragment replays a parked parse, or belongs to
        # a frame served from the parked sender states.
        assert counters.get("decoder.fragments_parsed", 0) == 0
        assert counters["decoder.frames_replayed"] > 0
        batch = run_grid(second, runner_options(jobs=1))
        assert [session_result_digest(o.result) for o in outcomes] == [
            session_result_digest(o.result) for o in batch
        ]

    def test_each_spec_is_hashed_once(self, tmp_path, monkeypatch):
        hashed: list[str] = []
        stable_hash = runner.stable_hash

        def spy(payload):
            digest = stable_hash(payload)
            if payload.get("kind") == "simulate":
                hashed.append(digest)
            return digest

        monkeypatch.setattr(runner, "stable_hash", spy)
        daemon = EncodeDaemon(daemon_config(tmp_path))
        specs = [tiny_spec(seed=seed) for seed in range(2)]
        batch, outcomes = self.run_batch(daemon, specs)
        assert all(outcome.ok for outcome in outcomes)
        # The queue hashed each spec on submit; the runner reused it.
        assert hashed == [job.content_hash for job in batch]
        for job in batch:
            rebuilt = JobSubmit.from_json(job.submit.to_json()).spec
            assert "_content_hash" not in rebuilt.__dict__
            assert rebuilt.content_hash() == job.content_hash


class TestBackpressureAndDraining:
    def hang_submit(self, seconds: float) -> JobSubmit:
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="worker_hang", hang_seconds=seconds, times=1
                ),
            ),
            seed=5,
        )
        return JobSubmit(spec=tiny_spec(seed=99, faults=plan))

    def test_bounded_queue_answers_429_with_retry_after(self, tmp_path):
        config = daemon_config(
            tmp_path, service_workers=1, batch_size=1, max_pending=1
        )
        with start_daemon(config) as handle:
            client = ServiceClient(handle.url)
            # Occupy the only dispatcher for a few seconds...
            hung = client.submit(self.hang_submit(3.0))
            wait_until(
                lambda: client.health()["running"] >= 1,
                message="hang job claimed",
            )
            # ...then fill the one pending slot and overflow it.
            filler = client.submit(JobSubmit(spec=tiny_spec(seed=1)))
            status, headers, body = client._request(
                "POST",
                "/v1/jobs",
                {"jobs": [JobSubmit(spec=tiny_spec(seed=2)).to_json()]},
            )
            assert status == 429
            assert float(headers["retry-after"]) > 0
            record = json.loads(body)
            assert record["job_ids"] == []  # nothing silently accepted

            # A pending-but-unclaimed job has no result yet: 409.
            with pytest.raises(ServiceClientError) as excinfo:
                client.result(filler[0])
            assert excinfo.value.status == 409

            # The client-side retry loop gives up cleanly when the
            # queue stays full past its deadline.
            with pytest.raises(ServiceBusy):
                client.submit(
                    JobSubmit(spec=tiny_spec(seed=3)), max_wait_s=0.0
                )

            done = client.wait(hung + filler, timeout=WAIT_S)
            assert all(s.ok for s in done.values())
            client.shutdown()

    def test_draining_daemon_refuses_submissions(self, tmp_path):
        config = daemon_config(tmp_path, service_workers=1, batch_size=1)
        with start_daemon(config) as handle:
            client = ServiceClient(handle.url)
            client.submit(self.hang_submit(3.0))
            health = client.drain()
            assert health["draining"]
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(JobSubmit(spec=tiny_spec(seed=1)))
            assert excinfo.value.status == 503
            # A drained daemon finishes its backlog and exits on its
            # own, publishing the final manifest.
            wait_until(
                lambda: handle.manifest is not None,
                timeout=WAIT_S,
                message="drain to finish the backlog",
            )
        assert handle.manifest.counts == {"ok": 1}


class TestWakeOnWork:
    """An idle dispatcher waits for work, not for a timer.

    A ``lease_s`` of 30 puts the reaper's tick, the one timed wake, at
    15 s, so a job that finishes within 5 s was woken by its submit or
    drain.  The job ids a 429 reply accepted count as a submit.  A
    second queue handle on the daemon's directory stands in for another
    process: only the reaper's tick announces its submits.
    """

    PICKUP_S = 5.0

    def test_an_idle_daemon_claims_once_per_dispatcher(self, tmp_path):
        config = daemon_config(tmp_path)
        with start_daemon(config) as handle:
            time.sleep(1.0)
            counters = ServiceClient(handle.url).metrics()["counters"]
            # The start-up claim of each dispatcher, then nothing.
            assert 0 < counters["service.idle_wakeups"] <= config.service_workers

    def test_a_submit_wakes_the_dispatcher(self, tmp_path):
        with start_daemon(daemon_config(tmp_path, lease_s=30.0)) as handle:
            client = ServiceClient(handle.url)
            job_ids = client.submit(JobSubmit(spec=tiny_spec(seed=1)))
            done = client.wait(job_ids, timeout=self.PICKUP_S)
            assert done[job_ids[0]].state == "ok"
            client.shutdown()

    def test_jobs_a_429_reply_accepted_wake_the_dispatcher(self, tmp_path):
        config = daemon_config(tmp_path, max_pending=2, lease_s=30.0)
        with start_daemon(config) as handle:
            client = ServiceClient(handle.url)
            jobs = [JobSubmit(spec=tiny_spec(seed=i)).to_json() for i in range(3)]
            status, _headers, body = client._request(
                "POST", "/v1/jobs", {"jobs": jobs}
            )
            assert status == 429
            accepted = json.loads(body)["job_ids"]
            assert len(accepted) == 2
            done = client.wait(accepted, timeout=self.PICKUP_S)
            assert [done[j].state for j in accepted] == ["ok", "ok"]
            assert client.metrics()["counters"]["service.submitted"] == 2
            client.shutdown()

    def test_drain_wakes_an_idle_daemon_to_exit(self, tmp_path):
        config = daemon_config(tmp_path, lease_s=30.0)
        with start_daemon(config) as handle:
            ServiceClient(handle.url).drain()
            wait_until(
                lambda: handle.manifest is not None,
                timeout=self.PICKUP_S,
                message="an idle daemon to drain",
            )
        assert config.resolved_manifest_path.exists()
        assert handle.manifest.n_jobs == 0

    def test_the_reaper_tick_picks_up_another_handles_submit(self, tmp_path):
        config = daemon_config(tmp_path, lease_s=1.0)
        with start_daemon(config) as handle:
            other = JobQueue(config.queue_dir, lease_s=config.lease_s)
            job_id = other.submit(JobSubmit(spec=tiny_spec(seed=1))).job_id
            client = ServiceClient(handle.url)
            done = client.wait([job_id], timeout=self.PICKUP_S)
            assert done[job_id].state == "ok"
            client.shutdown()


class TestFaultsAgainstClaims:
    def test_crashing_job_quarantined_others_unharmed(self, tmp_path):
        """A poison session burns its fail budget and is quarantined;
        the rest of the batch is unaffected — nothing lost, nothing
        double-counted."""
        poison_plan = FaultPlan(
            faults=(FaultSpec(kind="worker_crash", times=None),), seed=3
        )
        config = daemon_config(tmp_path, max_fails=2)
        with start_daemon(config) as handle:
            client = ServiceClient(handle.url)
            good = client.submit(
                [JobSubmit(spec=tiny_spec(seed=i)) for i in range(2)]
            )
            bad = client.submit(
                JobSubmit(spec=tiny_spec(seed=50, faults=poison_plan))
            )
            done = client.wait(good + bad, timeout=WAIT_S)
            assert [done[j].state for j in good] == ["ok", "ok"]
            assert done[bad[0]].state == "quarantined"
            assert done[bad[0]].fail_count == 2
            assert "InjectedWorkerCrash" in done[bad[0]].error

            metrics = client.metrics()
            assert metrics["counters"]["service.quarantined"] == 1
            client.shutdown()
        manifest = handle.manifest
        assert manifest.counts == {"ok": 2, "quarantined": 1}
        assert not manifest.complete
        assert manifest.n_jobs == 3

    def test_dispatcher_survives_a_batch_that_raises(self, tmp_path):
        """A batch that raises outside any cell (here the result-cache
        write) fails its jobs back to the queue, and the only
        dispatcher keeps claiming: every job finishes, drain completes."""
        config = daemon_config(tmp_path, service_workers=1)
        with start_daemon(config) as handle:
            cache = handle.daemon.cache
            original_put = cache.put
            puts = []

            def put_failing_once(key, value):
                puts.append(key)
                if len(puts) == 1:
                    raise OSError("injected: result cache write failed")
                original_put(key, value)

            cache.put = put_failing_once
            client = ServiceClient(handle.url)
            job_ids = client.submit(
                [JobSubmit(spec=tiny_spec(seed=i)) for i in range(2)]
            )
            done = client.wait(job_ids, timeout=30.0)
            assert [done[j].state for j in job_ids] == ["ok", "ok"]
            assert [done[j].fail_count for j in job_ids] == [1, 1]
            metrics = client.metrics()
            assert metrics["counters"]["service.batch_errors"] == 1
            client.drain()
            wait_until(
                lambda: handle.manifest is not None,
                timeout=30.0,
                message="drain to complete",
            )
        assert handle.manifest.counts == {"ok": 2}


class TestConfigValidation:
    def test_rejects_bad_worker_counts(self, tmp_path):
        with pytest.raises(ValueError):
            ServiceConfig(queue_dir=tmp_path, service_workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_dir=tmp_path, batch_size=0)

    def test_manifest_path_defaults_into_queue_dir(self, tmp_path):
        config = ServiceConfig(queue_dir=tmp_path / "q")
        assert config.resolved_manifest_path.parent == tmp_path / "q"

    def test_client_rejects_non_http_url(self):
        with pytest.raises(ValueError):
            ServiceClient("ftp://localhost:1")
