"""Claim-lifecycle tests for the persistent service job queue.

The properties under test are the queue's durability contract: no job
is ever lost or double-executed — CAS claims have exactly one winner,
a hung worker's lease expires back to pending, and a job that keeps
failing is quarantined instead of looping forever.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.queue import (
    ClaimLost,
    JobQueue,
    JobRecord,
    QueueFull,
    read_journal,
)
from repro.service.wire import JobSubmit, WireFormatError
from repro.sim.pipeline import SimulationConfig
from repro.sim.runner import JobSpec
from repro.video.synthetic import SyntheticConfig

from tests.conftest import SMALL_H, SMALL_W, small_config

TINY_CLIP = SyntheticConfig(
    width=SMALL_W, height=SMALL_H, n_frames=4, seed=11
)


class FakeClock:
    """Injectable time source so lease-expiry tests do not sleep."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tiny_submit(seed: int = 1, priority: int = 0, **kwargs) -> JobSubmit:
    return JobSubmit(
        spec=JobSpec(
            scheme="NO",
            plr=0.2,
            channel_seed=seed,
            sequence="tiny",
            synthetic=TINY_CLIP,
            config=SimulationConfig(codec=small_config()),
        ),
        priority=priority,
        **kwargs,
    )


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock) -> JobQueue:
    return JobQueue(tmp_path / "q", lease_s=30.0, max_fails=3, clock=clock)


class TestSubmitAndClaim:
    def test_submit_claim_complete(self, queue):
        record = queue.submit(tiny_submit())
        assert record.state == "pending"
        claimed = queue.claim("w1")
        assert claimed is not None
        assert claimed.job_id == record.job_id
        assert claimed.state == "running"
        assert claimed.attempts == 1
        done = queue.complete(claimed.job_id, "w1")
        assert done.state == "ok"
        assert queue.drained()

    def test_cached_completion_state(self, queue):
        queue.submit(tiny_submit())
        claimed = queue.claim("w1")
        done = queue.complete(claimed.job_id, "w1", from_cache=True)
        assert done.state == "cached"
        assert done.status().from_cache

    def test_claim_order_priority_then_fifo(self, queue):
        low = queue.submit(tiny_submit(seed=1, priority=0))
        high = queue.submit(tiny_submit(seed=2, priority=5))
        mid = queue.submit(tiny_submit(seed=3, priority=1))
        order = [queue.claim("w").job_id for _ in range(3)]
        assert order == [high.job_id, mid.job_id, low.job_id]

    def test_claim_batch_takes_best_n(self, queue):
        ids = [
            queue.submit(tiny_submit(seed=i, priority=i)).job_id
            for i in range(4)
        ]
        batch = queue.claim_batch("w1", 2)
        assert [r.job_id for r in batch] == [ids[3], ids[2]]
        assert queue.counts().get("pending", 0) == 2

    def test_claim_on_empty_queue(self, queue):
        assert queue.claim("w1") is None

    def test_duplicate_job_id_rejected(self, queue):
        queue.submit(tiny_submit(), job_id="fixed")
        with pytest.raises(ValueError):
            queue.submit(tiny_submit(), job_id="fixed")

    def test_backpressure_raises_queue_full(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", max_pending=2, clock=clock)
        queue.submit(tiny_submit(seed=1))
        queue.submit(tiny_submit(seed=2))
        with pytest.raises(QueueFull) as excinfo:
            queue.submit(tiny_submit(seed=3))
        assert excinfo.value.retry_after_s > 0

    def test_backpressure_clears_after_claim(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", max_pending=1, clock=clock)
        queue.submit(tiny_submit(seed=1))
        with pytest.raises(QueueFull):
            queue.submit(tiny_submit(seed=2))
        queue.claim("w1")
        queue.submit(tiny_submit(seed=2))  # running jobs don't count


class TestConcurrentClaims:
    def test_cas_race_has_one_winner_per_job(self, tmp_path, clock):
        """Many clients over one directory: every job claimed exactly once."""
        directory = tmp_path / "q"
        submitter = JobQueue(directory, max_pending=512, clock=clock)
        n_jobs, n_workers = 24, 8
        for i in range(n_jobs):
            submitter.submit(tiny_submit(seed=i))
        # Separate JobQueue instances share nothing in memory — the
        # claim files on disk are the only arbiter, as with separate
        # client processes.
        queues = [
            JobQueue(directory, max_pending=512, clock=clock)
            for _ in range(n_workers)
        ]
        barrier = threading.Barrier(n_workers)

        def drain(worker: int) -> list[str]:
            barrier.wait()
            mine = []
            while True:
                batch = queues[worker].claim_batch(f"w{worker}", 3)
                if not batch:
                    break
                mine.extend(r.job_id for r in batch)
            return mine

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            claims = list(pool.map(drain, range(n_workers)))
        flat = [job_id for chunk in claims for job_id in chunk]
        assert len(flat) == n_jobs, "a job was lost or never claimed"
        assert len(set(flat)) == n_jobs, "a job was claimed twice"

    def test_lost_cas_moves_to_next_candidate(self, queue):
        first = queue.submit(tiny_submit(seed=1))
        second = queue.submit(tiny_submit(seed=2))
        a = queue.claim("w1")
        b = queue.claim("w2")
        assert {a.job_id, b.job_id} == {first.job_id, second.job_id}
        assert a.owner != b.owner


class TestStaleClaims:
    def test_release_after_lease_expiry(self, queue, clock):
        record = queue.submit(tiny_submit())
        queue.claim("hung-worker")
        # Worker goes silent: no heartbeat, lease runs out.
        clock.advance(31.0)
        released = queue.release_stale()
        assert released == [record.job_id]
        requeued = queue.get(record.job_id)
        assert requeued.state == "pending"
        assert requeued.fail_count == 1
        assert "lease expired" in requeued.error
        # And the job is claimable again by someone else.
        again = queue.claim("w2")
        assert again.job_id == record.job_id
        assert again.attempts == 2

    def test_unwritten_claim_expires_a_lease_after_its_mtime(
        self, queue, clock
    ):
        # A claimant killed between the O_EXCL create and the payload
        # write leaves an empty claim file and a pending record.
        record = queue.submit(tiny_submit())
        path = queue.claims_dir / f"{record.job_id}.claim"
        path.touch()
        os.utime(path, (clock(), clock()))
        assert queue.claim("w1") is None
        clock.advance(29.0)
        assert queue.release_stale() == []
        assert path.exists()
        clock.advance(2.0)
        assert queue.release_stale() == [record.job_id]
        assert not path.exists()
        requeued = queue.get(record.job_id)
        assert requeued.state == "pending"
        assert requeued.fail_count == 0
        assert queue.claim("w2").job_id == record.job_id

    def test_heartbeat_keeps_lease_alive(self, queue, clock):
        record = queue.submit(tiny_submit())
        queue.claim("w1")
        clock.advance(20.0)
        assert queue.heartbeat(record.job_id, "w1")
        clock.advance(20.0)  # 40s total, but lease renewed at t+20
        assert queue.release_stale() == []
        assert queue.get(record.job_id).state == "running"

    def test_heartbeat_refused_for_non_owner(self, queue):
        record = queue.submit(tiny_submit())
        queue.claim("w1")
        assert not queue.heartbeat(record.job_id, "impostor")

    def test_complete_after_reap_raises_claim_lost(self, queue, clock):
        """The double-execution guard: a reaped worker cannot report."""
        record = queue.submit(tiny_submit())
        queue.claim("w1")
        clock.advance(31.0)
        queue.release_stale()
        rerun = queue.claim("w2")
        assert rerun.job_id == record.job_id
        # The original worker wakes up and tries to report — refused,
        # so w2's execution is the only one that lands.
        with pytest.raises(ClaimLost):
            queue.complete(record.job_id, "w1")
        done = queue.complete(record.job_id, "w2")
        assert done.state == "ok"

    def test_fail_after_reap_raises_claim_lost(self, queue, clock):
        record = queue.submit(tiny_submit())
        queue.claim("w1")
        clock.advance(31.0)
        queue.release_stale()
        with pytest.raises(ClaimLost):
            queue.fail(record.job_id, "w1", "late failure")

    def test_live_lease_not_reaped(self, queue, clock):
        queue.submit(tiny_submit())
        queue.claim("w1")
        clock.advance(10.0)
        assert queue.release_stale() == []


class TestQuarantine:
    def test_quarantined_after_max_fails(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", max_fails=2, clock=clock)
        record = queue.submit(tiny_submit())
        claimed = queue.claim("w1")
        failed = queue.fail(claimed.job_id, "w1", "boom 1")
        assert failed.state == "pending"
        assert failed.fail_count == 1
        claimed = queue.claim("w1")
        assert claimed.attempts == 2
        failed = queue.fail(claimed.job_id, "w1", "boom 2")
        assert failed.state == "quarantined"
        assert failed.fail_count == 2
        # Quarantined jobs are terminal: not claimable, not lost.
        assert queue.claim("w1") is None
        assert queue.drained()
        assert queue.get(record.job_id).error == "boom 2"

    def test_lease_expiries_count_toward_quarantine(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", max_fails=2, clock=clock)
        record = queue.submit(tiny_submit())
        for _ in range(2):
            queue.claim("hung")
            clock.advance(31.0)
            queue.release_stale()
        final = queue.get(record.job_id)
        assert final.state == "quarantined"
        assert final.fail_count == 2


class TestPersistence:
    def test_reopen_preserves_jobs_and_seq(self, tmp_path, clock):
        directory = tmp_path / "q"
        queue = JobQueue(directory, clock=clock)
        first = queue.submit(tiny_submit(seed=1))
        claimed = queue.claim("w1")
        queue.complete(claimed.job_id, "w1")
        queue.submit(tiny_submit(seed=2))

        reopened = JobQueue(directory, clock=clock)
        assert reopened.counts() == {"ok": 1, "pending": 1}
        later = reopened.submit(tiny_submit(seed=3))
        assert later.seq > first.seq  # seq survives the restart
        # The pending job submitted before the restart is claimable.
        batch = reopened.claim_batch("w2", 2)
        assert len(batch) == 2

    def test_running_job_recovers_via_reaper_after_crash(
        self, tmp_path, clock
    ):
        """A daemon that dies mid-job: the claim file survives, the
        lease expires, and a new daemon's reaper requeues the job."""
        directory = tmp_path / "q"
        queue = JobQueue(directory, clock=clock)
        record = queue.submit(tiny_submit())
        queue.claim("old-daemon")
        del queue  # daemon gone; claim + running record still on disk

        clock.advance(31.0)
        revived = JobQueue(directory, clock=clock)
        assert revived.release_stale() == [record.job_id]
        assert revived.claim("new-daemon").job_id == record.job_id

    def test_journal_records_every_transition(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", clock=clock)
        record = queue.submit(tiny_submit())
        queue.claim("w1")
        queue.fail(record.job_id, "w1", "x")
        queue.claim("w1")
        queue.complete(record.job_id, "w1")
        lines = [
            json.loads(line)
            for line in (tmp_path / "q" / "journal.jsonl")
            .read_text()
            .splitlines()
        ]
        assert lines[0]["type"] == "header"
        events = [line["event"] for line in lines[1:]]
        assert events == [
            "submitted", "claimed", "requeued", "claimed", "completed",
        ]

    def test_read_journal_gives_latest_states(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", clock=clock, max_fails=2)
        jobs = [queue.submit(tiny_submit(seed=seed)) for seed in range(5)]
        ok, poison, running = (job.job_id for job in jobs[:3])
        assert [queue.claim("w1").job_id for _ in range(3)] == [
            ok, poison, running,
        ]
        queue.complete(ok, "w1")
        queue.fail(poison, "w1", "x")
        queue.fail(running, "w1", "x")
        assert queue.claim("w1").job_id == poison
        queue.fail(poison, "w1", "y")  # second failure: quarantined
        assert queue.claim("w1").job_id == running
        events, torn_line = read_journal(tmp_path / "q" / "journal.jsonl")
        assert torn_line is None
        states = {event["job_id"]: event["state"] for event in events}
        assert states == {
            status.job_id: status.state for status in queue.statuses()
        }
        assert [event["job_id"] for event in events] == [
            job.job_id for job in jobs
        ]
        by_state: dict[str, int] = {}
        for state in states.values():
            by_state[state] = by_state.get(state, 0) + 1
        assert by_state == queue.counts()
        assert by_state == {
            "ok": 1, "pending": 2, "running": 1, "quarantined": 1,
        }

    def test_read_journal_skips_a_torn_final_line(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", clock=clock)
        record = queue.submit(tiny_submit())
        path = tmp_path / "q" / "journal.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type":"event","job_id":"x","sta')
        events, torn_line = read_journal(path)
        assert [event["job_id"] for event in events] == [record.job_id]
        assert torn_line == 3

    def test_read_journal_rejects_non_journals(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(WireFormatError, match="is empty"):
            read_journal(path)
        path.write_text('{"type":"header"}\n', encoding="utf-8")
        with pytest.raises(WireFormatError, match="no job events"):
            read_journal(path)
        path.write_text('{"a":1}\n{"b":2}\n', encoding="utf-8")
        with pytest.raises(WireFormatError, match="not a journal file"):
            read_journal(path)
        with pytest.raises(FileNotFoundError):
            read_journal(tmp_path / "missing.jsonl")

    def test_corrupt_record_does_not_break_scans(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", clock=clock)
        queue.submit(tiny_submit(seed=1))
        (tmp_path / "q" / "jobs" / "garbage.json").write_text("{not json")
        assert len(queue.statuses()) == 1
        assert queue.counts().get("pending", 0) == 1


def scanned_counts(queue: JobQueue) -> dict[str, int]:
    """Jobs per state from a full scan of the records on disk."""
    counts: dict[str, int] = {}
    for status in queue.statuses():
        counts[status.state] = counts.get(status.state, 0) + 1
    return counts


class TestCrossProcessIndex:
    """Two queue handles on one directory share nothing in memory, like
    two processes: each learns the other's transitions from the journal."""

    @staticmethod
    def assert_matches_scan(queue: JobQueue) -> None:
        expected = scanned_counts(queue)
        backlog = expected.get("pending", 0) + expected.get("running", 0)
        assert queue.counts() == expected
        assert queue.depth() == backlog
        assert queue.drained() == (backlog == 0)

    def test_counts_follow_the_other_instance(self, tmp_path, clock):
        directory = tmp_path / "q"
        a = JobQueue(directory, max_fails=2, clock=clock)
        b = JobQueue(directory, max_fails=2, clock=clock)
        for seed in range(4):
            b.submit(tiny_submit(seed=seed))
        self.assert_matches_scan(a)
        done, failing, hung = b.claim_batch("b", 3)
        self.assert_matches_scan(a)
        b.complete(done.job_id, "b")
        self.assert_matches_scan(a)
        b.fail(failing.job_id, "b", "boom")  # requeued
        self.assert_matches_scan(a)
        assert b.claim("b").job_id == failing.job_id
        b.fail(failing.job_id, "b", "boom")  # quarantined
        self.assert_matches_scan(a)
        clock.advance(31.0)
        assert b.release_stale() == [hung.job_id]  # requeued
        self.assert_matches_scan(a)
        assert a.counts() == {"ok": 1, "quarantined": 1, "pending": 2}
        for job in a.claim_batch("a", 4):
            a.complete(job.job_id, "a")
        self.assert_matches_scan(a)
        self.assert_matches_scan(b)
        assert a.drained() and b.drained()

    def test_job_from_the_other_instance_is_claimable_at_once(
        self, tmp_path, clock
    ):
        directory = tmp_path / "q"
        a = JobQueue(directory, clock=clock)
        b = JobQueue(directory, clock=clock)
        assert a.claim("a") is None
        low = b.submit(tiny_submit(seed=1, priority=0))
        high = b.submit(tiny_submit(seed=2, priority=5))
        # No clock advance: the journal event, not a rescan, indexes it.
        assert a.claim("a").job_id == high.job_id
        assert b.claim("b").job_id == low.job_id
        b.fail(low.job_id, "b", "boom")  # requeued by the other instance
        assert a.claim("a").job_id == low.job_id
        # A job submitted here after one submitted there claims later.
        first = b.submit(tiny_submit(seed=3))
        second = a.submit(tiny_submit(seed=4))
        assert [job.job_id for job in a.claim_batch("a", 2)] == [
            first.job_id, second.job_id,
        ]

    def test_orphan_claim_on_pending_record_is_reaped(self, queue, clock):
        """A claimant died between its claim-file create and its record
        write: the CAS loss drops the job from the index, the reaper
        puts it back."""
        record = queue.submit(tiny_submit())
        claim = queue.directory / "claims" / f"{record.job_id}.claim"
        claim.write_text(
            json.dumps({"owner": "dead", "expires_at": clock() + 30.0})
        )
        assert queue.claim("w1") is None
        assert queue.release_stale() == []  # lease still live
        clock.advance(31.0)
        assert queue.release_stale() == [record.job_id]
        assert queue.get(record.job_id).state == "pending"
        assert queue.claim("w1").job_id == record.job_id

    def test_undecodable_journal_line_resyncs_from_records(
        self, tmp_path, clock
    ):
        directory = tmp_path / "q"
        a = JobQueue(directory, clock=clock)
        b = JobQueue(directory, clock=clock)
        b.submit(tiny_submit(seed=1))
        assert a.counts() == {"pending": 1}
        # A writer killed mid-append, then another process appended
        # after it: the merged line is garbage in mid-journal.
        with (directory / "journal.jsonl").open("a") as handle:
            handle.write('{"type":"event","job_id":"x","sta')
        b.submit(tiny_submit(seed=2))
        job = b.claim("b")
        b.submit(tiny_submit(seed=3))
        self.assert_matches_scan(a)
        assert a.counts() == {"pending": 2, "running": 1}
        b.complete(job.job_id, "b")  # the tail resumes past the garbage
        assert a.counts() == {"pending": 2, "ok": 1}

    def test_torn_final_line_waits_for_its_newline(
        self, tmp_path, clock, monkeypatch
    ):
        directory = tmp_path / "q"
        path = directory / "journal.jsonl"
        a = JobQueue(directory, clock=clock)
        b = JobQueue(directory, clock=clock)
        job = b.submit(tiny_submit())
        data = path.read_bytes()
        line = data.splitlines(keepends=True)[-1]
        # What a reader racing the append sees: half of b's line.
        path.write_bytes(data[: -len(line)] + line[:20])

        def no_resync():
            raise AssertionError("a torn final line forced a resync")

        monkeypatch.setattr(a, "_resync", no_resync)
        assert a.counts() == {}
        with path.open("ab") as handle:
            handle.write(line[20:])
        assert a.counts() == {"pending": 1}
        assert a.claim("a").job_id == job.job_id


class TestRecordReads:
    def test_counting_reads_no_records(self, tmp_path, clock, monkeypatch):
        """Counts come from memory: a job's record is read once to
        confirm its claim and once to complete it, however often the
        queue is asked how deep it is."""
        reads: list[str] = []
        original = JobQueue._read_record

        def counting(self, job_id):
            reads.append(job_id)
            return original(self, job_id)

        monkeypatch.setattr(JobQueue, "_read_record", counting)
        queue = JobQueue(tmp_path / "q", clock=clock)
        n_jobs, n_polls = 6, 5
        for seed in range(n_jobs):
            queue.submit(tiny_submit(seed=seed))
        for _ in range(n_polls):
            assert queue.depth() == n_jobs
            assert queue.counts() == {"pending": n_jobs}
            assert not queue.drained()
        for job in queue.claim_batch("w1", n_jobs):
            queue.complete(job.job_id, "w1")
        assert queue.drained()
        assert len(reads) == 2 * n_jobs
        assert queue.records_read == 2 * n_jobs


class TestValidation:
    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            JobQueue(tmp_path / "a", max_pending=0)
        with pytest.raises(ValueError):
            JobQueue(tmp_path / "b", lease_s=0)
        with pytest.raises(ValueError):
            JobQueue(tmp_path / "c", max_fails=0)

    def test_claim_batch_rejects_bad_limit(self, queue):
        with pytest.raises(ValueError):
            queue.claim_batch("w1", 0)

    def test_get_unknown_job(self, queue):
        with pytest.raises(KeyError):
            queue.get("nope")

    def test_record_round_trip(self, queue):
        record = queue.submit(tiny_submit(priority=3))
        rebuilt = JobRecord.from_json(record.to_json())
        assert rebuilt == record
