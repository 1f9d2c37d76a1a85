"""Persistent on-disk job queue with CAS claims and lease recovery.

The durability story of the streaming session service: every job the
daemon accepts becomes a JSON file under ``<dir>/jobs/`` the moment the
submit call returns, and every lifecycle transition rewrites that file
atomically (tempfile + rename, the :class:`~repro.sim.runner.ResultCache`
discipline).  Kill the daemon at any point and reopen the directory:
nothing submitted is lost, running jobs fall back to ``pending`` when
their leases expire, and terminal jobs stay terminal.

Claiming is *compare-and-swap*, not locking: a worker claims job ``J``
by creating ``<dir>/claims/J.claim`` with ``O_CREAT | O_EXCL`` — the
filesystem guarantees exactly one creator wins, however many workers
(threads *or* processes) race for the same job.  The claim file carries
the owner and a lease deadline; a worker that crashes or hangs simply
stops renewing its lease, and :meth:`JobQueue.release_stale` (the
reaper) returns the job to ``pending`` — or to ``quarantined`` once its
fail count exhausts the budget, so a poison job cannot churn the fleet
forever.

States and transitions::

    submit  ->  pending  --claim-->  running  --complete-->  ok | cached
                   ^                    |
                   |                    +--fail/lease-expiry--+
                   +-- fail_count < max_fails ----------------+
                                        |
                        fail_count >= max_fails -> quarantined

Ordering: pending jobs are claimed highest-priority first, ties broken
by submission order (a per-queue monotonic sequence number, not the
wall clock, so equal-timestamp submissions still claim in FIFO order).

Backpressure: ``submit`` raises :class:`QueueFull` once the pending
backlog reaches ``max_pending``; the daemon maps that to HTTP 429 with
a ``Retry-After`` derived from the recent drain rate.

Every transition also lands in ``<dir>/journal.jsonl`` — an append-only
JSONL stream (schema-versioned header line first) whose events carry
the job's absolute state.  It is the queue's cross-process index: a
:class:`JobQueue` keeps each job's state, the per-state counts and the
claim index in memory, updates them itself on its own transitions, and
learns every other process's transitions by tailing the journal from
the byte offset it last read (:func:`read_journal` with a
:class:`JournalCursor`).  So counting and claiming cost O(new
transitions), not a read of every job record ever submitted; the
records are scanned in full only when a queue opens, when the tail
meets a line it cannot decode, and for :meth:`JobQueue.statuses`.  The
same reader rebuilds each job's latest state offline, without the
daemon running (``repro status --journal``).
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
import uuid
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

from repro.atomic import write_atomic
from repro.service.wire import (
    JOB_STATES,
    TERMINAL_STATES,
    WIRE_SCHEMA_VERSION,
    JobStatus,
    JobSubmit,
    WireFormatError,
    check_schema,
)

#: File name of the append-only transition journal inside a queue dir.
JOURNAL_NAME = "journal.jsonl"


class QueueFull(RuntimeError):
    """Backpressure: the pending backlog is at ``max_pending``.

    ``retry_after_s`` is the submit-again hint the daemon forwards as
    the HTTP ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ClaimLost(RuntimeError):
    """A completion/failure report for a claim the reaper already took."""


@dataclass(frozen=True)
class JobRecord:
    """One job's durable state (the content of ``jobs/<id>.json``)."""

    job_id: str
    submit: JobSubmit
    state: str = "pending"
    seq: int = 0
    version: int = 0
    attempts: int = 0
    fail_count: int = 0
    owner: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {self.state!r} (known: {JOB_STATES})"
            )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def priority(self) -> int:
        return self.submit.priority

    @property
    def claim_key(self) -> tuple[int, int, str]:
        """Sort key of the claim order: priority first, then FIFO."""
        return (-self.priority, self.seq, self.job_id)

    def status(self) -> JobStatus:
        """The wire-format snapshot of this record."""
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            priority=self.submit.priority,
            session_class=self.submit.session_class,
            content_hash=self.submit.spec.content_hash(),
            attempts=self.attempts,
            fail_count=self.fail_count,
            owner=self.owner,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            error=self.error,
            from_cache=self.state == "cached",
        )

    def to_json(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "job_id": self.job_id,
            "submit": self.submit.to_json(),
            "state": self.state,
            "seq": self.seq,
            "version": self.version,
            "attempts": self.attempts,
            "fail_count": self.fail_count,
            "owner": self.owner,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "JobRecord":
        check_schema(record, "JobRecord")
        return cls(
            job_id=record["job_id"],
            submit=JobSubmit.from_json(record["submit"]),
            state=record["state"],
            seq=int(record.get("seq", 0)),
            version=int(record.get("version", 0)),
            attempts=int(record.get("attempts", 0)),
            fail_count=int(record.get("fail_count", 0)),
            owner=record.get("owner"),
            submitted_at=float(record.get("submitted_at", 0.0)),
            started_at=record.get("started_at"),
            finished_at=record.get("finished_at"),
            error=record.get("error"),
        )


class JobQueue:
    """The persistent queue; see the module docstring for the protocol.

    Thread-safe within a process (one lock around every in-memory
    update and transition) and safe across processes for the
    operations that race in practice — claims (O_EXCL), record writes
    (atomic rename) and journal appends (``O_APPEND``).

    ``records_read`` counts job-record reads, the cost the in-memory
    index exists to avoid; ``clock`` is injectable so lease-expiry
    tests do not sleep.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_pending: int = 1024,
        lease_s: float = 30.0,
        max_fails: int = 3,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        if max_fails < 1:
            raise ValueError(f"max_fails must be >= 1, got {max_fails}")
        self.directory = Path(directory)
        self.jobs_dir = self.directory / "jobs"
        self.claims_dir = self.directory / "claims"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        self.max_pending = max_pending
        self.lease_s = lease_s
        self.max_fails = max_fails
        self.clock = clock
        self.records_read = 0
        self._lock = threading.Lock()
        self._journal_path = self.directory / JOURNAL_NAME
        if not self._journal_path.exists():
            self._append_journal(
                {
                    "type": "header",
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "format": "repro-service-journal",
                }
            )
        # In-memory state, set by this instance's own transitions and
        # by _sync() replaying other processes' before each count or
        # claim: _states (job id -> state), _counts (per-state totals),
        # _keys (job id -> claim_key) and _pending_index, the sorted
        # claim keys of pending jobs.  A job whose claim CAS was lost
        # leaves the index but stays pending; its next journal event,
        # or the reaper removing an orphan claim, re-indexes it.
        self._seq = 0
        self._resync()

    # -- storage primitives -------------------------------------------------

    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _claim_path(self, job_id: str) -> Path:
        return self.claims_dir / f"{job_id}.claim"

    def _write_record(self, record: JobRecord) -> None:
        data = json.dumps(record.to_json(), separators=(",", ":")) + "\n"
        write_atomic(
            self._job_path(record.job_id),
            lambda handle: handle.write(data.encode("utf-8")),
        )

    def _read_record(self, job_id: str) -> JobRecord:
        self.records_read += 1
        path = self._job_path(job_id)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise KeyError(f"no such job: {job_id}") from None
        try:
            return JobRecord.from_json(json.loads(text))
        except (json.JSONDecodeError, WireFormatError, KeyError) as error:
            raise WireFormatError(
                f"corrupt job record {path}: {error}"
            ) from error

    def _append_journal(self, record: Mapping[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with open(self._journal_path, "a", encoding="utf-8") as handle:
            handle.write(line)

    def _journal_transition(self, record: JobRecord, event: str) -> None:
        self._append_journal(
            {
                "type": "event",
                "event": event,
                "job_id": record.job_id,
                "state": record.state,
                "session_class": record.submit.session_class,
                "priority": record.submit.priority,
                "attempts": record.attempts,
                "fail_count": record.fail_count,
                "owner": record.owner,
                "ts": self.clock(),
            }
        )

    # -- CAS primitives -----------------------------------------------------

    def _try_claim_file(
        self, job_id: str, owner: str, expires_at: float
    ) -> bool:
        """The compare-and-swap: exactly one O_EXCL creator wins."""
        payload = json.dumps(
            {"owner": owner, "expires_at": expires_at},
            separators=(",", ":"),
        )
        try:
            fd = os.open(
                self._claim_path(job_id),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                0o644,
            )
        except FileExistsError:
            return False
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def _read_claim(self, job_id: str) -> Optional[dict]:
        try:
            return json.loads(
                self._claim_path(job_id).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None

    def _owns_claim(self, job_id: str, owner: str) -> bool:
        claim = self._read_claim(job_id)
        return claim is not None and claim.get("owner") == owner

    def _release_claim(self, job_id: str) -> None:
        self._claim_path(job_id).unlink(missing_ok=True)

    # -- in-memory state ----------------------------------------------------

    def _track(self, record: JobRecord) -> None:
        """Account one of this instance's own transitions in memory."""
        self._keys.setdefault(record.job_id, record.claim_key)
        self._set_state(record.job_id, record.state)

    def _set_state(self, job_id: str, state: str) -> None:
        """Move ``job_id`` to ``state`` in the counts and claim index."""
        previous = self._states.get(job_id)
        if previous is not None:
            self._counts[previous] -= 1
            if not self._counts[previous]:
                del self._counts[previous]
        self._states[job_id] = state
        self._counts[state] = self._counts.get(state, 0) + 1
        key = self._keys.get(job_id)
        if key is None:
            return
        index = self._pending_index
        position = bisect.bisect_left(index, key)
        indexed = index[position : position + 1] == [key]
        if state == "pending" and not indexed:
            index.insert(position, key)
        elif state != "pending" and indexed:
            del index[position]

    def _resync(self) -> None:
        """Rebuild the in-memory state from one full scan of the records.

        The journal offset is taken *before* the scan: a transition
        that lands in between is then both scanned and replayed, and
        replaying an absolute state is harmless, where one missed would
        stay missed.  Starting at the file's end skips whatever
        unterminated line a killed writer left there.
        """
        try:
            offset = self._journal_path.stat().st_size
        except FileNotFoundError:
            offset = 0
        records = self._records()
        self._cursor = JournalCursor(offset)
        self._states = {r.job_id: r.state for r in records}
        self._keys = {r.job_id: r.claim_key for r in records}
        self._counts = dict(Counter(self._states.values()))
        self._pending_index = sorted(
            r.claim_key for r in records if r.state == "pending"
        )
        self._seq = max([self._seq, *(r.seq + 1 for r in records)])

    def _sync(self) -> None:
        """Apply the transitions other processes journaled since last time.

        Only each job's latest event in the new chunk counts, and it
        carries an absolute state, so replaying this instance's own
        lines changes nothing.  A job first seen in the pending state
        costs one record read for its claim key.  A line that cannot be
        decoded, or a journal that shrank, falls back to a full resync.
        """
        try:
            if self._journal_path.stat().st_size == self._cursor.offset:
                return  # nothing appended: the idle dispatcher's case
            events, _ = read_journal(self._journal_path, self._cursor)
        except (WireFormatError, FileNotFoundError):
            self._resync()
            return
        for event in events:
            job_id, state = event["job_id"], event["state"]
            if state == "pending" and job_id not in self._keys:
                try:
                    record = self._read_record(job_id)
                except (KeyError, WireFormatError):
                    pass  # counted, not claimable until a resync
                else:
                    self._keys[job_id] = record.claim_key
                    self._seq = max(self._seq, record.seq + 1)
            self._set_state(job_id, state)

    # -- public API ---------------------------------------------------------

    def submit(
        self,
        submit: JobSubmit,
        job_id: Optional[str] = None,
    ) -> JobRecord:
        """Enqueue one job; raises :class:`QueueFull` at the backlog cap."""
        now = self.clock()
        with self._lock:
            self._sync()
            backlog = self._counts.get("pending", 0)
            if backlog >= self.max_pending:
                raise QueueFull(
                    f"queue full: {backlog} pending >= "
                    f"max_pending={self.max_pending}",
                    retry_after_s=max(0.1, self.lease_s / 10.0),
                )
            record = JobRecord(
                job_id=job_id or uuid.uuid4().hex[:16],
                submit=submit,
                state="pending",
                seq=self._seq,
                submitted_at=now,
            )
            if self._job_path(record.job_id).exists():
                raise ValueError(f"duplicate job_id: {record.job_id}")
            self._seq += 1
            self._write_record(record)
            self._track(record)
            self._journal_transition(record, "submitted")
            return record

    def claim(self, owner: str) -> Optional[JobRecord]:
        """Claim the best pending job for ``owner``, or None when idle."""
        batch = self.claim_batch(owner, 1)
        return batch[0] if batch else None

    def claim_batch(self, owner: str, limit: int = 1) -> list[JobRecord]:
        """Claim up to ``limit`` pending jobs, highest-priority first.

        Races for each candidate via the O_EXCL claim file; a CAS win
        *is* the claim.  A job whose record turns out not-pending after
        the CAS (another process transitioned it meanwhile) releases
        the claim and moves on — the claim file arbitrates, the record
        confirms.  One sorted-index pass claims the whole batch, so a
        daemon draining thousands of sessions does not re-scan the
        directory per claim.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        now = self.clock()
        claimed: list[JobRecord] = []
        seen: list[JobRecord] = []
        with self._lock:
            self._sync()
            tried = 0
            for key in self._pending_index:
                if len(claimed) >= limit:
                    break
                tried += 1
                job_id = key[2]
                if not self._try_claim_file(job_id, owner, now + self.lease_s):
                    continue  # raced and lost: drop the entry
                try:
                    current = self._read_record(job_id)
                except (KeyError, WireFormatError):
                    self._release_claim(job_id)
                    continue
                if current.state != "pending":
                    self._release_claim(job_id)
                    seen.append(current)
                    continue
                running = replace(
                    current,
                    state="running",
                    version=current.version + 1,
                    attempts=current.attempts + 1,
                    owner=owner,
                    started_at=now,
                    error=None,
                )
                self._write_record(running)
                self._journal_transition(running, "claimed")
                claimed.append(running)
            del self._pending_index[:tried]
            for record in (*seen, *claimed):
                self._track(record)
        return claimed

    def heartbeat(self, job_id: str, owner: str) -> bool:
        """Extend ``owner``'s lease; False when the claim is gone."""
        now = self.clock()
        with self._lock:
            if not self._owns_claim(job_id, owner):
                return False
            data = json.dumps(
                {"owner": owner, "expires_at": now + self.lease_s},
                separators=(",", ":"),
            )
            write_atomic(
                self._claim_path(job_id),
                lambda handle: handle.write(data.encode("utf-8")),
            )
            return True

    def complete(
        self, job_id: str, owner: str, *, from_cache: bool = False
    ) -> JobRecord:
        """Mark a claimed job done; raises :class:`ClaimLost` when the
        reaper released the claim first (the job will re-run — report
        nothing, execute-at-least-once is the queue's contract)."""
        now = self.clock()
        with self._lock:
            record = self._read_record(job_id)
            if not self._owns_claim(job_id, owner) or record.owner != owner:
                raise ClaimLost(
                    f"claim on {job_id} no longer held by {owner}"
                )
            done = replace(
                record,
                state="cached" if from_cache else "ok",
                version=record.version + 1,
                finished_at=now,
            )
            self._write_record(done)
            self._release_claim(job_id)
            self._track(done)
            self._journal_transition(done, "completed")
            return done

    def fail(self, job_id: str, owner: str, error: str) -> JobRecord:
        """Report a claimed job's failure: requeue or quarantine."""
        now = self.clock()
        with self._lock:
            record = self._read_record(job_id)
            if not self._owns_claim(job_id, owner) or record.owner != owner:
                raise ClaimLost(
                    f"claim on {job_id} no longer held by {owner}"
                )
            failed = self._fail_locked(record, error, now)
            self._release_claim(job_id)
            return failed

    def _fail_locked(
        self, record: JobRecord, error: str, now: float
    ) -> JobRecord:
        fail_count = record.fail_count + 1
        if fail_count >= self.max_fails:
            failed = replace(
                record,
                state="quarantined",
                version=record.version + 1,
                fail_count=fail_count,
                finished_at=now,
                error=error,
            )
            event = "quarantined"
        else:
            failed = replace(
                record,
                state="pending",
                version=record.version + 1,
                fail_count=fail_count,
                owner=None,
                started_at=None,
                error=error,
            )
            event = "requeued"
        self._write_record(failed)
        self._track(failed)
        self._journal_transition(failed, event)
        return failed

    def release_stale(self) -> list[str]:
        """The reaper: release every claim whose lease expired.

        A worker that hung or died without reporting stops renewing its
        lease; its job goes back to ``pending`` (fail count +1) or to
        ``quarantined`` when the budget is spent.  A claim whose record
        is still ``pending`` — its claimant died between the claim and
        the record write — is removed and the job becomes claimable
        again.  So is a claim file that holds no readable claim (its
        claimant died between the ``O_EXCL`` create and the payload
        write), one lease after the file's mtime.  Returns the affected
        job ids.
        """
        now = self.clock()
        released = []
        with self._lock:
            for path in sorted(self.claims_dir.glob("*.claim")):
                job_id = path.stem
                claim = self._read_claim(job_id)
                if claim is not None:
                    expires_at = claim.get("expires_at", 0)
                else:
                    try:
                        expires_at = path.stat().st_mtime + self.lease_s
                    except OSError:
                        continue  # released while we looked
                if expires_at > now:
                    continue
                try:
                    record = self._read_record(job_id)
                except (KeyError, WireFormatError):
                    self._release_claim(job_id)
                    continue
                if record.state == "running":
                    self._fail_locked(
                        record,
                        f"lease expired (worker {record.owner} silent "
                        f"for > {self.lease_s:g}s)",
                        now,
                    )
                self._release_claim(job_id)
                if record.state == "pending":
                    self._track(record)
                released.append(job_id)
        return released

    # -- introspection ------------------------------------------------------

    def _records(self) -> list[JobRecord]:
        records = []
        for path in self.jobs_dir.glob("*.json"):
            try:
                records.append(self._read_record(path.stem))
            except (KeyError, WireFormatError):
                continue  # a submit mid-rename; the next scan sees it
        records.sort(key=lambda r: (r.seq, r.job_id))
        return records

    def get(self, job_id: str) -> JobRecord:
        return self._read_record(job_id)

    def statuses(self) -> list[JobStatus]:
        """Wire-format snapshots of every job, in submission order."""
        return [record.status() for record in self._records()]

    def counts(self) -> dict[str, int]:
        """Jobs per state; states with no jobs are absent."""
        with self._lock:
            self._sync()
            return dict(self._counts)

    def depth(self) -> int:
        """Backlog the fleet still owes: pending + running."""
        with self._lock:
            self._sync()
            return self._counts.get("pending", 0) + self._counts.get(
                "running", 0
            )

    def drained(self) -> bool:
        return self.depth() == 0


@dataclass
class JournalCursor:
    """Where a resumed :func:`read_journal` starts: the byte offset just
    past the last complete line already read."""

    offset: int = 0


def read_journal(
    path: Union[str, Path], cursor: Optional[JournalCursor] = None
) -> tuple[list[dict], Optional[int]]:
    """Each job's latest event in a queue journal, in first-seen order.

    Returns ``(events, torn_line)``.  ``torn_line`` is the number of a
    final line that holds no complete JSON record — the daemon died
    mid-append, and every line before it is still good — or ``None``.
    Raises :class:`FileNotFoundError` or :class:`IsADirectoryError`
    for a path that is not a file, and :class:`WireFormatError` for an
    empty file, a file that is not a journal, or one that holds no job
    events.

    With a ``cursor`` the read resumes: it starts at ``cursor.offset``,
    takes only newline-terminated lines — an unterminated final line is
    left for the next read, so ``torn_line`` is always ``None`` — and
    advances the cursor past them.  A resumed read may find no events;
    it raises :class:`WireFormatError` for any line it cannot decode,
    and when the file is shorter than the offset already read.
    """
    path = Path(path)
    start = 0 if cursor is None else cursor.offset
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) < start:
            raise WireFormatError(
                f"journal file {path} is shorter than the {start} bytes "
                "already read from it"
            )
        handle.seek(start)
        data = handle.read()
    if cursor is not None:
        data = data[: data.rfind(b"\n") + 1]
    elif not data.strip():
        raise WireFormatError(
            f"journal file {path} is empty; has the daemon accepted "
            "any jobs yet?"
        )
    lines = data.decode("utf-8").splitlines()
    latest: dict[str, dict] = {}
    torn_line: Optional[int] = None
    for index, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if cursor is None and index == len(lines):
                torn_line = index
                continue
            raise WireFormatError(
                f"not a journal file: {path}: bad JSON on line "
                f"{index}: {error}"
            )
        if record.get("type") == "header":
            continue
        if record.get("type") != "event" or "job_id" not in record:
            raise WireFormatError(
                f"not a journal file: {path}: line {index} is not a "
                "journal event"
            )
        if record.get("state") not in JOB_STATES:
            raise WireFormatError(
                f"journal file {path} line {index} has unknown state "
                f"{record.get('state')!r}"
            )
        latest[record["job_id"]] = record
    if cursor is not None:
        cursor.offset += len(data)
    elif not latest:
        raise WireFormatError(
            f"journal file {path} holds no job events; has the daemon "
            "accepted any jobs yet?"
        )
    return list(latest.values()), torn_line
