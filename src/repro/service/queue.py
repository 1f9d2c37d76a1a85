"""Persistent on-disk job queue with CAS claims and lease recovery.

The durability story of the streaming session service.  A queue
directory holds three things:

* ``jobs/<id>.json`` — the job's :class:`JobSubmit` plus its ``seq``
  and ``submitted_at``, written once when ``submit`` is called and never
  rewritten.  It is created with ``O_CREAT | O_EXCL``, so the create is
  also the duplicate-id check.
* ``claims/<id>.claim`` — the claim: its ``O_CREAT | O_EXCL`` create is
  the compare-and-swap (exactly one creator wins, however many threads
  or processes race).  It carries the owner and a lease deadline; a
  worker that crashes or hangs stops renewing it, and the reaper
  (:meth:`JobQueue.release_stale`) returns the job to ``pending``, or
  to ``quarantined`` once its fail count exhausts the budget.
* ``journal.jsonl`` — the only mutable state.  After a format header,
  every transition (submit, claim, complete, requeue, quarantine,
  lease expiry) appends one line carrying the job's full status.

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
a ``Retry-After`` derived from the lease.

A :class:`JobQueue` keeps the fold of the journal in memory: each job's
latest status, the per-state counts and the sorted claim index.  It
updates the fold on its own transitions and learns every other
process's by tailing the journal from the byte offset it last read,
so ``get``, ``statuses``, ``counts``, ``depth`` and claiming read
memory.  Opening
a queue replays the journal and then lists ``jobs/`` for submit files
that have no journal line (a submitter killed between its create and
its append).  A job's submit file is read only to learn the spec of a
job this process did not submit, once, when it claims it.

The ordering rule: ``complete``, ``fail`` and the reaper append their
journal line *before* unlinking the claim file.  So a claimant whose
CAS wins finds, on its next journal tail, every transition that ended
the previous claim, and a stale fold never runs a finished job again.
The same reader rebuilds each job's latest state offline, without the
daemon running (``repro status --journal``).
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
import uuid
import weakref
from collections import Counter
from dataclasses import dataclass, field, fields, replace
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

#: The journal header's layout marker.  The first layout
#: (``repro-service-journal``) kept a rewritten record per job beside
#: the journal; queues in it are refused, not migrated.
JOURNAL_FORMAT = "repro-service-journal/2"


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
    """One job's status, as one journal line carries it.

    ``submit`` rides along only on the records :meth:`JobQueue.submit`
    and :meth:`JobQueue.claim_batch` return; it is not part of the
    status, so it takes no part in equality.
    """

    job_id: str
    state: str = "pending"
    seq: int = 0
    priority: int = 0
    session_class: str = "standard"
    content_hash: str = ""
    attempts: int = 0
    fail_count: int = 0
    owner: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    submit: Optional[JobSubmit] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {self.state!r} (known: {JOB_STATES})"
            )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def claim_key(self) -> tuple[int, int, str]:
        """Sort key of the claim order: priority first, then FIFO."""
        return (-self.priority, self.seq, self.job_id)

    def status(self) -> JobStatus:
        """The wire-format snapshot of this record."""
        status = self.to_json()
        del status["seq"]
        return JobStatus(**status, from_cache=self.state == "cached")

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _STATUS_FIELDS}

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "JobRecord":
        return cls(**{name: record[name] for name in _STATUS_FIELDS})


#: What a journal line carries: every JobRecord field but the submit.
_STATUS_FIELDS = tuple(f.name for f in fields(JobRecord) if f.name != "submit")


class JobQueue:
    """The persistent queue; see the module docstring for the protocol.

    Thread-safe within a process (one lock around the fold and every
    transition) and safe across processes for the operations that race
    in practice: submit files and claims (``O_EXCL``) and journal
    appends (``O_APPEND``).

    ``file_ops`` counts the queue's file operations at their one helper
    each: ``create``, ``append``, ``read``, ``unlink`` and ``replace``
    on the submit/claim/complete/fail path, and the same names prefixed
    ``heartbeat.`` or ``reaper.`` for lease upkeep, whose count depends
    on wall time.  ``records_read`` counts submit-file reads, the cost
    the fold exists to avoid.  ``clock`` is injectable so lease-expiry
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
        self.file_ops: Counter = Counter()
        self._scope = ""
        self._lock = threading.Lock()
        self._journal_path = self.directory / JOURNAL_NAME
        flags = os.O_WRONLY | os.O_APPEND
        try:
            fd = os.open(self._journal_path, flags | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            fd = os.open(self._journal_path, flags)
        else:
            header = {"schema_version": WIRE_SCHEMA_VERSION, "format": JOURNAL_FORMAT}
            os.write(fd, _line({"type": "header", **header}))
        self._journal_fd = fd
        weakref.finalize(self, os.close, fd)
        # The fold: _jobs (job id -> latest JobRecord, no submit),
        # _counts (per-state totals) and _pending_index, the sorted claim
        # keys of pending jobs.  _submits keeps the JobSubmit of each
        # pending job this instance submitted, until it is claimed.  A
        # job whose claim CAS was lost leaves the index but stays
        # pending; its next journal event, or the reaper removing an
        # orphan claim, re-indexes it.
        self._seq = 0
        self._submits: dict[str, JobSubmit] = {}
        self._sync(rebuild=True)

    # -- file operations, each counted at its one helper --------------------

    def _count(self, op: str) -> None:
        self.file_ops[self._scope + op] += 1

    def _create(self, path: Path, payload: bytes) -> bool:
        """Create ``path`` holding ``payload``; False when it exists."""
        self._count("create")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return True

    def _append(self, record: JobRecord, event: str) -> None:
        """Append one transition line; the journal is the only state."""
        self._count("append")
        line = _line(
            {"type": "event", "event": event, **record.to_json(), "ts": self.clock()}
        )
        os.write(self._journal_fd, line)
        # Nothing between the offset and this line: skip re-reading it.
        end = os.lseek(self._journal_fd, 0, os.SEEK_CUR)
        if end - len(line) == self._offset:
            self._offset = end

    def _read(self, path: Path) -> bytes:
        self._count("read")
        return path.read_bytes()

    def _unlink(self, path: Path) -> None:
        self._count("unlink")
        path.unlink(missing_ok=True)

    def _replace(self, path: Path, payload: bytes) -> None:
        self._count("replace")
        write_atomic(path, lambda handle: handle.write(payload))

    # -- storage ------------------------------------------------------------

    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _claim_path(self, job_id: str) -> Path:
        return self.claims_dir / f"{job_id}.claim"

    def _read_record(self, job_id: str) -> JobRecord:
        """A job's submit file, as its pending record with the submit."""
        self.records_read += 1
        path = self._job_path(job_id)
        try:
            data = json.loads(self._read(path))
            check_schema(data, "job submit file")
            submit = JobSubmit.from_json(data["submit"])
            return JobRecord(
                job_id=job_id,
                seq=int(data["seq"]),
                priority=submit.priority,
                session_class=submit.session_class,
                content_hash=submit.spec.content_hash(),
                submitted_at=float(data["submitted_at"]),
                submit=submit,
            )
        except FileNotFoundError:
            raise KeyError(f"no such job: {job_id}") from None
        except (ValueError, WireFormatError, KeyError, TypeError) as error:
            raise WireFormatError(
                f"corrupt job submit file {path}: {error}"
            ) from error

    def _read_claim(self, job_id: str) -> Optional[dict]:
        try:
            return json.loads(self._read(self._claim_path(job_id)))
        except (OSError, ValueError):
            return None

    def _owns_claim(self, job_id: str, owner: str) -> bool:
        claim = self._read_claim(job_id)
        return claim is not None and claim.get("owner") == owner

    def _claim_payload(self, owner: str, expires_at: float) -> bytes:
        return json.dumps(
            {"owner": owner, "expires_at": expires_at}, separators=(",", ":")
        ).encode("utf-8")

    # -- the fold -----------------------------------------------------------

    def _transition(self, record: JobRecord, event: str) -> JobRecord:
        """One of this instance's transitions: journal line, then fold."""
        self._append(record, event)
        self._apply(record)
        return record

    def _apply(self, record: JobRecord) -> None:
        """Fold one job's latest status into memory."""
        job_id, state = record.job_id, record.state
        previous = self._jobs.get(job_id)
        if previous is not None:
            left = self._counts[previous.state] - 1
            if left:
                self._counts[previous.state] = left
            else:
                del self._counts[previous.state]
        self._jobs[job_id] = record
        self._counts[state] = self._counts.get(state, 0) + 1
        if record.seq >= self._seq:
            self._seq = record.seq + 1
        if state != "pending":
            self._submits.pop(job_id, None)
        key = record.claim_key
        index = self._pending_index
        position = bisect.bisect_left(index, key)
        indexed = index[position : position + 1] == [key]
        if state == "pending" and not indexed:
            index.insert(position, key)
        elif state != "pending" and indexed:
            del index[position]

    def _sync(self, rebuild: bool = False) -> None:
        """Fold in the journal lines appended since the last read.

        Each line carries an absolute status and only a job's latest
        line in the new chunk is applied, so replaying this instance's
        own lines changes nothing.  Only newline-terminated lines are
        read: an unterminated final line waits for the rest of its
        bytes.  A ``rebuild``, or a journal shorter than the offset
        already read, starts from an empty fold.  A rebuild, and a chunk
        holding a line that is not an event (a killed writer's torn
        line with another process's line merged onto it), then list
        ``jobs/`` for submit files that have no journal line.
        """
        size = os.stat(self._journal_path).st_size
        if rebuild or size < self._offset:
            self._jobs: dict[str, JobRecord] = {}
            self._counts: dict[str, int] = {}
            self._pending_index: list[tuple[int, int, str]] = []
            self._offset = 0
            rebuild = True
        elif size == self._offset:
            return  # nothing appended: the idle dispatcher's case
        with open(self._journal_path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        data = data[: data.rfind(b"\n") + 1]
        self._offset += len(data)
        latest, garbage = _fold_lines(
            self._journal_path, data.decode("utf-8", "replace"), lenient=True
        )
        for event in latest.values():
            try:
                self._apply(JobRecord.from_json(event))
            except (KeyError, TypeError, ValueError):
                garbage = True  # an event line with missing or bad fields
        if not (rebuild or garbage):
            return
        for name in os.listdir(self.jobs_dir):
            job_id, suffix = os.path.splitext(name)
            if suffix != ".json" or job_id in self._jobs:
                continue
            try:
                record = self._read_record(job_id)
            except (KeyError, WireFormatError):
                continue  # mid-create, or garbage: never acknowledged
            self._apply(replace(record, submit=None))
            self._submits[job_id] = record.submit

    def _current(self, job_id: str) -> JobRecord:
        self._sync()
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"no such job: {job_id}") from None

    # -- public API ---------------------------------------------------------

    def submit(
        self,
        submit: JobSubmit,
        job_id: Optional[str] = None,
        wire: Optional[Mapping[str, Any]] = None,
    ) -> JobRecord:
        """Enqueue one job; raises :class:`QueueFull` at the backlog cap.

        ``wire`` is the JSON record ``submit`` was parsed from (the
        daemon's request body); the submit file then holds it as it
        is, and ``submit`` is not serialized again.
        """
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
                seq=self._seq,
                priority=submit.priority,
                session_class=submit.session_class,
                content_hash=submit.spec.content_hash(),
                submitted_at=now,
            )
            payload = _line(
                {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "job_id": record.job_id,
                    "seq": record.seq,
                    "submitted_at": now,
                    "submit": wire if wire is not None else submit.to_json(),
                }
            )
            if not self._create(self._job_path(record.job_id), payload):
                raise ValueError(f"duplicate job_id: {record.job_id}")
            self._submits[record.job_id] = submit
            self._transition(record, "submitted")
            return replace(record, submit=submit)

    def claim(self, owner: str) -> Optional[JobRecord]:
        """Claim the best pending job for ``owner``, or None when idle."""
        batch = self.claim_batch(owner, 1)
        return batch[0] if batch else None

    def claim_batch(self, owner: str, limit: int = 1) -> list[JobRecord]:
        """Claim up to ``limit`` pending jobs, highest-priority first.

        Races for each candidate via the O_EXCL claim file; a CAS win
        *is* the claim.  After the wins, one more journal tail confirms
        each job is still pending: whatever ended a previous claim was
        journaled before that claim file went away.  A job found
        otherwise releases the claim.  One sorted-index pass claims the
        whole batch, so a daemon draining thousands of sessions does
        not re-scan anything per claim.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        now = self.clock()
        claimed: list[JobRecord] = []
        with self._lock:
            self._sync()
            payload = self._claim_payload(owner, now + self.lease_s)
            won = []
            tried = 0
            for key in self._pending_index:
                if len(won) >= limit:
                    break
                tried += 1
                if self._create(self._claim_path(key[2]), payload):
                    won.append(key[2])
            del self._pending_index[:tried]  # lost CAS races drop out too
            if won:
                self._sync()
            for job_id in won:
                current = self._jobs.get(job_id)
                pending = current is not None and current.state == "pending"
                submit = self._submits.get(job_id)
                if pending and submit is None:
                    try:
                        submit = self._read_record(job_id).submit
                    except (KeyError, WireFormatError):
                        pass
                if not pending or submit is None:
                    self._unlink(self._claim_path(job_id))
                    continue
                running = replace(
                    current,
                    state="running",
                    attempts=current.attempts + 1,
                    owner=owner,
                    started_at=now,
                    error=None,
                )
                self._transition(running, "claimed")
                claimed.append(replace(running, submit=submit))
        return claimed

    def heartbeat(self, job_id: str, owner: str) -> bool:
        """Extend ``owner``'s lease; False when the claim is gone."""
        now = self.clock()
        with self._lock:
            self._scope = "heartbeat."
            try:
                if not self._owns_claim(job_id, owner):
                    return False
                self._replace(
                    self._claim_path(job_id),
                    self._claim_payload(owner, now + self.lease_s),
                )
                return True
            finally:
                self._scope = ""

    def complete(
        self, job_id: str, owner: str, *, from_cache: bool = False
    ) -> JobRecord:
        """Mark a claimed job done; raises :class:`ClaimLost` when the
        reaper released the claim first (the job will re-run — report
        nothing, execute-at-least-once is the queue's contract)."""
        now = self.clock()
        with self._lock:
            record = self._claimed(job_id, owner)
            done = self._transition(
                replace(
                    record,
                    state="cached" if from_cache else "ok",
                    finished_at=now,
                ),
                "completed",
            )
            self._unlink(self._claim_path(job_id))
            return done

    def fail(self, job_id: str, owner: str, error: str) -> JobRecord:
        """Report a claimed job's failure: requeue or quarantine."""
        now = self.clock()
        with self._lock:
            failed = self._fail_locked(self._claimed(job_id, owner), error, now)
            self._unlink(self._claim_path(job_id))
            return failed

    def _claimed(self, job_id: str, owner: str) -> JobRecord:
        """``job_id``'s record while ``owner`` holds its claim."""
        record = self._current(job_id)
        if (
            record.state != "running"
            or record.owner != owner
            or not self._owns_claim(job_id, owner)
        ):
            raise ClaimLost(f"claim on {job_id} no longer held by {owner}")
        return record

    def _fail_locked(
        self, record: JobRecord, error: str, now: float
    ) -> JobRecord:
        fail_count = record.fail_count + 1
        if fail_count >= self.max_fails:
            failed = replace(
                record,
                state="quarantined",
                fail_count=fail_count,
                finished_at=now,
                error=error,
            )
            return self._transition(failed, "quarantined")
        requeued = replace(
            record,
            state="pending",
            fail_count=fail_count,
            owner=None,
            started_at=None,
            error=error,
        )
        return self._transition(requeued, "requeued")

    def release_stale(self) -> list[str]:
        """The reaper: release every claim whose lease expired.

        A worker that hung or died without reporting stops renewing its
        lease; its job goes back to ``pending`` (fail count +1) or to
        ``quarantined`` when the budget is spent.  A claim on a job
        that is still ``pending`` — its claimant died between the claim
        and its journal line — is removed and the job becomes claimable
        again.  So is a claim file that holds no readable claim (its
        claimant died between the ``O_EXCL`` create and the payload
        write), one lease after the file's mtime.  Returns the affected
        job ids.
        """
        now = self.clock()
        released = []
        with self._lock:
            self._scope = "reaper."
            try:
                self._sync()
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
                    record = self._jobs.get(job_id)
                    if record is not None and record.state == "running":
                        self._fail_locked(
                            record,
                            f"lease expired (worker {record.owner} silent "
                            f"for > {self.lease_s:g}s)",
                            now,
                        )
                    self._unlink(path)
                    if record is not None and record.state == "pending":
                        self._apply(record)  # back into the claim index
                    released.append(job_id)
            finally:
                self._scope = ""
        return released

    # -- introspection ------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._current(job_id)

    def statuses(self) -> list[JobStatus]:
        """Wire-format snapshots of every job, in submission order."""
        with self._lock:
            self._sync()
            records = sorted(self._jobs.values(), key=lambda r: (r.seq, r.job_id))
        return [record.status() for record in records]

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


def _line(record: Mapping[str, Any]) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def _fold_lines(
    path: Path, text: str, *, lenient: bool = False
) -> tuple[dict[str, dict], Optional[int]]:
    """Each job's latest event among a journal's lines, in first-seen
    order, and the number of the last line that is not an event.

    A header naming another layout raises :class:`WireFormatError`.  So
    does any other line that is not an event, unless ``lenient``, or
    unless it is a final line that holds no complete JSON record.
    """
    lines = text.splitlines()
    latest: dict[str, dict] = {}
    bad: Optional[int] = None
    for index, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            problem = "is not a journal event"
        except json.JSONDecodeError as error:
            record, problem = None, f"is bad JSON ({error})"
        if not isinstance(record, dict):
            pass
        elif record.get("type") == "header":
            layout = record.get("format", JOURNAL_FORMAT)
            if layout != JOURNAL_FORMAT:
                raise WireFormatError(
                    f"queue journal {path} is in the {layout!r} layout; "
                    f"this version reads only {JOURNAL_FORMAT!r} (one "
                    "immutable submit file per job): drain the queue with "
                    "the version that wrote it, or use a new queue directory"
                )
            continue
        elif record.get("type") == "event" and "job_id" in record:
            if record.get("state") in JOB_STATES:
                latest[record["job_id"]] = record
                continue
            problem = f"has unknown state {record.get('state')!r}"
        torn = record is None and index == len(lines)
        if not (lenient or torn):
            raise WireFormatError(
                f"not a journal file: {path}: line {index} {problem}"
            )
        bad = index
    return latest, bad


def read_journal(path: Union[str, Path]) -> tuple[list[dict], Optional[int]]:
    """Each job's latest event in a queue journal, in first-seen order.

    Returns ``(events, torn_line)``.  ``torn_line`` is the number of a
    final line that holds no complete JSON record — the daemon died
    mid-append, and every line before it is still good — or ``None``.
    Raises :class:`FileNotFoundError` or :class:`IsADirectoryError`
    for a path that is not a file, and :class:`WireFormatError` for an
    empty file, a file that is not a journal, a journal in another
    layout, or one that holds no job events.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data.strip():
        raise WireFormatError(
            f"journal file {path} is empty; has the daemon accepted "
            "any jobs yet?"
        )
    latest, torn_line = _fold_lines(path, data.decode("utf-8"))
    if not latest:
        raise WireFormatError(
            f"journal file {path} holds no job events; has the daemon "
            "accepted any jobs yet?"
        )
    return list(latest.values()), torn_line
