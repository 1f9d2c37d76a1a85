"""The long-lived encode daemon: ``repro serve``.

An asyncio service that turns the batch grid runner into a streaming
session service: clients submit simulate/sweep jobs over a local
HTTP+JSONL API, a persistent :class:`~repro.service.queue.JobQueue`
makes every accepted job durable, and dispatcher tasks drain the queue
through the batch grid runner, :func:`~repro.sim.runner.run_grid` —
with the encode-once stream cache underneath, so concurrent sessions
that share an encode configuration share the encode work.

Wire format: every request and response body is a schema-versioned
record from :mod:`repro.service.wire`; list endpoints stream JSONL
(``application/x-ndjson``), one record per line.

Routes (all under the versioned ``/v1`` prefix)::

    GET  /v1/health        liveness + queue depths + drain state
    POST /v1/jobs          submit one JobSubmit or {"jobs": [...]}
                           (202; 429 + Retry-After on backpressure;
                            503 once draining)
    GET  /v1/jobs          JSONL stream of every JobStatus
    GET  /v1/jobs/<id>     one JobStatus
    GET  /v1/results/<id>  one SessionResult (409 until terminal)
    GET  /v1/summary       FleetSummary percentiles per session class
    GET  /v1/manifest      ServiceManifest (every submission accounted)
    GET  /v1/metrics       obs MetricsRegistry snapshot, plus the
                           queue's service.queue.records_read and
                           service.queue.file_ops.<op> counters
    POST /v1/drain         stop accepting, finish the backlog
    POST /v1/shutdown      drain bypass: write the manifest and exit

Execution model: each of ``service_workers`` dispatcher tasks claims up
to ``batch_size`` jobs (CAS, priority order), heartbeats their leases,
and runs the batch via ``run_grid`` in a thread-pool executor under the
daemon's shared result/stream caches.  Failures feed the queue's
requeue/quarantine path — a failed cell, and every job of a batch that
raised as a whole (counted in ``service.batch_errors``; the dispatcher
keeps running) — and a reaper task releases the leases of silent
workers.  Observability: per-session spans land in the runner trace
directory when the :class:`~repro.sim.runner.RunnerOptions` asks for
tracing, and the daemon's :class:`~repro.obs.metrics.MetricsRegistry` tracks
queue depth, claims, completions and per-session latency.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.service.queue import ClaimLost, JobQueue, QueueFull
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    FleetSummary,
    JobStatus,
    JobSubmit,
    ServiceManifest,
    SessionResult,
    WireFormatError,
)
from repro.sim.runner import (
    JobFailure,
    JobResult,
    JobSpec,
    RunnerOptions,
    run_grid,
)

#: Default TCP port of the local service (0 = ephemeral).
DEFAULT_PORT = 8753

#: File name of the durable accounting manifest inside the queue dir.
SERVICE_MANIFEST_NAME = "service_manifest.json"

_MAX_BODY_BYTES = 64 * 1024 * 1024
_HTTP_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceError(Exception):
    """An HTTP-mapped request failure."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to run one daemon.

    Attributes:
        queue_dir: the persistent queue directory (jobs survive
            restarts; reopen the same directory to resume).
        host, port: listen address; port 0 binds an ephemeral port
            (the bound port is reported by :attr:`EncodeDaemon.port`).
        runner: execution options shared with the batch CLI verbs,
            handed to ``run_grid`` unchanged for every batch — worker
            count, caches, retries, timeouts, tracing and the fault
            plan.  What a session computes (rate control, scenario
            pack, ...) rides on each submitted ``JobSpec``.  Leave its
            ``manifest_path`` unset: the service writes its own
            manifest (``manifest_path`` below).
        service_workers: concurrent dispatcher tasks (each runs one
            claimed batch at a time).
        batch_size: jobs claimed per dispatch; batching feeds the
            ``run_grid`` pool and keeps equal-encode sessions
            together on the stream cache.
        max_pending: queue backlog bound — submissions beyond it get
            HTTP 429 with a Retry-After hint.
        lease_s: claim lease; a worker silent for longer loses its jobs
            to the reaper.
        max_fails: failures (including lease expiries) before a job is
            quarantined.
        poll_s: dispatcher idle poll interval.
        manifest_path: where the durable :class:`ServiceManifest` is
            written on drain/shutdown (default:
            ``<queue_dir>/service_manifest.json``).
    """

    queue_dir: Union[str, Path] = ".repro_service"
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    runner: RunnerOptions = field(default_factory=RunnerOptions)
    service_workers: int = 1
    batch_size: int = 8
    max_pending: int = 1024
    lease_s: float = 30.0
    max_fails: int = 3
    poll_s: float = 0.05
    manifest_path: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.service_workers < 1:
            raise ValueError(
                f"service_workers must be >= 1, got {self.service_workers}"
            )
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

    @property
    def resolved_manifest_path(self) -> Path:
        if self.manifest_path is not None:
            return Path(self.manifest_path)
        return Path(self.queue_dir) / SERVICE_MANIFEST_NAME


class EncodeDaemon:
    """The service instance: queue + dispatchers + HTTP front end."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.queue = JobQueue(
            config.queue_dir,
            max_pending=config.max_pending,
            lease_s=config.lease_s,
            max_fails=config.max_fails,
        )
        self.metrics = MetricsRegistry()
        self.cache = config.runner.build_cache()
        self.stream_cache = config.runner.build_stream_cache(self.cache)
        self.results: dict[str, SessionResult] = {}
        self.started_at = time.time()
        self._draining = False
        self._shutdown = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._port: Optional[int] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=config.service_workers,
            thread_name_prefix="repro-dispatch",
        )

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (valid once :meth:`run` has started)."""
        if self._port is None:
            raise RuntimeError("daemon is not listening yet")
        return self._port

    @property
    def draining(self) -> bool:
        return self._draining

    async def run(
        self, started: Optional[asyncio.Event] = None
    ) -> ServiceManifest:
        """Serve until shutdown; returns the final manifest.

        ``started`` (when given) is set once the socket is bound and
        the dispatchers are live — the thread-spawn helpers and tests
        wait on it instead of polling the port.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        workers = [
            asyncio.create_task(self._dispatcher(f"dispatcher-{i}"))
            for i in range(self.config.service_workers)
        ]
        reaper = asyncio.create_task(self._reaper())
        if started is not None:
            started.set()
        try:
            await self._shutdown.wait()
        finally:
            for task in [*workers, reaper]:
                task.cancel()
            await asyncio.gather(*workers, reaper, return_exceptions=True)
            self._server.close()
            await self._server.wait_closed()
            self._executor.shutdown(wait=False, cancel_futures=True)
        manifest = self.manifest()
        manifest.write(self.config.resolved_manifest_path)
        return manifest

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # -- accounting ---------------------------------------------------------

    def summary(self) -> FleetSummary:
        return FleetSummary.build(
            self.queue.statuses(),
            self.results,
            queue_depth=self.queue.depth(),
            uptime_s=time.time() - self.started_at,
        )

    def manifest(self) -> ServiceManifest:
        return ServiceManifest(
            jobs=tuple(self.queue.statuses()), summary=self.summary()
        )

    # -- dispatch loop ------------------------------------------------------

    async def _dispatcher(self, name: str) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self._draining and self.queue.drained():
                self._shutdown.set()
                return
            batch = self.queue.claim_batch(name, self.config.batch_size)
            self.metrics.gauge("service.queue_depth", self.queue.depth())
            if not batch:
                await asyncio.sleep(self.config.poll_s)
                continue
            self.metrics.inc("service.claims", len(batch))
            heartbeat = asyncio.create_task(
                self._heartbeat(name, [job.job_id for job in batch])
            )
            try:
                outcomes = await loop.run_in_executor(
                    self._executor, self._execute_batch, batch
                )
            except Exception as error:  # noqa: BLE001 - keep dispatching
                # Cell errors come back as JobFailure outcomes; this is
                # the batch itself raising (a result-cache write, say).
                # Fail every job so the queue requeues or quarantines it.
                self.metrics.inc("service.batch_errors")
                outcomes = [
                    JobFailure(
                        spec=job.submit.spec,
                        error_type=type(error).__name__,
                        message=str(error),
                    )
                    for job in batch
                ]
            finally:
                heartbeat.cancel()
            self._report_batch(name, batch, outcomes)

    async def _heartbeat(self, owner: str, job_ids: list[str]) -> None:
        interval = max(self.config.lease_s / 3.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            for job_id in job_ids:
                self.queue.heartbeat(job_id, owner)

    def _execute_batch(self, batch) -> list[Union[JobResult, JobFailure]]:
        """Run one claimed batch through the shared grid runner.

        Runs in the executor thread.  The daemon's result cache and
        encode-once stream cache are shared across batches, so a
        session whose spec matches previous work is served from cache
        and equal-encode sessions pay for one encode.
        """
        return run_grid(
            [job.submit.spec for job in batch],
            self.config.runner,
            cache=self.cache,
            stream_cache=self.stream_cache,
        )

    def _report_batch(self, owner, batch, outcomes) -> None:
        now = time.time()
        for job, outcome in zip(batch, outcomes):
            try:
                if isinstance(outcome, JobResult):
                    record = self.queue.complete(
                        job.job_id, owner, from_cache=outcome.from_cache
                    )
                    self.results[job.job_id] = SessionResult.from_simulation(
                        job.job_id,
                        job.submit.session_class,
                        outcome.result,
                        wall_time_s=outcome.wall_time_s,
                        latency_s=now - record.submitted_at,
                        attempts=record.attempts,
                        from_cache=outcome.from_cache,
                    )
                    self.metrics.inc("service.completed")
                    self.metrics.observe(
                        "service.session_latency_s",
                        now - record.submitted_at,
                    )
                else:
                    record = self.queue.fail(
                        job.job_id,
                        owner,
                        f"{outcome.error_type}: {outcome.message}",
                    )
                    self.metrics.inc(
                        "service.quarantined"
                        if record.state == "quarantined"
                        else "service.failed"
                    )
            except ClaimLost:
                # The reaper took the lease mid-batch (we looked hung);
                # the job re-runs elsewhere.  Dropping the report is
                # the at-least-once contract.
                self.metrics.inc("service.claims_lost")
        self.metrics.gauge("service.queue_depth", self.queue.depth())

    async def _reaper(self) -> None:
        interval = max(self.config.lease_s / 2.0, 0.1)
        while True:
            await asyncio.sleep(interval)
            released = self.queue.release_stale()
            if released:
                self.metrics.inc("service.stale_releases", len(released))

    # -- HTTP front end -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, headers, body = await self._handle_request(reader)
        except ServiceError as error:
            status = error.status
            headers = dict(error.headers)
            body = _json_bytes(
                {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "error": str(error),
                    "status": error.status,
                }
            )
        except Exception as error:  # noqa: BLE001 - the server must answer
            status = 500
            headers = {}
            body = _json_bytes(
                {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "error": f"{type(error).__name__}: {error}",
                    "status": 500,
                }
            )
        headers.setdefault("Content-Type", "application/json")
        reason = _HTTP_REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        head.extend(f"{k}: {v}" for k, v in headers.items())
        head.append(f"Content-Length: {len(body)}")
        head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ServiceError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise ServiceError(400, f"malformed request line: {request_line!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise ServiceError(413, f"body of {length} bytes is too large")
        if length:
            body = await reader.readexactly(length)
        self.metrics.inc("service.http_requests")
        return self._route(method.upper(), path, body)

    def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        if path == "/v1/health" and method == "GET":
            return 200, {}, _json_bytes(self._health())
        if path == "/v1/jobs" and method == "POST":
            return self._submit(body)
        if path == "/v1/jobs" and method == "GET":
            return (
                200,
                {"Content-Type": "application/x-ndjson"},
                _jsonl_bytes(s.to_json() for s in self.queue.statuses()),
            )
        if path.startswith("/v1/jobs/") and method == "GET":
            return 200, {}, _json_bytes(self._status(path).to_json())
        if path.startswith("/v1/results/") and method == "GET":
            return 200, {}, _json_bytes(self._result(path).to_json())
        if path == "/v1/summary" and method == "GET":
            return 200, {}, _json_bytes(self.summary().to_json())
        if path == "/v1/manifest" and method == "GET":
            return 200, {}, _json_bytes(self.manifest().to_json())
        if path == "/v1/metrics" and method == "GET":
            snapshot = self.metrics.snapshot()
            counters = snapshot["counters"]
            counters["service.queue.records_read"] = self.queue.records_read
            for op, count in self.queue.file_ops.items():
                counters[f"service.queue.file_ops.{op}"] = count
            return (
                200,
                {},
                _json_bytes(
                    {"schema_version": WIRE_SCHEMA_VERSION, **snapshot}
                ),
            )
        if path == "/v1/drain" and method == "POST":
            self._draining = True
            return 202, {}, _json_bytes(self._health())
        if path == "/v1/shutdown" and method == "POST":
            self._draining = True
            self.request_shutdown()
            return 202, {}, _json_bytes(self._health())
        if path.startswith("/v1/"):
            raise ServiceError(
                405 if method not in ("GET", "POST") else 404,
                f"no route for {method} {path}",
            )
        raise ServiceError(404, f"unknown path {path!r} (try /v1/health)")

    def _health(self) -> dict[str, Any]:
        counts = self.queue.counts()
        pending = counts.get("pending", 0)
        running = counts.get("running", 0)
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "ok": True,
            "draining": self._draining,
            "drained": pending + running == 0,
            "queue_depth": pending + running,
            "pending": pending,
            "running": running,
            "counts": counts,
            "uptime_s": time.time() - self.started_at,
            "sessions_completed": len(self.results),
        }

    def _submit(self, body: bytes) -> tuple[int, dict[str, str], bytes]:
        if self._draining:
            raise ServiceError(503, "daemon is draining; submissions closed")
        try:
            record = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(400, f"body is not JSON: {error}")
        try:
            jobs = record["jobs"] if "jobs" in record else [record]
            submits = [(JobSubmit.from_json(job), job) for job in jobs]
        except (WireFormatError, KeyError, TypeError, ValueError) as error:
            raise ServiceError(400, f"bad JobSubmit: {error}")
        job_ids = []
        try:
            for submit, job in submits:
                job_ids.append(self.queue.submit(submit, wire=job).job_id)
        except QueueFull as error:
            response = {
                "schema_version": WIRE_SCHEMA_VERSION,
                "error": str(error),
                "status": 429,
                "job_ids": job_ids,  # accepted before the cap closed
                "retry_after_s": error.retry_after_s,
            }
            return (
                429,
                {"Retry-After": f"{error.retry_after_s:g}"},
                _json_bytes(response),
            )
        self.metrics.inc("service.submitted", len(job_ids))
        self.metrics.gauge("service.queue_depth", self.queue.depth())
        return (
            202,
            {},
            _json_bytes(
                {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "job_ids": job_ids,
                }
            ),
        )

    def _status(self, path: str) -> JobStatus:
        job_id = path.rsplit("/", 1)[1]
        try:
            return self.queue.get(job_id).status()
        except KeyError:
            raise ServiceError(404, f"no such job: {job_id}")

    def _result(self, path: str) -> SessionResult:
        job_id = path.rsplit("/", 1)[1]
        result = self.results.get(job_id)
        if result is not None:
            return result
        try:
            record = self.queue.get(job_id)
        except KeyError:
            raise ServiceError(404, f"no such job: {job_id}")
        if not record.terminal:
            raise ServiceError(
                409, f"job {job_id} is {record.state}; no result yet"
            )
        raise ServiceError(
            404,
            f"job {job_id} finished {record.state} without a result"
            + (f": {record.error}" if record.error else ""),
        )


def _json_bytes(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def _jsonl_bytes(records: Iterable[dict]) -> bytes:
    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def serve(config: ServiceConfig) -> ServiceManifest:
    """Run a daemon in this thread until shutdown (the CLI entry point)."""
    daemon = EncodeDaemon(config)
    return asyncio.run(daemon.run())


class DaemonHandle:
    """A daemon running on a background thread (tests and benchmarks).

    Use as a context manager::

        with start_daemon(ServiceConfig(queue_dir=tmp)) as handle:
            client = ServiceClient(handle.url)
            ...

    ``stop()`` requests shutdown and joins the thread; the final
    :class:`ServiceManifest` is available as ``handle.manifest``
    afterwards.
    """

    def __init__(self, config: ServiceConfig) -> None:
        import threading

        self.daemon = EncodeDaemon(config)
        self.manifest: Optional[ServiceManifest] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("daemon failed to start within 30s")

    def _run(self) -> None:
        async def main() -> None:
            started = asyncio.Event()
            waiter = asyncio.create_task(started.wait())
            runner = asyncio.create_task(self.daemon.run(started))
            await waiter
            self._loop = asyncio.get_running_loop()
            self._started.set()
            self.manifest = await runner

        try:
            asyncio.run(main())
        except Exception:
            self._started.set()  # unblock the constructor; url will raise
            raise

    @property
    def url(self) -> str:
        return f"http://{self.daemon.config.host}:{self.daemon.port}"

    def stop(self, timeout: float = 30.0) -> Optional[ServiceManifest]:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.daemon.request_shutdown)
        self._thread.join(timeout=timeout)
        return self.manifest

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_daemon(config: ServiceConfig) -> DaemonHandle:
    """Start a daemon on a background thread; returns its handle."""
    return DaemonHandle(config)
