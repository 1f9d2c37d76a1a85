"""Synchronous client for the encode daemon's HTTP+JSONL API.

Stdlib-only (``http.client``), because the daemon is a local loopback
service and the container bakes in no HTTP dependencies.  The client
speaks the same schema-versioned wire records as the daemon — every
response passes through the :mod:`repro.service.wire` loaders, so a
version drift surfaces as a :class:`WireFormatError`, not a KeyError
three frames later.

Backpressure contract: ``submit`` retries an HTTP 429 response after
the server's ``Retry-After`` hint (bounded by ``max_wait_s``); any
other non-2xx status raises :class:`ServiceClientError` carrying the
status code and the server's error message.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Any, Iterable, Optional, Sequence, Union

from repro.service.wire import (
    FleetSummary,
    JobStatus,
    JobSubmit,
    ServiceManifest,
    SessionResult,
)


class ServiceClientError(Exception):
    """A request the daemon rejected (or could not be reached)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceBusy(ServiceClientError):
    """Backpressure (HTTP 429) that outlived the retry budget."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(429, message)
        self.retry_after_s = retry_after_s


class ServiceClient:
    """Talk to one daemon at ``url`` (e.g. ``http://127.0.0.1:8753``)."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        netloc = parsed.netloc or parsed.path
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 80
        self.timeout = timeout

    # -- transport ----------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict[str, str], bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            connection.request(
                method,
                path,
                body=payload,
                headers={"Content-Type": "application/json"}
                if payload
                else {},
            )
            response = connection.getresponse()
            data = response.read()
            headers = {k.lower(): v for k, v in response.getheaders()}
            return response.status, headers, data
        except (ConnectionError, OSError) as error:
            raise ServiceClientError(
                0, f"cannot reach daemon at {self.host}:{self.port}: {error}"
            )
        finally:
            connection.close()

    def _json(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict[str, Any]:
        status, _headers, data = self._request(method, path, body)
        record = _decode(status, data)
        if status >= 400:
            raise ServiceClientError(
                status, record.get("error", data.decode("utf-8", "replace"))
            )
        return record

    # -- API ----------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._json("GET", "/v1/health")

    def submit(
        self,
        jobs: Union[JobSubmit, Sequence[JobSubmit]],
        *,
        max_wait_s: float = 60.0,
    ) -> list[str]:
        """Enqueue jobs; returns their ids in submission order.

        Splits nothing: the whole request is retried on 429 minus the
        jobs the server already accepted (their ids come back in the
        429 body), so a half-accepted batch is not double-submitted.
        """
        if isinstance(jobs, JobSubmit):
            pending = [jobs]
        else:
            pending = list(jobs)
        accepted: list[str] = []
        deadline = time.monotonic() + max_wait_s
        while pending:
            body = {"jobs": [j.to_json() for j in pending]}
            status, headers, data = self._request("POST", "/v1/jobs", body)
            record = _decode(status, data)
            if status == 429:
                taken = len(record.get("job_ids", []))
                accepted.extend(record.get("job_ids", []))
                pending = pending[taken:]
                retry_after = float(
                    headers.get(
                        "retry-after", record.get("retry_after_s", 1.0)
                    )
                )
                if time.monotonic() + retry_after > deadline:
                    raise ServiceBusy(
                        f"queue full; {len(pending)} jobs still unsubmitted "
                        f"after {max_wait_s:g}s",
                        retry_after,
                    )
                time.sleep(retry_after)
                continue
            if status >= 400:
                raise ServiceClientError(
                    status,
                    record.get("error", data.decode("utf-8", "replace")),
                )
            accepted.extend(record["job_ids"])
            pending = []
        return accepted

    def status(self, job_id: str) -> JobStatus:
        return JobStatus.from_json(self._json("GET", f"/v1/jobs/{job_id}"))

    def jobs(self) -> list[JobStatus]:
        status, _headers, data = self._request("GET", "/v1/jobs")
        if status >= 400:
            record = _decode(status, data)
            raise ServiceClientError(status, record.get("error", ""))
        return [
            JobStatus.from_json(json.loads(line))
            for line in data.decode("utf-8").splitlines()
            if line.strip()
        ]

    def result(self, job_id: str) -> SessionResult:
        return SessionResult.from_json(
            self._json("GET", f"/v1/results/{job_id}")
        )

    def summary(self) -> FleetSummary:
        return FleetSummary.from_json(self._json("GET", "/v1/summary"))

    def manifest(self) -> ServiceManifest:
        return ServiceManifest.from_json(self._json("GET", "/v1/manifest"))

    def metrics(self) -> dict[str, Any]:
        return self._json("GET", "/v1/metrics")

    def drain(self) -> dict[str, Any]:
        return self._json("POST", "/v1/drain")

    def shutdown(self) -> dict[str, Any]:
        return self._json("POST", "/v1/shutdown")

    def wait(
        self,
        job_ids: Iterable[str],
        *,
        timeout: float = 300.0,
        poll_s: float = 0.1,
    ) -> dict[str, JobStatus]:
        """Poll until every job is terminal; returns id → final status.

        A cursor walks the ids in order with one :meth:`status` call
        each and stops at the first job that is not terminal; the next
        poll resumes there, because a terminal job stays terminal.  So
        a poll costs the daemon a record read or two, never a listing
        of every job.  Raises :class:`TimeoutError` naming the
        unfinished jobs if the deadline passes first.
        """
        waiting = list(dict.fromkeys(job_ids))
        done: dict[str, JobStatus] = {}
        deadline = time.monotonic() + timeout
        position = 0
        while position < len(waiting):
            status = self.status(waiting[position])
            if status.terminal:
                done[status.job_id] = status
                position += 1
                continue
            if time.monotonic() > deadline:
                unfinished = waiting[position:]
                raise TimeoutError(
                    f"{len(unfinished)} jobs still not terminal after "
                    f"{timeout:g}s: {unfinished[:5]}"
                )
            time.sleep(poll_s)
        return done


def _decode(status: int, data: bytes) -> dict[str, Any]:
    try:
        record = json.loads(data.decode("utf-8")) if data else {}
    except (UnicodeDecodeError, json.JSONDecodeError):
        record = {}
    if not isinstance(record, dict):
        record = {"value": record}
    return record
