"""The Python client: ``TrainingService``'s verb surface over a socket.

:class:`ServiceClient` speaks ``repro-api/v2`` to a
:class:`~repro.api.server.ServiceApiServer` over the standard library's
``http.client`` — the same zero-dependency discipline as the server.
Verbs mirror the in-process service and return the same
:class:`~repro.service.registry.JobRecord` type, decoded from the wire:

>>> client = ServiceClient("http://127.0.0.1:8321", token="alice-token")
>>> record = client.submit("alice", "ratings", LogisticLoss(1e-3),
...                        epsilon=0.1, passes=5, batch_size=50, seed=7)
>>> record = client.wait(record.job_id)   # poll until terminal
>>> client.model(record.job_id)           # bitwise-equal to in-process

Each calling thread keeps one persistent HTTP/1.1 connection per client,
opened on its first call and closed when the thread ends (or at
:meth:`ServiceClient.close`), so a tenant pays for the TCP connect once
per connection, not once per request.

Faults come back as the **same exception classes** the in-process verbs
raise: the server serializes each :class:`~repro.service.errors
.ServiceError` to its stable ``code``, and the client rebuilds the
class from the code (``except UnknownJob`` works on either side of the
socket). HTTP-level faults are definitive and never retried (the server
*answered*; asking again won't change its mind). A kept-alive
connection the server already closed is reopened and the request resent
once, at once; any other transport failure — connection refused, a
timeout, a torn response — retries ``retries`` times with exponential
backoff before surfacing as :class:`ApiUnreachable`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import urlsplit

import numpy as np

from repro.api import wire
from repro.obs.trace import JobTrace
from repro.optim.losses import Loss
from repro.service.errors import NotCancellable, ServiceError, error_for_code
from repro.service.jobs import JobStatus
from repro.service.ledger import AccountStatement
from repro.service.registry import JobRecord


class ApiUnreachable(ServiceError):
    """The server could not be reached (after the configured retries)."""

    code = "unreachable"
    http_status = 503


#: A kept-alive connection that fails this way before any response byte
#: arrives was most likely closed by the server while idle, so the
#: request is resent at once on a fresh one. (Had a handler admitted a
#: submit and then lost its answer, the resend is a twin: see
#: :class:`ServiceClient`.) ``RemoteDisconnected`` is a
#: ``ConnectionResetError``; it is named for the reader.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class _ThreadConnection(http.client.HTTPConnection):
    """One thread's kept-alive connection. Only the thread's local
    storage holds it, so it closes when that thread ends."""

    def __del__(self) -> None:
        self.close()


class ServiceClient:
    """A thin, synchronous ``repro-api/v2`` client.

    ``timeout`` is per-request (seconds); ``retries`` counts *additional*
    attempts after a transport failure, spaced ``backoff * 2**attempt``
    seconds apart. The one immediate resend on a kept-alive connection
    the server already closed does not count against ``retries``.

    Retrying a read is safe, and so is retrying a submit: if the first
    attempt was admitted before its response was lost, the resend is an
    identical job — a *twin* — which the service serves from the first
    job's release without a second reservation (from the result cache
    once the first has completed, by attaching to it while it is queued
    or running). The exception is a job with no cache key — a loss
    without a hashable identity, or a table without a content
    fingerprint: its resend is admitted as a second job with its own
    reservation.

    Connections are per thread: each calling thread gets its own,
    opened on first use and closed when the thread ends. :meth:`close`
    (or leaving a ``with ServiceClient(...)`` block) closes every
    connection the client opened, on any thread; the client stays
    usable and reconnects on its next call.
    """

    def __init__(
        self,
        base_url: str,
        token: Optional[str] = None,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(
                f"base_url must be an http://host[:port] URL, got {base_url!r}"
            )
        self._host, self._port, self._prefix = split.hostname, split.port, split.path
        self.token = token
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._local = threading.local()
        # Every connection this client opened, held weakly: a finished
        # thread's connection must close with the thread, not live on
        # here until close().
        self._connections: "weakref.WeakSet[_ThreadConnection]" = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every connection this client opened, on any thread."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the verb surface --------------------------------------------------------

    def submit(
        self,
        principal: str,
        table: str,
        loss: Loss,
        *,
        epsilon: float,
        delta: float = 0.0,
        passes: int = 1,
        batch_size: int = 50,
        eta: Optional[float] = None,
        radius: Optional[float] = None,
        priority: int = 0,
        seed: int = 0,
    ) -> JobRecord:
        """``TrainingService.submit`` over the wire; returns the admitted
        job's record immediately (QUEUED, COMPLETED-from-cache, or
        REJECTED — never blocks on a scan)."""
        request = wire.SubmitRequest(
            principal=principal,
            table=table,
            loss=loss,
            epsilon=epsilon,
            delta=delta,
            passes=passes,
            batch_size=batch_size,
            eta=eta,
            radius=radius,
            priority=priority,
            seed=seed,
        )
        payload = self._call("POST", "/v1/jobs", body=request.to_payload())
        return JobRecord.from_payload(payload["job"])

    def result(self, job_id: str) -> JobRecord:
        """One job's full record, as the server saw it (live status — a
        queued job says so).

        The record is a copy, decoded from the wire: it is done only if
        its status is terminal, and it never changes afterwards. On a
        copy that is not done, ``record.wait()`` can only time out — poll
        with :meth:`wait` instead.
        """
        payload = self._call("GET", f"/v1/jobs/{job_id}")
        return JobRecord.from_payload(payload["job"])

    def status(self, job_id: str) -> JobStatus:
        return self.result(job_id).status

    def model(self, job_id: str) -> np.ndarray:
        """The released weights — bitwise-equal to the array
        ``TrainingService.model`` returns in process."""
        payload = self._call("GET", f"/v1/jobs/{job_id}/model")
        return np.asarray(payload["model"], dtype=np.float64)

    def trace(self, job_id: str) -> JobTrace:
        payload = self._call("GET", f"/v1/jobs/{job_id}/trace")
        return JobTrace.from_payload(payload["trace"])

    def cancel(self, job_id: str) -> bool:
        """Same contract as ``TrainingService.cancel``: ``True`` when the
        queued job was cancelled, ``False`` once it is uncancellable
        (the server's 409 ``not_cancellable`` maps back to ``False``)."""
        try:
            payload = self._call("POST", f"/v1/jobs/{job_id}/cancel")
        except NotCancellable:
            return False
        return bool(payload.get("cancelled", False))

    def budgets(self) -> List[AccountStatement]:
        """Every account's statement, as the same ``AccountStatement``
        objects the in-process verb returns."""
        payload = self._call("GET", "/v1/budgets")
        return [AccountStatement.from_payload(entry) for entry in payload["budgets"]]

    def health(self) -> Dict[str, object]:
        """``TrainingService.health()``'s dict (``/v1/healthz`` is the
        one unauthenticated endpoint — probes don't carry tokens)."""
        payload = self._call("GET", "/v1/healthz", auth=False)
        del payload["api"]
        return payload

    def metrics(self, format: str = "prometheus") -> Union[str, dict]:
        """The metrics exposition: Prometheus text or the JSON document."""
        if format not in ("prometheus", "json"):
            raise ValueError(
                f"unknown metrics format {format!r}: use 'prometheus' or 'json'"
            )
        raw = self._call_raw("GET", f"/v1/metrics?format={format}")
        if format == "json":
            return json.loads(raw.decode("utf-8"))
        return raw.decode("utf-8")

    def shutdown(self) -> None:
        """``POST /v1/admin/shutdown`` — requires this client's token to
        be the server's admin token."""
        self._call("POST", "/v1/admin/shutdown")

    # -- polling -----------------------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_seconds: float = 0.02,
    ) -> JobRecord:
        """Poll until the job is terminal; the remote stand-in for
        ``record.wait()``. Returns the final record; raises
        :class:`TimeoutError` if ``timeout`` expires first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.result(job_id)
            if record.done:
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id!r} still {record.status} after {timeout}s"
                )
            time.sleep(poll_seconds)

    # -- transport ---------------------------------------------------------------

    def _call(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        *,
        auth: bool = True,
    ) -> dict:
        raw = self._call_raw(method, path, body, auth=auth)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"server returned non-JSON body for {method} {path}: {error}"
            ) from None
        return wire.check_envelope(payload)

    def _call_raw(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        *,
        auth: bool = True,
    ) -> bytes:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if auth and self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                status, reason, raw = self._exchange(
                    method, self._prefix + path, data, headers
                )
            except (OSError, http.client.HTTPException) as error:
                last_error = error
                if attempt < self.retries:
                    time.sleep(self.backoff * (2.0**attempt))
                continue
            if status >= 400:
                # The server answered: decode its fault envelope into the
                # taxonomy exception it names. Definitive — never retried.
                raise self._decode_fault(status, reason, raw)
            return raw
        raise ApiUnreachable(
            f"{method} {self.base_url + path} failed after "
            f"{self.retries + 1} attempt(s): {last_error}"
        ) from last_error

    def _exchange(
        self, method: str, target: str, data: Optional[bytes], headers: dict
    ) -> Tuple[int, str, bytes]:
        """One request and its whole response on this thread's connection.

        A reused connection that fails before any response byte arrives
        (:data:`_STALE`) is reopened and the request resent once, at
        once. Any other failure closes the connection, since its state is
        unknown, and propagates.
        """
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            except _STALE:
                if not reused:
                    raise
                connection.close()
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            return response.status, response.reason, response.read()
        except BaseException:
            connection.close()
            raise

    def _connection(self) -> _ThreadConnection:
        """This thread's connection (opened lazily: ``http.client``
        connects on the first request and after every close)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _ThreadConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    @staticmethod
    def _decode_fault(status: int, reason: str, raw: bytes) -> Exception:
        try:
            fault = json.loads(raw.decode("utf-8"))["error"]
            return error_for_code(fault["code"], fault["message"])
        except Exception:
            return ServiceError(f"HTTP {status}: {reason}")
