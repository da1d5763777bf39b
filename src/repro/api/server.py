"""The HTTP front-end: ``repro-api/v2`` over a stdlib threading server.

:class:`ServiceApiServer` wraps one :class:`~repro.service.TrainingService`
behind ``http.server.ThreadingHTTPServer`` (no dependencies beyond the
standard library) and serves the verb surface:

====== ============================ ====================================
Method Path                         Verb
====== ============================ ====================================
POST   ``/v1/jobs``                 ``submit()`` — returns the job
                                    record envelope immediately (rides
                                    the sub-ms async admission path)
GET    ``/v1/jobs/{id}``            ``result()`` — the record payload
GET    ``/v1/jobs/{id}/model``      ``model()`` — exact float64 weights
GET    ``/v1/jobs/{id}/trace``      ``trace()`` — lifecycle spans
POST   ``/v1/jobs/{id}/cancel``     ``cancel()``
GET    ``/v1/budgets``              ``budgets()``
GET    ``/v1/metrics``              ``metrics()`` — Prometheus text, or
                                    JSON via ``Accept`` / ``?format=``
GET    ``/v1/healthz``              ``health()`` (unauthenticated)
POST   ``/v1/admin/shutdown``       graceful stop (admin token only)
====== ============================ ====================================

**Auth.** Every endpoint except ``/v1/healthz`` requires
``Authorization: Bearer <token>``; the server's token map assigns each
token a principal, and a submit whose body names a *different*
principal is rejected (403 ``principal_mismatch``) — budget identity is
enforced at the edge, before the ledger ever sees the job. The job
routes answer only the principal that submitted the job: any other
token gets 404 ``unknown_job``, as for an id that does not exist.

**Errors.** Any :class:`~repro.service.errors.ServiceError` a verb
raises maps 1:1 onto the fault envelope ``{"error": {"code",
"message"}}`` with the class's HTTP status; bare ``KeyError`` /
``ValueError`` from pre-taxonomy corners degrade to ``not_found`` /
``invalid_request``. The client rebuilds the same exception classes
from the codes, so both transports fail identically.

**Connections.** The server speaks HTTP/1.1 with keep-alive: a client
sends request after request on one TCP connection, and the server holds
one handler thread per open connection. A connection idle for
``IDLE_TIMEOUT_SECONDS`` is closed. Every response leaves the
connection at a request boundary: the declared body is read before any
route answers, and a body whose framing cannot be trusted gets a 400
with ``Connection: close``. A request the stdlib parser refuses (a bad
request line or version, an overlong line, too many headers, a method
other than GET and POST) gets the fault envelope too, with
``Connection: close``. Each response leaves in one socket write, and
the response is on the wire before any worker the request woke (a
submit that queued a job, a cancel that re-queued a twin) is woken:
the woken worker's scan would otherwise hold the interpreter lock
while the response waits. :meth:`ServiceApiServer.close` owns the
connections: a request in progress gets its response, then every
connection is shut down and its thread returns.

**Telemetry.** Requests tick ``repro_http_requests_total{method,route,
status}`` and observe ``repro_http_request_seconds{route}`` (once the
response is written) in the service's own metrics registry — route
labels are the *patterns* (``/v1/jobs/{id}``), never raw paths, so
cardinality stays bounded; a refused request counts with method and
route ``(unparsed)``. Connections tick ``repro_http_connections_total``
when accepted and ``repro_http_open_connections`` while open.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api import wire
from repro.service.errors import (
    NotCancellable,
    PrincipalMismatch,
    ServiceError,
    Unauthorized,
    UnknownJob,
)
from repro.service.registry import JobRecord
from repro.service.server import TrainingService

#: Max accepted request-body size (a submit payload is a few KB; nothing
#: on this API legitimately streams megabytes at the server).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle between requests before
#: the server closes it and its handler thread returns.
IDLE_TIMEOUT_SECONDS = 30.0

#: Seconds :meth:`ServiceApiServer.close` lets requests in progress
#: finish before it cuts their connections too.
_CLOSE_GRACE_SECONDS = 5.0

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9._:-]+)(/model|/trace|/cancel)?$")


class ServiceApiServer:
    """One training service, one listening socket, many tenant tokens.

    ``tokens`` maps bearer token → principal. ``admin_token`` (optional,
    and deliberately not in the tenant map unless you put it there)
    guards ``POST /v1/admin/shutdown``. ``port=0`` binds an ephemeral
    port — read :attr:`port` / :attr:`url` after construction.
    """

    def __init__(
        self,
        service: TrainingService,
        tokens: Mapping[str, str],
        *,
        admin_token: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.tokens: Dict[str, str] = dict(tokens)
        self.admin_token = admin_token
        #: Set once a graceful stop was requested (admin endpoint or
        #: :meth:`request_shutdown`); the CLI's hold loop waits on it.
        self.shutdown_requested = threading.Event()
        self._thread: Optional[threading.Thread] = None
        reg = service.metrics_registry
        self._requests_total = reg.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, route pattern, and status.",
            ("method", "route", "status"),
        )
        self._request_seconds = reg.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency, by route pattern.",
            ("route",),
        )
        self._connections_total = reg.counter(
            "repro_http_connections_total",
            "HTTP connections accepted (each holds one handler thread).",
        )
        self._open_connections = reg.gauge(
            "repro_http_open_connections", "HTTP connections open right now."
        )
        # Open connections -> whether a request is being handled on it.
        # Set to closing once serve_forever has stopped: from then on no
        # connection takes a new request. The stdlib joins no daemon
        # handler thread, so close() joins the ones still returning from
        # a closed connection.
        self._connections: Dict[_ApiHandler, bool] = {}
        self._connections_changed = threading.Condition()
        self._closing = False
        self._exiting: List[threading.Thread] = []
        api = self

        class _Handler(_ApiHandler):
            server_api = api

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True

    # -- lifecycle ---------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceApiServer":
        """Serve on a daemon thread; returns self (``.url`` is live)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-api",
                daemon=True,
            )
            self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Flag a graceful stop and stop serving without blocking the
        calling (request) thread; :meth:`close` finishes the job."""
        if self.shutdown_requested.is_set():
            return
        self.shutdown_requested.set()
        threading.Thread(target=self._stop_serving, daemon=True).start()

    def close(self) -> None:
        """Stop serving, close every connection and release the socket
        (idempotent).

        A request already being handled gets its response first, sent
        with ``Connection: close``; an idle kept-alive connection is shut
        down at once, and a request still running after a few seconds
        has its connection cut too. ``close`` returns once every handler
        thread has returned, so no connection outlives the server.
        """
        self.shutdown_requested.set()
        self._stop_serving()
        with self._connections_changed:
            wait = self._connections_changed.wait_for
            if not wait(self._all_closed, _CLOSE_GRACE_SECONDS):
                for handler in self._connections:
                    _shut(handler.connection)
                wait(self._all_closed, _CLOSE_GRACE_SECONDS)
            exiting, self._exiting = self._exiting, []
        for thread in exiting:
            thread.join(timeout=_CLOSE_GRACE_SECONDS)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _stop_serving(self) -> None:
        """Stop accepting, take no new request on any open connection,
        and shut down the idle ones so their threads return."""
        if self._thread is not None:
            self._httpd.shutdown()
        with self._connections_changed:
            self._closing = True
            for handler, busy in self._connections.items():
                if not busy:
                    _shut(handler.connection)

    # -- connections (called from the handler threads) ---------------------------

    def _all_closed(self) -> bool:
        return not self._connections

    def _opened(self, handler: "_ApiHandler") -> None:
        with self._connections_changed:
            self._connections[handler] = False
            self._connections_total.inc()
            self._open_connections.inc()
            if self._closing:
                _shut(handler.connection)

    def _begin_request(self, handler: "_ApiHandler") -> bool:
        """Mark a connection busy; ``False`` once the server is closing."""
        with self._connections_changed:
            if self._closing:
                return False
            self._connections[handler] = True
            return True

    def _end_request(self, handler: "_ApiHandler") -> bool:
        """Mark a connection idle; ``False`` when it must close instead."""
        with self._connections_changed:
            self._connections[handler] = False
            return not self._closing

    def _closed(self, handler: "_ApiHandler") -> None:
        with self._connections_changed:
            del self._connections[handler]
            self._open_connections.inc(-1)
            self._exiting = [t for t in self._exiting if t.is_alive()]
            self._exiting.append(threading.current_thread())
            self._connections_changed.notify_all()

    def __enter__(self) -> "ServiceApiServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def _shut(connection: socket.socket) -> None:
    """Shut a connection down both ways: a handler blocked reading it
    sees end-of-file and returns."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already gone


class _ApiHandler(BaseHTTPRequestHandler):
    """One connection's thread: route, authenticate, dispatch and
    envelope each request on it, one at a time, until the client closes
    the connection, it idles past ``IDLE_TIMEOUT_SECONDS``, or the
    server closes."""

    server_api: ServiceApiServer  # installed by ServiceApiServer

    protocol_version = "HTTP/1.1"
    # A response leaves in one send. Nagle stays off all the same: with
    # it on, a send shorter than a segment can wait ~40 ms for the
    # client's delayed ACK of what went before it (the stdlib's interim
    # "100 Continue", or the full segments of a long response).
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_SECONDS

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics registry's job

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    # -- the connection ----------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.server_api._opened(self)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server_api._closed(self)

    def handle_one_request(self) -> None:
        # A worker this request wakes (a submit that queued a job, a
        # cancel that re-queued a twin) is woken only once the response
        # has been written: on a host with few cores the woken worker's
        # scan holds the interpreter lock, and the response would wait
        # behind it. The wake is sent however the request ends.
        with self.server_api.service.loop.holding_wakes():
            try:
                super().handle_one_request()
            except ConnectionError:
                self.close_connection = True  # the client went away
            finally:
                if not self.server_api._end_request(self):
                    self.close_connection = True

    def parse_request(self) -> bool:
        # A request line has arrived: the connection is busy until the
        # response is out. Once the server is closing, the request is
        # dropped unread and the connection closes.
        if not self.server_api._begin_request(self):
            self.close_connection = True
            return False
        return super().parse_request()

    # -- plumbing ----------------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        route = "(unmatched)"
        try:
            self._body = self._take_body(method)
            route, status, body, content_type = self._route(method)
        except ServiceError as error:
            status, body, content_type = self._fault(error.http_status, error.code, error)
        except KeyError as error:
            message = error.args[0] if error.args else str(error)
            status, body, content_type = self._fault(404, "not_found", message)
        except ValueError as error:
            status, body, content_type = self._fault(400, "invalid_request", error)
        except Exception as error:  # pragma: no cover - defensive
            status, body, content_type = self._fault(500, "internal", error)
        self._respond(status, body, content_type)
        api = self.server_api
        api._requests_total.inc(
            method=method, route=route, status=str(status)
        )
        api._request_seconds.observe(time.perf_counter() - started, route=route)

    def send_error(self, code, message=None, explain=None):
        """Refuse a request the stdlib parser rejected (a bad request
        line or version, an overlong line, too many headers, a method
        with no ``do_`` handler) with the fault envelope, and close.

        The stdlib answers these with an HTML page; here they get the
        JSON every other fault gets: ``invalid_request`` at the parser's
        status, or 405 ``method_not_allowed`` for a method the API does
        not serve. They are counted with both labels ``(unparsed)``: the
        request line may be arbitrary text, so neither label may echo it.
        """
        # The parser passes HTTPStatus members, whose str() is the name
        # ("HTTPStatus.BAD_REQUEST"), not the number, before Python 3.11.
        code = int(code)
        self.close_connection = True
        if code == HTTPStatus.NOT_IMPLEMENTED:
            status, body, content_type = self._fault(
                405, "method_not_allowed",
                f"unsupported method {self.command!r}: this API serves GET and POST",
            )
        else:
            reason = message or self.responses.get(code, ("",))[0]
            status, body, content_type = self._fault(
                code, "invalid_request", f"{reason}: {explain}" if explain else reason
            )
        self._respond(status, body, content_type)
        self.server_api._requests_total.inc(
            method="(unparsed)", route="(unparsed)", status=str(status)
        )

    def _respond(self, status: int, body: bytes, content_type: str) -> None:
        """Send one response in one write. ``wfile`` is unbuffered (the
        stdlib's ``wbufsize = 0``), so head and body leave in one
        ``sendall``: the client never waits on a second send that
        another thread could delay.

        The head is built here because the stdlib's ``end_headers``
        writes it on its own, and ``send_response`` writes none at all
        for a request refused before its version was parsed. A buffered
        ``wfile`` would join head and body as well, but it would hold
        the interim ``100 Continue`` back until the final answer, and
        re-raise a hung-up client's broken pipe when the connection
        closes."""
        if self.server_api._closing:
            self.close_connection = True
        head = [
            f"{self.protocol_version} {status} "
            f"{self.responses.get(status, ('',))[0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if self.close_connection:
            head.append("Connection: close")
        head.append("\r\n")
        try:
            self.wfile.write("\r\n".join(head).encode("latin-1") + body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            self.close_connection = True  # client went away mid-response

    @staticmethod
    def _fault(status: int, code: str, message) -> Tuple[int, bytes, str]:
        body = json.dumps(
            wire.error_envelope(code, str(message)), sort_keys=True
        ).encode("utf-8")
        return status, body, "application/json"

    def _json(self, status: int, payload: dict) -> Tuple[int, bytes, str]:
        body = (
            json.dumps(wire.envelope(payload), sort_keys=True) + "\n"
        ).encode("utf-8")
        return status, body, "application/json"

    def _take_body(self, method: str) -> bytes:
        """Read the declared body off the socket before any route
        answers, so every response leaves the connection at a request
        boundary (an unread body would parse as the next request line).

        A body whose framing cannot be trusted — chunked, or a POST whose
        ``Content-Length`` is missing, negative, unparseable or over
        ``MAX_BODY_BYTES`` — is not read at all: the answer is a 400 and
        the connection closes.
        """
        declared = self.headers.get("Content-Length")
        if declared is None:
            length = -1 if method == "POST" else 0
        else:
            length = int(declared) if declared.strip().isdecimal() else -1
        if "Transfer-Encoding" in self.headers or not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            raise ValueError(
                "a request body needs a Content-Length of at most "
                f"{MAX_BODY_BYTES} bytes (got {declared!r})"
            )
        return self.rfile.read(length) if length else b""

    def _json_body(self) -> dict:
        raw = self._body
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"request body is not JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _bearer_token(self) -> Optional[str]:
        header = self.headers.get("Authorization") or ""
        scheme, _, token = header.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            return None
        return token.strip()

    def _principal(self) -> str:
        """The token-authenticated principal, or 401."""
        token = self._bearer_token()
        if token is None:
            raise Unauthorized(
                "missing bearer token: send 'Authorization: Bearer <token>'"
            )
        principal = self.server_api.tokens.get(token)
        if principal is None:
            raise Unauthorized("unknown bearer token")
        return principal

    # -- routing -----------------------------------------------------------------

    def _route(self, method: str) -> Tuple[str, int, bytes, str]:
        split = urlsplit(self.path)
        path, query = split.path, parse_qs(split.query)
        service = self.server_api.service

        if path == "/v1/healthz":
            self._expect(method, "GET")
            return ("/v1/healthz", *self._json(200, service.health()))

        if path == "/v1/admin/shutdown":
            self._expect(method, "POST")
            return ("/v1/admin/shutdown", *self._admin_shutdown())

        if path == "/v1/metrics":
            self._expect(method, "GET")
            return ("/v1/metrics", *self._metrics(query))

        if path == "/v1/budgets":
            self._expect(method, "GET")
            self._principal()
            budgets = [statement.payload() for statement in service.budgets()]
            return ("/v1/budgets", *self._json(200, {"budgets": budgets}))

        if path == "/v1/jobs":
            self._expect(method, "POST")
            return ("/v1/jobs", *self._submit())

        match = _JOB_PATH.match(path)
        if match:
            job_id, leaf = match.group(1), match.group(2) or ""
            route = f"/v1/jobs/{{id}}{leaf}"
            self._expect(method, "POST" if leaf == "/cancel" else "GET")
            record = self._own_record(job_id)
            if leaf == "/cancel":
                return (route, *self._cancel(job_id))
            if leaf == "/model":
                payload = {
                    "job_id": job_id,
                    "model": service.model(job_id).tolist(),
                }
                return (route, *self._json(200, payload))
            if leaf == "/trace":
                payload = {"job_id": job_id, "trace": record.trace.payload()}
                return (route, *self._json(200, payload))
            return (route, *self._json(200, {"job": record.payload()}))

        raise ServiceApiError(404, "unknown_route", f"no such endpoint: {path}")

    @staticmethod
    def _expect(method: str, allowed: str) -> None:
        if method != allowed:
            raise ServiceApiError(
                405, "method_not_allowed", f"use {allowed} on this endpoint"
            )

    # -- endpoint bodies ---------------------------------------------------------

    def _submit(self) -> Tuple[int, bytes, str]:
        principal = self._principal()
        try:
            request = wire.SubmitRequest.from_payload(self._json_body())
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed submit payload: {error}") from None
        if request.principal != principal:
            raise PrincipalMismatch(
                f"token authenticates {principal!r} but the submit names "
                f"principal {request.principal!r}; budgets are charged to "
                "the authenticated principal only"
            )
        record = self.server_api.service.submit(
            request.principal,
            request.table,
            request.loss,
            epsilon=request.epsilon,
            delta=request.delta,
            passes=request.passes,
            batch_size=request.batch_size,
            eta=request.eta,
            radius=request.radius,
            priority=request.priority,
            seed=request.seed,
        )
        return self._json(200, {"job": record.payload()})

    def _own_record(self, job_id: str) -> JobRecord:
        """The record of ``job_id`` if the token's principal submitted it.

        Another tenant gets ``unknown_job``, as for an id that does not
        exist: a job id grants no access to the job, and the answer does
        not tell whether the id exists.
        """
        principal = self._principal()
        record = self.server_api.service.result(job_id)
        if record.job.principal != principal:
            raise UnknownJob(f"unknown job {job_id!r}")
        return record

    def _cancel(self, job_id: str) -> Tuple[int, bytes, str]:
        service = self.server_api.service
        if not service.cancel(job_id):
            raise NotCancellable(
                f"job {job_id!r} is not cancellable: it was already claimed "
                "into a scan window or reached a terminal state"
            )
        return self._json(
            200, {"cancelled": True, "job": service.result(job_id).payload()}
        )

    def _metrics(self, query: Dict[str, list]) -> Tuple[int, bytes, str]:
        self._principal()
        fmt = (query.get("format") or [None])[0]
        if fmt is None:
            accept = self.headers.get("Accept") or ""
            fmt = "json" if "application/json" in accept else "prometheus"
        if fmt not in ("prometheus", "json"):
            raise ValueError(
                f"unknown metrics format {fmt!r}: use 'prometheus' or 'json'"
            )
        rendered = self.server_api.service.metrics(format=fmt)
        if fmt == "json":
            body = (json.dumps(rendered, sort_keys=True) + "\n").encode("utf-8")
            return 200, body, "application/json"
        return 200, rendered.encode("utf-8"), "text/plain; version=0.0.4"

    def _admin_shutdown(self) -> Tuple[int, bytes, str]:
        api = self.server_api
        token = self._bearer_token()
        if token is None:
            raise Unauthorized(
                "missing bearer token: send 'Authorization: Bearer <token>'"
            )
        if api.admin_token is None or token != api.admin_token:
            raise ServiceApiError(
                403, "forbidden", "shutdown requires the admin token"
            )
        api.request_shutdown()
        return self._json(200, {"shutting_down": True})


class ServiceApiError(ServiceError):
    """An HTTP-layer fault (bad route/method/admin) with its own code —
    constructed per-raise rather than one class per routing mishap."""

    def __init__(self, http_status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.http_status = http_status
        self.code = code
