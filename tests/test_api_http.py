"""Transport conformance: the HTTP front-end vs the in-process verbs.

One parametrized body runs against two transports — the in-process
``TrainingService`` verbs and a :class:`ServiceClient` speaking
``repro-api/v2`` to a :class:`ServiceApiServer` over a real socket —
and asserts they are indistinguishable:

* **Bitwise releases** — a job submitted over HTTP releases weights
  ``np.array_equal`` (atol=0) to the same job submitted in process,
  with the budget charged to the token-authenticated principal.
* **Identical faults** — every :class:`ServiceError` carries the same
  machine-readable ``code`` through both transports, and the legacy
  ``except KeyError`` catch works on either side of the socket.
* **Same verb semantics** — cancel's True/False contract, trace
  round-trips, budget statements, health.

Plus HTTP-only edges: bearer-token auth, principal pinning, the
envelope version tag, the metrics endpoint, admin shutdown, concurrent
submitters sharing one socket server, and the keep-alive transport:
connection reuse, request framing, the stale-socket resend, a resent
submit that must not reserve twice, and shutdown with idle connections;
and the response write: one send per response, the interim
``100 Continue`` sent at once, the fault envelope for requests the
parser refuses, and no worker woken before the response is on the
wire.
"""

from __future__ import annotations

import enum
import gc
import http.client
import http.server
import json
import pathlib
import re
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from http import HTTPStatus

import numpy as np
import pytest

from repro.api import ServiceApiServer, ServiceClient, WIRE_FORMAT
from repro.api import server as server_module
from repro.api import wire
from repro.api.wire import check_envelope
from repro.optim.losses import LogisticLoss
from repro.service import (
    JobStatus,
    NotCancellable,
    ServiceError,
    TrainingService,
    UnknownJob,
    UnknownTable,
)
from repro.service.errors import PrincipalMismatch, Unauthorized
from repro.service.registry import JobRecord
from tests.conftest import make_binary_data

M, D = 300, 8
EPS = 0.05
X, Y = make_binary_data(M, D, seed=21)

TOKENS = {"alice-token": "alice", "bob-token": "bob"}
ADMIN_TOKEN = "admin-token"


def make_service(workers: int = 1, cap: float = 10.0) -> TrainingService:
    service = TrainingService(scan_seed=5, workers=workers)
    service.register_table("t", X, Y)
    service.open_budget("alice", "t", cap)
    service.open_budget("bob", "t", cap)
    return service


class InProcessTransport:
    """The reference transport: the service's own verbs, renamed to the
    client's surface so one test body drives both."""

    name = "inproc"

    def __init__(self, service: TrainingService) -> None:
        self.service = service

    def submit(self, principal, **kwargs):
        return self.service.submit(principal, "t", **kwargs)

    def wait(self, job_id, timeout=30.0):
        record = self.service.result(job_id)
        assert record.wait(timeout)
        return record

    def result(self, job_id):
        return self.service.result(job_id)

    def model(self, job_id):
        return self.service.model(job_id)

    def trace(self, job_id):
        return self.service.trace(job_id)

    def cancel(self, job_id):
        return self.service.cancel(job_id)

    def budgets(self):
        return self.service.budgets()

    def health(self):
        return self.service.health()

    def close(self):
        self.service.stop()


class HttpTransport:
    """The same verbs through a live socket server."""

    name = "http"

    def __init__(self, service: TrainingService) -> None:
        self.service = service
        self.server = ServiceApiServer(
            service, TOKENS, admin_token=ADMIN_TOKEN
        ).start()
        self._clients = {
            principal: ServiceClient(self.server.url, token=token)
            for token, principal in TOKENS.items()
        }
        self._clients["admin"] = ServiceClient(
            self.server.url, token=ADMIN_TOKEN
        )

    def client(self, principal: str = "alice") -> ServiceClient:
        return self._clients[principal]

    def owner(self, job_id) -> ServiceClient:
        """The submitting principal's client: the job routes answer only
        the job's owner (alice's client asks about an unknown id)."""
        try:
            return self.client(self.service.result(job_id).job.principal)
        except UnknownJob:
            return self.client()

    def submit(self, principal, **kwargs):
        return self.client(principal).submit(principal, "t", **kwargs)

    def wait(self, job_id, timeout=30.0):
        return self.owner(job_id).wait(job_id, timeout=timeout)

    def result(self, job_id):
        return self.owner(job_id).result(job_id)

    def model(self, job_id):
        return self.owner(job_id).model(job_id)

    def trace(self, job_id):
        return self.owner(job_id).trace(job_id)

    def cancel(self, job_id):
        return self.owner(job_id).cancel(job_id)

    def budgets(self):
        return self.client().budgets()

    def health(self):
        return self.client().health()

    def close(self):
        self.server.close()
        self.service.stop()


@pytest.fixture(params=["inproc", "http"])
def transport(request):
    service = make_service(workers=1).start()
    cls = InProcessTransport if request.param == "inproc" else HttpTransport
    t = cls(service)
    yield t
    t.close()


SUBMIT = dict(loss=LogisticLoss(1e-2), epsilon=EPS, passes=2,
              batch_size=50, seed=7)


def reference_release() -> np.ndarray:
    """The ground truth: the same job trained fully in process."""
    service = make_service(workers=1)
    record = service.submit("alice", "t", **SUBMIT)
    service.drain()
    weights = service.model(record.job_id)
    service.stop()
    return weights


REFERENCE = reference_release()


class TestConformance:
    """One body, both transports."""

    def test_submit_releases_bitwise_equal_weights(self, transport):
        view = transport.submit("alice", **SUBMIT)
        final = transport.wait(view.job_id)
        assert final.status is JobStatus.COMPLETED
        weights = transport.model(view.job_id)
        assert weights.dtype == np.float64
        assert np.array_equal(weights, REFERENCE)  # atol=0, bitwise

    def test_budget_is_charged_to_the_submitting_principal(self, transport):
        view = transport.submit("alice", **SUBMIT)
        transport.wait(view.job_id)
        statements = {(s.principal, s.table): s for s in transport.budgets()}
        alice = statements[("alice", "t")]
        bob = statements[("bob", "t")]
        assert alice.spent == (EPS, 0.0)
        assert bob.spent == (0.0, 0.0)
        assert alice.available_epsilon == pytest.approx(10.0 - EPS)

    def test_unknown_job_carries_the_same_code(self, transport):
        for verb in (transport.result, transport.model, transport.trace,
                     transport.cancel):
            with pytest.raises(UnknownJob) as excinfo:
                verb("job-99999")
            assert excinfo.value.code == "unknown_job"
        with pytest.raises(KeyError):  # legacy catch, both transports
            transport.result("job-99999")

    def test_unknown_table_carries_the_same_code(self, transport):
        if transport.name == "http":
            submit = lambda: transport.client().submit(  # noqa: E731
                "alice", "nope", **SUBMIT
            )
        else:
            submit = lambda: transport.service.submit(  # noqa: E731
                "alice", "nope", **SUBMIT
            )
        with pytest.raises(UnknownTable) as excinfo:
            submit()
        assert excinfo.value.code == "unknown_table"

    def test_over_budget_submit_returns_a_rejected_record(self, transport):
        # Admission denials are records, not exceptions — same through
        # both transports (the ledger stays untouched).
        view = transport.submit("alice", loss=LogisticLoss(1e-2),
                                epsilon=20.0, batch_size=50)
        assert view.status is JobStatus.REJECTED
        assert "overflow" in (view.error or "")
        statements = {(s.principal, s.table): s for s in transport.budgets()}
        assert statements[("alice", "t")].spent == (0.0, 0.0)

    def test_cancel_true_when_queued_false_when_done(self, transport):
        transport.service.stop()  # freeze dispatch so the job stays QUEUED
        view = transport.submit("alice", **SUBMIT)
        assert transport.cancel(view.job_id) is True
        assert transport.result(view.job_id).status is JobStatus.CANCELLED
        transport.service.start()
        done = transport.submit("bob", **SUBMIT)
        transport.wait(done.job_id)
        assert transport.cancel(done.job_id) is False

    def test_trace_round_trips_spans(self, transport):
        view = transport.submit("alice", **SUBMIT)
        transport.wait(view.job_id)
        trace = transport.trace(view.job_id)
        names = [span.name for span in trace.spans()]
        assert names[0] == "admit"
        assert "commit" in names
        # The wire payload is the same dict the in-process trace renders.
        reference = transport.service.trace(view.job_id)
        assert trace.payload() == reference.payload()

    def test_health_reports_workers_and_queues(self, transport):
        health = transport.health()
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert health["dispatch_running"] is True
        assert health["queue_depth"] == 0


class TestConcurrentSubmitters:
    def test_many_threads_share_one_socket(self):
        service = make_service(workers=2, cap=10.0).start()
        server = ServiceApiServer(service, TOKENS).start()
        views = []
        lock = threading.Lock()

        def submitter(principal: str, token: str, seeds) -> None:
            client = ServiceClient(server.url, token=token)
            for seed in seeds:
                view = client.submit(
                    principal, "t", LogisticLoss(1e-2),
                    epsilon=EPS, passes=1, batch_size=50, seed=seed,
                )
                with lock:
                    views.append((client, view.job_id, principal, seed))

        threads = [
            threading.Thread(
                target=submitter, args=(p, tok, range(i * 4, i * 4 + 4))
            )
            for i, (tok, p) in enumerate(TOKENS.items())
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert len(views) == 8
            for client, job_id, principal, seed in views:
                final = client.wait(job_id, timeout=60.0)
                assert final.status is JobStatus.COMPLETED
                assert final.job.principal == principal
                assert final.job.seed == seed
            # Budgets add up exactly: 4 jobs per principal.
            for s in service.budgets():
                assert s.spent == (4 * EPS, 0.0)
        finally:
            server.close()
            service.stop()


class TestJobOwnership:
    """The job routes answer only the principal that submitted the job;
    any other tenant's token gets ``unknown_job``, as for a missing id."""

    def test_another_tenant_can_neither_read_nor_cancel_a_job(self):
        service = TrainingService(scan_seed=5, workers=1)
        service.register_table("t", X, Y)
        service.open_budget("alice", "t", 10.0)  # bob holds no account on t
        with ServiceApiServer(service, TOKENS) as server:
            alice = ServiceClient(server.url, token="alice-token")
            bob = ServiceClient(server.url, token="bob-token")
            job_id = alice.submit("alice", "t", **SUBMIT).job_id

            def refused(verb):
                with pytest.raises(UnknownJob) as excinfo:
                    verb(job_id)
                assert excinfo.value.code == "unknown_job"

            for verb in (bob.result, bob.model, bob.trace, bob.cancel):
                refused(verb)
            # Bob's cancel never reached the queue: alice's job is still
            # queued, holding its reservation.
            assert alice.result(job_id).status is JobStatus.QUEUED
            (statement,) = service.budgets()
            assert statement.reserved == (EPS, 0.0)

            service.start()
            try:
                final = alice.wait(job_id, timeout=30.0)
                assert final.status is JobStatus.COMPLETED
                assert np.array_equal(alice.model(job_id), REFERENCE)
                for verb in (bob.result, bob.model, bob.trace, bob.cancel):
                    refused(verb)
            finally:
                service.stop()


@pytest.fixture()
def server():
    service = make_service(workers=1).start()
    api = ServiceApiServer(service, TOKENS, admin_token=ADMIN_TOKEN)
    api.start()
    yield api
    api.close()
    service.stop()


class TestHttpEdges:
    """Contracts only the socket transport has."""

    def test_missing_token_is_unauthorized(self, server):
        client = ServiceClient(server.url)  # no token
        with pytest.raises(Unauthorized) as excinfo:
            client.budgets()
        assert excinfo.value.code == "unauthorized"
        assert excinfo.value.http_status == 401

    def test_unknown_token_is_unauthorized(self, server):
        client = ServiceClient(server.url, token="stolen")
        with pytest.raises(Unauthorized):
            client.budgets()

    def test_submit_for_another_principal_is_rejected(self, server):
        client = ServiceClient(server.url, token="alice-token")
        with pytest.raises(PrincipalMismatch) as excinfo:
            client.submit("bob", "t", LogisticLoss(1e-2), epsilon=EPS)
        assert excinfo.value.code == "principal_mismatch"
        # Nothing was admitted, nothing charged.
        for s in client.budgets():
            assert s.spent == (0.0, 0.0)

    def test_healthz_needs_no_token(self, server):
        with urllib.request.urlopen(server.url + "/v1/healthz") as response:
            payload = json.loads(response.read())
        assert payload["api"] == WIRE_FORMAT
        assert payload["status"] == "ok"

    def test_every_response_carries_the_version_tag(self, server):
        client = ServiceClient(server.url, token="alice-token")
        view = client.submit("alice", "t", LogisticLoss(1e-2),
                             epsilon=EPS, batch_size=50)
        request = urllib.request.Request(
            server.url + f"/v1/jobs/{view.job_id}",
            headers={"Authorization": "Bearer alice-token"},
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload["api"] == WIRE_FORMAT
        assert check_envelope(payload) is payload
        with pytest.raises(ValueError, match="protocol versions"):
            check_envelope({"api": "repro-api/v999"})

    def test_job_record_round_trips_exactly(self, server):
        client = ServiceClient(server.url, token="alice-token")
        record = client.wait(
            client.submit("alice", "t", **SUBMIT).job_id
        )
        payload = record.payload()
        rebuilt = JobRecord.from_payload(json.loads(json.dumps(payload)))
        assert rebuilt.payload() == payload
        assert np.array_equal(rebuilt.model, record.model)
        assert rebuilt.receipt.parameters == record.receipt.parameters

    def test_error_envelope_shape_on_the_wire(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs/job-99999",
            headers={"Authorization": "Bearer alice-token"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404
        fault = json.loads(excinfo.value.read())
        assert fault["api"] == WIRE_FORMAT
        assert fault["error"]["code"] == "unknown_job"
        assert "job-99999" in fault["error"]["message"]

    def test_unknown_route_and_wrong_method(self, server):
        client = ServiceClient(server.url, token="alice-token")
        with pytest.raises(ServiceError) as excinfo:
            client._call("GET", "/v1/nope")
        assert excinfo.value.code == "unknown_route"
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/v1/budgets")
        assert excinfo.value.code == "method_not_allowed"

    def test_malformed_submit_body_is_invalid_request(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=b"{not json",
            headers={
                "Authorization": "Bearer alice-token",
                "Content-Type": "application/json",
            },
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        fault = json.loads(excinfo.value.read())
        assert fault["error"]["code"] == "invalid_request"

    def test_metrics_both_formats(self, server):
        client = ServiceClient(server.url, token="alice-token")
        client.submit("alice", "t", LogisticLoss(1e-2),
                      epsilon=EPS, batch_size=50)
        text = client.metrics("prometheus")
        assert "repro_http_requests_total" in text
        document = client.metrics("json")
        assert isinstance(document, dict)

    def test_cancel_not_cancellable_maps_to_false(self, server):
        client = ServiceClient(server.url, token="alice-token")
        view = client.wait(client.submit("alice", "t", **SUBMIT).job_id)
        # Raw endpoint raises; the client verb preserves the in-process
        # boolean contract.
        with pytest.raises(NotCancellable):
            client._call("POST", f"/v1/jobs/{view.job_id}/cancel")
        assert client.cancel(view.job_id) is False

    def test_admin_shutdown_requires_the_admin_token(self, server):
        tenant = ServiceClient(server.url, token="alice-token")
        with pytest.raises(ServiceError) as excinfo:
            tenant.shutdown()
        assert excinfo.value.code == "forbidden"
        admin = ServiceClient(server.url, token=ADMIN_TOKEN)
        admin.shutdown()
        assert server.shutdown_requested.wait(5.0)

    def test_client_retries_then_raises_unreachable(self):
        from repro.api.client import ApiUnreachable

        client = ServiceClient(
            "http://127.0.0.1:9", token="x", timeout=0.2,
            retries=1, backoff=0.0,
        )
        with pytest.raises(ApiUnreachable) as excinfo:
            client.health()
        assert excinfo.value.code == "unreachable"
        assert "2 attempt(s)" in str(excinfo.value)


def metric_value(service: TrainingService, name: str) -> float:
    return service.metrics_registry.get(name).value()


def open_connections(service: TrainingService) -> float:
    return metric_value(service, "repro_http_open_connections")


def handler_threads() -> set:
    """The live per-connection threads of every ``ThreadingHTTPServer``."""
    return {
        thread for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    }


def eventually(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestKeepAlive:
    """One persistent HTTP/1.1 connection per client thread."""

    def test_one_thread_reuses_one_connection(self, server):
        client = ServiceClient(server.url, token="alice-token")
        before = metric_value(server.service, "repro_http_connections_total")
        for _ in range(10):
            client.health()
            client.budgets()
        assert metric_value(server.service, "repro_http_connections_total") == before + 1

    def test_kept_alive_calls_are_not_held_back_by_nagle(self, server):
        # A response leaves the server in one send, and Nagle stays off:
        # with it on, a send shorter than a segment can wait for the
        # client's delayed ACK (~40 ms a call) of what went before it.
        client = ServiceClient(server.url, token="alice-token")
        client.health()
        seconds = []
        for _ in range(20):
            started = time.perf_counter()
            client.health()
            seconds.append(time.perf_counter() - started)
        assert statistics.median(seconds) < 0.020

    def test_every_connection_has_nagle_off(self, server):
        # On Linux a response sent in one send is not held back even with
        # Nagle on, so the timing above cannot tell; ask the sockets.
        with ServiceClient(server.url, token="alice-token") as client:
            client.health()  # its connection stays open until the block ends
            handlers = list(server._connections)
            assert handlers
            for handler in handlers:
                assert handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )

    def test_a_call_after_the_idle_timeout_resends_once(self, monkeypatch):
        monkeypatch.setattr(server_module._ApiHandler, "timeout", 0.2)
        service = make_service(workers=1)  # not started: submits stay queued
        with ServiceApiServer(service, TOKENS) as api:
            # retries=0: the resend on a stale connection is not a retry.
            client = ServiceClient(api.url, token="alice-token", retries=0)
            client.health()
            assert eventually(lambda: open_connections(service) == 0)
            assert client.health()["status"] == "ok"
            assert eventually(lambda: open_connections(service) == 0)
            record = client.submit("alice", "t", **SUBMIT)
            assert metric_value(service, "repro_http_connections_total") == 3
        assert [r.job_id for r in service.registry.jobs()] == [record.job_id]
        alice = [s for s in service.budgets() if s.principal == "alice"][0]
        assert alice.reserved == (EPS, 0.0)

    def test_close_closes_the_connections_of_every_thread(self, server):
        done = threading.Event()
        called = threading.Semaphore(0)
        before = metric_value(server.service, "repro_http_connections_total")
        with ServiceClient(server.url, token="alice-token") as client:

            def call_then_wait():
                client.health()
                called.release()
                done.wait(10.0)

            threads = [threading.Thread(target=call_then_wait) for _ in range(3)]
            for thread in threads:
                thread.start()
            # Close idle connections only: a connection is counted open
            # once accepted, before its call returns, and a call that
            # close() interrupts is resent on a connection of its own.
            for _ in threads:
                assert called.acquire(timeout=10.0)
            assert open_connections(server.service) == 3
            client.close()
            assert eventually(lambda: open_connections(server.service) == 0)
            done.set()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            client.health()  # still usable: reconnects
            assert open_connections(server.service) == 1
            # One connection per thread, plus the reconnect: none resent.
            total = metric_value(server.service, "repro_http_connections_total")
            assert total == before + 4
        assert eventually(lambda: open_connections(server.service) == 0)

    def test_a_finished_threads_connection_closes_with_it(self, server):
        client = ServiceClient(server.url, token="alice-token")
        before = metric_value(server.service, "repro_http_connections_total")
        gc.disable()  # no collector: the thread's end alone must close it
        try:
            threads = [threading.Thread(target=client.health) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert eventually(lambda: open_connections(server.service) == 0)
        finally:
            gc.enable()
        assert metric_value(server.service, "repro_http_connections_total") == before + 8

    @pytest.mark.parametrize("stop", ["close", "drain", "admin"])
    def test_shutdown_with_idle_connections(self, stop):
        from repro.api.client import ApiUnreachable

        service = make_service(workers=1).start()
        api = ServiceApiServer(service, TOKENS, admin_token=ADMIN_TOKEN).start()
        before = handler_threads()
        clients = [ServiceClient(api.url, token="alice-token") for _ in range(4)]
        try:
            for client in clients:
                client.health()
            assert open_connections(service) == 4
            started = time.monotonic()
            if stop == "admin":  # the CLI's hold loop, then its cleanup
                ServiceClient(api.url, token=ADMIN_TOKEN).shutdown()
                assert api.shutdown_requested.wait(5.0)
            if stop in ("drain", "admin"):
                service.drain(timeout=10.0)
                service.stop()
            api.close()
            assert time.monotonic() - started < 5.0
        finally:
            api.close()
            service.stop()
        assert not handler_threads() - before
        assert open_connections(service) == 0
        for client in clients:
            started = time.monotonic()
            with pytest.raises(ApiUnreachable):
                client.health()
            assert time.monotonic() - started < 5.0


class TestRequestFraming:
    """Every response leaves a kept-alive connection at a request
    boundary, whether or not the route read the body."""

    def test_an_early_answer_leaves_the_connection_in_step(self, server):
        body = json.dumps({"principal": "alice", "table": "t"}).encode("utf-8")
        token = {"Authorization": "Bearer alice-token"}
        connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            for path, headers, status in [
                ("/v1/jobs", {}, 401),  # the token is checked before the body
                ("/v1/budgets", token, 405),
                ("/v1/nope", token, 404),
            ]:
                connection.request("POST", path, body=body, headers=headers)
                response = connection.getresponse()
                assert response.status == status
                response.read()
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["api"] == WIRE_FORMAT
        finally:
            connection.close()

    def test_an_oversize_body_is_refused_and_the_next_connection_works(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Authorization", "Bearer alice-token")
            connection.putheader(
                "Content-Length", str(server_module.MAX_BODY_BYTES + 1)
            )
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["code"] == "invalid_request"
        finally:
            connection.close()
        assert ServiceClient(server.url).health()["status"] == "ok"

    @pytest.mark.parametrize(
        "length_header",
        ["", "Content-Length: -1\r\n", "Content-Length: 12abc\r\n",
         f"Content-Length: {server_module.MAX_BODY_BYTES + 1}\r\n",
         "Transfer-Encoding: chunked\r\n"],
    )
    def test_an_untrusted_body_length_closes_the_connection(
        self, server, length_header
    ):
        request = (
            "POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
            f"Authorization: Bearer alice-token\r\n{length_header}\r\n"
        ).encode("ascii")
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(request)
            answer = b""
            while chunk := sock.recv(65536):  # until the server closes
                answer += chunk
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["code"] == "invalid_request"


def is_whole_response(data: bytes) -> bool:
    """Do ``data`` hold a response head and its whole declared body?"""
    head, blank, body = data.partition(b"\r\n\r\n")
    length = re.search(rb"\r\nContent-Length: (\d+)", head)
    return bool(blank and length) and len(body) >= int(length.group(1))


def read_response(sock: socket.socket) -> bytes:
    """One whole response off a raw socket."""
    data = b""
    while not is_whole_response(data) and (chunk := sock.recv(65536)):
        data += chunk
    return data


def raw_submit() -> bytes:
    """Alice's ``SUBMIT`` as the bytes of a kept-alive request."""
    body = json.dumps(
        wire.SubmitRequest(principal="alice", table="t", **SUBMIT).to_payload()
    ).encode("utf-8")
    return (
        "POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
        "Authorization: Bearer alice-token\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def handler_sends(monkeypatch) -> list:
    """Record the bytes of every socket send a server handler thread
    makes from now on, one entry per ``send`` or ``sendall`` call."""
    sends = []
    for name in ("send", "sendall"):

        def recorded(sock, data, *args, _real=getattr(socket.socket, name)):
            if "process_request_thread" in threading.current_thread().name:
                sends.append(bytes(data))
            return _real(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, recorded)
    return sends


#: name -> (raw request, status, fault code or None for a success). The
#: last five are refused by the stdlib parser before any route runs.
RAW_REQUESTS = {
    "ok": (b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n", 200, None),
    "routed_4xx": (
        b"GET /v1/budgets HTTP/1.1\r\nHost: test\r\n\r\n", 401, "unauthorized"
    ),
    "bad_request_line": (b"NOT A REQUEST LINE\r\n\r\n", 400, "invalid_request"),
    "http_9_9": (
        b"GET /v1/healthz HTTP/9.9\r\nHost: test\r\n\r\n", 505, "invalid_request"
    ),
    # Exactly the 65537 bytes the parser reads before it refuses: nothing
    # is left unread, so closing the connection resets nothing.
    "request_line_over_64k": (
        b"GET /" + b"a" * 65532, 414, "invalid_request"
    ),
    "120_headers": (
        b"GET /v1/healthz HTTP/1.1\r\n"
        + b"".join(b"X-Header-%d: y\r\n" % i for i in range(120))
        + b"\r\n",
        431,
        "invalid_request",
    ),
    "put": (
        b"PUT /v1/jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n",
        405,
        "method_not_allowed",
    ),
}
REFUSED = [name for name in RAW_REQUESTS if name not in ("ok", "routed_4xx")]

#: The parser refuses with HTTPStatus members, and before Python 3.11
#: their str() is the name ("HTTPStatus.BAD_REQUEST"), not the number.
#: This stand-in for the parser's HTTPStatus shows that on every version.
NAMED_STATUS = enum.Enum(
    "HTTPStatus",
    {label: int(member) for label, member in HTTPStatus.__members__.items()},
    type=int,
)


class TestResponseWrite:
    """Every response leaves in one send, and the worker a request wakes
    is woken only after its response is on the wire."""

    @pytest.mark.parametrize("name", sorted(RAW_REQUESTS))
    def test_each_response_leaves_in_one_send(self, server, monkeypatch, name):
        request, status, _ = RAW_REQUESTS[name]
        sends = handler_sends(monkeypatch)
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(request)
            response = read_response(sock)
        assert response.startswith(f"HTTP/1.1 {status} ".encode("ascii"))
        assert sends == [response]

    @pytest.mark.parametrize(
        "status_enum", [HTTPStatus, NAMED_STATUS], ids=["stdlib", "named"]
    )
    @pytest.mark.parametrize("name", REFUSED)
    def test_a_refused_request_gets_the_fault_envelope(
        self, server, monkeypatch, name, status_enum
    ):
        assert str(NAMED_STATUS.BAD_REQUEST) != "400"
        monkeypatch.setattr(http.server, "HTTPStatus", status_enum)
        request, status, code = RAW_REQUESTS[name]
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(request)
            answer = b""
            while chunk := sock.recv(65536):  # until the server closes
                answer += chunk
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode("ascii"))
        assert b"\r\nContent-Type: application/json" in head
        assert b"\r\nConnection: close" in head
        fault = json.loads(body)
        assert fault["api"] == WIRE_FORMAT
        assert fault["error"]["code"] == code
        counted = server.service.metrics_registry.get("repro_http_requests_total")
        assert counted.value(
            method="(unparsed)", route="(unparsed)", status=str(status)
        ) == 1

    def test_an_expect_100_request_hears_continue_before_it_sends_the_body(
        self, server
    ):
        # The interim answer leaves at once, not with the final one: the
        # client holds its body back until it reads it.
        head, _, body = raw_submit().partition(b"\r\n\r\n")
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(head + b"\r\nExpect: 100-continue\r\n\r\n")
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            assert read_response(sock).startswith(b"HTTP/1.1 200 ")

    def test_a_queued_submit_is_answered_before_the_wake(self, server, monkeypatch):
        loop = server.service.loop
        wake_workers = loop._wake_workers
        readable = []
        woken = threading.Event()

        with socket.create_connection((server.host, server.port), timeout=5) as sock:

            def peek_then_wake():
                # What the client could read the moment the wake is sent
                # (the handler thread is held here, so nothing more can
                # be written while we look).
                deadline = time.monotonic() + 1.0
                seen = b""
                while time.monotonic() < deadline and not is_whole_response(seen):
                    try:
                        seen = sock.recv(65536, socket.MSG_PEEK | socket.MSG_DONTWAIT)
                    except BlockingIOError:
                        time.sleep(0.005)
                readable.append(seen)
                woken.set()
                wake_workers()

            monkeypatch.setattr(loop, "_wake_workers", peek_then_wake)
            sock.sendall(raw_submit())
            assert woken.wait(10.0)
            response = read_response(sock)
        assert readable == [response]
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        job = json.loads(body)["job"]
        assert job["status"] == "queued"
        record = server.service.result(job["job"]["job_id"])
        assert record.wait(30.0)
        assert record.status is JobStatus.COMPLETED

    def test_a_submit_that_fails_after_admission_still_wakes_a_worker(
        self, monkeypatch
    ):
        # The poll is the only other wake-up, and it is stretched past the
        # bound: the job completes in time only if the held wake is sent.
        monkeypatch.setattr("repro.service.worker._IDLE_POLL_SECONDS", 5.0)

        def unencodable(record):
            raise RuntimeError("the answer could not be encoded")

        service = make_service(workers=1).start()
        try:
            with ServiceApiServer(service, TOKENS) as api:
                monkeypatch.setattr(JobRecord, "payload", unencodable)
                client = ServiceClient(api.url, token="alice-token", retries=0)
                started = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    client.submit("alice", "t", **SUBMIT)
                assert excinfo.value.code == "internal"
                (record,) = service.registry.jobs()
                assert record.wait(2.0)
                assert time.monotonic() - started < 2.0
                assert record.status is JobStatus.COMPLETED
        finally:
            service.stop()


class TestResentSubmit:
    def test_a_dropped_response_resend_reserves_once(self, monkeypatch):
        admit = server_module._ApiHandler._submit
        dropped = []

        def admit_then_drop(handler):
            answer = admit(handler)
            if not dropped:  # this one request: admitted, answer lost
                dropped.append(handler)
                handler.connection.shutdown(socket.SHUT_RDWR)
            return answer

        monkeypatch.setattr(server_module._ApiHandler, "_submit", admit_then_drop)
        service = make_service(workers=1)  # not started: the job stays queued
        with ServiceApiServer(service, TOKENS) as api:
            client = ServiceClient(api.url, token="alice-token")
            record = client.submit("alice", "t", **SUBMIT)
            assert dropped
            primary, resent = service.registry.jobs()
            assert resent.job_id == record.job_id
            service.drain()
            final = client.wait(record.job_id, timeout=30.0)
            assert final.status is JobStatus.COMPLETED
            assert final.dispatch == "cached"
            assert final.cache_source == primary.job_id
            assert np.array_equal(client.model(record.job_id), REFERENCE)
        assert primary.dispatch == "scan"
        assert [jobs for _, jobs, _ in service.scheduler.dispatch_log] == [
            [primary.job_id]
        ]
        alice = [s for s in service.budgets() if s.principal == "alice"][0]
        assert alice.spent == (EPS, 0.0)
        assert alice.reserved == (0.0, 0.0)


def post_job(url: str, token: str, body: dict):
    """POST a raw submit body; returns (HTTP status, decoded envelope)."""
    request = urllib.request.Request(
        url + "/v1/jobs",
        data=json.dumps(body).encode("utf-8"),
        headers={
            "Authorization": f"Bearer {token}",
            "Content-Type": "application/json",
        },
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


#: A loss state whose extra key would shadow a method of the loss.
SHADOWING_LOSS = {
    "type": "LogisticLoss",
    "state": {"regularization": 0.01, "tight_smoothness": False,
              "margin_derivative": 1},
}

BAD_LOSSES = {
    "negative_lambda": {"type": "LogisticLoss", "state": {"regularization": -0.01}},
    "nan_lambda": {"type": "LogisticLoss", "state": {"regularization": float("nan")}},
    "inf_lambda": {"type": "LogisticLoss", "state": {"regularization": float("inf")}},
    "zero_smoothing": {"type": "HuberSVMLoss", "state": {"smoothing": 0.0}},
    "negative_smoothing": {"type": "HuberSVMLoss", "state": {"smoothing": -0.1}},
    "zero_margin_bound": {"type": "LeastSquaresLoss", "state": {"margin_bound": 0.0}},
    "negative_margin_bound": {"type": "LeastSquaresLoss",
                              "state": {"margin_bound": -1.0}},
    "unknown_key": {"type": "LogisticLoss", "state": {"lambda": 0.01}},
    "shadowed_method": SHADOWING_LOSS,
}


class TestLossStateAtTheDoor:
    """A submitted loss is rebuilt through its constructor: a bad state is
    refused with 400 before anything is reserved, registered or logged,
    instead of being admitted to fail later at dispatch — where it can
    take every rider of its scan flight down with it."""

    def test_a_shadowing_state_cannot_fail_another_tenants_flight(self):
        seeds = range(11, 15)
        twins = make_service(workers=1)
        for seed in seeds:
            twins.submit("alice", "t", **{**SUBMIT, "seed": seed})
        reference = {record.job.seed: record.model for record in twins.drain()}

        service = make_service(workers=1)  # not started: all fly at drain()
        with ServiceApiServer(service, TOKENS) as server:
            client = ServiceClient(server.url, token="alice-token")
            records = [
                client.submit("alice", "t", **{**SUBMIT, "seed": seed})
                for seed in seeds[:2]
            ]
            status, fault = post_job(server.url, "bob-token", {
                "principal": "bob", "table": "t", "epsilon": EPS,
                "loss": SHADOWING_LOSS, "passes": 2, "batch_size": 50, "seed": 99,
            })
            records += [
                client.submit("alice", "t", **{**SUBMIT, "seed": seed})
                for seed in seeds[2:]
            ]
            assert status == 400
            assert fault["error"]["code"] == "invalid_request"
            service.drain()
            assert service.scheduler.table_scans["t"] == 1  # one window
            for record in records:
                final = client.result(record.job_id)
                assert final.status is JobStatus.COMPLETED
                assert np.array_equal(
                    client.model(record.job_id), reference[final.job.seed]
                )
        for statement in service.budgets():
            assert statement.reserved == (0.0, 0.0)
        assert len(service.registry) == 4

    def test_the_documented_submit_body_completes(self):
        docs = pathlib.Path(__file__).parents[1] / "docs" / "api.md"
        match = re.search(r"-d '(\{.*?\})'", docs.read_text(), re.DOTALL)
        body = json.loads(match.group(1))
        service = TrainingService(scan_seed=5, workers=1)
        service.register_table(body["table"], X, Y)
        service.open_budget(body["principal"], body["table"], 1.0)
        service.start()
        try:
            with ServiceApiServer(service, {"doc-token": body["principal"]}) as server:
                status, payload = post_job(server.url, "doc-token", body)
                assert status == 200
                job_id = payload["job"]["job"]["job_id"]
                client = ServiceClient(server.url, token="doc-token")
                final = client.wait(job_id, timeout=30.0)
        finally:
            service.stop()
        assert final.status is JobStatus.COMPLETED, final.error
        assert final.model is not None

    @pytest.mark.parametrize("name", sorted(BAD_LOSSES))
    def test_a_bad_loss_state_is_refused_before_admission(self, name, tmp_path):
        service = TrainingService(scan_seed=5, workers=1, state_dir=tmp_path)
        service.register_table("t", X, Y)
        service.open_budget("alice", "t", 10.0)
        appends = service.wal.appends
        with ServiceApiServer(service, TOKENS) as server:
            status, fault = post_job(server.url, "alice-token", {
                "principal": "alice", "table": "t", "epsilon": EPS,
                "loss": BAD_LOSSES[name], "passes": 2, "batch_size": 50,
            })
        assert status == 400
        assert fault["error"]["code"] == "invalid_request"
        assert len(service.registry) == 0
        assert service.wal.appends == appends
        (statement,) = service.budgets()
        assert statement.spent == (0.0, 0.0)
        assert statement.reserved == (0.0, 0.0)
