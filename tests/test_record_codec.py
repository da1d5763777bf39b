"""One record codec: ``JobRecord.payload()`` / ``JobRecord.from_payload()``.

The snapshot, the write-ahead log's ``admit``/``record`` events and every
HTTP job body carry a job as the same JSON. These tests pin that:

* **Round trip** — every status comes back as written through
  ``json.dumps``/``json.loads``, and weights come back bitwise (−0.0,
  subnormals and ±inf included; NaN comes back NaN).
* **One body everywhere** — for one completed job, the HTTP job body,
  its WAL ``record`` event and its snapshot entry are equal dicts.
* **One race rule** — a record that is not done yet encodes in flight,
  with no model, receipt, sensitivity or noise norm, and restores as
  FAILED/interrupted with all four ``None``.
* **Old state** — a state directory written by the last commit before
  the shared codec (``tests/data/state_v1``, see ``make_state_v1.py``
  there) loads with every weight bitwise, the same budgets, and a cache
  hit on resubmission.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import urllib.request

import numpy as np
import pytest

from repro.api import ServiceApiServer, ServiceClient
from repro.core.mechanisms import PrivacyParameters
from repro.optim.losses import HingeLoss, LogisticLoss
from repro.service import JobStatus, ModelRegistry, TrainingService, WriteAheadLog
from repro.service.ledger import BudgetReceipt
from repro.service.registry import JobRecord, restore_record, snapshot_payloads
from repro.service.server import REGISTRY_STATE, WAL_STATE
from tests.conftest import make_binary_data

M, D = 200, 6
EPS = 0.05
X, Y = make_binary_data(M, D, seed=31)
STATE_V1 = pathlib.Path(__file__).parent / "data" / "state_v1"
TOKENS = {"alice-token": "alice"}


def make_service(**kwargs) -> TrainingService:
    service = TrainingService(scan_seed=5, workers=1, **kwargs)
    service.register_table("t", X, Y)
    service.open_budget("alice", "t", 1.0)
    return service


def submit(service: TrainingService, seed: int, loss=None, epsilon: float = EPS):
    return service.submit("alice", "t", loss or LogisticLoss(1e-3), epsilon=epsilon,
                          passes=2, batch_size=25, seed=seed)


def every_status() -> list:
    """One record per status, from a live service (plus a cache hit and a
    hand-made RUNNING record, which a live service holds only briefly)."""
    service = make_service()
    completed = submit(service, seed=1)
    failed = submit(service, seed=2, loss=HingeLoss())
    service.drain()
    cached = submit(service, seed=1)
    rejected = submit(service, seed=3, epsilon=5.0)
    cancelled = submit(service, seed=4)
    assert service.cancel(cancelled.job_id)
    queued = submit(service, seed=5)
    running = JobRecord(job=queued.job, status=JobStatus.RUNNING)
    records = [completed, failed, cached, rejected, cancelled, queued, running]
    assert [r.status for r in records] == [
        JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.COMPLETED,
        JobStatus.REJECTED, JobStatus.CANCELLED, JobStatus.QUEUED, JobStatus.RUNNING,
    ]
    assert cached.dispatch == "cached"
    return records


def get_job_body(url: str, job_id: str) -> dict:
    """The ``job`` body of ``GET /v1/jobs/{id}``, exactly as sent."""
    request = urllib.request.Request(
        f"{url}/v1/jobs/{job_id}", headers={"Authorization": "Bearer alice-token"}
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())["job"]


def bits(weights: np.ndarray) -> np.ndarray:
    return np.asarray(weights, dtype=np.float64).view(np.int64)


class TestRoundTrip:
    def test_every_status_round_trips_through_json(self):
        for record in every_status():
            payload = record.payload()
            loaded = JobRecord.from_payload(json.loads(json.dumps(payload)))
            assert loaded.payload() == payload
            assert loaded.status is record.status
            # Faithful: done exactly when the status is terminal.
            assert loaded.done is (
                record.status not in (JobStatus.QUEUED, JobStatus.RUNNING)
            )

    def test_weights_round_trip_bitwise(self):
        (record, *_) = every_status()
        special = np.array(
            [-0.0, 5e-324, np.nextafter(0.0, 1.0) * 7, np.inf, -np.inf, 1 / 3, np.nan]
        )
        record.model = special
        text = json.dumps(record.payload())
        loaded = JobRecord.from_payload(json.loads(text)).model
        assert loaded.dtype == np.float64
        assert np.array_equal(bits(loaded[:-1]), bits(special[:-1]))
        assert np.isnan(loaded[-1])

    def test_an_unknown_loss_state_refuses_to_load(self, tmp_path):
        service = make_service()
        submit(service, seed=1)
        service.drain()
        path = service.registry.snapshot(tmp_path / "registry.json")
        snapshot = json.loads(path.read_text())
        state = snapshot["records"][0]["job"]["candidate"]["loss"]["state"]
        state["margin_derivative"] = 1
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ValueError, match="margin_derivative"):
            ModelRegistry.load(path)


class TestOneBody:
    def test_http_body_wal_event_and_snapshot_entry_are_equal(self, tmp_path):
        service = make_service(state_dir=tmp_path)
        with ServiceApiServer(service, TOKENS) as server:
            client = ServiceClient(server.url, token="alice-token")
            job_id = client.submit(
                "alice", "t", LogisticLoss(1e-3), epsilon=EPS, passes=2,
                batch_size=25, seed=7,
            ).job_id
            # Dispatched by the dispatch loop, which appends the live-only
            # ``wal_sync`` span to the trace after the window's sync: the
            # body is written after that, the journal event before it.
            service.drain()
            assert service.trace(job_id).names()[-1] == "wal_sync"
            body = get_job_body(server.url, job_id)
        service.wal.sync()
        (event,) = [
            event
            for event in WriteAheadLog.replay(tmp_path / WAL_STATE)
            if event["event"] == "record" and event["record"]["job"]["job_id"] == job_id
        ]
        path = service.registry.snapshot(tmp_path / "export.json")
        (entry,) = [e for e in snapshot_payloads(path) if e["job"]["job_id"] == job_id]
        assert body["status"] == "completed" and body["model"] is not None
        assert body["trace"]["spans"][-1]["name"] == "commit"
        assert body == event["record"] == entry


class TestRaceRule:
    def test_a_record_not_done_encodes_and_restores_in_flight(self, tmp_path):
        """A worker writes the release, then the status, and marks the
        record done last. Caught in between, the record is still in
        flight everywhere, and a restart fails it with no release."""
        service = make_service()
        record = submit(service, seed=6)
        record.model = np.ones(D)
        record.receipt = BudgetReceipt(
            principal="alice", table="t", job_id=record.job_id,
            parameters=PrivacyParameters(EPS), sequence=1,
        )
        record.sensitivity = 0.5
        record.noise_norm = 2.0
        record.status = JobStatus.COMPLETED
        assert not record.done

        released = ("model", "receipt", "sensitivity", "noise_norm")
        service.save_state(tmp_path)
        (entry,) = snapshot_payloads(tmp_path / REGISTRY_STATE)
        with ServiceApiServer(service, TOKENS) as server:
            body = get_job_body(server.url, record.job_id)
            copy = ServiceClient(server.url, token="alice-token").result(record.job_id)
        for payload in (entry, body):
            assert payload["status"] == "running"
            assert [payload[name] for name in released] == [None] * 4
        # A wire copy is done only if terminal; waiting on it times out.
        assert copy.status is JobStatus.RUNNING
        assert not copy.wait(0.01)

        restarted = TrainingService(scan_seed=5)
        restarted.load_state(tmp_path)
        twin = restarted.result(record.job_id)
        assert twin.status is JobStatus.FAILED and twin.done
        assert "interrupted" in twin.error
        assert [getattr(twin, name) for name in released] == [None] * 4
        for statement in restarted.budgets():
            assert statement.spent == (0, 0)


class TestOldState:
    """State written by the parent format loads unchanged."""

    @pytest.fixture()
    def state(self, tmp_path):
        target = tmp_path / "state"
        shutil.copytree(STATE_V1, target)
        return target

    def test_the_fixture_holds_a_snapshot_and_both_log_events(self, state):
        kinds = {event["event"] for event in WriteAheadLog.replay(state / WAL_STATE)}
        assert {"admit", "record"} <= kinds
        assert snapshot_payloads(state / REGISTRY_STATE)

    def test_terminal_payloads_re_encode_to_the_same_json(self, state):
        """The format did not change: decoding a terminal entry written
        by the old codec and encoding it again gives the same dict."""
        payloads = list(snapshot_payloads(state / REGISTRY_STATE))
        payloads += [
            event["record"]
            for event in WriteAheadLog.replay(state / WAL_STATE)
            if event["event"] == "record"
        ]
        assert len(payloads) >= 8
        for payload in payloads:
            assert restore_record(payload).payload() == payload

    def test_restores_weights_budgets_and_cache(self, state):
        expected = json.loads((state / "expected.json").read_text())
        table = json.loads((state / "table.json").read_text())
        service = TrainingService(scan_seed=table["scan_seed"], workers=1)
        assert service.load_state(state) == len(expected["jobs"])
        service.register_table(
            "t", np.asarray(table["features"]), np.asarray(table["labels"])
        )

        for job_id, job in expected["jobs"].items():
            record = service.result(job_id)
            assert record.done
            if job["status"] == "queued":  # in flight at the crash
                assert record.status is JobStatus.FAILED
                assert "interrupted" in record.error
                continue
            assert record.status.value == job["status"]
            assert record.dispatch == job["dispatch"]
            if "model" in job:
                weights = np.array([float.fromhex(h) for h in job["model"]])
                assert np.array_equal(bits(record.model), bits(weights))
        statuses = {job["status"] for job in expected["jobs"].values()}
        assert statuses == {"completed", "failed", "rejected", "cancelled", "queued"}

        statements = {(s.principal, s.table): s for s in service.budgets()}
        for budget in expected["budgets"]:
            statement = statements[(budget["principal"], budget["table"])]
            assert [statement.cap.epsilon, statement.cap.delta] == budget["cap"]
            assert list(statement.spent) == budget["spent"]
            assert statement.reserved == (0.0, 0.0)

        # The restored cache serves a resubmission for free.
        trained = service.result("job-00001")
        job = trained.job
        hit = service.submit(
            job.principal, job.table, job.candidate.loss, epsilon=job.epsilon,
            delta=job.delta, passes=job.candidate.passes,
            batch_size=job.candidate.batch_size, seed=job.seed,
        )
        assert hit.status is JobStatus.COMPLETED and hit.dispatch == "cached"
        assert hit.cache_source == "job-00001"
        assert np.array_equal(bits(hit.model), bits(trained.model))
        assert service.page_reads == 0
