"""Tests for the service error taxonomy and the normalized verb surface.

The taxonomy contract: every fault a service verb raises is a
:class:`ServiceError` subclass with a stable machine-readable ``code``
(what the HTTP front-end serializes), while still inheriting the bare
exception type (``KeyError``/``ValueError``/``PrivacyBudgetExceeded``)
its fault is an instance of — nobody's ``except KeyError`` breaks.
"""

from __future__ import annotations

import pytest

from repro.core.accountant import PrivacyBudgetExceeded
from repro.core.bolton import BoltOnCandidate
from repro.optim.losses import LogisticLoss
from repro.rdbms.storage import MaterializedHeapFile
from repro.service import (
    BudgetRejected,
    InvalidCandidate,
    JobStatus,
    NotCancellable,
    ServiceError,
    TrainingService,
    UnknownJob,
    UnknownTable,
)
from repro.service.errors import ERROR_CODES, error_for_code
from repro.service.jobs import TrainingJob
from tests.conftest import make_binary_data

M, D = 200, 6
X, Y = make_binary_data(M, D, seed=31)


def make_service(cap: float = 10.0) -> TrainingService:
    service = TrainingService(scan_seed=5, workers=1)
    service.register_table("t", X, Y)
    service.open_budget("alice", "t", cap)
    return service


class TestTaxonomyShape:
    """Static contracts: inheritance, codes, statuses."""

    def test_every_error_is_a_service_error_with_a_stable_code(self):
        for code, cls in ERROR_CODES.items():
            assert issubclass(cls, ServiceError)
            assert cls.code == code
            assert isinstance(cls.http_status, int)

    def test_legacy_exception_types_still_catch(self):
        # The dual-inheritance guarantee, one assert per verb family.
        assert issubclass(UnknownJob, KeyError)
        assert issubclass(UnknownTable, KeyError)
        assert issubclass(InvalidCandidate, ValueError)
        assert issubclass(NotCancellable, ValueError)
        assert issubclass(BudgetRejected, PrivacyBudgetExceeded)

    def test_str_is_not_keyerror_quoted(self):
        # KeyError.__str__ repr-quotes its message; the taxonomy must not.
        assert str(UnknownJob("unknown job 'j-1'")) == "unknown job 'j-1'"

    def test_error_for_code_round_trips_the_taxonomy(self):
        for code, cls in ERROR_CODES.items():
            rebuilt = error_for_code(code, "msg")
            assert type(rebuilt) is cls
            assert str(rebuilt) == "msg"

    def test_error_for_code_maps_generic_fallbacks(self):
        assert isinstance(error_for_code("not_found", "m"), KeyError)
        assert isinstance(error_for_code("invalid_request", "m"), ValueError)
        unknown = error_for_code("weird_new_code", "m")
        assert isinstance(unknown, ServiceError)
        assert unknown.code == "weird_new_code"


class TestVerbsRaiseTheTaxonomy:
    """Dynamic contracts: the verbs raise the new classes."""

    def test_unknown_job_from_every_lookup_verb(self):
        service = make_service()
        for verb in (service.result, service.status, service.model,
                     service.trace, service.cancel):
            with pytest.raises(UnknownJob) as excinfo:
                verb("job-99999")
            assert excinfo.value.code == "unknown_job"
        # And the legacy catch still works.
        with pytest.raises(KeyError):
            service.result("job-99999")

    def test_unknown_table_on_submit(self):
        service = make_service()
        with pytest.raises(UnknownTable) as excinfo:
            service.submit("alice", "nope", LogisticLoss(1e-2), epsilon=0.05)
        assert excinfo.value.code == "unknown_table"

    def test_invalid_candidate_refuses_iterate_averaging(self):
        service = make_service()
        job = TrainingJob(
            principal="alice",
            table="t",
            candidate=BoltOnCandidate(
                loss=LogisticLoss(1e-2), batch_size=50, average="suffix"
            ),
            epsilon=0.05,
        )
        with pytest.raises(InvalidCandidate) as excinfo:
            service.submit_job(job)
        assert excinfo.value.code == "invalid_candidate"

    def test_budget_rejected_is_catchable_as_privacy_budget_exceeded(self):
        service = make_service(cap=10.0)
        from repro.core.accountant import PrivacyParameters

        with pytest.raises(PrivacyBudgetExceeded) as excinfo:
            service.ledger.reserve(
                "mallory", "t", PrivacyParameters(0.05, 0.0), job_id="job-x"
            )
        assert isinstance(excinfo.value, BudgetRejected)
        assert excinfo.value.code == "budget_rejected"

    def test_over_budget_submit_still_returns_a_rejected_record(self):
        # The scheduler swallows BudgetRejected into a REJECTED record —
        # the taxonomy must not have changed that admission contract.
        service = make_service(cap=0.01)
        record = service.submit("alice", "t", LogisticLoss(1e-2), epsilon=0.05)
        assert record.status is JobStatus.REJECTED
        assert record.error


class TestVerbNormalization:
    """register_table(heap=) registers a prebuilt heap; health() exists."""

    def test_register_table_accepts_a_heap(self):
        service = TrainingService(scan_seed=5, workers=1)
        info = service.register_table("h", heap=MaterializedHeapFile(X, Y))
        service.open_budget("alice", "h", 1.0)
        record = service.submit("alice", "h", LogisticLoss(1e-2),
                                epsilon=0.05, batch_size=50)
        service.drain()
        assert record.status is JobStatus.COMPLETED
        assert info.name == "h"

    def test_register_table_rejects_heap_plus_arrays(self):
        service = TrainingService(scan_seed=5, workers=1)
        with pytest.raises(ValueError):
            service.register_table("h", X, Y, heap=MaterializedHeapFile(X, Y))

    def test_health_reports_the_service_shape(self):
        service = make_service()
        health = service.health()
        assert health["status"] == "ok"
        assert health["durability"]["mode"] == "in-memory"
        assert health["queue_depth"] == 0
        assert health["workers"] == 1
        assert health["dispatch_running"] is False
        assert isinstance(health["jobs"], dict)
        service.submit("alice", "t", LogisticLoss(1e-2), epsilon=0.05)
        assert service.health()["queue_depth"] == 1
