"""The multi-tenant training service (the serving layer over the engine).

The paper runs private SGD *inside* the data platform; this package is
the subsystem that makes the platform a long-lived, multi-tenant server:
jobs arrive from many principals, a shared-scan scheduler runs each
batching window of same-table jobs as a single table scan (cross-tenant
amortization of PR 2's K-models-one-scan idea), and a two-phase
privacy-budget ledger guarantees that no tenant can exceed their
per-dataset (ε, δ) allowance — over-budget jobs are rejected before
touching data, failed jobs refund their reservation, and only released
models commit a spend.

Since PR 4 the service is a *continuously-running* server: a background
:class:`~repro.service.worker.DispatchLoop` trains the queue on worker
threads (``submit()`` returns a job handle immediately; tenants block on
``record.wait()``), a cross-drain result cache serves resubmitted
identical jobs with 0 pages and 0 ε, and the registry + account caps
snapshot to disk so a restarted service resumes with prior records and
budgets reconciled from committed receipts. Since PR 7 the snapshot is
crash-safe: a checksummed append-only receipt log
(:mod:`repro.service.wal`) makes the per-window autosave O(1), survives
kill -9 mid-window (torn tail truncated, committed receipts replayed),
and refuses to load tampered history (fail-closed).

Entry point: :class:`TrainingService` (see :mod:`repro.service.server`).
"""

from repro.service.errors import (
    BudgetRejected,
    InvalidCandidate,
    NotCancellable,
    ServiceError,
    UnknownJob,
    UnknownTable,
)
from repro.service.jobs import JobQueue, JobStatus, TrainingJob
from repro.service.ledger import (
    AccountStatement,
    BudgetReceipt,
    BudgetReservation,
    PrivacyBudgetLedger,
)
from repro.service.registry import (
    CachedResult,
    JobRecord,
    ModelRegistry,
    ResultCache,
)
from repro.service.scheduler import SharedScanScheduler, table_fingerprint
from repro.service.server import TrainingService
from repro.service.wal import WalCorruption, WriteAheadLog
from repro.service.worker import DispatchLoop

__all__ = [
    "TrainingService",
    "TrainingJob",
    "JobQueue",
    "JobStatus",
    "JobRecord",
    "ModelRegistry",
    "ResultCache",
    "CachedResult",
    "SharedScanScheduler",
    "DispatchLoop",
    "PrivacyBudgetLedger",
    "BudgetReceipt",
    "BudgetReservation",
    "AccountStatement",
    "WriteAheadLog",
    "WalCorruption",
    "table_fingerprint",
    "ServiceError",
    "UnknownJob",
    "UnknownTable",
    "InvalidCandidate",
    "NotCancellable",
    "BudgetRejected",
]
