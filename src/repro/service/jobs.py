"""The training service's job model and admission queue.

A :class:`TrainingJob` is one tenant's request to train one bolt-on
private model against a registered table: *what* to train (a structural
:class:`~repro.core.bolton.BoltOnCandidate`), *where* (the table name),
*under which guarantee* (the (ε, δ) the tenant is willing to spend from
their per-(principal, table) budget account), and *with which randomness*
(a deterministic seed that fixes the job's private noise stream).

Determinism contract
--------------------

A job's released weights are a pure function of ``(table contents, the
table's service-wide scan permutation, candidate, seed)`` — notably *not*
of the other jobs it shares a scan with, its queue position, or its
arrival time. The scheduler upholds this by training every job as its own
rider on the table's shared scan cursor — the float operations of a solo
run — and by drawing each job's noise from its own seed-spawned stream;
the scheduler test suite locks the contract in at ``atol=0``.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.bolton import BoltOnCandidate
from repro.core.mechanisms import PrivacyParameters
from repro.utils.rng import spawn_generators, spawned_generator
from repro.utils.validation import check_positive


class JobStatus(enum.Enum):
    """Lifecycle of a submitted job."""

    #: Admitted (budget reserved) and waiting for a scan.
    QUEUED = "queued"
    #: Currently part of a dispatched scan.
    RUNNING = "running"
    #: Trained and released; budget committed, model in the registry.
    COMPLETED = "completed"
    #: Training raised; budget refunded, error recorded.
    FAILED = "failed"
    #: Denied at admission (over budget / unknown account); nothing ran,
    #: nothing was charged — zero pages, zero ε.
    REJECTED = "rejected"
    #: Cancelled while still QUEUED (tenant called ``cancel``): the
    #: reservation was refunded before any scan touched data — zero
    #: pages, zero ε. A job that reached a scan can no longer cancel.
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class TrainingJob:
    """One tenant's private-training request.

    ``priority`` orders dispatch only (higher first; FIFO within a
    priority level) — by the determinism contract it can never change
    what any job's weights are, only when they become available.
    ``seed`` fixes the job's private randomness: resubmitting the same
    job with the same seed reproduces the same release, and two jobs
    that must be independent should carry different seeds.
    """

    principal: str
    table: str
    candidate: BoltOnCandidate
    epsilon: float
    delta: float = 0.0
    priority: int = 0
    seed: int = 0
    #: Assigned by the service at submission.
    job_id: str = ""
    #: Logical arrival tick assigned at submission (FIFO tiebreak).
    arrival: int = -1

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        if not self.principal:
            raise ValueError("a job needs a non-empty principal")
        if not self.table:
            raise ValueError("a job needs a target table")

    @property
    def privacy(self) -> PrivacyParameters:
        """The (ε, δ) this job spends from its account."""
        return PrivacyParameters(self.epsilon, self.delta)

    def spawn_streams(self):
        """The job's two private generators: ``(sgd_rng, noise_rng)``.

        Mirrors :func:`repro.core.bolton.train_bolt_on`'s consumption
        order. The SGD stream is currently unused — the scan permutation
        belongs to the *table*, not the job — but stays reserved so the
        noise stream's identity survives future per-job randomness.
        """
        return spawn_generators(self.seed, 2)

    def noise_stream(self):
        """The job's noise generator, ``spawn_streams()[1]``, built alone:
        the bolt-on epilogue draws from this one only."""
        return spawned_generator(self.seed, 1)

    def cache_identity(self) -> tuple:
        """Everything *job-side* that the released weights depend on.

        By the determinism contract, a release is a pure function of
        (table contents, the table's scan permutation, candidate, privacy
        parameters, job seed). This tuple is the candidate/privacy/seed
        part; the scheduler joins it with the table fingerprint and the
        scan seed to key the cross-drain result cache. ``None`` when the
        candidate's loss has no hashable identity (such jobs still train,
        they are just never cached).

        Principal and priority are deliberately absent: neither reaches a
        single float of the release, so two tenants resubmitting the same
        job share the hit — provided each holds a ledger account on the
        table (the scheduler gates hits on that); the hit spends nothing
        from either account.
        """
        loss_key = self.candidate.loss.fusion_key()
        if loss_key is None:
            return None
        loss_type, loss_state = loss_key
        return (
            loss_type.__name__,
            loss_state,
            float(self.candidate.loss.regularization),
            self.candidate.passes,
            self.candidate.batch_size,
            self.candidate.eta,
            self.candidate.radius,
            self.candidate.average,
            float(self.epsilon),
            float(self.delta),
            self.seed,
        )


def _dispatch_order(job: TrainingJob) -> tuple:
    return (-job.priority, job.arrival)


class JobQueue:
    """Deterministic priority queue: ``(-priority, arrival)`` order.

    The list is kept *in dispatch order on insert* (``bisect.insort`` —
    O(log n) compares plus one O(n) shift), so every claim operation is
    a single O(n) pass with no re-sort. This matters because claims and
    pushes share the scheduler's admission lock: the old sort-at-pop
    scheme charged an O(n log n) re-sort to the same lock ``submit()``
    latency waits on, which at 10^4 queued jobs dominated submit p99
    (see the queue section of ``benchmarks/bench_service.py``). Ties on
    ``(-priority, arrival)`` insert after their equals, preserving the
    stable-sort FIFO the old scheme had. Claiming is table-aware
    (:meth:`next_table` + :meth:`pop_window_for`): the scheduler's
    busy-table protocol depends on every popped window naming a single
    table.
    """

    def __init__(self) -> None:
        self._jobs: List[TrainingJob] = []

    def __len__(self) -> int:
        return len(self._jobs)

    def push(self, job: TrainingJob) -> None:
        bisect.insort(self._jobs, job, key=_dispatch_order)

    def next_table(self, busy=()) -> Optional[str]:
        """The table of the highest-priority queued job whose table is not
        in ``busy`` — what a worker should claim next under per-table
        engine domains (``None`` when every queued table is mid-scan).

        Priority order is preserved *across* tables: among claimable
        tables, the one holding the front of the dispatch order wins, so
        a free engine domain never jumps a higher-priority claimable job.
        The list is in dispatch order, so this is a first-match scan —
        O(1) when the front of the queue is claimable, O(n) only when
        busy tables hold the front. This runs under the scheduler's
        admission lock, which ``submit()`` latency also waits on.
        """
        for job in self._jobs:
            if job.table not in busy:
                return job.table
        return None

    def pop_window_for(self, table: str, window: int) -> List[TrainingJob]:
        """Remove and return up to ``window`` jobs targeting ``table``, in
        dispatch order; jobs on other tables keep their queue positions.
        One O(n) pass — the insert-sorted invariant means no re-sort.
        """
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        taken: List[TrainingJob] = []
        kept: List[TrainingJob] = []
        for job in self._jobs:
            if job.table == table and len(taken) < window:
                taken.append(job)
            else:
                kept.append(job)
        self._jobs = kept
        return taken

    def remove(self, job_id: str) -> bool:
        """Remove one queued job by id (the cancel path). Returns whether
        it was found — ``False`` means the job already left the queue
        (claimed into a window or routed onto a flight)."""
        for index, job in enumerate(self._jobs):
            if job.job_id == job_id:
                del self._jobs[index]
                return True
        return False

    def pending(self) -> List[TrainingJob]:
        """The queued jobs in dispatch order (non-destructive)."""
        return list(self._jobs)

    def depth_by_table(self) -> dict:
        """Queued-job count per table (telemetry; one O(n) pass). Caller
        holds whatever lock guards the queue — the scheduler exposes this
        as ``queue_depths()`` under its admission lock."""
        depths: dict = {}
        for job in self._jobs:
            depths[job.table] = depths.get(job.table, 0) + 1
        return depths
