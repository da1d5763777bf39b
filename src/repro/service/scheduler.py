"""The shared-scan scheduler: many tenants' jobs, one table scan.

With bolt-on privacy every private job is a plain noiseless Bismarck
scan plus one noise draw at release, so the only scheduling decision is
which jobs share a page stream. This module makes it one way: every
claimed batching window (single-table by construction) runs as ONE
*scan flight* — a loop of the table's
:class:`~repro.rdbms.executor.ScanCursor` over its shared permutation,
with each job aboard as an :class:`~repro.rdbms.uda.ElevatorRider`.
Riders keep their own batch phase and epoch counters, so jobs with
different batch sizes or pass counts still share the one stream, and a
32-job window costs one job's page requests instead of 32. Riders that
board together with the same batch size, pass count and loss family
also share the arithmetic: they fold as one cohort, one stacked
multi-model step per segment (see
:class:`~repro.rdbms.uda.ElevatorMultiSGDUDA`). A rider that boards at
offset 0 executes exactly the floating-point operations of a solo
``run_sgd`` over the same permutation, alone or in a cohort, and each
job's noise comes from its own seed-spawned stream — so a job's weights
are bitwise the same whichever jobs it flew with.

Admission control is budget-first: a job's (ε, δ) is **reserved** in the
ledger at submission, *before* it can ever reach a scan. Denied jobs are
rejected having charged zero pages and zero budget; failed jobs refund
their reservation; only a successfully released model commits it.

Two serving-layer mechanisms ride the bitwise-determinism invariant:

* **The cross-drain result cache.** A release is a pure function of
  (table contents, the table's scan permutation, candidate, privacy
  parameters, job seed) — so that tuple (with the table contents
  summarized by :func:`table_fingerprint` and the permutation by the
  scheduler's ``scan_seed``) keys a cache of committed releases.
  Resubmitting a completed job returns the stored weights at admission:
  0 page requests, 0 ε re-spend (the same output released twice reveals
  nothing new — no reservation is taken, no spend committed), dispatch
  mode ``"cached"``. Hits are gated on the submitter holding a ledger
  account for the table: a free re-release, not an access grant.
  The same rule covers a job whose identical *primary* is still queued
  or running (a resent submit, typically): the *twin* attaches to the
  primary instead of reserving, and completes from the primary's
  release as a hit does — if that release is the canonical offset-0
  answer. If the primary fails, is cancelled, or rides from an
  elevator offset, each twin is admitted on its own and pays only if it
  trains.
* **Worker-thread dispatch** (:mod:`repro.service.worker`). Dispatch is
  split into :meth:`claim_window` (pop the next batching window — quick,
  under the admission lock) and :meth:`dispatch_window` (train it), so
  background workers can pull windows concurrently while ``submit()``
  never waits on a scan.

Per-table engine domains
------------------------

The engine's unit of isolation is the *table*, not the whole pool: each
registered table owns an engine domain — its buffer-pool shard and
counters (:meth:`BufferPool.stats_for`), its shared-scan permutation
operator, and its **engine lock**. Flights on the *same* table serialize
on that lock (the before/after page deltas each flight records stay
exact), while flights on *different* tables hold different locks and run
truly concurrently: N workers drive N flights on N distinct tables at
once. :meth:`claim_window` is table-aware — it claims the next window
for a table whose domain is free instead of parking a worker behind an
unrelated scan — and windows are therefore single-table by construction.
``parallel_scans=False`` restores the PR 4 behaviour (every scan behind
one global engine lock): the reference configuration the ``--parallel``
bench gate measures its speedup against. Neither mode can change any
released bit — by the determinism contract, scheduling only ever decides
*when* a job completes.

Boarding (``elevator=True``)
----------------------------

By default a flight's boarding closes with its openers: a job arriving
one millisecond after the flight took off waits for the next window and
pays for a fresh scan. ``elevator=True`` keeps boarding open — the
paper's true shared-cursor design: ``submit()`` and :meth:`claim_window`
route queued jobs for the table onto the open flight, the driving worker
admits them at the next canonical chunk boundary, and each rider exits
after riding exactly ``passes`` wrap-arounds back to its boarding chunk.
Page cost becomes O(concurrent scan loops) instead of O(batching
windows).

Boarding is bitwise-safe — a rider executes the identical operation
sequence of a solo ``run_sgd(..., start_offset=p)`` — but the *choice*
of ``p`` depends on when the job arrived relative to the cursor, so
under the elevator a job's released weights are a pure function of the
usual tuple **plus its boarding offset**. That is why boarding is
opt-in, why every record carries ``boarding_offset``/``epochs_ridden``
provenance, and why only offset-0 releases (flight openers — identical
to a closed flight's) are primed into the result cache.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bolton import output_perturbation
from repro.core.sensitivity import SensitivityBound, sensitivity_for_schedule
from repro.obs import metrics as obs_metrics
from repro.rdbms.bismarck import BismarckSession
from repro.rdbms.catalog import TableInfo
from repro.rdbms.executor import DEFAULT_CHUNK_SIZE, ScanCursor
from repro.rdbms.storage import BufferPoolStats, TransientPageFault
from repro.rdbms.uda import ElevatorMultiSGDUDA, ElevatorRider, SGDUDA
from repro.service.errors import BudgetRejected, InvalidCandidate, UnknownTable
from repro.service.jobs import JobQueue, JobStatus, TrainingJob
from repro.service.ledger import BudgetReservation, PrivacyBudgetLedger
from repro.service.registry import (
    CachedResult,
    JobRecord,
    ModelRegistry,
    ResultCache,
)
from repro.utils.validation import check_positive_int


def table_fingerprint(table: TableInfo) -> Optional[str]:
    """A content hash of a table — the "same data" half of a cache key —
    as its heap states it (:meth:`HeapFile.content_fingerprint
    <repro.rdbms.storage.HeapFile.content_fingerprint>`), or ``None``
    for a heap without one: jobs on such tables train normally but are
    never cached. Read off the heap, never through the buffer pool, so
    fingerprinting moves no page-request counter the accounting tests
    pin. Memoized per table by the scheduler (:meth:`SharedScanScheduler.
    fingerprint_table`)."""
    return table.heap.content_fingerprint()


class _Flight:
    """One scan flight: a cursor loop over a table and the riders aboard.

    The boarding fields are guarded by the scheduler's admission lock:
    ``boarders`` holds jobs routed onto the flight but not yet admitted
    by the driving worker; ``occupancy`` counts riders aboard plus
    pending boarders (capacity control). Jobs are routed only onto
    flights listed in the scheduler's open-flight map, and teardown
    unlists a flight and takes its boarders back in one critical
    section, so no job is routed into a loop that will not pick it up.
    The rest belongs to the driving worker: ``riders`` maps each rider to
    ``(job, sensitivity, pages at boarding, retries at boarding)``, so
    a rider's page and retry counts are the span of its own ride.
    """

    def __init__(
        self,
        capacity: int,
        cursor: ScanCursor,
        rides: ElevatorMultiSGDUDA,
        pool_stats: BufferPoolStats,
    ):
        self.capacity = capacity
        self.boarders: List[TrainingJob] = []
        self.occupancy = 0
        self.cursor = cursor
        self.rides = rides
        self.pool_stats = pool_stats
        self.riders: Dict[ElevatorRider, tuple] = {}
        self.job_ids: List[str] = []
        #: Chunk re-reads taken after transient page faults.
        self.retries = 0
        #: Seconds spent releasing landed riders (kept out of the scan
        #: duration, which times the cursor loop alone).
        self.landing_seconds = 0.0

    @property
    def room(self) -> int:
        return self.capacity - self.occupancy


class SharedScanScheduler:
    """Claims batching windows and runs each one as a single scan flight.

    Parameters
    ----------
    session / ledger / registry:
        The service's engine connection, budget ledger, and results store.
    batching_window:
        How many queued jobs one scheduling round claims — the openers
        of one flight (and, under ``elevator=True``, the flight's rider
        capacity). ``1`` gives every job a scan of its own. Dispatch
        order is by (priority desc, arrival) — deterministic, and by the
        bitwise-determinism contract it only affects *when* a job
        completes, never what it computes.
    chunk_size:
        The cursor's canonical chunk size for every flight: chunking
        decides mini-batch segment boundaries, so a rider is bitwise its
        solo ``run_sgd`` only at the same ``chunk_size``, and boarding
        offsets are multiples of it.
    scan_seed:
        Seed of the per-table shared permutations. Each table's scan
        order is drawn once from ``(scan_seed, table name)`` and replayed
        by every job that ever trains on it, which is what makes a job's
        result independent of scheduling.
    parallel_scans:
        ``True`` (default) gives every table its own engine lock, so
        workers overlap scans on distinct tables. ``False`` routes every
        scan through one global engine lock — the serialized PR 4
        behaviour the parallel bench gate compares against.
    elevator:
        ``True`` keeps each flight's boarding open: jobs for the table
        submitted while it runs board mid-flight (see the module
        docstring). Off by default — boarding offsets make released
        weights depend on arrival timing, which a closed flight never
        does.
    cache_size:
        Entry cap of the cross-drain result cache (LRU on last hit);
        ``None`` leaves it unbounded.
    scan_retries:
        How many times a flight re-reads one chunk whose gather raised
        :class:`~repro.rdbms.storage.TransientPageFault` (with linear
        backoff) before the flight fails. Safe under the determinism
        contract: the pool never caches a faulted page and no rider has
        folded the chunk yet, so the re-read delivers the identical
        block (see :meth:`_next_chunk`). Attempt ``n`` first sleeps
        ``n * retry_backoff_seconds`` (an attribute: 0.05 s).
    """

    def __init__(
        self,
        session: BismarckSession,
        ledger: PrivacyBudgetLedger,
        registry: ModelRegistry,
        *,
        batching_window: int = 32,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        scan_seed: int = 0,
        parallel_scans: bool = True,
        elevator: bool = False,
        cache_size: Optional[int] = None,
        scan_retries: int = 2,
        metrics: Optional[obs_metrics.MetricsRegistry] = None,
    ) -> None:
        self.session = session
        self.ledger = ledger
        self.registry = registry
        # Telemetry handles. The default is the no-op registry, so a
        # scheduler driven directly (tests, benchmarks) pays one
        # swallowed call per instrumentation point; the service passes
        # its live registry in. All recording here is per flight or per
        # rider — never per tuple, and per chunk only on a fault retry.
        self.metrics = metrics if metrics is not None else obs_metrics.disabled()
        self._scan_duration = self.metrics.histogram(
            "repro_scan_duration_seconds",
            "Wall-clock of one scan flight's cursor loop, by table "
            "(the riders' release epilogues excluded).",
            ("table",),
        )
        self._scan_pages_total = self.metrics.counter(
            "repro_scan_pages_total",
            "Page requests charged by scan flights, by table "
            "(equals the sum of the dispatch log's page deltas).",
            ("table",),
        )
        self._scan_retries_total = self.metrics.counter(
            "repro_scan_retries_total",
            "Chunk re-reads taken by scan flights after transient page faults.",
        )
        self._queue_wait = self.metrics.histogram(
            "repro_queue_wait_seconds",
            "Time from admission to a worker claiming the job (the "
            "queued span), by table.",
            ("table",),
        )
        self._boardings_total = self.metrics.counter(
            "repro_elevator_boardings_total",
            "Riders admitted onto scan flights, by table.",
            ("table",),
        )
        self._stacked_riders_total = self.metrics.counter(
            "repro_elevator_stacked_riders_total",
            "Riders that folded in a cohort of two or more (one stacked "
            "multi-model step per chunk), by table.",
            ("table",),
        )
        self._flight_riders = self.metrics.histogram(
            "repro_elevator_riders",
            "Riders admitted per scan flight, by table.",
            ("table",),
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        )
        self._epochs_ridden_total = self.metrics.counter(
            "repro_elevator_epochs_ridden_total",
            "Full cursor loops ridden by released riders.",
        )
        self.batching_window = check_positive_int(batching_window, "batching_window")
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        self.scan_seed = int(scan_seed)
        self.parallel_scans = bool(parallel_scans)
        self.elevator = bool(elevator)
        if scan_retries < 0:
            raise ValueError(f"scan_retries must be >= 0, got {scan_retries}")
        self.scan_retries = int(scan_retries)
        self.retry_backoff_seconds = 0.05
        #: Chunk re-reads taken after transient faults (telemetry).
        self.scan_retries_used = 0
        self.queue = JobQueue()
        self.cache = ResultCache(max_entries=cache_size)
        # table name -> (heap object, fingerprint): keying the memo to
        # the heap's identity makes drop-and-recreate self-invalidating;
        # in-place content mutation still needs invalidate_fingerprint.
        self._fingerprints: Dict[str, Tuple[object, Optional[str]]] = {}
        # Flights open for boarding, by table (admission lock; elevator
        # mode only).
        self._flights: Dict[str, _Flight] = {}
        self._reservations: Dict[str, BudgetReservation] = {}
        # The twin rule (admission lock): the queued or running job that
        # holds each cache key (its primary), and per primary its key and
        # the twins attached to it, by job id.
        self._primaries: Dict[tuple, str] = {}
        self._twins: Dict[str, Tuple[tuple, Dict[str, JobRecord]]] = {}
        self._clock = 0
        # Guards the admission path (clock, queue, reservation map, the
        # busy-table set) so concurrent submitters compose with the
        # ledger's own lock.
        self._admission_lock = threading.Lock()
        # Per-table engine locks: a flight serializes with other flights
        # of ITS table only — page accounting is per-table too (the pool's
        # per-heap counters), so the before/after deltas each dispatch
        # records stay exact under cross-table concurrency. Never taken
        # by submit(). With parallel_scans=False every table resolves to
        # the one global lock below instead.
        self._table_locks: Dict[str, threading.Lock] = {}
        self._table_locks_guard = threading.Lock()
        self._global_engine_lock = threading.Lock()
        # Tables whose domain a worker has claimed a window for (claim ->
        # end of dispatch). claim_window skips them so a free worker
        # takes a different table's work instead of parking on a lock.
        self._busy_tables: set = set()
        # Telemetry that flights on different tables update concurrently
        # (the server reports it): which tables are inside a scan right
        # now, the peak distinct-table concurrency ever reached, scans
        # per table, and scan_retries_used.
        self._overlap_lock = threading.Lock()
        self._scanning: set = set()
        self.peak_overlap = 0
        #: Scans dispatched per table (one flight = one scan).
        self.table_scans: Dict[str, int] = {}
        #: Dispatch telemetry: ((table,), job_ids, pages) per flight.
        self.dispatch_log: List[Tuple[tuple, List[str], int]] = []

    # -- admission ---------------------------------------------------------------

    def submit(self, job: TrainingJob) -> JobRecord:
        """Admit (reserve budget + enqueue), serve from cache, or reject.

        Zero-cost rejection is the point: the ledger says no *here*, at
        submission, so an over-budget job never appears in any scan group
        and never causes a page request. The result cache answers here
        too — an account-holder's job identical to a committed release
        completes at admission with 0 pages and 0 ε reserved or spent —
        and an account-holder's job identical to one still queued or
        running attaches to it as a twin, reserving nothing.
        """
        if not job.job_id or job.arrival < 0:
            raise ValueError("submit needs a stamped job (job_id + arrival)")
        # Fail fast on programming errors — unknown table, or an option
        # the in-RDBMS dispatch cannot honor — so they raise instead of
        # producing a REJECTED record (and before any budget moves).
        try:
            self.session.catalog.get(job.table)
        except KeyError as error:
            raise UnknownTable(error.args[0]) from None
        if job.candidate.average is not None:
            raise InvalidCandidate(
                "the service's in-RDBMS dispatch (SGDUDA riders) does "
                "not support iterate averaging; submit with average=None or "
                "train via repro.core.train_bolt_on directly"
            )
        cache_key = self.cache_key(job)
        with self._admission_lock:
            self._clock += 1
            record = JobRecord(
                job=job, status=JobStatus.QUEUED, submitted_at=self._clock
            )
            record.trace.enter("admit")
            # The cache answers only for principals the ledger knows on
            # this table: a release costs an account-holder 0 ε (the same
            # output twice reveals nothing new), but a principal with no
            # grant at all must fall through to the reserve below and be
            # REJECTED — a hit is a free re-release, not an access grant.
            hit = (
                self.cache.get(cache_key)
                if self.ledger.has_account(job.principal, job.table)
                else None
            )
            if hit is not None:
                self._serve_locked(record, hit, cache_key)
                self.registry.add(record)
                record.mark_done()
                return record
            self._admit_locked(record, cache_key, registered=False)
            return record

    def _admit_locked(
        self, record: JobRecord, key: Optional[tuple], *, registered: bool
    ) -> None:
        """Attach ``record`` to its key's primary, or reserve its budget
        and queue it, or reject it (admission lock held). ``registered``
        records are twins being admitted again after their primary did
        not release."""
        job = record.job
        primary = self._primaries.get(key)
        if primary is not None and self.ledger.has_account(job.principal, job.table):
            if not registered:
                self.registry.add(record)
                record.trace.enter("queued")
            self._twins[primary][1][job.job_id] = record
            return
        try:
            reservation = self.ledger.reserve(
                job.principal, job.table, job.privacy, job_id=job.job_id
            )
        except BudgetRejected as denial:
            record.error = str(denial)
            record.finished_at = self._clock
            record.trace.close()
            record.status = JobStatus.REJECTED
            if not registered:
                self.registry.add(record)
            record.mark_done()
            return
        if not registered:
            try:
                self.registry.add(record)
            except Exception:
                # Never leak a hold: if the record cannot be registered
                # (e.g. a duplicate job id), the reservation comes back.
                self.ledger.refund(reservation)
                raise
            record.trace.enter("queued")
        self._reservations[job.job_id] = reservation
        if key is not None:
            self._primaries[key] = job.job_id
            self._twins[job.job_id] = (key, {})
        self.queue.push(job)
        # Elevator mode: if the job's table has an open scan loop with
        # room, route it straight onto the flight — this is the
        # board-the-running-scan path; the driving worker admits it at
        # the next chunk boundary.
        self._route_boarders_locked()

    def _serve_locked(
        self, record: JobRecord, hit: CachedResult, key: tuple
    ) -> None:
        """Complete ``record`` from a committed release: 0 pages, 0 ε
        (admission lock held; the caller publishes it with
        ``mark_done``)."""
        # Copy: the cache entry is shared across hits, and the registry
        # hands records' arrays back by reference — one tenant mutating
        # their result must never corrupt the cache or another tenant's
        # record.
        record.model = hit.weights.copy()
        record.sensitivity = hit.sensitivity
        record.noise_norm = hit.noise_norm
        record.epochs = hit.epochs
        record.dispatch = "cached"
        record.cache_source = hit.source_job_id
        record.table_fingerprint = key[1]
        record.scan_seed = self.scan_seed
        record.finished_at = self._clock
        record.trace.close()
        record.status = JobStatus.COMPLETED

    def _settle_twins(
        self, primary: JobRecord, release: Optional[CachedResult]
    ) -> List[JobRecord]:
        """Detach the twins of ``primary``, which just went terminal;
        returns the ones it completed.

        ``release`` is the primary's entry in the result cache: set only
        when it completed at offset 0, the canonical answer the twins'
        key names, and then each twin completes from it as a hit does.
        Otherwise — the primary failed, was cancelled, or rode from an
        elevator offset — each twin is admitted on its own, so it never
        receives an offset ride's release and pays only if it trains.
        """
        with self._admission_lock:
            entry = self._twins.pop(primary.job_id, None)
            if entry is None:
                return []
            key, twins = entry
            del self._primaries[key]
            if release is None:
                for twin in twins.values():
                    self._admit_locked(twin, key, registered=True)
                return []
            self._clock += 1
            for twin in twins.values():
                self._serve_locked(twin, release, key)
                twin.mark_done()
            return list(twins.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that is still QUEUED: refund its reservation and
        record it CANCELLED (0 pages, 0 ε) so its submitter's
        ``record.wait()`` returns immediately.

        Returns ``False`` when the job can no longer cancel — it already
        reached a terminal state, or a worker claimed it into a window
        (it is about to run; scans are not cancellable mid-epoch).
        Unknown job ids raise ``KeyError``. In elevator mode a job routed
        onto an open flight but not yet admitted by the driver is still
        cancellable — it is pulled off the boarder list before the
        cursor ever sees it. A twin is detached from its primary, with
        nothing to refund; a cancelled primary's twins are admitted on
        their own.
        """
        record = self.registry.get(job_id)
        with self._admission_lock:
            if record.status is not JobStatus.QUEUED:
                return False
            removed = self.queue.remove(job_id)
            if not removed:
                for flight in self._flights.values():
                    for index, boarder in enumerate(flight.boarders):
                        if boarder.job_id == job_id:
                            del flight.boarders[index]
                            flight.occupancy -= 1
                            removed = True
                            break
                    if removed:
                        break
            if not removed:
                # A twin: detached from its primary, with nothing to refund.
                for _, twins in self._twins.values():
                    if twins.pop(job_id, None) is not None:
                        removed = True
                        break
            if not removed:
                # Claimed into a window (or already aboard a cursor):
                # the dispatch path owns it now.
                return False
            reservation = self._reservations.pop(job_id, None)
            if reservation is not None:
                self.ledger.refund(reservation)
            self._clock += 1
            record.error = "cancelled while queued"
            record.finished_at = self._clock
            record.trace.close()
            record.status = JobStatus.CANCELLED
        record.mark_done()
        self._settle_twins(record, None)
        return True

    # -- the result cache --------------------------------------------------------

    def cache_key(self, job: TrainingJob) -> Optional[tuple]:
        """The bitwise-determinism tuple that identifies ``job``'s release:
        (table name + content fingerprint + scan seed, candidate identity
        + privacy parameters + job seed). ``None`` when the job is not
        cacheable (a loss without a hashable identity, or a table without
        a cheap content fingerprint)."""
        identity = job.cache_identity()
        if identity is None:
            return None
        fingerprint = self.fingerprint_table(job.table)
        if fingerprint is None:
            return None
        return (job.table, fingerprint, self.scan_seed, identity)

    def fingerprint_table(self, table_name: str) -> Optional[str]:
        """Memoized content fingerprint of a registered table (``None``
        for unfingerprintable heaps — their jobs are never cached).

        The service calls this eagerly at table registration so the
        O(table) hashing pass happens there, not inside the first
        tenant's ``submit()`` — admission must stay bookkeeping-cheap.
        (Lazy computation remains as a fallback for schedulers driven
        directly, e.g. in tests.)

        The memo is keyed to the *heap object*, not the table name
        alone: dropping and recreating a table swaps the heap, so the
        stale entry can never key a cache hit to the old content. A heap
        whose contents are mutated **in place** is invisible to this
        check — that is what :meth:`invalidate_fingerprint` is for, and
        every content-mutation surface must call it.
        """
        table = self.session.catalog.get(table_name)
        memo = self._fingerprints.get(table_name)
        if memo is None or memo[0] is not table.heap:
            memo = (table.heap, table_fingerprint(table))
            self._fingerprints[table_name] = memo
        return memo[1]

    def invalidate_fingerprint(self, table_name: str) -> None:
        """Drop the memoized content fingerprint for ``table_name``.

        Required after any heap content mutation (re-registration with
        new data, in-place array edits): the fingerprint is the "same
        data" half of every cache key, so a stale memo would key cache
        hits — weights trained on the *old* content — to the new table.
        The service wires this into its registration surfaces; callers
        mutating a registered heap directly must invoke it themselves
        (via :meth:`TrainingService.invalidate_fingerprint`). Idempotent
        and cheap; the next :meth:`fingerprint_table` call re-hashes.
        """
        self._fingerprints.pop(table_name, None)


    def prime_cache(self, record: JobRecord) -> Optional[CachedResult]:
        """Arm the cache with an already-committed release (restore path).

        A registry loaded from a snapshot holds completed records whose
        work was paid for in a previous process; priming each one makes
        the restarted service serve resubmissions from cache instead of
        re-spending budget. The key is built from the record's own
        provenance (the fingerprint of the data it was trained on, its
        scan seed) — never the table's current state — so a release of
        since-changed data or another scan order is simply unreachable,
        not wrong. Returns the cached entry, or ``None`` when the record
        is not cacheable.
        """
        if record.status is not JobStatus.COMPLETED or record.model is None:
            return None
        if record.boarding_offset:
            # An offset release is specific to where the cursor happened
            # to be when the job boarded; only offset-0 releases — what a
            # window-batched dispatch would also have produced — are
            # reproducible from the cache key alone.
            return None
        if not record.table_fingerprint or record.scan_seed is None:
            return None
        identity = record.job.cache_identity()
        if identity is None:
            return None
        key = (
            record.job.table,
            record.table_fingerprint,
            record.scan_seed,
            identity,
        )
        entry = CachedResult(
            weights=np.array(record.model, dtype=np.float64),
            sensitivity=record.sensitivity,
            noise_norm=record.noise_norm,
            epochs=record.epochs,
            source_job_id=record.cache_source or record.job_id,
        )
        self.cache.put(key, entry)
        return entry

    # -- dispatch ----------------------------------------------------------------

    def claim_window(self) -> List[TrainingJob]:
        """Atomically pop the next batching window (possibly empty).

        This is the worker-facing half of dispatch: quick, under the
        admission lock, never touching the engine — so a worker claiming
        work can never make ``submit()`` wait on a scan.

        Table-aware: the window is claimed for the table of the
        highest-priority queued job whose engine domain is *free* (no
        other worker mid-dispatch on it), and contains only that table's
        jobs — so a second worker overlaps a different table's scan
        instead of queueing behind this one. Empty with a non-empty
        queue means every queued table is mid-scan; the claimed table's
        domain is marked busy until :meth:`dispatch_window` releases it.

        In elevator mode a busy table may have an *open flight*: rather
        than deferring its queued jobs to the next window, they are
        routed onto the live cursor first (same admission-lock pass), so
        an empty claim can still have moved work forward.
        """
        with self._admission_lock:
            self._route_boarders_locked()
            if not len(self.queue):
                return []
            table = self.queue.next_table(busy=self._busy_tables)
            if table is None:
                return []
            window = self.queue.pop_window_for(table, self.batching_window)
            if window:
                self._busy_tables.add(table)
                for job in window:
                    self._mark_claimed(job)
            return window

    def _mark_claimed(self, job: TrainingJob) -> None:
        """Trace/metrics at the queue→worker handoff: close the job's
        ``queued`` span (its duration is the queue wait), open ``claim``."""
        trace = self.registry.get(job.job_id).trace
        queued = trace.enter("claim")
        if queued is not None and queued.name == "queued":
            self._queue_wait.observe(queued.duration, table=job.table)

    def queue_depths(self) -> Dict[str, int]:
        """Queued jobs per table right now (telemetry snapshot)."""
        with self._admission_lock:
            return self.queue.depth_by_table()

    def _route_boarders_locked(self) -> None:
        """Move queued jobs onto open flights with room (admission lock
        held by the caller). Riders keep their own batch phase and epoch
        counters, so nothing but the table has to match: any queued job
        targeting a table with an open flight boards it."""
        if not self.elevator or not self._flights:
            return
        for table_name, flight in list(self._flights.items()):
            room = flight.room
            if room <= 0:
                continue
            boarding = self.queue.pop_window_for(table_name, room)
            if boarding:
                flight.boarders.extend(boarding)
                flight.occupancy += len(boarding)

    def dispatch_window(self, window: List[TrainingJob]) -> List[JobRecord]:
        """Train one claimed window as one scan flight (a window from
        :meth:`claim_window` names one table; a hand-built window gets
        one flight per table). Returns the records that reached a
        terminal state (completed + failed), in completion order.

        No exception escapes a flight: an unexpected error (engine
        failures are already handled deeper down — this catches
        everything else, e.g. a table dropped between admission and
        dispatch) FAILS the window's remaining jobs, refunding their
        reservations. A claimed job must always reach a terminal state —
        a stranded QUEUED/RUNNING record with a leaked budget hold would
        be strictly worse than any error this could surface.
        """
        finished: List[JobRecord] = []
        by_table: Dict[str, List[TrainingJob]] = {}
        for job in window:
            by_table.setdefault(job.table, []).append(job)
        try:
            for table_name, jobs in by_table.items():
                try:
                    self._fly(table_name, jobs, finished)
                except Exception as error:
                    self.fail_jobs(jobs, error, finished)
        finally:
            # Free the claimed engine domains no matter what — a leaked
            # busy flag would starve the table forever. (A window built
            # by claim_window names one table; discard tolerates windows
            # assembled by hand in tests, which were never marked busy.)
            with self._admission_lock:
                self._busy_tables.difference_update(by_table)
        return finished

    def fail_jobs(
        self,
        jobs: List[TrainingJob],
        error: Exception,
        finished: Optional[List[JobRecord]] = None,
    ) -> List[JobRecord]:
        """Drive every non-terminal job in ``jobs`` to FAILED (reservation
        refunded). The last-resort cleanup for dispatch-machinery errors."""
        finished = [] if finished is None else finished
        for job in jobs:
            if self.registry.get(job.job_id).status in (
                JobStatus.QUEUED,
                JobStatus.RUNNING,
            ):
                self._fail(job, error, finished)
        return finished

    def release_window(self, window: List[TrainingJob]) -> None:
        """Free the engine-domain busy flags a claimed window holds.

        :meth:`dispatch_window` releases them itself on every path
        through its ``finally`` — this is the worker's belt-and-braces
        cleanup for exceptions that strike *outside* dispatch (a crash
        hook between claim and dispatch, a failure inside ``fail_jobs``):
        a leaked busy flag would starve the table forever, and releasing
        an already-free table is a no-op, so calling this twice is safe.
        """
        with self._admission_lock:
            self._busy_tables.difference_update(job.table for job in window)

    def run_pending(self) -> List[JobRecord]:
        """Drain the queue synchronously on the calling thread.

        The single-threaded reference loop: claim a window, dispatch it,
        repeat until quiescent. The worker loop
        (:class:`repro.service.worker.DispatchLoop`) does exactly this
        from background threads; by the determinism contract both paths
        release bitwise-identical weights.
        """
        finished: List[JobRecord] = []
        while True:
            window = self.claim_window()
            if not window:
                return finished
            finished.extend(self.dispatch_window(window))

    # -- the scan flight -------------------------------------------------------

    def _fly(
        self, table_name: str, jobs: List[TrainingJob], finished: List[JobRecord]
    ) -> None:
        """ONE scan flight over ``table_name``'s cursor for ``jobs``.

        The jobs open the flight at the cursor's parked position (offset
        0); under ``elevator=True`` the flight is also open for boarding
        — ``submit()``/``claim_window`` route newly-arriving same-table
        jobs onto it, and the driver admits them *between* chunks, at
        the cursor's current grid position. Each rider exits the moment
        its last epoch completes, back at its boarding chunk. The page
        stream is paid once per cursor loop no matter how many riders
        are aboard; a rider's ``group_pages`` is the page span of its
        own ride — exactly its solo cost, ``passes * num_tuples``, plus
        whatever a transient fault's re-read cost during the ride.

        A transient page fault re-reads the chunk (:meth:`_next_chunk`);
        any other engine failure fails every admitted rider (budget
        refunded), and routed-but-never-admitted boarders go back to the
        queue — they never started, so they retry on a fresh flight.
        """
        table = self.session.catalog.get(table_name)
        openers = self._resolve(jobs, table.num_tuples, finished)
        if not openers:
            return
        pool_stats = self.session.pool.stats_for(table.heap)
        with self._engine_domain(table_name):
            flight = _Flight(
                capacity=self.batching_window,
                cursor=self._shared_scan(table_name).cursor(self.chunk_size),
                rides=ElevatorMultiSGDUDA(
                    num_tuples=table.num_tuples, dimension=table.dimension
                ),
                pool_stats=pool_stats,
            )
            flight.occupancy = len(openers)
            if self.elevator:
                with self._admission_lock:
                    self._flights[table_name] = flight
            pages_before = pool_stats.page_reads
            started = time.perf_counter()
            try:
                for resolved in openers:
                    self._board(flight, *resolved)
                while True:
                    for resolved in self._take_boarders(flight, table, finished):
                        self._board(flight, *resolved)
                    if not flight.rides.active:
                        break
                    features, labels = self._next_chunk(flight)
                    for rider in flight.rides.fold_chunk(features, labels):
                        self._land(flight, rider, finished)
            except Exception as error:  # engine failure mid-flight
                for job, *_ in flight.riders.values():
                    self._fail(job, error, finished)
                flight.riders.clear()
                self.fail_jobs(jobs, error, finished)  # openers not yet aboard
            finally:
                self._close(table_name, flight)
            self._scan_duration.observe(
                time.perf_counter() - started - flight.landing_seconds,
                table=table_name,
            )
            pages = pool_stats.page_reads - pages_before
            self._scan_pages_total.inc(pages, table=table_name)
            self._flight_riders.observe(
                flight.rides.riders_admitted, table=table_name
            )
            self._stacked_riders_total.inc(
                flight.rides.riders_stacked, table=table_name
            )
            self.dispatch_log.append(((table_name,), flight.job_ids, pages))

    def _take_boarders(
        self, flight: _Flight, table: TableInfo, finished: List[JobRecord]
    ) -> List[Tuple]:
        """Hand the driver the jobs routed onto ``flight`` since the last
        chunk, resolved (one that fails to resolve gives up its seat)."""
        with self._admission_lock:
            boarding, flight.boarders = flight.boarders, []
        resolved = self._resolve(boarding, table.num_tuples, finished)
        if len(resolved) < len(boarding):
            with self._admission_lock:
                flight.occupancy -= len(boarding) - len(resolved)
        return resolved

    def _board(
        self,
        flight: _Flight,
        job: TrainingJob,
        schedule,
        projection,
        sensitivity: SensitivityBound,
    ) -> None:
        """Admit one resolved job at the cursor's current grid position."""
        uda = SGDUDA(
            job.candidate.loss, schedule, job.candidate.batch_size, projection
        )
        record = self.registry.get(job.job_id)
        record.status = JobStatus.RUNNING
        # Boarders routed onto the flight never pass claim_window — their
        # queued span closes here, at admission onto the cursor.
        if record.trace.current == "queued":
            self._mark_claimed(job)
        record.trace.enter("scan")
        rider = flight.rides.admit(
            uda, passes=job.candidate.passes, boarding_offset=flight.cursor.position
        )
        self._boardings_total.inc(table=job.table)
        flight.riders[rider] = (
            job, sensitivity, flight.pool_stats.page_reads, flight.retries
        )
        flight.job_ids.append(job.job_id)

    def _land(
        self, flight: _Flight, rider: ElevatorRider, finished: List[JobRecord]
    ) -> None:
        """Release a rider that just completed its last epoch."""
        job, sensitivity, pages_at_boarding, retries_at_boarding = flight.riders[rider]
        landed = time.perf_counter()
        self._release(
            job,
            rider.model,
            sensitivity,
            group_size=flight.rides.riders_admitted,
            group_pages=flight.pool_stats.page_reads - pages_at_boarding,
            finished=finished,
            boarding_offset=rider.boarding_offset,
            epochs_ridden=rider.epochs_completed,
            scan_retries=flight.retries - retries_at_boarding,
        )
        flight.landing_seconds += time.perf_counter() - landed
        del flight.riders[rider]
        with self._admission_lock:
            flight.occupancy -= 1

    def _next_chunk(self, flight: _Flight):
        """The cursor's next chunk, with bounded retry on transient faults.

        A :class:`~repro.rdbms.storage.TransientPageFault` (a flaky
        device, SQLite busy/locked, an injected fault) re-reads the
        chunk up to ``scan_retries`` times with linear backoff. A re-read
        cannot change a released bit: ``BufferPool.get_pages`` raises
        before it caches the faulted page, the cursor advances only once
        a whole chunk is gathered, and no rider has folded the chunk yet
        — so the attempt that succeeds delivers the identical block.
        Pages the failed attempts requested stay in the flight's page
        delta: accounting reports what the fault actually cost. Any
        other exception (including a permanent :class:`PageFaultError`)
        propagates at once to the flight's failure handling.
        """
        attempt = 0
        while True:
            try:
                return flight.cursor.next_chunk()
            except TransientPageFault:
                attempt += 1
                if attempt > self.scan_retries:
                    raise
                flight.retries += 1
                with self._overlap_lock:
                    self.scan_retries_used += 1
                self._scan_retries_total.inc()
                if self.retry_backoff_seconds > 0.0:
                    time.sleep(self.retry_backoff_seconds * attempt)

    def _close(self, table_name: str, flight: _Flight) -> None:
        """Tear a flight down: stop routing onto it, send routed but
        never-admitted boarders back to the queue (their reservations
        still stand), and park the cursor."""
        with self._admission_lock:
            if self._flights.get(table_name) is flight:
                del self._flights[table_name]
            for job in flight.boarders:
                self.queue.push(job)
            flight.boarders = []
        # Park at 0: the next flight's openers board at offset 0, so
        # their releases stay cache-eligible.
        flight.cursor.park()

    # -- shared steps ------------------------------------------------------------

    def _table_lock(self, table_name: str) -> threading.Lock:
        """The table's engine lock (one shared lock if parallel_scans
        is off — the serialized reference configuration)."""
        if not self.parallel_scans:
            return self._global_engine_lock
        with self._table_locks_guard:
            return self._table_locks.setdefault(table_name, threading.Lock())

    @contextmanager
    def _engine_domain(self, table_name: str):
        """Hold ``table_name``'s engine domain for one scan.

        Serializes with scans of the same table only; tracks the
        distinct-table scan overlap the server reports.
        """
        with self._table_lock(table_name):
            with self._overlap_lock:
                self._scanning.add(table_name)
                self.peak_overlap = max(self.peak_overlap, len(self._scanning))
                self.table_scans[table_name] = self.table_scans.get(table_name, 0) + 1
            try:
                yield
            finally:
                with self._overlap_lock:
                    self._scanning.discard(table_name)

    def _tick(self) -> int:
        """Advance the logical clock (thread-safe; workers finish jobs
        concurrently with new admissions)."""
        with self._admission_lock:
            self._clock += 1
            return self._clock

    def _take_reservation(self, job_id: str) -> Optional[BudgetReservation]:
        with self._admission_lock:
            return self._reservations.pop(job_id, None)

    def _resolve(
        self, jobs: List[TrainingJob], m: int, finished: List[JobRecord]
    ) -> List[Tuple]:
        """``(job, schedule, projection, sensitivity)`` for each job whose
        parameters resolve; every other job fails *before* it costs any
        I/O (non-releasable losses — e.g. a non-smooth hinge — die here
        with their budget refunded)."""
        resolved = []
        for job in jobs:
            try:
                schedule, projection, properties = job.candidate.resolve(m)
                sensitivity = sensitivity_for_schedule(
                    properties,
                    schedule,
                    m,
                    job.candidate.passes,
                    job.candidate.batch_size,
                )
            except Exception as error:
                self._fail(job, error, finished)
                continue
            resolved.append((job, schedule, projection, sensitivity))
        return resolved

    def _release(
        self,
        job: TrainingJob,
        noiseless: np.ndarray,
        sensitivity: SensitivityBound,
        *,
        group_size: int,
        group_pages: int,
        finished: List[JobRecord],
        boarding_offset: int,
        epochs_ridden: int,
        scan_retries: int,
    ) -> None:
        """The bolt-on epilogue + budget commit for one trained job."""
        record = self.registry.get(job.job_id)
        # The scan span closes here, carrying what the scan cost; these
        # attrs deliberately mirror the record fields set below (the
        # telemetry-consistency tests pin the equality). Telemetry reads
        # clocks and counters only — the noise stream spawned next is
        # untouched by any of this.
        record.trace.enter(
            "epilogue",
            pages=group_pages,
            retries=scan_retries,
            boarding_offset=boarding_offset,
            epochs_ridden=epochs_ridden,
        )
        self._epochs_ridden_total.inc(epochs_ridden)
        model, noise_norm = output_perturbation(
            noiseless, sensitivity, job.privacy, job.noise_stream()
        )
        record.trace.enter("commit")
        reservation = self._take_reservation(job.job_id)
        try:
            receipt = self.ledger.commit(reservation)
        except Exception as error:  # pragma: no cover - reserve guarantees room
            self._fail(job, error, finished)
            return
        # Result fields land before the status flips to COMPLETED, so a
        # concurrent autosave snapshot can never capture a completed
        # record with a half-written release.
        record.model = model
        record.receipt = receipt
        record.sensitivity = float(sensitivity.value)
        record.noise_norm = noise_norm
        record.dispatch = "scan"
        record.group_size = group_size
        record.group_pages = group_pages
        record.epochs = job.candidate.passes
        record.boarding_offset = boarding_offset
        record.epochs_ridden = epochs_ridden
        record.table_fingerprint = self.fingerprint_table(job.table) or ""
        record.scan_seed = self.scan_seed
        record.finished_at = self._tick()
        record.trace.close()
        record.status = JobStatus.COMPLETED
        release = self.prime_cache(record)
        finished.append(record)
        record.mark_done()
        finished.extend(self._settle_twins(record, release))

    def _fail(
        self, job: TrainingJob, error: Exception, finished: List[JobRecord]
    ) -> None:
        """Terminal failure: refund the reservation, record the reason."""
        reservation = self._take_reservation(job.job_id)
        if reservation is not None:
            self.ledger.refund(reservation)
        record = self.registry.get(job.job_id)
        record.error = f"{type(error).__name__}: {error}"
        record.finished_at = self._tick()
        record.trace.close(error=type(error).__name__)
        record.status = JobStatus.FAILED
        finished.append(record)
        record.mark_done()
        self._settle_twins(record, None)

    def _shared_scan(self, table_name: str):
        """The table's service-wide permutation (seeded by table, not job).

        The session builds the seed only when it creates the table's
        operator: once per registered table, not once per flight.
        """
        return self.session.shared_scan(
            table_name, random_state=partial(self._table_seed, table_name)
        )

    def _table_seed(self, table_name: str) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            [self.scan_seed, zlib.crc32(table_name.encode("utf-8"))]
        )
