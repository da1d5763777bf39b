"""The training service façade — the paper's engine as a multi-tenant server.

:class:`TrainingService` wires five service components around one
:class:`~repro.rdbms.bismarck.BismarckSession`:

* a **job model + queue** (:mod:`repro.service.jobs`),
* the **privacy-budget ledger** (:mod:`repro.service.ledger`),
* the **shared-scan scheduler** + cross-drain **result cache**
  (:mod:`repro.service.scheduler`),
* the **model registry / results store** (:mod:`repro.service.registry`),
* the **background dispatch loop** (:mod:`repro.service.worker`),

and exposes the tenant-facing verbs: register a table, grant a budget,
submit jobs, await results, query records. It is deliberately an
in-process server (no sockets): the contribution is the scheduling and
accounting discipline, and an RPC front-end can wrap these verbs without
touching them.

Async by default
----------------

``submit()`` returns immediately with a live
:class:`~repro.service.registry.JobRecord`; with the dispatch loop
running (:meth:`start`, or any CLI ``serve --workers N``), background
workers train the queue continuously and tenants block on
``record.wait()``. :meth:`drain` remains as the synchronous
compatibility wrapper — it starts the loop if needed, blocks until the
service is quiescent, stops what it started, and returns the records
that finished.

Workers overlap scans on *different* tables (per-table engine domains;
``parallel_scans=False`` restores the single global engine lock), so a
multi-table server parallelizes I/O, not just epilogues —
:attr:`peak_scan_overlap` reports how much overlap a workload actually
achieved. Scans of the same table still serialize, keeping every
dispatch's page accounting exact.

Durability
----------

Construct with ``state_dir=`` and the service keeps a crash-safe
**append-only write-ahead log** (:mod:`repro.service.wal`) there: every
admission, terminal record, and budget grant is logged, and the
per-window autosave merely fsyncs the log's tail — O(events this
window), never O(history). Every ``wal_compact_records`` log records,
the autosave **compacts**: it writes the full base snapshot
(``registry.json`` + ``accounts.json``, both atomic renames) and starts
a fresh log. A restarted service calls :meth:`load_state` (implicit in
``__init__`` when the files exist is deliberately avoided — tables must
be registered first) to resume by *snapshot + log replay*: prior
records, budgets reconciled by replaying committed receipts, the result
cache re-armed so resubmitted jobs cost 0 pages and 0 ε. A torn final
log record (the kill -9 signature) is truncated away; corruption
anywhere earlier refuses to load
(:class:`~repro.service.wal.WalCorruption`, fail-closed). If the state
directory turns out not to be writable, the service warns once and
degrades to in-memory serving instead of killing the dispatch loop.

>>> service = TrainingService(workers=4)
>>> service.register_table("ratings", X, y)
>>> service.open_budget("alice", "ratings", epsilon=1.0)
>>> service.start()
>>> record = service.submit("alice", "ratings", LogisticLoss(1e-3),
...                         epsilon=0.1, passes=5, batch_size=50, seed=7)
>>> record.wait()          # never blocks other submitters
>>> service.model(record.job_id)  # the differentially private release
>>> service.stop()
"""

from __future__ import annotations

import json
import pathlib
import threading
import warnings
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.bolton import BoltOnCandidate
from repro.obs import metrics as obs_metrics
from repro.obs.trace import JobTrace
from repro.optim.losses import Loss
from repro.rdbms.bismarck import BismarckSession
from repro.rdbms.catalog import TableInfo
from repro.rdbms.cost_model import CostModel
from repro.rdbms.executor import DEFAULT_CHUNK_SIZE
from repro.rdbms.storage import SQLiteHeapFile
from repro.service.jobs import JobStatus, TrainingJob
from repro.service.ledger import AccountStatement, PrivacyBudgetLedger
from repro.service.registry import (
    TERMINAL_STATUS_VALUES,
    JobRecord,
    ModelRegistry,
    restore_record,
    snapshot_payloads,
)
from repro.service.scheduler import SharedScanScheduler
from repro.service.wal import WalCorruption, WriteAheadLog, write_durably
from repro.service.worker import DispatchLoop

#: File names inside ``state_dir``.
REGISTRY_STATE = "registry.json"
ACCOUNTS_STATE = "accounts.json"
WAL_STATE = "receipts.wal"


class TrainingService:
    """An in-process, multi-tenant private-SGD training service."""

    def __init__(
        self,
        *,
        buffer_pool_pages: int = 65536,
        batching_window: int = 32,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        scan_seed: int = 0,
        workers: int = 1,
        parallel_scans: bool = True,
        elevator: bool = False,
        cache_size: Optional[int] = None,
        state_dir: Optional[Union[str, pathlib.Path]] = None,
        wal_compact_records: int = 256,
        scan_retries: int = 2,
        cost_model: Optional[CostModel] = None,
        session: Optional[BismarckSession] = None,
        metrics: Optional[obs_metrics.MetricsRegistry] = None,
        metrics_file: Optional[Union[str, pathlib.Path]] = None,
        max_terminal_records: Optional[int] = None,
    ) -> None:
        self.session = (
            session
            if session is not None
            else BismarckSession(buffer_pool_pages, cost_model)
        )
        #: The service's telemetry registry. Always on by default (the
        #: instrumentation budget is <=5% of drain wall-clock, gated in
        #: CI); pass ``obs.disabled()`` for the zero-cost twin.
        self.metrics_registry = (
            metrics if metrics is not None else obs_metrics.MetricsRegistry()
        )
        self.metrics_file = (
            None if metrics_file is None else pathlib.Path(metrics_file)
        )
        self._metrics_dump_failed = False
        self._metrics_dump_lock = threading.Lock()
        self.ledger = PrivacyBudgetLedger()
        self.registry = ModelRegistry(max_terminal_records=max_terminal_records)
        self.scheduler = SharedScanScheduler(
            self.session,
            self.ledger,
            self.registry,
            batching_window=batching_window,
            chunk_size=chunk_size,
            scan_seed=scan_seed,
            parallel_scans=parallel_scans,
            elevator=elevator,
            cache_size=cache_size,
            scan_retries=scan_retries,
            metrics=self.metrics_registry,
        )
        self.state_dir = None if state_dir is None else pathlib.Path(state_dir)
        if wal_compact_records < 1:
            raise ValueError(
                f"wal_compact_records must be positive, got {wal_compact_records}"
            )
        self.wal_compact_records = int(wal_compact_records)
        #: The append-only receipt log (None without a state_dir). Event
        #: hooks are wired immediately — appends only buffer in memory —
        #: but the log touches disk no earlier than the first autosave.
        self.wal: Optional[WriteAheadLog] = None
        self._wal_ready = False
        self._state_loaded = False
        self._durability_degraded = False
        self._durability_error = ""
        self._wal_sync_seconds = self.metrics_registry.histogram(
            "repro_wal_sync_seconds",
            "Write-ahead log sync (drain + fsync) latency.",
        )
        self._wal_compaction_seconds = self.metrics_registry.histogram(
            "repro_wal_compaction_seconds",
            "Write-ahead log compaction (fresh-generation reset) latency.",
        )
        if self.state_dir is not None:
            self.wal = WriteAheadLog(self.state_dir / WAL_STATE)
            self.wal.observer = self._observe_wal
            self.registry.journal = self.wal.append
            self.ledger.on_grant = self._journal_grant
        self.metrics_registry.add_collector(self._sample_metrics)
        self.loop = DispatchLoop(
            self.scheduler,
            workers=workers,
            autosave=(
                self._autosave_window
                if self.state_dir is not None or self.metrics_file is not None
                else None
            ),
            metrics=self.metrics_registry,
        )
        self._submissions = 0
        self._stamp_lock = threading.Lock()
        self._save_lock = threading.Lock()
        # Serializes whole drain() calls: concurrent drains would race
        # each other's loop start/stop (the first finisher stopping the
        # loop could strand the second in wait_quiescent forever).
        self._drain_lock = threading.Lock()
        self._drain_offset = 0

    # -- data & budget administration -------------------------------------------

    def register_table(
        self,
        name: str,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        *,
        backend: str = "memory",
        path=None,
        heap=None,
    ) -> TableInfo:
        """CREATE TABLE + COPY a dataset tenants may train against.

        ``backend="memory"`` (the default) materializes the arrays into
        an in-process heap. ``backend="sqlite"`` puts real storage under
        the engine: with arrays, they are bulk-loaded into a fresh
        SQLite-WAL heap at ``path``; without arrays, an existing heap
        database at ``path`` is opened as-is. ``heap=`` registers an
        already-built heap file object (e.g. a synthesized virtual one)
        as-is, instead of arrays or a backend. Either way the table
        rides the same buffer pool, scan flights, and result cache —
        releases are bitwise-identical across backends, and the cache
        key (a content fingerprint) is backend-invariant, so a job
        cached from the in-memory copy is served to a resubmission
        against the SQLite copy of the same data.
        """
        if heap is not None:
            if features is not None or labels is not None or path is not None:
                raise ValueError(
                    "heap= registers the given heap object as-is; do not "
                    "also pass features/labels or path"
                )
            info = self.session.register_table(name, heap)
        elif backend == "memory":
            if features is None or labels is None:
                raise ValueError("backend='memory' requires features and labels")
            info = self.session.load_table(name, features, labels)
        elif backend == "sqlite":
            if path is None:
                raise ValueError("backend='sqlite' requires path=")
            if features is not None or labels is not None:
                if features is None or labels is None:
                    raise ValueError("provide both features and labels, or neither")
                heap = SQLiteHeapFile.bulk_load(path, features, labels)
            else:
                heap = SQLiteHeapFile(path)
            info = self.session.register_table(name, heap)
        else:
            raise ValueError(f"unknown table backend {backend!r}")
        self._arm_cache(name)
        return info

    def open_budget(
        self, principal: str, table: str, epsilon: float, delta: float = 0.0
    ) -> None:
        """Grant ``principal`` an (ε, δ) cap on ``table``."""
        self.ledger.open_account(principal, table, epsilon, delta)

    def budgets(self) -> List[AccountStatement]:
        """Every account's cap/spent/reserved snapshot."""
        return self.ledger.statements()

    def invalidate_fingerprint(self, table_name: str) -> None:
        """Tell the service a registered heap's *contents* changed.

        The scheduler memoizes each table's content fingerprint (the
        "same data" half of every result-cache key). Re-registration
        invalidates automatically, and drop-and-recreate is caught by
        the memo's heap-identity check — but a caller mutating a
        registered heap's arrays **in place** must call this, or cached
        weights trained on the old contents could be served for the new
        ones. The next submit/release re-hashes the table.
        """
        self.scheduler.invalidate_fingerprint(table_name)

    # -- the tenant verbs --------------------------------------------------------

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
        """Build, stamp, and admit one job; returns its (live) record.

        The returned record already reflects admission: status QUEUED
        with the budget reserved, COMPLETED instantly when the result
        cache recognizes the job (dispatch ``"cached"``, 0 pages, 0 ε),
        or REJECTED (over budget / no account) with nothing charged and
        no data touched. A job identical to one still queued or running
        attaches to it as a twin: QUEUED with nothing reserved, it
        completes from that job's release. Never blocks on a scan — await
        training with ``record.wait()`` or :meth:`drain`. (Iterate averaging is not
        offered: the in-RDBMS dispatch releases the final iterate, and
        the scheduler refuses candidates that ask otherwise.)
        """
        candidate = BoltOnCandidate(
            loss=loss,
            passes=passes,
            batch_size=batch_size,
            eta=eta,
            radius=radius,
        )
        return self.submit_job(
            TrainingJob(
                principal=principal,
                table=table,
                candidate=candidate,
                epsilon=epsilon,
                delta=delta,
                priority=priority,
                seed=seed,
            )
        )

    def submit_job(self, job: TrainingJob) -> JobRecord:
        """Stamp (job id + arrival tick) and admit a prebuilt job."""
        with self._stamp_lock:
            self._submissions += 1
            job.job_id = job.job_id or f"job-{self._submissions:05d}"
            job.arrival = self._submissions
        record = self.scheduler.submit(job)
        if self.loop.running:
            self.loop.wake()
        return record

    def start(self) -> "TrainingService":
        """Start the background dispatch loop (the long-lived server mode)."""
        self.loop.start()
        return self

    def stop(self) -> None:
        """Stop the dispatch loop. Queued jobs stay queued for the next
        start/drain within this process; they are NOT durable across a
        restart (a loaded snapshot marks them FAILED/interrupted)."""
        self.loop.stop()

    def drain(self, timeout: Optional[float] = None) -> List[JobRecord]:
        """Run every queued job to a terminal state; returns them.

        Compatibility wrapper over the dispatch loop: starts it if it is
        not already running, blocks until the service is quiescent (no
        queued jobs, no window in flight), stops what it started, and
        returns the records that reached a terminal state since the
        previous drain — the same contract the synchronous PR 3 drain
        had, now backed by worker threads.

        ``timeout`` bounds the *quiescence wait* only: on expiry a
        TimeoutError is raised, but if this call started the loop, the
        stop in its cleanup still joins the workers — i.e. an in-flight
        scan runs to completion before the error reaches the caller
        (scans are not cancellable mid-epoch).
        """
        with self._drain_lock:
            started_here = not self.loop.running
            if started_here:
                self.loop.start()
            self.loop.wake()
            try:
                if not self.loop.wait_quiescent(timeout):
                    if self.loop.stopping or not self.loop.running:
                        raise RuntimeError(
                            "drain interrupted: the dispatch loop was "
                            "stopped while jobs were still pending"
                        )
                    raise TimeoutError(f"drain did not quiesce within {timeout}s")
            finally:
                if started_here:
                    self.loop.stop()
            finished = self.loop.finished[self._drain_offset:]
            # Advance by what was actually returned — a worker may append
            # between the slice and this line (continuous mode), and those
            # records belong to the NEXT drain, not the void.
            self._drain_offset += len(finished)
        return list(finished)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that is still QUEUED (or aboard a not-yet-admitted
        elevator flight): its reservation is refunded in full and the
        record goes terminal CANCELLED with zero pages and zero ε spent.
        Returns ``False`` once a worker has claimed the job — a running
        scan is not cancellable mid-epoch (the page reads and the budget
        commit happen atomically at window end; killing it halfway would
        forfeit determinism for no refund). Raises ``KeyError`` for an
        unknown job id. Cancelling a twin (an identical submit attached to
        a queued or running job) detaches it and leaves that job alone;
        cancelling a job with twins admits each twin on its own."""
        cancelled = self.scheduler.cancel(job_id)
        if cancelled and self.loop.running:
            self.loop.wake()  # a detached twin may have been queued
        return cancelled

    # -- observability -----------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """The liveness/readiness snapshot ``GET /v1/healthz`` renders:
        durability mode (plus WAL counters), queue depth (total and
        per-table), the dispatch loop's worker count and running flag,
        and the registry's status histogram. Cheap by design — counters
        and dict walks only, no scans, no disk."""
        depths = self.scheduler.queue_depths()
        return {
            "status": "ok",
            "durability": self.durability,
            "queue_depth": sum(depths.values()),
            "queue_depths": depths,
            "workers": self.loop.workers,
            "dispatch_running": self.loop.running,
            "jobs": self.registry.counts(),
        }

    def trace(self, job_id: str) -> JobTrace:
        """The lifecycle trace of one job: monotonic-clock spans from
        admission through commit (``admit``, ``queued``, ``claim``,
        ``scan``, ``epilogue``, ``commit``), plus a live-only trailing
        ``wal_sync`` span once the window's autosave made the record
        durable. Raises ``KeyError`` for an unknown job id."""
        return self.registry.get(job_id).trace

    def metrics(self, format: str = "prometheus") -> Union[str, dict]:
        """Render the service's metrics: the Prometheus text exposition
        (``format="prometheus"``) or a JSON-native dump
        (``format="json"``). Rendering runs the sampling collectors, so
        pool/ledger/registry gauges reflect this instant."""
        if format == "prometheus":
            return self.metrics_registry.render_prometheus()
        if format == "json":
            return self.metrics_registry.render_json()
        raise ValueError(
            f"unknown metrics format {format!r}: use 'prometheus' or 'json'"
        )

    def _observe_wal(self, kind: str, seconds: float) -> None:
        """The write-ahead log's latency observer (fires outside its lock)."""
        if kind == "sync":
            self._wal_sync_seconds.observe(seconds)
        else:
            self._wal_compaction_seconds.observe(seconds)

    def _sample_metrics(self) -> None:
        """The render-time collector: fold ground truth the service does
        not event-instrument — registry counts, queue depths, per-heap
        pool counters, ledger statements, cache and WAL totals — into
        gauges/counters. Runs only when someone renders the metrics, so
        none of this costs the hot path anything."""
        reg = self.metrics_registry
        jobs = reg.gauge(
            "repro_registry_jobs", "Jobs in the registry by status.", ("status",)
        )
        for status, count in self.registry.counts().items():
            jobs.set(count, status=status)
        reg.gauge(
            "repro_scan_overlap_peak",
            "Most scans on distinct tables ever in flight at once.",
        ).set(self.scheduler.peak_overlap)
        table_scans = reg.counter(
            "repro_table_scans_total",
            "Scans dispatched per table (one flight = one scan).",
            ("table",),
        )
        for name, count in self.scheduler.table_scans.items():
            table_scans.set_total(count, table=name)
        reg.counter(
            "repro_scan_groups_total",
            "Dispatched scan flights (one per claimed window).",
        ).set_total(len(self.scheduler.dispatch_log))
        depth = reg.gauge(
            "repro_queue_depth", "Queued jobs per table right now.", ("table",)
        )
        depth.clear()  # tables drained since the last sample must read 0
        for name, queued in self.scheduler.queue_depths().items():
            depth.set(queued, table=name)
        cache = self.scheduler.cache
        reg.counter(
            "repro_cache_hits_total", "Result-cache hits (0 pages, 0 eps each)."
        ).set_total(cache.hits)
        reg.counter(
            "repro_cache_misses_total", "Result-cache misses."
        ).set_total(cache.misses)
        reg.counter(
            "repro_cache_evictions_total", "Result-cache LRU evictions."
        ).set_total(cache.evictions)
        reg.counter(
            "repro_registry_weights_evicted_total",
            "Terminal records whose weights the retention cap dropped.",
        ).set_total(self.registry.weights_evicted_total)
        pool_reads = reg.gauge(
            "repro_pool_page_reads", "Buffer-pool page requests.", ("table",)
        )
        pool_hits = reg.gauge(
            "repro_pool_cache_hits", "Buffer-pool cache hits.", ("table",)
        )
        pool_misses = reg.gauge(
            "repro_pool_cache_misses", "Buffer-pool cache misses.", ("table",)
        )
        pool_evictions = reg.gauge(
            "repro_pool_evictions", "Buffer-pool page evictions.", ("table",)
        )
        for name, stats in self.session.table_stats().items():
            pool_reads.set(stats.page_reads, table=name)
            pool_hits.set(stats.cache_hits, table=name)
            pool_misses.set(stats.cache_misses, table=name)
            pool_evictions.set(stats.evictions, table=name)
        account_labels = ("principal", "table")
        eps_cap = reg.gauge(
            "repro_ledger_epsilon_cap", "Granted epsilon cap.", account_labels
        )
        eps_spent = reg.gauge(
            "repro_ledger_epsilon_spent", "Committed epsilon.", account_labels
        )
        eps_reserved = reg.gauge(
            "repro_ledger_epsilon_reserved",
            "Epsilon held by in-flight reservations.",
            account_labels,
        )
        delta_cap = reg.gauge(
            "repro_ledger_delta_cap", "Granted delta cap.", account_labels
        )
        delta_spent = reg.gauge(
            "repro_ledger_delta_spent", "Committed delta.", account_labels
        )
        for statement in self.ledger.statements():
            labels = {
                "principal": statement.principal,
                "table": statement.table,
            }
            eps_cap.set(statement.cap.epsilon, **labels)
            eps_spent.set(statement.spent[0], **labels)
            eps_reserved.set(statement.reserved[0], **labels)
            delta_cap.set(statement.cap.delta, **labels)
            delta_spent.set(statement.spent[1], **labels)
        reg.counter(
            "repro_ledger_reserve_grants_total", "Reservations granted."
        ).set_total(self.ledger.reserve_grants)
        reg.counter(
            "repro_ledger_reserve_denials_total",
            "Reservations denied at admission (over cap or no account).",
        ).set_total(self.ledger.reserve_denials)
        reg.counter(
            "repro_ledger_commits_total", "Reservations committed."
        ).set_total(self.ledger.commit_count)
        reg.counter(
            "repro_ledger_refunds_total", "Reservations refunded in full."
        ).set_total(self.ledger.refund_count)
        reg.counter(
            "repro_wal_syncs_total", "Write-ahead log sync calls."
        ).set_total(self.wal.syncs if self.wal is not None else 0)
        reg.counter(
            "repro_wal_compactions_total",
            "Write-ahead log compactions (fresh generations).",
        ).set_total(self.wal.resets if self.wal is not None else 0)

    def _dump_metrics(self) -> None:
        """Refresh the on-disk metrics dump (:func:`write_durably`). The
        file's suffix picks the format: ``.json`` dumps the JSON
        document, anything else the Prometheus text exposition. Dumps
        serialize on their own lock — concurrent worker autosaves must
        not race each other's tmp file. A write
        failure warns once and stops dumping — telemetry export must
        never take the dispatch loop down."""
        if self.metrics_file is None or self._metrics_dump_failed:
            return
        try:
            if self.metrics_file.suffix == ".json":
                text = (
                    json.dumps(
                        self.metrics(format="json"), indent=1, sort_keys=True
                    )
                    + "\n"
                )
            else:
                text = self.metrics(format="prometheus")
            with self._metrics_dump_lock:
                if self._metrics_dump_failed:
                    return
                self.metrics_file.parent.mkdir(parents=True, exist_ok=True)
                write_durably(self.metrics_file, text.encode("utf-8"))
        except OSError as error:
            self._metrics_dump_failed = True
            warnings.warn(
                f"metrics file {self.metrics_file} is not writable "
                f"({error}); the service stops exporting dumps but keeps "
                "serving (metrics stay queryable in-process)",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- durability --------------------------------------------------------------

    def save_state(
        self, directory: Optional[Union[str, pathlib.Path]] = None
    ) -> pathlib.Path:
        """Write a full base snapshot of registry + account caps into
        ``directory`` (defaults to the service's ``state_dir``). When the
        target is the service's own state directory, the write-ahead log
        is reset to a fresh generation in the same breath — the snapshot
        *is* the compaction of everything logged so far. The per-window
        autosave calls this only at compaction points; between them it
        appends to the log (O(1) per window)."""
        directory = pathlib.Path(directory) if directory else self.state_dir
        if directory is None:
            raise ValueError("no state directory: pass one or set state_dir=")
        with self._save_lock:
            self._write_snapshot(directory)
            if (
                self.wal is not None
                and not self._durability_degraded
                and directory == self.state_dir
            ):
                self.wal.reset()
                self._wal_ready = True
        return directory

    def _write_snapshot(self, directory: pathlib.Path) -> None:
        """The base snapshot files (caller holds ``_save_lock``)."""
        directory.mkdir(parents=True, exist_ok=True)
        # Accounts first: each file replaces durably, but a crash
        # *between* the two must leave a loadable pair. New caps with
        # an older registry is harmless (grants without receipts); a
        # new registry whose receipts name accounts the caps file has
        # not heard of would make reconcile refuse the whole restore.
        write_durably(
            directory / ACCOUNTS_STATE,
            (json.dumps(self.ledger.caps_payload(), indent=1, sort_keys=True) + "\n")
            .encode("utf-8"),
        )
        self.registry.snapshot(directory / REGISTRY_STATE)

    def _autosave_window(self) -> None:
        """The dispatch loop's per-window durability hook.

        Steady state is an O(1) log sync: flush + fsync the events the
        window appended. Every ``wal_compact_records`` records the log
        is folded into the base snapshot and restarted. The very first
        disk contact decides the mode: a directory this service
        ``load_state``-ed from appends to its existing log; any other
        pre-existing state is *replaced* (snapshot + fresh log — the
        overwrite semantics ``save_state`` always had, so a foreign
        log's history is never merged into this service's). A write
        failure degrades to in-memory serving instead of killing the
        loop. With ``metrics_file=`` set, each window also refreshes the
        on-disk metrics dump (independently of durability — an
        in-memory-only service can still export telemetry).
        """
        if (
            self.state_dir is not None
            and self.wal is not None
            and not self._durability_degraded
        ):
            try:
                with self._save_lock:
                    if not self._wal_ready:
                        self.state_dir.mkdir(parents=True, exist_ok=True)
                        if self._state_loaded:
                            self.wal.open()
                        else:
                            self._write_snapshot(self.state_dir)
                            self.wal.reset()
                        self._wal_ready = True
                    elif self.wal.records_since_reset >= self.wal_compact_records:
                        self._write_snapshot(self.state_dir)
                        self.wal.reset()
                    else:
                        self.wal.sync()
            except OSError as error:
                self._degrade_durability(error)
        self._dump_metrics()

    def _journal_grant(
        self, principal: str, table: str, epsilon: float, delta: float
    ) -> None:
        """The ledger's grant observer → one WAL event per new account."""
        if self.wal is not None:
            self.wal.append(
                {
                    "event": "grant",
                    "principal": principal,
                    "table": table,
                    "epsilon": epsilon,
                    "delta": delta,
                }
            )

    def _degrade_durability(self, error: OSError) -> None:
        """State_dir is not writable: warn once, detach the event hooks,
        and keep serving from memory — a durability failure must never
        take the dispatch loop down with it."""
        self._durability_degraded = True
        self._durability_error = f"{type(error).__name__}: {error}"
        self.registry.journal = None
        self.ledger.on_grant = None
        if self.wal is not None:
            try:
                self.wal.close()
            except Exception:
                pass
        warnings.warn(
            f"state_dir {self.state_dir} is not writable ({error}); the "
            "service continues in-memory only — results and budgets will "
            "NOT survive a restart",
            RuntimeWarning,
            stacklevel=2,
        )

    @property
    def durability(self) -> Dict[str, object]:
        """Operator-facing durability status: the serving mode plus the
        write-ahead log's append/sync/compaction counters."""
        if self.state_dir is None:
            return {"mode": "in-memory"}
        status: Dict[str, object] = {
            "mode": "degraded" if self._durability_degraded else "wal",
            "state_dir": str(self.state_dir),
            "wal_records": self.wal.records_since_reset if self.wal else 0,
            "wal_appends": self.wal.appends if self.wal else 0,
            "wal_syncs": self.wal.syncs if self.wal else 0,
            "compactions": self.wal.resets if self.wal else 0,
        }
        if self._durability_degraded:
            status["error"] = self._durability_error
        return status

    def load_state(
        self, directory: Optional[Union[str, pathlib.Path]] = None
    ) -> int:
        """Resume from a snapshot + write-ahead log replay: prior
        records, reconciled budgets, armed result cache. Returns the
        number of records loaded.

        The base snapshot (when one exists — a service killed before its
        first compaction leaves only the log) is merged with the log's
        events: an ``admit`` event introduces a job the snapshot never
        saw (it loads FAILED/interrupted — in-flight work is not durable
        and is never charged), a ``record`` event carries a job's final
        payload and *overrides* a snapshot entry that still shows the job
        in flight (the completion landed after the snapshot was cut), and
        ``grant`` events re-open accounts the caps file missed. Committed
        receipts then replay through the accountant's own validation
        (idempotently — an event logged both before and after a
        compaction applies once), so the restored service enforces
        ``spent + reserved <= cap`` exactly where the original would
        have. A torn final log record is truncated; mid-log corruption
        or an unknown event kind refuses to load (fail-closed).

        Table registration and ``load_state()`` may happen in either
        order: cache entries are keyed by each record's stored data
        fingerprint, so they only ever match a table whose registered
        contents are the ones the weights were trained on.
        """
        directory = pathlib.Path(directory) if directory else self.state_dir
        if directory is None:
            raise ValueError("no state directory: pass one or set state_dir=")
        registry_path = directory / REGISTRY_STATE
        wal_path = directory / WAL_STATE
        base_payloads = (
            snapshot_payloads(registry_path) if registry_path.exists() else []
        )
        events = WriteAheadLog.replay(wal_path)
        accounts_path = directory / ACCOUNTS_STATE
        caps = (
            json.loads(accounts_path.read_text()) if accounts_path.exists() else []
        )
        payloads: Dict[str, dict] = {}
        order: List[str] = []
        for payload in base_payloads:
            job_id = payload["job"]["job_id"]
            payloads[job_id] = payload
            order.append(job_id)
        grant_caps: List[dict] = []
        for event in events:
            kind = event.get("event")
            if kind in ("admit", "record"):
                payload = event["record"]
                job_id = payload["job"]["job_id"]
                existing = payloads.get(job_id)
                if existing is None:
                    payloads[job_id] = payload
                    order.append(job_id)
                elif (
                    kind == "record"
                    and existing["status"] not in TERMINAL_STATUS_VALUES
                ):
                    # The snapshot caught the job mid-flight; its logged
                    # terminal payload is the truth. (A terminal snapshot
                    # entry is never overridden — stale tail events from
                    # a crash between snapshot and log reset replay as
                    # no-ops.)
                    payloads[job_id] = payload
            elif kind == "grant":
                grant_caps.append(
                    {
                        "principal": event["principal"],
                        "table": event["table"],
                        "epsilon": event["epsilon"],
                        "delta": event["delta"],
                    }
                )
            else:
                raise WalCorruption(
                    f"{wal_path} carries an event of unknown kind {kind!r}; "
                    "refusing to load a log this service version cannot replay"
                )
        if not payloads and not caps and not grant_caps:
            return 0
        records = [restore_record(payloads[job_id]) for job_id in order]
        # Validate before mutating anything: loading a snapshot over a
        # registry that already holds any of its jobs must fail whole,
        # not halfway through with the ledger already replayed.
        duplicates = [
            record.job_id for record in records if record.job_id in self.registry
        ]
        if duplicates:
            raise ValueError(
                f"cannot load {registry_path}: jobs already live in this "
                f"service's registry (first: {duplicates[0]!r}); load "
                "snapshots into a fresh service"
            )
        if caps:
            self.ledger.restore_caps(caps)
        if grant_caps:
            self.ledger.restore_caps(grant_caps)
        self.ledger.reconcile(
            [record.receipt for record in records if record.receipt is not None]
        )
        for record in records:
            self.registry.add(record)
        with self._stamp_lock:
            self._submissions = max(self._submissions, self.registry.max_stamp())
        # Re-arm the cache. Keys come from each record's stored
        # provenance (table fingerprint + scan seed), so this needs no
        # table registration and can never serve since-changed data:
        # an entry only matches once a table with the same fingerprint
        # is registered and submitted against.
        for record in records:
            self.scheduler.prime_cache(record)
        if directory == self.state_dir:
            self._state_loaded = True
        return len(records)

    def _arm_cache(self, table_name: str) -> None:
        """Pay the one-off table fingerprint scan here, at registration —
        never inside a tenant's ``submit()`` — and prime the result cache
        from any completed records on ``table_name`` (a no-op unless a
        snapshot was loaded before the table existed). Registration is a
        content-mutation surface (the name may have carried different
        data before), so the fingerprint memo is invalidated first."""
        self.scheduler.invalidate_fingerprint(table_name)
        self.scheduler.fingerprint_table(table_name)
        for record in self.registry.jobs(
            table=table_name, status=JobStatus.COMPLETED
        ):
            self.scheduler.prime_cache(record)

    # -- queries -----------------------------------------------------------------

    def status(self, job_id: str) -> JobStatus:
        """One job's current :class:`JobStatus` (raises on unknown ids)."""
        return self.registry.status(job_id)

    def result(self, job_id: str) -> JobRecord:
        """One job's full :class:`JobRecord` — status, released weights,
        receipt, dispatch provenance, and lifecycle trace."""
        return self.registry.get(job_id)

    def model(self, job_id: str) -> np.ndarray:
        """The differentially private weights of a completed job."""
        return self.registry.model(job_id)

    def jobs(self, **filters) -> List[JobRecord]:
        """Registry query passthrough (principal= / table= / status=)."""
        return self.registry.jobs(**filters)

    @property
    def page_reads(self) -> int:
        """Total page requests the service has made (all scans)."""
        return self.session.pool.stats.page_reads

    @property
    def peak_scan_overlap(self) -> int:
        """The most scans on *distinct* tables ever in flight at once
        (1 = fully serialized; capped by min(workers, tables))."""
        return self.scheduler.peak_overlap
