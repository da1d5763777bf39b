"""The model registry and results store — now durable and async-aware.

Every job the service has ever seen lives here as a :class:`JobRecord`:
its status, the released weights (for completed jobs), the budget
receipt that paid for them, and the execution metadata operators ask
about (which dispatch ran it, with how many scan-mates, how many page
requests its ride charged). The registry is the *only* interface for
reading results — the scheduler never hands weights back directly — so
whatever queries later PRs need (per-tenant dashboards, model GC,
lineage) have one place to grow.

Two serving-layer concerns live here too:

* **Completion events** — with the dispatch loop running in background
  worker threads, ``submit()`` returns before training does, so every
  record carries a ``threading.Event`` exposed as
  :meth:`JobRecord.wait` / :attr:`JobRecord.done`.
* **Durability** — :meth:`ModelRegistry.snapshot` /
  :meth:`ModelRegistry.load` round-trip the whole store through JSON.
  :meth:`JobRecord.payload` is the one codec for a job: the snapshot,
  the write-ahead log's events and every HTTP job body carry the same
  JSON. Weights survive *bitwise*: Python's ``json`` emits the shortest
  round-tripping ``repr`` for every float64, so a reloaded model is
  ``np.array_equal`` to the one that was saved. Jobs that were still
  QUEUED/RUNNING at snapshot time are not durable work —
  :func:`restore_record` marks them FAILED (interrupted) so their
  tenants see an honest terminal state and, because such records carry
  no receipt, budget reconciliation never charges for them.
"""

from __future__ import annotations

import json
import pathlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.bolton import BoltOnCandidate
from repro.core.mechanisms import PrivacyParameters
from repro.obs.trace import JobTrace
from repro.optim.losses import Loss
from repro.service.errors import UnknownJob
from repro.service.jobs import JobStatus, TrainingJob
from repro.service.ledger import BudgetReceipt
from repro.service.wal import write_durably

#: Format tag written into every snapshot (reject foreign files early).
SNAPSHOT_FORMAT = "repro-registry/v1"

#: The statuses a snapshot preserves verbatim; anything else was
#: in-flight work and reloads as FAILED (interrupted by restart).
_TERMINAL = (
    JobStatus.COMPLETED,
    JobStatus.FAILED,
    JobStatus.REJECTED,
    JobStatus.CANCELLED,
)

#: The terminal statuses as payload values — what the WAL replay's merge
#: rule checks a snapshot entry against (a WAL "record" event may
#: overwrite a snapshot payload only while the snapshot saw the job
#: in flight; see ``TrainingService.load_state``).
TERMINAL_STATUS_VALUES = frozenset(status.value for status in _TERMINAL)


@dataclass
class JobRecord:
    """Everything the service knows about one job."""

    job: TrainingJob
    status: JobStatus
    #: The differentially private release (None unless COMPLETED).
    model: Optional[np.ndarray] = None
    #: Proof of the committed spend (None unless COMPLETED; also None for
    #: cache hits — a hit re-spends nothing, see ``cache_source``).
    receipt: Optional[BudgetReceipt] = None
    #: L2-sensitivity the noise was calibrated to.
    sensitivity: Optional[float] = None
    #: Norm of the drawn noise vector (diagnostic).
    noise_norm: Optional[float] = None
    #: "scan" for trained jobs, "cached" for cache hits, "" otherwise.
    #: (Records written before scan flights became the only dispatch path
    #: may say "fused", "sequential" or "elevator"; they load unchanged.)
    dispatch: str = ""
    #: Riders admitted onto the job's scan flight by the time it was
    #: released (0 for cache hits).
    group_size: int = 0
    #: Page requests made during the job's own ride — its solo cost
    #: (``passes * num_tuples``), not split across scan-mates: a 32-job
    #: flight lists the same ~1-scan figure on every record, because that
    #: IS what the shared stream cost. Always 0 for cache hits.
    group_pages: int = 0
    #: Epochs the scan ran (the job's candidate.passes).
    epochs: int = 0
    #: Boarding provenance: the permutation offset — a position on the
    #: shared cursor's canonical chunk grid — at which the job boarded
    #: its flight, and the full cursor loops it rode before exiting back
    #: at that offset (its passes). ``0`` for jobs that opened their
    #: flight — every job unless the elevator kept boarding open — which
    #: is also the only boarding offset the result cache will serve or
    #: prime: an offset release is arrival-timing-specific by
    #: construction.
    boarding_offset: int = 0
    epochs_ridden: int = 0
    #: Job id whose committed release this record was served from
    #: (cache hits only; "" for records that paid for their own scan).
    cache_source: str = ""
    #: Provenance of the release: the content fingerprint of the table
    #: and the scan seed its permutation was drawn from. These — not the
    #: current table state — key cache re-arming after a snapshot load,
    #: so weights trained on since-changed data can never be served.
    table_fingerprint: str = ""
    scan_seed: Optional[int] = None
    #: Human-readable failure/rejection reason.
    error: str = ""
    #: Logical service ticks (submission order / completion order).
    submitted_at: int = -1
    finished_at: int = -1
    #: True once registry retention dropped this record's weights (the
    #: receipt/trace metadata stay; see ``ModelRegistry`` retention).
    weights_evicted: bool = False
    #: Lifecycle trace: monotonic-clock spans from admission to release,
    #: written by whoever holds the job at each phase boundary.
    trace: JobTrace = field(
        default_factory=JobTrace, repr=False, compare=False
    )
    #: Set the moment the record reaches a terminal status — the handle
    #: async submitters block on.
    _done: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: Journal callback the registry installs at :meth:`ModelRegistry.add`
    #: — fired once, from :meth:`mark_done`, so the record's terminal
    #: payload lands in the write-ahead log the moment it is final.
    _journal: Optional[Callable[["JobRecord"], None]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def job_id(self) -> str:
        return self.job.job_id

    # -- the async job handle ----------------------------------------------------

    @property
    def done(self) -> bool:
        """Has the job reached a terminal status (completed/failed/rejected)?"""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal (or ``timeout`` seconds pass).

        Returns :attr:`done` — ``False`` means the wait timed out, not
        that the job failed; check :attr:`status` for the outcome.
        """
        return self._done.wait(timeout)

    def mark_done(self) -> None:
        """Publish terminality. Called exactly once, by whoever moved the
        record to a terminal status, *after* every result field is set —
        a waiter woken by the event must never observe a half-written
        record. (That same every-field-landed guarantee is why the
        journal hook fires here: the payload it logs is final.)"""
        self._done.set()
        journal = self._journal
        if journal is not None:
            journal(self)

    # -- the one codec -----------------------------------------------------------

    def payload(self) -> dict:
        """The record as JSON-native data: what the snapshot, the
        write-ahead log and every HTTP job body carry.

        Floats stay JSON numbers: Python's ``json`` writes each float64
        as its shortest round-tripping repr (NaN and ±inf as ``NaN`` /
        ``Infinity``), so :meth:`from_payload` rebuilds every weight
        bitwise. ``done`` is read first. A worker writes a release's
        fields, then its status, and marks the record done last, so a
        record that is not done yet is encoded in flight — ``queued`` if
        it is queued, else ``running`` — with no model, receipt,
        sensitivity or noise norm, whatever has landed. Safe to call
        while a worker releases the record.
        """
        done = self.done
        job = self.job
        candidate = job.candidate
        status = self.status
        if not done and status is not JobStatus.QUEUED:
            status = JobStatus.RUNNING
        model = self.model if done else None
        receipt = self.receipt if done else None
        return {
            "job": {
                "principal": job.principal,
                "table": job.table,
                "epsilon": job.epsilon,
                "delta": job.delta,
                "priority": job.priority,
                "seed": job.seed,
                "job_id": job.job_id,
                "arrival": job.arrival,
                "candidate": {
                    "loss": _loss_payload(candidate.loss),
                    "passes": candidate.passes,
                    "batch_size": candidate.batch_size,
                    "eta": candidate.eta,
                    "radius": candidate.radius,
                    "average": candidate.average,
                },
            },
            "status": status.value,
            "model": None
            if model is None
            else np.asarray(model, dtype=np.float64).tolist(),
            "receipt": None
            if receipt is None
            else {
                "principal": receipt.principal,
                "table": receipt.table,
                "job_id": receipt.job_id,
                "epsilon": receipt.parameters.epsilon,
                "delta": receipt.parameters.delta,
                "sequence": receipt.sequence,
            },
            "sensitivity": self.sensitivity if done else None,
            "noise_norm": self.noise_norm if done else None,
            "dispatch": self.dispatch,
            "group_size": self.group_size,
            "group_pages": self.group_pages,
            "epochs": self.epochs,
            "boarding_offset": self.boarding_offset,
            "epochs_ridden": self.epochs_ridden,
            "cache_source": self.cache_source,
            "table_fingerprint": self.table_fingerprint,
            "scan_seed": self.scan_seed,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "weights_evicted": self.weights_evicted,
            # Closed spans only (an open span has no end yet); floats emit
            # their shortest repr, so the trace round-trips bitwise.
            "trace": self.trace.payload(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JobRecord":
        """Rebuild a record from :meth:`payload`, faithfully: the status
        is the one written, and the record is done only if that status
        is terminal. A restarting service loads through
        :func:`restore_record` instead, which fails in-flight work."""
        job_data = payload["job"]
        candidate_data = job_data["candidate"]
        receipt_data = payload["receipt"]
        model = payload["model"]
        record = cls(
            job=TrainingJob(
                principal=job_data["principal"],
                table=job_data["table"],
                candidate=BoltOnCandidate(
                    loss=_loss_from_payload(candidate_data["loss"]),
                    passes=candidate_data["passes"],
                    batch_size=candidate_data["batch_size"],
                    eta=candidate_data["eta"],
                    radius=candidate_data["radius"],
                    average=candidate_data["average"],
                ),
                epsilon=job_data["epsilon"],
                delta=job_data["delta"],
                priority=job_data["priority"],
                seed=job_data["seed"],
                job_id=job_data["job_id"],
                arrival=job_data["arrival"],
            ),
            status=JobStatus(payload["status"]),
            model=None if model is None else np.asarray(model, dtype=np.float64),
            receipt=None
            if receipt_data is None
            else BudgetReceipt(
                principal=receipt_data["principal"],
                table=receipt_data["table"],
                job_id=receipt_data["job_id"],
                parameters=PrivacyParameters(
                    receipt_data["epsilon"], receipt_data["delta"]
                ),
                sequence=receipt_data["sequence"],
            ),
            sensitivity=payload["sensitivity"],
            noise_norm=payload["noise_norm"],
            dispatch=payload["dispatch"],
            group_size=payload["group_size"],
            group_pages=payload["group_pages"],
            epochs=payload["epochs"],
            # Lenient: snapshots written before the elevator carried no
            # boarding provenance — those records all boarded at offset 0.
            boarding_offset=payload.get("boarding_offset", 0),
            epochs_ridden=payload.get("epochs_ridden", 0),
            cache_source=payload["cache_source"],
            table_fingerprint=payload["table_fingerprint"],
            scan_seed=payload["scan_seed"],
            error=payload["error"],
            submitted_at=payload["submitted_at"],
            finished_at=payload["finished_at"],
            # Lenient: payloads written before the telemetry layer carry no
            # trace (loads as empty) and no retention flag.
            weights_evicted=payload.get("weights_evicted", False),
            trace=JobTrace.from_payload(payload.get("trace", {})),
        )
        if record.status in _TERMINAL:
            record.mark_done()
        return record


@dataclass(frozen=True)
class CachedResult:
    """One committed release, keyed for cross-drain reuse.

    Everything a cache hit copies onto the fresh record: the weights plus
    the release metadata tenants can audit (what sensitivity the noise
    was calibrated to, which job originally paid).
    """

    weights: np.ndarray
    sensitivity: Optional[float]
    noise_norm: Optional[float]
    epochs: int
    source_job_id: str


class ResultCache:
    """The cross-drain result cache: identical job → identical release.

    Keys are built by the scheduler from the bitwise-determinism
    invariant — (table name + table content fingerprint + scan
    permutation seed, candidate identity, privacy parameters, job seed) —
    so a hit is *provably* the same computation, and returning the stored
    weights costs 0 page requests and 0 ε (releasing the same output
    twice reveals nothing new; the ledger is never touched on a hit).

    ``max_entries`` bounds the store (a long-lived server would otherwise
    hold every release it ever made): LRU on *last hit* — serving an
    entry refreshes it, inserting past the cap evicts the entry unhit for
    longest. Eviction is purely an economy: a future resubmission of an
    evicted job simply trains (and pays) again, bit-identically.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive integer or None, got {max_entries}"
            )
        self._entries: "OrderedDict[tuple, CachedResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Optional[tuple]) -> Optional[CachedResult]:
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Optional[tuple], result: CachedResult) -> None:
        if key is None:
            return
        with self._lock:
            # First writer wins: by the determinism invariant any later
            # entry under the same key holds the same bits. (Recency is
            # deliberately NOT refreshed for a losing re-put — only real
            # hits keep an entry warm.)
            self._entries.setdefault(key, result)
            while self.max_entries is not None and len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1


class ModelRegistry:
    """Thread-safe store of job records, queryable by tenant/table/status.

    ``max_terminal_records`` bounds how many *terminal* records keep
    their released weights resident: once more than that many completed
    jobs hold models, the least-recently-finished one has its weights
    dropped (``record.model = None``, ``record.weights_evicted = True``)
    while the receipt, trace, and execution metadata stay — a long-lived
    server's registry is then O(active + retained), not O(every job
    ever). Reading an evicted model raises ``KeyError`` with a retention
    hint; the result cache (its own LRU) may still serve the release.
    ``None`` (the default) retains everything.
    """

    def __init__(self, max_terminal_records: Optional[int] = None) -> None:
        if max_terminal_records is not None and max_terminal_records < 1:
            raise ValueError(
                "max_terminal_records must be a positive integer or None, "
                f"got {max_terminal_records}"
            )
        self.max_terminal_records = max_terminal_records
        #: Terminal records currently holding weights, oldest-finished
        #: first — the retention queue.
        self._weights_order: "OrderedDict[str, None]" = OrderedDict()
        #: Running count of weight evictions (sampled into the metrics
        #: registry by the service's collector).
        self.weights_evicted_total = 0
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        # Snapshot memo: a record's JSON payload is immutable once the
        # record is terminal, so the per-window autosave only serializes
        # records that finished since the last snapshot instead of
        # re-walking every weight vector in the store's history.
        self._payload_memo: Dict[str, dict] = {}
        self._lock = threading.RLock()
        #: Event sink for the write-ahead log (the service wires it to
        #: the WAL's append). When set, admission of a QUEUED record
        #: emits an ``admit`` event and every record reaching a terminal
        #: status emits a ``record`` event carrying its final payload.
        #: ``None`` (the default) emits nothing — a registry used
        #: without a durable service does no event bookkeeping at all.
        self.journal: Optional[Callable[[dict], None]] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._records

    def add(self, record: JobRecord) -> JobRecord:
        with self._lock:
            job_id = record.job.job_id
            if not job_id:
                raise ValueError("records need a job with an assigned job_id")
            if job_id in self._records:
                raise ValueError(f"job {job_id!r} is already registered")
            self._records[job_id] = record
            self._order.append(job_id)
            # Wire the terminal-event hook regardless of whether a sink
            # is attached yet (the hook re-checks). Records loaded from a
            # snapshot/WAL were marked done before this add, so neither
            # hook fires for them — a restore never re-logs its input.
            record._journal = self._journal_terminal
            if record.done:
                # Loaded from a snapshot/WAL: already terminal, so the
                # mark_done hook never fires — enroll in retention here.
                self._note_terminal(record)
            sink = self.journal
            if sink is not None and record.status is JobStatus.QUEUED:
                sink({"event": "admit", "record": record.payload()})
            return record

    def _journal_terminal(self, record: JobRecord) -> None:
        """The per-record ``mark_done`` hook: log the final payload and
        enroll the record in weight retention."""
        sink = self.journal
        if sink is not None:
            sink({"event": "record", "record": record.payload()})
        self._note_terminal(record)

    def _note_terminal(self, record: JobRecord) -> None:
        """Retention bookkeeping for a newly-terminal record: records
        holding weights queue up oldest-finished-first, and past the cap
        the oldest loses its model (metadata kept, memo patched so the
        next snapshot doesn't resurrect the weights)."""
        if self.max_terminal_records is None or record.model is None:
            return
        with self._lock:
            self._weights_order[record.job_id] = None
            while len(self._weights_order) > self.max_terminal_records:
                evicted_id, _ = self._weights_order.popitem(last=False)
                evicted = self._records[evicted_id]
                evicted.model = None
                evicted.weights_evicted = True
                self.weights_evicted_total += 1
                memo = self._payload_memo.get(evicted_id)
                if memo is not None:
                    memo["model"] = None
                    memo["weights_evicted"] = True

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise UnknownJob(f"unknown job {job_id!r}")
            return record

    def status(self, job_id: str) -> JobStatus:
        return self.get(job_id).status

    def model(self, job_id: str) -> np.ndarray:
        """The released weights; raises unless the job completed and the
        weights are still retained."""
        record = self.get(job_id)
        if record.weights_evicted:
            raise KeyError(
                f"job {job_id!r}: released weights were dropped by registry "
                f"retention (max_terminal_records="
                f"{self.max_terminal_records}); the receipt and trace "
                "metadata are retained — resubmit the job to retrain "
                "bit-identically"
            )
        if record.status is not JobStatus.COMPLETED or record.model is None:
            raise ValueError(
                f"job {job_id!r} has no released model (status: {record.status})"
            )
        return record.model

    def jobs(
        self,
        principal: Optional[str] = None,
        table: Optional[str] = None,
        status: Optional[JobStatus] = None,
    ) -> List[JobRecord]:
        """Records in submission order, filtered by any of the three axes."""
        with self._lock:
            records = [self._records[job_id] for job_id in self._order]
        return [
            record
            for record in records
            if (principal is None or record.job.principal == principal)
            and (table is None or record.job.table == table)
            and (status is None or record.status is status)
        ]

    def counts(self) -> Dict[str, int]:
        """Status histogram (keys are the status values, e.g. "completed")."""
        histogram: Dict[str, int] = {status.value: 0 for status in JobStatus}
        with self._lock:
            for record in self._records.values():
                histogram[record.status.value] += 1
        return histogram

    def max_stamp(self) -> int:
        """The largest submission/arrival stamp seen (0 when empty) — the
        restart point for the service's job-id/arrival counter."""
        with self._lock:
            stamps = [0]
            for record in self._records.values():
                stamps.append(record.job.arrival)
                stamps.append(record.submitted_at)
                stamps.append(record.finished_at)
            return max(stamps)

    # -- durability --------------------------------------------------------------

    def snapshot(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the whole store to ``path`` as JSON (:func:`write_durably`).

        Safe to call from the dispatch loop's autosave hook while workers
        are releasing jobs: records are serialized under the registry
        lock, and a record that is not done yet is snapshotted in flight
        (:func:`restore_record` will load it FAILED/interrupted).
        """
        path = pathlib.Path(path)
        with self._lock:
            entries = []
            for job_id in self._order:
                entry = self._payload_memo.get(job_id)
                if entry is None:
                    record = self._records[job_id]
                    # Capture doneness BEFORE building: a record can flip
                    # terminal mid-serialization (workers write fields
                    # without this lock), and memoizing a payload built
                    # during that window would freeze the in-flight view
                    # forever. done is set only after every field landed,
                    # so frozen-before-build means the payload is final.
                    frozen = record.done and record.status in _TERMINAL
                    entry = record.payload()
                    if frozen:
                        self._payload_memo[job_id] = entry
                entries.append(entry)
            payload = {"format": SNAPSHOT_FORMAT, "records": entries}
        write_durably(
            path, (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode("utf-8")
        )
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "ModelRegistry":
        """Rebuild a registry from a :meth:`snapshot` file."""
        registry = cls()
        for entry in snapshot_payloads(path):
            registry.add(restore_record(entry))
        return registry


# -- (de)serialization helpers ---------------------------------------------------


def snapshot_payloads(path: Union[str, pathlib.Path]) -> List[dict]:
    """The raw record payloads of a :meth:`ModelRegistry.snapshot` file,
    in store order — the base the service's WAL replay merges log events
    into (``TrainingService.load_state``)."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"{path} is not a registry snapshot "
            f"(format: {payload.get('format')!r})"
        )
    return payload["records"]


def restore_record(payload: dict) -> JobRecord:
    """Load one record the way a restarted service must see it.

    A terminal payload loads as written. In-flight work is not durable:
    its reservation died with the old process (never committed — no
    receipt), so a queued or running payload — a WAL ``admit`` event, or
    a job the snapshot caught mid-flight — loads FAILED/interrupted with
    no release, and the honest answer is "resubmit if you still want it".
    """
    record = JobRecord.from_payload(payload)
    if not record.done:
        record.status = JobStatus.FAILED
        record.error = (
            record.error or "interrupted: job was in flight when the snapshot was taken"
        )
        record.model = record.receipt = record.sensitivity = record.noise_norm = None
        record.mark_done()
    return record


def _loss_payload(loss: Loss) -> dict:
    """A loss as (class name, state). Each built-in loss's constructor
    takes exactly the attributes ``vars()`` lists, so
    :func:`_loss_from_payload` rebuilds it through its own checks."""
    state = {}
    for name, value in vars(loss).items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            state[name] = value
        else:
            raise TypeError(
                f"{type(loss).__name__}.{name} ({type(value).__name__}) is "
                "not snapshot-serializable; give the loss a plain-scalar "
                "state or train it via the non-durable API"
            )
    return {"type": type(loss).__name__, "state": state}


def _loss_from_payload(payload: dict) -> Loss:
    """Rebuild a loss through its constructor, so tenant input, snapshots
    and log events all pass its checks: a missing optional key takes its
    default, and an unknown key or a bad value raises ``ValueError``."""
    from repro.optim import losses as losses_module

    name = payload["type"]
    cls = getattr(losses_module, str(name), None)
    if cls is None or not isinstance(cls, type) or not issubclass(cls, Loss):
        raise ValueError(f"unknown loss {name!r}")
    try:
        return cls(**payload["state"])
    except TypeError as error:
        raise ValueError(f"bad {name} state: {error}") from None
