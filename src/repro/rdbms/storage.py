"""Slotted-page storage with a buffer pool — the engine's bottom layer.

The paper's experiments run inside PostgreSQL, where the dataset is "stored
as a table" and scalability to larger-than-memory data "comes for free"
through the buffer manager (Section 4.4, Figure 2). This module recreates
the parts of that stack the experiments exercise:

* fixed-width tuples (d float64 features + 1 float64 label) packed into
  8 KiB pages;
* a :class:`HeapFile` of pages — either *materialized* (backed by real
  arrays) or *virtual* (pages synthesized deterministically on first read,
  so multi-gigabyte scalability tables never occupy RAM, mirroring the
  paper's 149–447 GB disk-based datasets);
* a :class:`BufferPool` with LRU eviction and hit/miss counters, which is
  what distinguishes the in-memory regime (all pages resident, CPU-bound)
  from the disk regime (misses dominate, I/O-bound) in Figure 2.

Page reads/writes are *counted*, not physically performed; the cost model
(:mod:`repro.rdbms.cost_model`) converts the counters into simulated
seconds. Real wall-clock time of the Python hot loops is measured
separately by the pytest benchmarks. For workloads where page *latency*
is the point — overlapping scans on different tables — wrap a heap in
:class:`LatencyHeapFile` and the simulated disk fetch becomes real
(GIL-releasing) wall-clock time.

Per-table engine domains
------------------------

The pool shards its cache and its counters **per heap file**: every heap
gets its own LRU region (``capacity_pages`` each — the memory its engine
domain may hold), its own :class:`BufferPoolStats`, and its own lock.
Scans on *different* tables therefore never share mutable state: their
hit/miss/eviction counters and LRU recency are exactly what a serialized
execution would produce, under any interleaving — the invariant that
lets the training service run one scan per table concurrently while
still recording exact per-dispatch page deltas. ``pool.stats`` remains
the whole-pool view (the sum over domains); ``pool.stats_for(heap)`` is
the per-table truth a concurrent dispatcher must read. A table's
scan-order copy (:meth:`HeapFile.clustered`) gets an LRU region of its
own but counts as the table: its requests land in the table heap's
counters, under the table heap's lock (:meth:`BufferPool.count_as`).
"""

from __future__ import annotations

import abc
import contextlib
import hashlib
import itertools
import os
import pathlib
import re
import sqlite3
import threading
import time
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.utils.validation import check_positive_int

#: PostgreSQL's default page size.
PAGE_SIZE_BYTES = 8192
#: Per-page header we account for (page id + tuple count).
PAGE_HEADER_BYTES = 16


def tuple_width_bytes(dimension: int) -> int:
    """On-page width of one example: d features + 1 label, all float64."""
    check_positive_int(dimension, "dimension")
    return (dimension + 1) * 8


def tuples_per_page(dimension: int) -> int:
    """How many examples fit in one 8 KiB page."""
    width = tuple_width_bytes(dimension)
    capacity = (PAGE_SIZE_BYTES - PAGE_HEADER_BYTES) // width
    if capacity < 1:
        raise ValueError(
            f"dimension {dimension} is too wide for a {PAGE_SIZE_BYTES}-byte "
            "page; wide tuples would need TOAST-style storage, which the "
            "experiments do not exercise"
        )
    return capacity


@dataclass
class Page:
    """One page of examples: a features block and a labels block."""

    page_id: int
    features: np.ndarray
    labels: np.ndarray

    @property
    def tuple_count(self) -> int:
        return int(self.features.shape[0])


class HeapFile(abc.ABC):
    """A sequence of pages holding one table's tuples."""

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Feature dimension d."""

    @property
    @abc.abstractmethod
    def num_pages(self) -> int:
        """Page count."""

    @property
    @abc.abstractmethod
    def num_tuples(self) -> int:
        """Row count m."""

    @abc.abstractmethod
    def read_page(self, page_id: int) -> Page:
        """Materialize page ``page_id`` (0-based)."""

    def read_pages(self, first: int, count: int) -> List[Page]:
        """Pages ``first``, ``first + 1``, ...: page ``first`` and up to
        ``count - 1`` (``count >= 1``) more, in page order — or page
        ``first``'s fault.

        A buffer pool asks for a stretch on a miss of page ``first`` when
        the pages after it are the next ones it will miss, so a heap that
        reads a range for less than page by page (SQLite: one query) may
        return them all. It may stop early, and stops before a page it
        cannot read: that page is then requested, and faults, at its own
        miss. The default reads page ``first`` alone, so a heap that keeps
        it reads, sleeps and faults page by page.
        """
        return [self.read_page(first)]

    def clustered(self, order: np.ndarray) -> Optional["HeapFile"]:
        """A copy of this heap stored in ``order`` — copy tuple ``i`` is
        tuple ``order[i]`` here — or ``None`` if this heap keeps no copy.

        This is Bismarck's shuffled copy: scanning it in storage order
        replays the permutation ``order`` while reading each page once.
        Building it reads this heap directly, never through a buffer
        pool, so it moves no pool counter. The default keeps no copy
        (virtual heaps and the latency/fault wrappers).
        """
        return None

    def backing_arrays(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The ``(features, labels)`` arrays this heap's pages are windows
        on — tuple ``i`` is row ``i`` of both — or ``None`` if its pages
        are not views of arrays it holds.

        A scan that has pinned a chunk's pages through a buffer pool may
        copy the chunk's rows from these arrays in one step instead of
        page by page; the pins are what the pool counts, so the counters
        do not depend on where the rows are copied from. The default
        holds none (SQLite and virtual heaps, the latency/fault wrappers).
        """
        return None

    @property
    def size_bytes(self) -> int:
        """On-disk footprint (pages x page size)."""
        return self.num_pages * PAGE_SIZE_BYTES


class MaterializedHeapFile(HeapFile):
    """A heap file backed by in-process arrays (small/medium tables)."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features/labels row counts disagree")
        if features.shape[0] == 0:
            raise ValueError("heap file must contain at least one tuple")
        self._features = features
        self._labels = labels
        self._per_page = tuples_per_page(features.shape[1])

    @property
    def dimension(self) -> int:
        return int(self._features.shape[1])

    @property
    def num_tuples(self) -> int:
        return int(self._features.shape[0])

    @property
    def num_pages(self) -> int:
        return -(-self.num_tuples // self._per_page)

    def read_page(self, page_id: int) -> Page:
        if not 0 <= page_id < self.num_pages:
            raise IndexError(f"page {page_id} out of range [0, {self.num_pages})")
        start = page_id * self._per_page
        stop = min(start + self._per_page, self.num_tuples)
        return Page(
            page_id=page_id,
            features=self._features[start:stop],
            labels=self._labels[start:stop],
        )

    def clustered(self, order: np.ndarray) -> "MaterializedHeapFile":
        return MaterializedHeapFile(self._features[order], self._labels[order])

    def backing_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._features, self._labels


class VirtualHeapFile(HeapFile):
    """A heap file whose pages are generated deterministically on read.

    Used by the scalability experiments: a 447 GB table exists as a page
    *generator* ``(page_id) -> (features, labels)`` seeded by the page id,
    so scanning it produces stable data with bounded memory — exactly the
    role the Bismarck data synthesizer plays in the paper's Figure 2 study.
    """

    def __init__(
        self,
        num_tuples: int,
        dimension: int,
        page_generator: Callable[[int, int, int], tuple[np.ndarray, np.ndarray]],
    ):
        self._num_tuples = check_positive_int(num_tuples, "num_tuples")
        self._dimension = check_positive_int(dimension, "dimension")
        self._per_page = tuples_per_page(dimension)
        self._generator = page_generator

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def num_tuples(self) -> int:
        return self._num_tuples

    @property
    def num_pages(self) -> int:
        return -(-self._num_tuples // self._per_page)

    def read_page(self, page_id: int) -> Page:
        if not 0 <= page_id < self.num_pages:
            raise IndexError(f"page {page_id} out of range [0, {self.num_pages})")
        start = page_id * self._per_page
        count = min(self._per_page, self._num_tuples - start)
        features, labels = self._generator(page_id, count, self._dimension)
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.shape != (count, self._dimension) or labels.shape != (count,):
            raise ValueError(
                "page generator returned wrong shapes: "
                f"{features.shape}, {labels.shape}; expected "
                f"({count}, {self._dimension}) and ({count},)"
            )
        return Page(page_id=page_id, features=features, labels=labels)


class LatencyHeapFile(HeapFile):
    """A heap whose page reads cost real wall-clock time (simulated disk).

    Wraps any heap and sleeps ``seconds_per_page`` before delegating each
    :meth:`read_page` — the disk-fetch latency the paper's larger-than-
    memory experiments pay on every buffer-pool miss, made real instead
    of merely counted. Because the sleep releases the GIL, two scans on
    *different* latency-backed tables overlap their I/O even on one core;
    that overlap is exactly what the per-table engine domains unlock, and
    what ``benchmarks/bench_service.py --parallel`` measures.

    ``sleeper`` is injectable (tests swap in a recording fake so latency
    behaviour is asserted without timing flakiness). ``reads`` counts
    delegated page materializations — with a buffer pool in front, that
    is the number of misses actually paid, not the number of requests.
    """

    def __init__(
        self,
        inner: HeapFile,
        seconds_per_page: float,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        if seconds_per_page < 0:
            raise ValueError(
                f"seconds_per_page must be >= 0, got {seconds_per_page}"
            )
        self.inner = inner
        self.seconds_per_page = float(seconds_per_page)
        self._sleep = sleeper
        self.reads = 0

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    @property
    def num_pages(self) -> int:
        return self.inner.num_pages

    @property
    def num_tuples(self) -> int:
        return self.inner.num_tuples

    def read_page(self, page_id: int) -> Page:
        self.reads += 1
        if self.seconds_per_page > 0.0:
            self._sleep(self.seconds_per_page)
        return self.inner.read_page(page_id)


class PageFaultError(IOError):
    """A heap page read failed. The storage-layer analogue of a bad
    sector / dropped NFS mount: raised by :class:`FaultyHeapFile` on an
    injected fault, and the type dispatch-layer retry logic keys on."""


class TransientPageFault(PageFaultError):
    """A page fault expected to succeed on retry (the flaky-device
    case). The scheduler's bounded retry-with-backoff retries these
    only; a plain :class:`PageFaultError` fails the scan immediately."""


class FaultyHeapFile(HeapFile):
    """A heap whose page reads fail on command — the fault-injection
    harness behind the service's robustness tests.

    Wraps any heap and raises on a configurable subset of reads:

    * ``fail_pages`` — page ids that fault when read;
    * ``probability`` — additionally, each read of *any* page faults
      with this chance (drawn from a ``seed``-fixed generator, so a
      given wrap produces the same fault sequence every run);
    * ``fail_times`` — total fault budget (``None`` = unlimited). With
      a buffer pool in front, a faulted page was never cached, so a
      retried chunk re-reads it — ``fail_times=1`` makes exactly the
      first attempt fail and the retry succeed.
    * ``transient`` — raise :class:`TransientPageFault` (retryable)
      instead of the permanent :class:`PageFaultError`.

    ``reads`` counts delegated reads (with a pool in front: misses),
    ``faults_injected`` the reads that raised.
    """

    def __init__(
        self,
        inner: HeapFile,
        *,
        fail_pages=(),
        fail_times: Optional[int] = None,
        probability: float = 0.0,
        seed: int = 0,
        transient: bool = True,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if fail_times is not None and fail_times < 0:
            raise ValueError(f"fail_times must be >= 0 or None, got {fail_times}")
        self.inner = inner
        self.fail_pages = frozenset(fail_pages)
        self.fail_times = fail_times
        self.probability = float(probability)
        self.transient = bool(transient)
        self._rng = np.random.default_rng(seed)
        self.reads = 0
        self.faults_injected = 0

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    @property
    def num_pages(self) -> int:
        return self.inner.num_pages

    @property
    def num_tuples(self) -> int:
        return self.inner.num_tuples

    def _should_fault(self, page_id: int) -> bool:
        if self.fail_times is not None and self.faults_injected >= self.fail_times:
            return False
        if page_id in self.fail_pages:
            return True
        return self.probability > 0.0 and self._rng.random() < self.probability

    def read_page(self, page_id: int) -> Page:
        self.reads += 1
        if self._should_fault(page_id):
            self.faults_injected += 1
            kind = TransientPageFault if self.transient else PageFaultError
            raise kind(
                f"injected {'transient ' if self.transient else ''}fault "
                f"reading page {page_id} (fault {self.faults_injected})"
            )
        return self.inner.read_page(page_id)


#: Schema version tag written into every SQLite heap's ``meta`` table.
SQLITE_HEAP_FORMAT = "repro-heap/v1"

#: ``sqlite3.OperationalError`` messages that signal a *transient*
#: condition — another connection holds a lock, the filesystem is
#: momentarily unhappy — where a retry is expected to succeed. Anything
#: else (missing file, missing table, malformed database) is permanent.
_TRANSIENT_SQLITE_MARKERS = ("locked", "busy")


def _database_files(path: pathlib.Path) -> tuple:
    """A SQLite database file and its WAL-mode ``-wal``/``-shm`` siblings."""
    return (
        path,
        path.with_name(path.name + "-wal"),
        path.with_name(path.name + "-shm"),
    )


#: Serial numbers of the scan-order copies this process has named.
_SCAN_COPY_SERIAL = itertools.count()


def _scan_copy_path(path: pathlib.Path) -> pathlib.Path:
    """A fresh sibling name for a scan-order copy of the heap at ``path``:
    ``<heap>.scan-<pid>-<n>``, unique within this process."""
    return path.with_name(f"{path.name}.scan-{os.getpid()}-{next(_SCAN_COPY_SERIAL)}")


def _drop_orphan_copies(path: pathlib.Path) -> None:
    """Delete the scan-order copies of the heap at ``path``, with their
    ``-wal``/``-shm`` files, that a process no longer running left
    behind: a copy's finalizer does not run on ``kill -9`` or
    ``os._exit``. A copy of this process, or of any process that is
    still running, is left alone."""
    pattern = re.compile(re.escape(path.name) + r"\.scan-(\d+)-\d+(?:-wal|-shm)?")
    try:
        files = list(path.parent.iterdir())
    except OSError:  # cleanup is best effort; writing the copy reports errors
        return
    for file in files:
        match = pattern.fullmatch(file.name)
        if match is not None and not _process_exists(int(match.group(1))):
            with contextlib.suppress(OSError):
                os.remove(file)


def _process_exists(pid: int) -> bool:
    """Whether process ``pid`` exists (signal 0 checks without sending).
    Anything but "no such process" counts as existing: a process of
    another user, or a number too large to be a pid."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        pass
    return True


def _drop_database(path: pathlib.Path, readers: Iterable["_Reader"]) -> None:
    """Close ``readers``, then delete the database at ``path`` and its
    siblings, ignoring errors: a scan-order copy's finalizer, and the
    cleanup after a copy failed to write."""
    for reader in list(readers):
        reader.close()
    for file in _database_files(path):
        with contextlib.suppress(OSError):
            os.remove(file)


class _Reader:
    """One thread's reader connection, closed when the holder is freed:
    when its thread ends (the thread-local slot holding it goes) or its
    heap is dropped. A ``sqlite3.Connection`` sits in a reference cycle,
    so without this holder a finished thread's connection — and its
    SQLite page cache — would stay open until the cyclic garbage
    collector ran."""

    __slots__ = ("connection", "__weakref__")

    def __init__(self, connection: sqlite3.Connection) -> None:
        self.connection = connection

    def close(self) -> None:
        self.connection.close()

    __del__ = close


def _map_sqlite_error(error: sqlite3.Error, path: "pathlib.Path") -> PageFaultError:
    """Translate a ``sqlite3`` exception into the engine's fault taxonomy.

    The scheduler's bounded retry keys on the distinction: a
    :class:`TransientPageFault` (lock contention, a busy device) is
    retried with backoff and — by the determinism contract — a retried
    scan releases the same bits; a plain :class:`PageFaultError`
    (missing file, dropped table, corrupted database) fails the scan
    fast with the reservation refunded. This is the same containment
    contract :class:`FaultyHeapFile` exercises with injected faults,
    applied to a real storage engine's real failure modes.
    """
    message = str(error).lower()
    if isinstance(error, sqlite3.OperationalError) and any(
        marker in message for marker in _TRANSIENT_SQLITE_MARKERS
    ):
        return TransientPageFault(f"sqlite heap {path}: {error}")
    return PageFaultError(f"sqlite heap {path}: {error}")


class SQLiteHeapFile(HeapFile):
    """A heap file persisted in a SQLite database — real pages, real I/O.

    The paper ran its experiments inside a real RDBMS (Bismarck on
    PostgreSQL); every other heap here is an in-process array, so
    buffer-pool misses cost simulated latency at best. This class puts a
    real database under the engine: pages live as rows of one SQLite
    table, a miss pays an actual disk read, and the disk-regime
    benchmarks (``bench_service.py --disk``) measure honest page
    materialization.

    Layout (one database file per heap)::

        PRAGMA page_size=16384;       -- 2 x PAGE_SIZE_BYTES, set first
        PRAGMA journal_mode=WAL;      -- readers never block the writer
        PRAGMA synchronous=NORMAL;    -- fsync at checkpoint, not per txn
        PRAGMA foreign_keys=ON;
        CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE pages(
            page_no  INTEGER PRIMARY KEY,
            features BLOB NOT NULL,   -- contiguous float64, C order
            labels   BLOB NOT NULL    -- contiguous float64
        );

    A heap page's row (at most :data:`PAGE_SIZE_BYTES` of blobs) fits one
    SQLite page of twice that size, so reading it follows no overflow
    chain. A database written with another page size (SQLite reads it
    from the file header) reads the same. Page geometry is identical to
    every other heap (:func:`tuples_per_page` rows per page, the tail
    page short), so the buffer pool in front of it produces *exactly*
    the counters an in-memory heap would — hit/miss/eviction accounting
    is backend-invariant, which is what keeps the service's bitwise and
    page-attribution guarantees intact on real storage.

    Every read goes through one seam, :meth:`_fetch_page_rows`: one
    ``SELECT ... WHERE page_no BETWEEN ? AND ?`` over a stretch of
    pages. A pool miss reads the stretch of pages it is about to miss
    (:meth:`read_pages`); the content fingerprint and the scan-order
    copy read the whole table in one query, a page at a time.

    Connection discipline: the single **writer** connection lives only
    inside :meth:`bulk_load`; every reader gets a **connection per
    thread** (lazily opened, ``PRAGMA query_only=ON`` so it cannot
    write), which under WAL means concurrent scans from worker threads
    never block each other. A reader connection lives as long as its
    thread: it closes when the thread ends, when :meth:`close` is called
    from that thread, or when the heap is dropped — so the service's
    short-lived drain workers never pile up open connections and their
    page caches. ``sqlite3`` errors surface through the
    engine's fault taxonomy (:func:`_map_sqlite_error`): lock/busy
    contention as retryable :class:`TransientPageFault`, a missing or
    corrupted database as fail-fast :class:`PageFaultError` — so a
    flaky disk is contained by the scheduler's bounded retry exactly as
    an injected :class:`FaultyHeapFile` fault is.

    :meth:`clustered` writes Bismarck's shuffled copy as a sibling
    database, ``<heap>.scan-<pid>-<n>``, which the scan operator that
    asked for it reads instead of this heap.
    """

    #: Pages per ``executemany`` batch in :meth:`bulk_load`.
    _LOAD_BATCH_PAGES = 64

    def __init__(self, path: Union[str, "pathlib.Path"]):
        self.path = pathlib.Path(path)
        if not self.path.exists():
            raise PageFaultError(f"sqlite heap {self.path}: no such database file")
        self._local = threading.local()
        self._readers: "weakref.WeakSet[_Reader]" = weakref.WeakSet()
        self._fingerprint: Optional[str] = None
        self._fingerprint_lock = threading.Lock()
        try:
            meta = dict(
                self._connection().execute("SELECT key, value FROM meta").fetchall()
            )
        except sqlite3.Error as error:
            raise _map_sqlite_error(error, self.path) from error
        if meta.get("format") != SQLITE_HEAP_FORMAT:
            raise PageFaultError(
                f"sqlite heap {self.path}: format {meta.get('format')!r} is not "
                f"{SQLITE_HEAP_FORMAT!r}; refusing to scan a database this "
                "engine version cannot vouch for"
            )
        self._dimension = int(meta["dimension"])
        self._num_tuples = int(meta["num_tuples"])
        self._per_page = tuples_per_page(self._dimension)

    # -- ingest ------------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        path: Union[str, "pathlib.Path"],
        features: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> "SQLiteHeapFile":
        """Ingest a dataset into a fresh SQLite heap at ``path``.

        ``features`` may also be a dataset object carrying ``.features``
        and ``.labels`` (e.g. :class:`repro.data.dataset.Dataset`), in
        which case ``labels`` is taken from it. An existing database at
        ``path`` is replaced (its ``-wal``/``-shm`` siblings removed
        first — stale WAL frames must never leak into the new heap).
        The database gets SQLite pages of ``2 * PAGE_SIZE_BYTES``, so
        each heap page's row fits one of them. The whole ingest is one
        transaction, inserted a batch of pages per ``executemany`` call,
        then checkpointed so readers open a clean, compact database.
        """
        if labels is None:
            dataset = features
            features, labels = dataset.features, dataset.labels
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.float64)
        if features.ndim != 2 or labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features/labels row counts disagree")
        if features.shape[0] == 0:
            raise ValueError("heap file must contain at least one tuple")
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        for stale in _database_files(path):
            if stale.exists():
                os.remove(stale)
        m, d = features.shape
        per_page = tuples_per_page(d)
        connection = sqlite3.connect(path)
        try:
            # Before anything writes the file, WAL mode included: the
            # page size is fixed when the first page is written.
            connection.execute(f"PRAGMA page_size={2 * PAGE_SIZE_BYTES}")
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute("PRAGMA foreign_keys=ON")
            with connection:
                connection.execute(
                    "CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
                connection.execute(
                    "CREATE TABLE pages("
                    "page_no INTEGER PRIMARY KEY, "
                    "features BLOB NOT NULL, labels BLOB NOT NULL)"
                )
                connection.executemany(
                    "INSERT INTO meta(key, value) VALUES (?, ?)",
                    [
                        ("format", SQLITE_HEAP_FORMAT),
                        ("dimension", str(d)),
                        ("num_tuples", str(m)),
                    ],
                )
                num_pages = -(-m // per_page)
                batch = cls._LOAD_BATCH_PAGES
                for first in range(0, num_pages, batch):
                    rows = []
                    for page_id in range(first, min(first + batch, num_pages)):
                        start = page_id * per_page
                        stop = min(start + per_page, m)
                        rows.append(
                            (
                                page_id,
                                features[start:stop].tobytes(),
                                labels[start:stop].tobytes(),
                            )
                        )
                    connection.executemany(
                        "INSERT INTO pages(page_no, features, labels) "
                        "VALUES (?, ?, ?)",
                        rows,
                    )
            # Fold the ingest's WAL frames back into the main file so the
            # read-only connections open a clean, checkpointed database.
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        finally:
            connection.close()
        return cls(path)

    # -- read path ---------------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """This thread's lazily-opened reader connection.

        One connection per thread (sqlite connections are not thread-safe
        by default, and sharing one would serialize scans that WAL mode
        exists to let overlap); ``query_only`` enforces the read-only
        discipline at the engine level — a bug that tried to write
        through a reader raises instead of mutating tenant data. The
        connection is held by a :class:`_Reader` in the thread-local
        slot, so it closes when the thread ends; ``check_same_thread``
        is off so that the heap's finalizer (or a thread's teardown) may
        close it from whichever thread frees it.
        """
        reader = getattr(self._local, "reader", None)
        if reader is None:
            try:
                connection = sqlite3.connect(self.path, check_same_thread=False)
                connection.execute("PRAGMA query_only=ON")
                connection.execute("PRAGMA foreign_keys=ON")
            except sqlite3.Error as error:  # pragma: no cover - open races
                raise _map_sqlite_error(error, self.path) from error
            reader = _Reader(connection)
            self._local.reader = reader
            self._readers.add(reader)
        return reader.connection

    def _fetch_page_rows(self, first: int, last: int):
        """The ``pages`` rows numbered ``first`` to ``last`` as
        ``(page_no, features_blob, labels_blob)``, in page order, from one
        query — the seam every read goes through, which the fault-mapping
        tests monkeypatch to simulate lock contention and corruption
        without a second process. Rows come one at a time as the result
        is iterated."""
        return self._connection().execute(
            "SELECT page_no, features, labels FROM pages "
            "WHERE page_no BETWEEN ? AND ? ORDER BY page_no",
            (first, last),
        )

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def num_tuples(self) -> int:
        return self._num_tuples

    @property
    def num_pages(self) -> int:
        return -(-self._num_tuples // self._per_page)

    def _pages(self, first: int, last: int) -> Iterator[Page]:
        """Pages ``first`` to ``last`` from one :meth:`_fetch_page_rows`
        query, decoded as they arrive. Raises, in page order, at the
        first page whose row is missing or whose blobs have the wrong
        size; a sqlite error is mapped into the fault taxonomy."""
        page_id = first
        try:
            for page_no, features, labels in self._fetch_page_rows(first, last):
                if page_no != page_id:
                    break
                yield self._decode(page_id, features, labels)
                page_id += 1
        except sqlite3.Error as error:
            raise _map_sqlite_error(error, self.path) from error
        if page_id <= last:
            raise PageFaultError(
                f"sqlite heap {self.path}: page {page_id} is missing from the "
                "pages table (truncated or tampered heap)"
            )

    def _decode(self, page_id: int, features: bytes, labels: bytes) -> Page:
        """Page ``page_id`` from its row's blobs, checked against the
        page grid."""
        start = page_id * self._per_page
        count = min(self._per_page, self._num_tuples - start)
        if len(features) != 8 * count * self._dimension or len(labels) != 8 * count:
            raise PageFaultError(
                f"sqlite heap {self.path}: page {page_id} blob sizes disagree "
                f"with the meta row counts (expected {count} tuples)"
            )
        return Page(
            page_id=page_id,
            features=np.frombuffer(features, dtype=np.float64).reshape(
                count, self._dimension
            ),
            labels=np.frombuffer(labels, dtype=np.float64),
        )

    def read_page(self, page_id: int) -> Page:
        return self.read_pages(page_id, 1)[0]

    def read_pages(self, first: int, count: int) -> List[Page]:
        """The longest run of readable pages from ``first``, up to
        ``count`` of them, from one query; page ``first``'s own fault if
        it cannot be read. A later page that is missing, mis-sized or
        unreadable ends the run, and faults at its own miss."""
        if not 0 <= first < self.num_pages:
            raise IndexError(f"page {first} out of range [0, {self.num_pages})")
        pages: List[Page] = []
        try:
            for page in self._pages(first, min(first + count, self.num_pages) - 1):
                pages.append(page)
        except PageFaultError:
            if not pages:
                raise
        return pages

    def content_fingerprint(self) -> str:
        """The same page-wise SHA-256 content hash a
        :class:`MaterializedHeapFile` gets from the scheduler, so the
        result cache treats "same data, different backend" as the same
        table — a release trained on the in-memory copy is served to a
        resubmission against the SQLite copy (and vice versa). Computed
        once, off the buffer pool, from one query that holds a page at a
        time, and memoized for the heap's lifetime (heaps are immutable
        once registered)."""
        with self._fingerprint_lock:
            if self._fingerprint is None:
                digest = hashlib.sha256()
                for page in self._pages(0, self.num_pages - 1):
                    digest.update(page.features.tobytes())
                    digest.update(page.labels.tobytes())
                self._fingerprint = digest.hexdigest()[:16]
            return self._fingerprint

    def clustered(self, order: np.ndarray) -> Optional["SQLiteHeapFile"]:
        """Bulk-load a sibling database holding this heap's tuples in
        ``order``, and open it.

        Every page of this heap is read here, directly, in one query: a
        lock or a damaged page raises the usual :class:`PageFaultError`,
        which the caller handles as it would a fault in any chunk. The
        copy goes to a fresh sibling, ``<heap>.scan-<pid>-<n>``: it
        belongs to the caller alone, is never reopened, and is deleted
        with its ``-wal``/``-shm`` files when the returned heap is
        dropped or the process exits normally. A copy whose process is
        gone (killed, or ended by ``os._exit``) is deleted here, before
        the new copy is named. If the copy cannot be written (an
        ``OSError`` or sqlite error on the new file), this warns and
        returns ``None``, and the caller reads this heap in place.
        """
        features = np.empty((self._num_tuples, self._dimension), dtype=np.float64)
        labels = np.empty(self._num_tuples, dtype=np.float64)
        for page in self._pages(0, self.num_pages - 1):
            start = page.page_id * self._per_page
            features[start : start + page.tuple_count] = page.features
            labels[start : start + page.tuple_count] = page.labels
        _drop_orphan_copies(self.path)
        path = _scan_copy_path(self.path)
        try:
            copy = SQLiteHeapFile.bulk_load(path, features[order], labels[order])
        except (OSError, sqlite3.Error) as error:
            _drop_database(path, ())
            warnings.warn(
                f"sqlite heap {self.path}: cannot write a scan-order copy at "
                f"{path} ({error}); scanning the heap in place",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        weakref.finalize(copy, _drop_database, path, copy._readers)
        return copy

    def close(self) -> None:
        """Close this thread's reader connection (every other thread's
        closes when that thread ends or this heap is dropped)."""
        reader = getattr(self._local, "reader", None)
        if reader is not None:
            reader.close()
            self._local.reader = None


@dataclass
class BufferPoolStats:
    """Counters the cost model consumes."""

    page_reads: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.page_reads = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        if self.page_reads == 0:
            return 0.0
        return self.cache_hits / self.page_reads


class _HeapDomain:
    """One heap's engine domain: its LRU shard, counters, and lock.

    The lock serializes page requests *within* one table (scans of the
    same table already serialize on the scheduler's table lock; this
    guards direct pool users too). Requests on different heaps take
    different locks, so cross-table scans proceed concurrently — and the
    miss path (the actual page read, which for a :class:`LatencyHeapFile`
    sleeps) is held under this domain lock only, never a pool-wide one.

    A heap counted as another (:meth:`BufferPool.count_as`) gets a domain
    of its own LRU shard but its ``owner``'s counters and lock; the
    domain keeps the owner alive, so those counters are retired once.
    """

    __slots__ = ("cache", "stats", "lock", "owner")

    def __init__(self, owner: Optional[HeapFile] = None, shared=None) -> None:
        self.cache: "OrderedDict[int, Page]" = OrderedDict()
        self.stats = BufferPoolStats() if shared is None else shared.stats
        self.lock = threading.Lock() if shared is None else shared.lock
        self.owner = owner


class _PoolStatsView:
    """The whole-pool counters: a live sum over every heap domain.

    API-compatible with :class:`BufferPoolStats` (the attribute names,
    ``hit_rate``, ``reset()``) so existing callers keep reading
    ``pool.stats.page_reads`` etc.; ``reset()`` zeroes the *view* by
    remembering the current totals as a baseline — the per-domain
    counters themselves are monotonic.
    """

    def __init__(self, pool: "BufferPool") -> None:
        self._pool = pool
        self._base = BufferPoolStats()

    def _totals(self) -> BufferPoolStats:
        totals = BufferPoolStats()
        retired = self._pool._retired
        sources = [
            domain.stats
            for domain in self._pool._domain_snapshot()
            if domain.owner is None  # a counted-as shard shares its owner's
        ]
        sources.append(retired)
        for stats in sources:
            totals.page_reads += stats.page_reads
            totals.cache_hits += stats.cache_hits
            totals.cache_misses += stats.cache_misses
            totals.evictions += stats.evictions
        return totals

    @property
    def page_reads(self) -> int:
        return self._totals().page_reads - self._base.page_reads

    @property
    def cache_hits(self) -> int:
        return self._totals().cache_hits - self._base.cache_hits

    @property
    def cache_misses(self) -> int:
        return self._totals().cache_misses - self._base.cache_misses

    @property
    def evictions(self) -> int:
        return self._totals().evictions - self._base.evictions

    def reset(self) -> None:
        self._base = self._totals()

    @property
    def hit_rate(self) -> float:
        reads = self.page_reads
        if reads == 0:
            return 0.0
        return self.cache_hits / reads

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PoolStats(page_reads={self.page_reads}, "
            f"cache_hits={self.cache_hits}, "
            f"cache_misses={self.cache_misses}, evictions={self.evictions})"
        )


class BufferPool:
    """LRU page cache in front of heap files, sharded per heap.

    ``capacity_pages`` models the memory each table's engine domain may
    hold: when every page of a table fits, repeated epochs are all cache
    hits (the paper's warm-cache in-memory runs); when the table exceeds
    it, each sequential scan incurs one miss per page (the disk-based
    regime of Figure 2(b)). Each heap's LRU shard, counters, and lock are
    private to it (see :class:`_HeapDomain`), so concurrent scans on
    disjoint tables produce exactly the serialized execution's counters.
    """

    def __init__(self, capacity_pages: int):
        self.capacity = check_positive_int(capacity_pages, "capacity_pages")
        # Weak keys: a heap's domain (its cached Pages, up to capacity of
        # them) dies with the heap instead of accruing for the pool's
        # lifetime — and a NEW heap allocated at a dead heap's address
        # can never inherit its cache (an id()-keyed map would serve the
        # old table's pages as hits).
        self._domains: "weakref.WeakKeyDictionary[HeapFile, _HeapDomain]" = (
            weakref.WeakKeyDictionary()
        )
        self._domains_lock = threading.Lock()
        # Counters of collected heaps' domains, folded in at finalization
        # so the whole-pool view stays monotonic across heap lifetimes.
        self._retired = BufferPoolStats()
        self.stats = _PoolStatsView(self)

    def _domain(self, heap: HeapFile) -> _HeapDomain:
        domain = self._domains.get(heap)
        if domain is None:
            with self._domains_lock:
                domain = self._domains.get(heap)
                if domain is None:
                    domain = _HeapDomain()
                    self._domains[heap] = domain
                    weakref.finalize(heap, self._retire, domain.stats)
        return domain

    def _retire(self, stats: BufferPoolStats) -> None:
        with self._domains_lock:
            self._retired.page_reads += stats.page_reads
            self._retired.cache_hits += stats.cache_hits
            self._retired.cache_misses += stats.cache_misses
            self._retired.evictions += stats.evictions

    def _domain_snapshot(self) -> List[_HeapDomain]:
        with self._domains_lock:
            return list(self._domains.values())

    def count_as(self, heap: HeapFile, owner: HeapFile) -> None:
        """Count ``heap``'s page requests as ``owner``'s.

        ``heap`` gets its own LRU shard, since its page ids name its own
        pages, but it shares ``owner``'s counters and lock. So
        ``stats_for(owner)`` stays the owner's whole truth, and the
        whole-pool view counts each request once. Call it before any
        request for ``heap``; a table's scan-order copy
        (:meth:`HeapFile.clustered`) is counted as the table's heap.
        """
        shared = self._domain(owner)
        with self._domains_lock:
            self._domains[heap] = _HeapDomain(owner, shared)

    def stats_for(self, heap: HeapFile) -> BufferPoolStats:
        """The heap's own counters — the per-table truth a concurrent
        dispatcher reads its before/after page deltas from (immune to
        scans on any other table)."""
        return self._domain(heap).stats

    def get_page(
        self,
        heap: HeapFile,
        page_id: int,
        reader: Optional[Callable[[int], Page]] = None,
    ) -> Page:
        """Fetch a page through the cache, updating LRU order and stats.

        ``reader`` optionally replaces ``heap.read_page`` as the miss
        handler. Accounting is identical either way — the request, the
        hit/miss classification, the LRU update, and any eviction happen
        exactly as without it — only the *materialization* of a missed
        page is delegated. A memoizing ``reader`` makes a ``get_page``
        loop the reference :meth:`get_pages` is tested against.
        """
        domain = self._domain(heap)
        with domain.lock:
            stats = domain.stats
            stats.page_reads += 1
            cached = domain.cache.get(page_id)
            if cached is not None:
                stats.cache_hits += 1
                domain.cache.move_to_end(page_id)
                return cached
            stats.cache_misses += 1
            page = heap.read_page(page_id) if reader is None else reader(page_id)
            domain.cache[page_id] = page
            if len(domain.cache) > self.capacity:
                domain.cache.popitem(last=False)
                stats.evictions += 1
            return page

    def get_pages(
        self, heap: HeapFile, page_ids: List[int], counts: List[int]
    ) -> List[Page]:
        """Pin a chunk's pages, given as runs, under one domain-lock hold:
        page ``page_ids[i]`` requested ``counts[i]`` times in a row, run
        after run. Returns the pages, one per run.

        The counters, cache and LRU order end exactly as a
        :meth:`get_page` loop over the chunk's page ids leaves them. A
        run's first request is a hit or a miss, with its LRU touch and
        any eviction; its ``count - 1`` repeats are hits that change
        nothing more, since the page just pinned is resident and most
        recently used. For the same reason a run need not be maximal:
        two runs in a row may name one page.

        A miss of page ``p`` reads, with one ``heap.read_pages`` call,
        the stretch of runs from it whose pages are ``p``, ``p + 1``, ...
        and are neither resident nor read already in this call: the pages
        it is about to miss and read, in order. Every page read is kept
        until the call returns, so a page evicted and missed again in the
        same chunk is not read twice. A heap that reads one page per call
        (the default ``read_pages``) reads each missed page at its first
        miss, as the loop with a per-chunk memo would.

        If a read raises, the counters and cache hold what the loop would
        have left at that request: it is counted as a read and a miss,
        and nothing is cached for it. A stretch never faults ahead of its
        first page: a page that cannot be read ends the stretch before it
        and faults at its own miss.
        """
        domain = self._domain(heap)
        capacity = self.capacity
        pages: List[Page] = []
        keep = pages.append
        hits = misses = evictions = 0
        fetched: dict = {}  # every page read in this call, by id
        with domain.lock:
            cache = domain.cache
            lookup = cache.get
            touch = cache.move_to_end
            try:
                for run, page_id in enumerate(page_ids):
                    page = lookup(page_id)
                    if page is not None:
                        hits += counts[run]
                        touch(page_id)
                    else:
                        misses += 1
                        page = fetched.get(page_id)
                        if page is None:
                            end = run + 1
                            while (
                                end < len(page_ids)
                                and page_ids[end] == page_id + end - run
                                and page_ids[end] not in cache
                                and page_ids[end] not in fetched
                            ):
                                end += 1
                            for offset, got in enumerate(
                                heap.read_pages(page_id, end - run)
                            ):
                                fetched[page_id + offset] = got
                            page = fetched[page_id]
                        cache[page_id] = page
                        if len(cache) > capacity:
                            cache.popitem(last=False)
                            evictions += 1
                        hits += counts[run] - 1
                    keep(page)
            finally:
                stats = domain.stats
                stats.page_reads += hits + misses
                stats.cache_hits += hits
                stats.cache_misses += misses
                stats.evictions += evictions
        return pages

    def scan(self, heap: HeapFile, page_order: Optional[List[int]] = None) -> Iterator[Page]:
        """Iterate pages (sequentially by default) through the cache."""
        order = page_order if page_order is not None else range(heap.num_pages)
        for page_id in order:
            yield self.get_page(heap, page_id)

    def clear(self) -> None:
        for domain in self._domain_snapshot():
            with domain.lock:
                domain.cache.clear()

    @property
    def resident_pages(self) -> int:
        return sum(len(domain.cache) for domain in self._domain_snapshot())
