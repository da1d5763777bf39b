"""The SQLite-WAL storage backend: real pages, same bits.

Four contracts, each locked in here:

* **Round trip** — ``bulk_load`` writes the same page grid every other
  heap uses (:func:`tuples_per_page` rows per page, short tail page),
  and reading the database back yields byte-identical pages.
* **Backend invariance** — a job trained against the SQLite copy of a
  table releases weights bitwise-equal (atol=0) to the same job on the
  in-memory heap, with per-heap buffer-pool counters identical, and the
  content fingerprint (the result-cache key) the same across backends.
* **Fault taxonomy** — sqlite's failure modes surface as the engine's
  own fault classes: lock/busy contention is a retryable
  :class:`TransientPageFault` (and a retried scan releases the same
  bits); a missing, corrupted, or truncated database is a permanent
  :class:`PageFaultError` that fails the job fast with the reservation
  refunded.
* **Shuffled copy** — a table larger than the buffer pool is scanned
  from a sibling database stored in permutation order: every release and
  page count equals the in-place scan's, every loop misses each page
  once, and the copy's files live only as long as its scan operator.
"""

from __future__ import annotations

import gc
import itertools
import os
import pathlib
import sqlite3
import threading

import numpy as np
import pytest

from repro.core.bolton import BoltOnCandidate
from repro.obs.summary import metric_value
from repro.optim.losses import HuberSVMLoss, LogisticLoss
from repro.rdbms import storage
from repro.rdbms.bismarck import BismarckSession
from repro.rdbms.storage import (
    MaterializedHeapFile,
    PageFaultError,
    SQLiteHeapFile,
    TransientPageFault,
    _map_sqlite_error,
    tuples_per_page,
)
from repro.rdbms.uda import SGDUDA
from repro.service import JobStatus, TrainingService
from tests.conftest import make_binary_data

M, D = 300, 8
EPS = 0.05
X, Y = make_binary_data(M, D, seed=21)


@pytest.fixture
def heap_path(tmp_path):
    return tmp_path / "table.db"


@pytest.fixture
def sqlite_heap(heap_path):
    heap = SQLiteHeapFile.bulk_load(heap_path, X, Y)
    yield heap
    heap.close()


def submit_one(service, table, seed=300):
    return service.submit("alice", table, LogisticLoss(1e-3), epsilon=EPS,
                          passes=1, batch_size=25, seed=seed)


class TestRoundTrip:
    def test_every_page_matches_the_materialized_twin(self, sqlite_heap):
        twin = MaterializedHeapFile(X, Y)
        assert sqlite_heap.dimension == twin.dimension
        assert sqlite_heap.num_tuples == twin.num_tuples
        assert sqlite_heap.num_pages == twin.num_pages
        for page_id in range(twin.num_pages):
            ours, theirs = sqlite_heap.read_page(page_id), twin.read_page(page_id)
            assert np.array_equal(ours.features, theirs.features)
            assert np.array_equal(ours.labels, theirs.labels)

    def test_tail_page_is_short(self, sqlite_heap):
        per_page = tuples_per_page(D)
        assert M % per_page != 0, "shape must exercise a short tail page"
        tail = sqlite_heap.read_page(sqlite_heap.num_pages - 1)
        assert tail.tuple_count == M % per_page

    def test_reopen_reads_the_same_heap(self, heap_path, sqlite_heap):
        reopened = SQLiteHeapFile(heap_path)
        page = reopened.read_page(0)
        assert np.array_equal(page.features, sqlite_heap.read_page(0).features)
        assert reopened.num_tuples == M
        reopened.close()

    def test_bulk_load_accepts_a_dataset_object(self, heap_path):
        class Bundle:
            features, labels = X, Y

        heap = SQLiteHeapFile.bulk_load(heap_path, Bundle())
        assert heap.num_tuples == M
        heap.close()

    def test_bulk_load_replaces_a_stale_database(self, heap_path):
        SQLiteHeapFile.bulk_load(heap_path, X[:100], Y[:100]).close()
        heap = SQLiteHeapFile.bulk_load(heap_path, X, Y)
        assert heap.num_tuples == M
        heap.close()

    def test_bulk_load_rejects_bad_shapes(self, heap_path):
        with pytest.raises(ValueError, match="row counts disagree"):
            SQLiteHeapFile.bulk_load(heap_path, X, Y[:-1])
        with pytest.raises(ValueError, match="at least one tuple"):
            SQLiteHeapFile.bulk_load(heap_path, X[:0], Y[:0])

    def test_wal_mode_and_read_only_discipline(self, heap_path, sqlite_heap):
        probe = sqlite3.connect(heap_path)
        mode = probe.execute("PRAGMA journal_mode").fetchone()[0]
        probe.close()
        assert mode == "wal"
        # Reader connections are query_only: a write through one raises
        # instead of mutating tenant data.
        with pytest.raises(sqlite3.OperationalError):
            sqlite_heap._connection().execute("DELETE FROM pages")

    def test_out_of_range_page(self, sqlite_heap):
        with pytest.raises(IndexError):
            sqlite_heap.read_page(sqlite_heap.num_pages)
        with pytest.raises(IndexError):
            sqlite_heap.read_page(-1)

    def test_concurrent_readers_see_identical_pages(self, sqlite_heap):
        expected = [sqlite_heap.read_page(p) for p in range(sqlite_heap.num_pages)]
        failures = []

        def worker():
            try:
                for page_id, want in enumerate(expected):
                    got = sqlite_heap.read_page(page_id)
                    assert np.array_equal(got.features, want.features)
                    assert np.array_equal(got.labels, want.labels)
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []

    def test_a_finished_threads_connection_closes_without_the_collector(
        self, heap_path, sqlite_heap
    ):
        """The service's drain starts fresh workers every round. Each
        worker's reader connection must close when its thread ends, not
        when the cyclic garbage collector next runs: every open WAL-mode
        connection holds its own descriptor on the ``-wal`` file, so with
        the collector off, eight finished readers must leave only the
        calling thread's connection open."""
        fd_dir = pathlib.Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("counting open descriptors needs /proc/self/fd")
        wal = str(heap_path.with_name(heap_path.name + "-wal").resolve())

        def open_connections() -> int:
            count = 0
            for fd in fd_dir.iterdir():
                try:
                    count += os.readlink(fd) == wal
                except OSError:  # closed between listing and reading
                    pass
            return count

        gc.disable()
        try:
            for _ in range(8):
                reader = threading.Thread(target=sqlite_heap.read_page, args=(0,))
                reader.start()
                reader.join()
            assert open_connections() <= 1
        finally:
            gc.enable()

    def test_fingerprint_matches_the_materialized_hash(self, sqlite_heap):
        from repro.rdbms.catalog import TableInfo
        from repro.service.scheduler import table_fingerprint

        memory = table_fingerprint(TableInfo(name="t", heap=MaterializedHeapFile(X, Y)))
        sqlite_fp = table_fingerprint(TableInfo(name="t", heap=sqlite_heap))
        assert memory == sqlite_fp


class TestBackendInvariance:
    @staticmethod
    def _run(backend, path=None):
        service = TrainingService(scan_seed=5, workers=1)
        if backend == "memory":
            service.register_table("t", X, Y)
        else:
            service.register_table("t", X, Y, backend="sqlite", path=path)
        service.open_budget("alice", "t", 10.0)
        record = submit_one(service, "t")
        service.drain()
        heap = service.session.catalog.get("t").heap
        stats = service.session.pool.stats_for(heap)
        counters = (stats.page_reads, stats.cache_hits,
                    stats.cache_misses, stats.evictions)
        return record, counters

    def test_bitwise_release_and_path_invariant_counters(self, heap_path):
        memory_record, memory_counters = self._run("memory")
        sqlite_record, sqlite_counters = self._run("sqlite", heap_path)
        assert memory_record.status is JobStatus.COMPLETED
        assert sqlite_record.status is JobStatus.COMPLETED
        assert np.array_equal(memory_record.model, sqlite_record.model)
        assert memory_counters == sqlite_counters

    def test_register_existing_database_without_arrays(self, heap_path):
        SQLiteHeapFile.bulk_load(heap_path, X, Y).close()
        service = TrainingService(scan_seed=5, workers=1)
        info = service.register_table("t", backend="sqlite", path=heap_path)
        assert info.num_tuples == M
        service.open_budget("alice", "t", 10.0)
        record = submit_one(service, "t")
        service.drain()
        assert record.status is JobStatus.COMPLETED, record.error

    def test_cache_key_is_backend_invariant(self, heap_path):
        """Swapping a table's storage backend under the same name and
        data hits the result cache: the content-fingerprint half of the
        key is backend-invariant, so the cached release is served
        without a scan."""
        service = TrainingService(scan_seed=5, workers=1)
        service.register_table("t", X, Y)
        service.open_budget("alice", "t", 10.0)
        first = submit_one(service, "t")
        service.drain()
        assert first.status is JobStatus.COMPLETED

        service.session.catalog.drop_table("t")
        service.register_table("t", X, Y, backend="sqlite", path=heap_path)
        replay = submit_one(service, "t")
        service.drain()
        assert replay.status is JobStatus.COMPLETED, replay.error
        assert replay.cache_source == first.job_id
        assert np.array_equal(replay.model, first.model)

    def test_register_table_argument_validation(self, heap_path):
        service = TrainingService()
        with pytest.raises(ValueError, match="requires path"):
            service.register_table("t", X, Y, backend="sqlite")
        with pytest.raises(ValueError, match="both features and labels"):
            service.register_table("t", X, backend="sqlite", path=heap_path)
        with pytest.raises(ValueError, match="unknown table backend"):
            service.register_table("t", X, Y, backend="parquet")
        with pytest.raises(ValueError, match="requires features and labels"):
            service.register_table("t")


class TestFaultMapping:
    def test_error_mapping_taxonomy(self, tmp_path):
        path = tmp_path / "x.db"
        locked = _map_sqlite_error(
            sqlite3.OperationalError("database is locked"), path)
        busy = _map_sqlite_error(
            sqlite3.OperationalError("database table is busy"), path)
        missing = _map_sqlite_error(
            sqlite3.OperationalError("unable to open database file"), path)
        corrupt = _map_sqlite_error(
            sqlite3.DatabaseError("file is not a database"), path)
        assert isinstance(locked, TransientPageFault)
        assert isinstance(busy, TransientPageFault)
        assert isinstance(missing, PageFaultError)
        assert not isinstance(missing, TransientPageFault)
        assert isinstance(corrupt, PageFaultError)
        assert not isinstance(corrupt, TransientPageFault)

    def test_opening_a_missing_file_is_a_permanent_fault(self, tmp_path):
        with pytest.raises(PageFaultError, match="no such database"):
            SQLiteHeapFile(tmp_path / "never-written.db")

    def test_opening_a_corrupted_file_is_a_permanent_fault(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not a sqlite database, not even close")
        with pytest.raises(PageFaultError):
            SQLiteHeapFile(path)

    def test_foreign_format_is_refused(self, tmp_path):
        path = tmp_path / "other.db"
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT)")
            connection.execute(
                "INSERT INTO meta VALUES ('format', 'someone-elses/v9')")
        connection.close()
        with pytest.raises(PageFaultError, match="format"):
            SQLiteHeapFile(path)

    def test_missing_page_row_is_a_permanent_fault(self, heap_path, sqlite_heap):
        surgeon = sqlite3.connect(heap_path)
        with surgeon:
            surgeon.execute("DELETE FROM pages WHERE page_no = 1")
        surgeon.close()
        fresh = SQLiteHeapFile(heap_path)
        with pytest.raises(PageFaultError, match="missing from the pages table"):
            fresh.read_page(1)
        fresh.close()

    def test_truncated_blob_is_a_permanent_fault(self, heap_path, sqlite_heap):
        surgeon = sqlite3.connect(heap_path)
        with surgeon:
            surgeon.execute(
                "UPDATE pages SET labels = ? WHERE page_no = 0", (b"\x00" * 8,))
        surgeon.close()
        fresh = SQLiteHeapFile(heap_path)
        with pytest.raises(PageFaultError, match="blob sizes disagree"):
            fresh.read_page(0)
        fresh.close()

    # -- through the service: retry containment on real storage --------------

    @staticmethod
    def _service_on(heap):
        service = TrainingService(scan_seed=5, workers=1)
        service.register_table("f", heap=heap)
        service.open_budget("alice", "f", 10.0)
        service.scheduler.retry_backoff_seconds = 0.0
        return service

    def test_locked_database_retries_to_the_same_bits(self, heap_path):
        """One 'database is locked' mid-scan: the scheduler retries and
        the release is bitwise-identical to an undisturbed in-memory
        run — backend invariance and retry determinism in one assert."""
        clean = TrainingService(scan_seed=5, workers=1)
        clean.register_table("f", heap=MaterializedHeapFile(X, Y))
        clean.open_budget("alice", "f", 10.0)
        reference = submit_one(clean, "f")
        clean.drain()
        assert reference.status is JobStatus.COMPLETED

        heap = SQLiteHeapFile.bulk_load(heap_path, X, Y)
        # Register first: the fingerprint scan at registration must read
        # clean (as it would in production, where the heap is healthy at
        # CREATE TABLE time); the contention arrives mid-training-scan.
        service = self._service_on(heap)
        real_fetch = heap._fetch_page_row
        faults = []

        def contended(page_id):
            if not faults:
                faults.append(page_id)
                raise sqlite3.OperationalError("database is locked")
            return real_fetch(page_id)

        heap._fetch_page_row = contended
        record = submit_one(service, "f")
        service.drain()
        assert record.status is JobStatus.COMPLETED, record.error
        assert service.scheduler.scan_retries_used == 1
        assert np.array_equal(record.model, reference.model)
        statement = service.budgets()[0]
        assert statement.spent[0] == pytest.approx(EPS)
        assert statement.reserved == (0.0, 0.0)

    def test_lock_contention_that_never_clears_fails_with_refund(self, heap_path):
        heap = SQLiteHeapFile.bulk_load(heap_path, X, Y)
        service = self._service_on(heap)

        def always_locked(page_id):
            raise sqlite3.OperationalError("database is locked")

        heap._fetch_page_row = always_locked
        service.scheduler.scan_retries = 2
        record = submit_one(service, "f")
        service.drain()
        assert record.status is JobStatus.FAILED
        assert "locked" in record.error
        assert service.scheduler.scan_retries_used == 2
        statement = service.budgets()[0]
        assert statement.spent == (0, 0)
        assert statement.reserved == (0.0, 0.0)

    def test_deleted_database_fails_fast_with_refund(self, heap_path):
        """Deleting the file under a registered heap is permanent: the
        worker thread's fresh connection cannot open it, the job FAILS
        without burning retries, and the reservation comes back."""
        heap = SQLiteHeapFile.bulk_load(heap_path, X, Y)
        service = self._service_on(heap)
        heap_path.unlink()
        for sibling in (heap_path.with_name(heap_path.name + "-wal"),
                        heap_path.with_name(heap_path.name + "-shm")):
            if sibling.exists():
                sibling.unlink()
        record = submit_one(service, "f")
        service.drain()
        assert record.status is JobStatus.FAILED
        assert "sqlite heap" in record.error
        assert service.scheduler.scan_retries_used == 0
        statement = service.budgets()[0]
        assert statement.spent == (0, 0)
        assert statement.reserved == (0.0, 0.0)
        assert list(service.loop.dispatch_errors) == []


# -- the scan-order copy -------------------------------------------------------

#: A table of 38 pages (40 rows each) behind an 8-page pool, so its scans
#: read a shuffled copy; a 256-row chunk gives a 6-chunk grid, the last
#: chunk ragged.
CM, CD, CHUNK, POOL = 1500, 24, 256, 8
CX, CY = make_binary_data(CM, CD, seed=23)


class BoardingTrigger(LogisticLoss):
    """An opener stepping once per chunk (batch size = chunk size) that
    runs ``actions[n]`` on its n-th gradient call, so the jobs it submits
    board the flight at fixed cursor positions. Overriding the kernel
    makes it a custom loss, which rides alone."""

    def __init__(self, regularization, actions):
        super().__init__(regularization)
        self.actions = actions
        self.calls = 0

    def batch_gradient(self, w, X, y):
        self.calls += 1
        action = self.actions.pop(self.calls, None)
        if action is not None:
            action()
        return super().batch_gradient(w, X, y)


class CustomLogistic(LogisticLoss):
    """A custom loss: the same arithmetic, but it rides alone."""

    def batch_gradient(self, w, X, y):
        return super().batch_gradient(w, X, y)


def copy_service(backend: str, path=None, **kwargs) -> TrainingService:
    """An elevator service on table "t" (the copy tests' data): on SQLite
    behind the small pool, or in memory behind the default pool."""
    if backend == "sqlite":
        kwargs.setdefault("buffer_pool_pages", POOL)
    service = TrainingService(scan_seed=5, elevator=True, chunk_size=CHUNK, **kwargs)
    if backend == "sqlite":
        service.register_table("t", CX, CY, backend="sqlite", path=path)
    else:
        service.register_table("t", CX, CY)
    service.open_budget("alice", "t", 1e9)
    return service


def fly_mixed(service: TrainingService) -> list:
    """One flight: a trigger opener and a cohort of three at offset 0;
    at two later cursor positions, a cohort of two plus a lone rider (a
    custom loss, then a Huber rider). Returns the records, trained
    synchronously."""
    records = []
    seeds = iter(range(500, 600))

    def submit(loss, passes, batch_size):
        records.append(service.submit(
            "alice", "t", loss, epsilon=0.1, passes=passes,
            batch_size=batch_size, seed=next(seeds),
        ))

    def boarders(lone):
        for lam in (1e-3, 1e-2):
            submit(LogisticLoss(lam), 1, 37)
        submit(lone, 2, 10)

    trigger = BoardingTrigger(1e-3, {
        2: lambda: boarders(CustomLogistic(1e-3)),
        4: lambda: boarders(HuberSVMLoss(0.1, 1e-3)),
    })
    submit(trigger, 2, CHUNK)
    for lam in (0.0, 1e-4, 1e-3):
        submit(LogisticLoss(lam), 2, 50)
    service.scheduler.run_pending()
    return records


class TestScanOrderCopy:
    def test_a_flight_over_the_copy_releases_the_in_place_bits(self, heap_path):
        """Boarders at two offsets, stacked cohorts and lone custom-loss
        riders: every release and page count over the SQLite table's
        copy equals the same job's on an in-memory table that fits the
        default pool, which reads in place."""
        disk = copy_service("sqlite", heap_path)
        memory = copy_service("memory")
        ours, theirs = fly_mixed(disk), fly_mixed(memory)
        assert disk.session.shared_scan("t").shuffled_copy is not None
        assert memory.session.shared_scan("t").shuffled_copy is None
        assert {record.boarding_offset for record in ours} == {0, 2 * CHUNK, 4 * CHUNK}
        for record, twin in zip(ours, theirs):
            assert record.status is JobStatus.COMPLETED, record.error
            assert np.array_equal(record.model, twin.model)
            assert record.group_pages == twin.group_pages
            assert record.boarding_offset == twin.boarding_offset

    def test_every_loop_misses_each_page_once(self, heap_path):
        """``table_stats()`` deltas equal ``repro_scan_pages_total``, and
        a flight of two loops misses each page of the table twice."""
        service = copy_service("sqlite", heap_path)
        heap = service.session.catalog.get("t").heap
        before = vars(service.session.table_stats()["t"]).copy()
        records = [
            service.submit("alice", "t", LogisticLoss(lam), epsilon=0.1,
                           passes=2, batch_size=50, seed=700 + k)
            for k, lam in enumerate((1e-4, 1e-3, 1e-2))
        ]
        service.scheduler.run_pending()
        assert all(record.status is JobStatus.COMPLETED for record in records)
        after = vars(service.session.table_stats()["t"])
        dump = service.metrics(format="json")
        assert after["page_reads"] - before["page_reads"] == metric_value(
            dump, "repro_scan_pages_total", table="t"
        ) == 2 * CM
        assert after["cache_misses"] - before["cache_misses"] == 2 * heap.num_pages

    def test_a_recreated_table_gets_a_new_copy(self, heap_path):
        service = copy_service("sqlite", heap_path)
        first = fly_mixed(service)[1]
        old_copy = service.session.shared_scan("t").shuffled_copy

        other_X, other_Y = make_binary_data(CM, CD, seed=29)
        service.session.catalog.drop_table("t")
        service.register_table("t", other_X, other_Y, backend="sqlite", path=heap_path)
        replay = service.submit("alice", "t", first.job.candidate.loss, epsilon=0.1,
                                passes=2, batch_size=50, seed=first.job.seed)
        service.scheduler.run_pending()
        new_copy = service.session.shared_scan("t").shuffled_copy
        assert new_copy is not old_copy and new_copy.path != old_copy.path

        twin = TrainingService(scan_seed=5, elevator=True, chunk_size=CHUNK)
        twin.register_table("t", other_X, other_Y)
        twin.open_budget("alice", "t", 1e9)
        expected = twin.submit("alice", "t", first.job.candidate.loss, epsilon=0.1,
                               passes=2, batch_size=50, seed=first.job.seed)
        twin.scheduler.run_pending()
        assert replay.status is JobStatus.COMPLETED, replay.error
        assert not replay.cache_source
        assert np.array_equal(replay.model, expected.model)

    def test_a_dropped_operator_leaves_no_sibling_file(self, heap_path):
        """A private ``run_sgd`` scan builds its copy for the run and
        deletes it when the run drops the operator; a service's copies go
        with the service."""
        def siblings():
            return sorted(heap_path.parent.glob(heap_path.name + ".scan-*"))

        seen = []

        class Probe(LogisticLoss):
            def batch_gradient(self, w, X, y):
                if not seen:
                    seen.append(siblings())
                return super().batch_gradient(w, X, y)

        heap = SQLiteHeapFile.bulk_load(heap_path, CX, CY)
        session = BismarckSession(buffer_pool_pages=POOL)
        session.register_table("t", heap)
        schedule, projection, _ = BoltOnCandidate(loss=Probe()).resolve(CM)
        session.run_sgd("t", SGDUDA(Probe(), schedule, 10, projection), 1,
                        chunk_size=CHUNK, random_state=0)
        gc.collect()
        assert len(seen[0]) >= 1, "the run never built its copy"
        assert siblings() == []

        service = copy_service("sqlite", heap_path.with_name("served.db"))
        fly_mixed(service)
        served = sorted(heap_path.parent.glob("served.db.scan-*"))
        assert served
        del service
        gc.collect()
        assert not any(path.exists() for path in served)

    def test_a_fresh_service_never_opens_an_old_copy(self, heap_path, monkeypatch):
        """A restarted process (same pid, serial numbers from 0) finds a
        stale copy holding other data at its copy's name: it rewrites the
        copy from the table instead of scanning the stale one."""
        monkeypatch.setattr(storage, "_SCAN_COPY_SERIAL", itertools.count())
        stale = heap_path.with_name(f"{heap_path.name}.scan-{os.getpid()}-0")
        other_X, other_Y = make_binary_data(CM, CD, seed=29)
        SQLiteHeapFile.bulk_load(stale, other_X, other_Y).close()
        SQLiteHeapFile.bulk_load(heap_path, CX, CY).close()

        service = TrainingService(scan_seed=5, elevator=True, chunk_size=CHUNK,
                                  buffer_pool_pages=POOL)
        service.register_table("t", backend="sqlite", path=heap_path)
        service.open_budget("alice", "t", 1e9)
        ours, theirs = fly_mixed(service), fly_mixed(copy_service("memory"))
        assert service.session.shared_scan("t").shuffled_copy.path == stale
        for record, twin in zip(ours, theirs):
            assert np.array_equal(record.model, twin.model)
