"""Fault-injection tests for the serving layer.

The service's containment contract: a failure anywhere in a worker's
iteration — a page fault mid-scan, an exception between the scheduler's
atomic steps, an unwritable state directory — ends with the affected
jobs FAILED and refunded, the engine domain released, and the worker
thread alive and serving the next tenant. A transient page fault
re-reads the faulted chunk with backoff and, by the determinism
contract, releases weights bitwise-identical to an undisturbed flight's
— for every rider aboard, including one that boarded mid-flight.
"""

from __future__ import annotations

import sqlite3
import warnings

import numpy as np
import pytest

from repro.obs.summary import metric_value
from repro.optim.losses import LogisticLoss
from repro.rdbms import storage
from repro.rdbms.storage import FaultyHeapFile, MaterializedHeapFile, SQLiteHeapFile
from repro.service import JobStatus, TrainingService
from tests.conftest import GatedLoss, make_binary_data

M, D = 300, 8
EPS = 0.05
X, Y = make_binary_data(M, D, seed=21)


def make_service(workers: int = 1, cap: float = 10.0, **kwargs) -> TrainingService:
    service = TrainingService(scan_seed=5, workers=workers, **kwargs)
    service.register_table("t", X, Y)
    service.open_budget("alice", "t", cap)
    return service


def faulty_service(heap_kwargs: dict, **service_kwargs) -> TrainingService:
    """A service whose table "f" injects page faults per ``heap_kwargs``."""
    service = TrainingService(scan_seed=5, workers=1, **service_kwargs)
    service.register_table("f", heap=FaultyHeapFile(
        MaterializedHeapFile(X, Y), **heap_kwargs
    ))
    service.open_budget("alice", "f", 10.0)
    service.scheduler.retry_backoff_seconds = 0.0  # keep the tests fast
    return service


def submit_one(service, table="f", seed=300):
    return service.submit("alice", table, LogisticLoss(1e-3), epsilon=EPS,
                          passes=1, batch_size=25, seed=seed)


class TestTransientFaultRetry:
    def test_single_transient_fault_retries_to_the_same_bits(self):
        """fail_times=1: the first read of the chunk holding page 0
        faults and the flight re-reads that chunk — releasing exactly
        the weights an undisturbed flight would, because the pool never
        caches a faulted page and no rider has folded the chunk yet."""
        clean = TrainingService(scan_seed=5, workers=1)
        clean.register_table("f", heap=MaterializedHeapFile(X, Y))
        clean.open_budget("alice", "f", 10.0)
        reference = submit_one(clean)
        clean.drain()
        assert reference.status is JobStatus.COMPLETED

        service = faulty_service(dict(fail_pages=(0,), fail_times=1))
        record = submit_one(service)
        service.drain()
        assert record.status is JobStatus.COMPLETED, record.error
        assert service.scheduler.scan_retries_used == 1
        assert np.array_equal(record.model, reference.model)
        # The receipt committed once — no double charge across attempts.
        statement = service.budgets()[0]
        assert statement.spent[0] == pytest.approx(EPS)
        assert statement.reserved == (0.0, 0.0)

    def test_retries_exhausted_fails_the_job_with_refund(self):
        """A page that faults on every attempt burns through the chunk's
        retry budget and fails the flight — reservation refunded, worker
        alive."""
        service = faulty_service(dict(fail_pages=(0,)), scan_retries=2)
        record = submit_one(service)
        finished = service.drain()
        assert [r.job_id for r in finished] == [record.job_id]
        assert record.status is JobStatus.FAILED
        assert "injected transient fault" in record.error
        assert service.scheduler.scan_retries_used == 2
        statement = service.budgets()[0]
        assert statement.spent == (0, 0)
        assert statement.reserved == (0.0, 0.0)

    def test_permanent_fault_fails_without_retrying(self):
        service = faulty_service(dict(fail_pages=(1,), transient=False))
        record = submit_one(service)
        service.drain()
        assert record.status is JobStatus.FAILED
        assert "injected fault reading page 1" in record.error
        assert service.scheduler.scan_retries_used == 0

    def test_worker_survives_faults_and_serves_the_next_tenant(self):
        """The containment payoff: after a fatal fault the same worker
        thread picks up and completes fresh work on the same table."""
        service = faulty_service(dict(fail_pages=(0,), fail_times=2),
                                 scan_retries=0)
        doomed = submit_one(service)
        service.drain()
        assert doomed.status is JobStatus.FAILED
        # fail_times budget: one fault spent, one left -> retry path.
        service.scheduler.scan_retries = 2
        survivor = submit_one(service, seed=301)
        service.drain()
        assert survivor.status is JobStatus.COMPLETED, survivor.error
        assert list(service.loop.dispatch_errors) == []  # engine faults are
        # handled by dispatch_window's own fail path, not the last resort


def all_pages_faulty(transient: bool = True) -> FaultyHeapFile:
    """A heap whose every page read faults once armed (``fail_times``
    raised above ``faults_injected``); disarmed at construction."""
    inner = MaterializedHeapFile(X, Y)
    return FaultyHeapFile(inner, fail_pages=range(inner.num_pages),
                          fail_times=0, transient=transient)


def flight_service(heap, buffer_pool_pages: int = 1) -> TrainingService:
    """An elevator service on ``heap`` behind a one-page buffer pool, so
    every chunk of a flight reads pages from the heap (where the faults
    live) instead of the pool."""
    service = TrainingService(scan_seed=5, workers=1, elevator=True,
                              chunk_size=64, buffer_pool_pages=buffer_pool_pages)
    service.register_table("f", heap=heap)
    service.open_budget("alice", "f", 10.0)
    service.open_budget("bob", "f", 10.0)
    service.scheduler.retry_backoff_seconds = 0.0
    return service.start()


def board_behind_opener(service, arm=lambda: None):
    """A gated opener takes off and is held inside chunk 0; a second job
    boards behind it; ``arm()`` runs (the fault-injection point); the
    flight resumes. Returns (opener, rider) once both are terminal."""
    gate = GatedLoss(1e-3)
    opener = service.submit("alice", "f", gate, epsilon=EPS, passes=2,
                            batch_size=25, seed=400)
    assert gate.started.wait(timeout=10.0), "flight never took off"
    rider = service.submit("bob", "f", LogisticLoss(1e-3), epsilon=EPS,
                           passes=1, batch_size=10, seed=401)
    arm()
    gate.release.set()
    assert opener.wait(timeout=30.0) and rider.wait(timeout=30.0)
    return opener, rider


class _ArmingGate(GatedLoss):
    """A gated loss that also runs ``arm()`` on its ``arm_on``-th
    gradient call."""

    def __init__(self, regularization, arm, arm_on):
        super().__init__(regularization)
        self.arm, self.arm_on, self.calls = arm, arm_on, 0

    def batch_gradient(self, w, X_batch, y_batch):
        self.calls += 1
        if self.calls == self.arm_on:
            self.arm()
        return super().batch_gradient(w, X_batch, y_batch)


def board_cohort_behind_opener(service, arm=lambda: None):
    """Three same-shape jobs (one batch size, one pass count, logistic
    at three lambdas) board behind a gated opener at one chunk boundary
    — a stacked cohort. The opener steps once per 64-row chunk, so its
    second gradient call folds chunk 1, the cohort's first: ``arm()``
    runs there, and a fault it arms strikes the next gather, with the
    cohort mid-ride. Returns (opener, cohort) once all are terminal."""
    gate = _ArmingGate(1e-3, arm, arm_on=2)
    opener = service.submit("alice", "f", gate, epsilon=EPS, passes=2,
                            batch_size=64, seed=400)
    assert gate.started.wait(timeout=10.0), "flight never took off"
    cohort = [
        service.submit("bob", "f", LogisticLoss(lam), epsilon=EPS,
                       passes=1, batch_size=10, seed=410 + index)
        for index, lam in enumerate((1e-3, 1e-2, 0.0))
    ]
    gate.release.set()
    for record in [opener] + cohort:
        assert record.wait(timeout=30.0)
    return opener, cohort


def stacked_riders(service) -> float:
    dump = service.metrics(format="json")
    return metric_value(dump, "repro_elevator_stacked_riders_total", table="f")


class TestFlightFaults:
    def test_transient_fault_mid_flight_retries_to_the_same_bits(self):
        """Two faulted reads of one chunk with a boarded rider aboard:
        the flight re-reads the chunk twice and every rider releases
        exactly the weights of the same flight on a clean heap."""
        clean = flight_service(MaterializedHeapFile(X, Y))
        try:
            clean_opener, clean_rider = board_behind_opener(clean)
        finally:
            clean.stop()

        heap = all_pages_faulty()
        service = flight_service(heap)
        try:
            opener, rider = board_behind_opener(
                service, arm=lambda: setattr(heap, "fail_times", 2)
            )
        finally:
            service.stop()

        assert opener.status is JobStatus.COMPLETED, opener.error
        assert rider.status is JobStatus.COMPLETED, rider.error
        assert rider.boarding_offset == clean_rider.boarding_offset > 0
        assert np.array_equal(opener.model, clean_opener.model)
        assert np.array_equal(rider.model, clean_rider.model)
        # Each re-read counts once, service-wide and on every rider aboard.
        assert heap.faults_injected == 2
        assert service.scheduler.scan_retries_used == 2
        for record in (opener, rider):
            assert record.trace.span("scan").attrs["retries"] == 2
        for statement in service.budgets():
            assert statement.spent[0] == pytest.approx(EPS)
            assert statement.reserved == (0.0, 0.0)

    def test_permanent_fault_mid_flight_fails_and_refunds_every_rider(self):
        heap = all_pages_faulty(transient=False)
        service = flight_service(heap)
        try:
            warm = service.submit("alice", "f", LogisticLoss(1e-3),
                                  epsilon=EPS, passes=1, seed=399)
            assert warm.wait(timeout=30.0)
            assert warm.status is JobStatus.COMPLETED, warm.error
            before = {s.principal: (s.spent, s.reserved)
                      for s in service.budgets()}

            opener, rider = board_behind_opener(
                service, arm=lambda: setattr(heap, "fail_times", 1)
            )
            for record in (opener, rider):
                assert record.status is JobStatus.FAILED
                assert "injected fault" in record.error
                assert record.receipt is None
                # Both were aboard: the scan span is where they failed.
                assert record.trace.spans()[-1].name == "scan"
                assert record.trace.spans()[-1].attrs.get("error")
            assert service.scheduler.scan_retries_used == 0
            after = {s.principal: (s.spent, s.reserved)
                     for s in service.budgets()}
            assert after == before

            # Same worker, same table: the next job flies clean.
            survivor = service.submit("bob", "f", LogisticLoss(1e-3),
                                      epsilon=EPS, passes=1, seed=402)
            assert survivor.wait(timeout=30.0)
            assert survivor.status is JobStatus.COMPLETED, survivor.error
        finally:
            service.stop()
        assert list(service.loop.dispatch_errors) == []


    def test_transient_fault_under_a_cohort_retries_to_the_same_bits(self):
        """A chunk faults twice while a stacked cohort is mid-ride: the
        re-read delivers the identical block, so every member (and the
        opener riding alone) releases the clean flight's bits."""
        clean = flight_service(MaterializedHeapFile(X, Y))
        try:
            clean_opener, clean_cohort = board_cohort_behind_opener(clean)
        finally:
            clean.stop()
        assert stacked_riders(clean) == 3

        heap = all_pages_faulty()
        service = flight_service(heap)
        try:
            opener, cohort = board_cohort_behind_opener(
                service, arm=lambda: setattr(heap, "fail_times", 2)
            )
        finally:
            service.stop()

        assert stacked_riders(service) == 3
        assert service.scheduler.scan_retries_used == 2
        assert np.array_equal(opener.model, clean_opener.model)
        for record, clean_record in zip(cohort, clean_cohort):
            assert record.status is JobStatus.COMPLETED, record.error
            assert record.boarding_offset == clean_record.boarding_offset > 0
            assert np.array_equal(record.model, clean_record.model)
            assert record.trace.span("scan").attrs["retries"] == 2
        for statement in service.budgets():
            assert statement.reserved == (0.0, 0.0)

    def test_permanent_fault_under_a_cohort_refunds_every_member(self):
        heap = all_pages_faulty(transient=False)
        service = flight_service(heap)
        try:
            before = {s.principal: (s.spent, s.reserved)
                      for s in service.budgets()}
            opener, cohort = board_cohort_behind_opener(
                service, arm=lambda: setattr(heap, "fail_times", 1)
            )
            for record in [opener] + cohort:
                assert record.status is JobStatus.FAILED
                assert "injected fault" in record.error
                assert record.receipt is None
            assert stacked_riders(service) == 3  # it folded as a cohort
            after = {s.principal: (s.spent, s.reserved)
                     for s in service.budgets()}
            assert after == before

            survivor = service.submit("bob", "f", LogisticLoss(1e-3),
                                      epsilon=EPS, passes=1, seed=420)
            assert survivor.wait(timeout=30.0)
            assert survivor.status is JobStatus.COMPLETED, survivor.error
        finally:
            service.stop()
        assert list(service.loop.dispatch_errors) == []


class TestScanOrderCopyFaults:
    """Faults around the shuffled copy a table larger than the pool is
    scanned from. The copy is built inside the flight's first chunk, so
    a fault while reading the table for it is a fault in that chunk, and
    a copy page is a page like any other. A copy that cannot be written
    is not a fault: the flight scans the table in place, after one
    warning."""

    @staticmethod
    def reference(seed: int = 300):
        clean = TrainingService(scan_seed=5, workers=1)
        clean.register_table("f", X, Y)
        clean.open_budget("alice", "f", 10.0)
        record = submit_one(clean, seed=seed)
        clean.drain()
        assert record.status is JobStatus.COMPLETED
        return record

    @staticmethod
    def thrash_service(tmp_path):
        """A service whose table "f" is a SQLite heap of three pages
        behind a one-page pool: its first flight builds the copy."""
        heap = SQLiteHeapFile.bulk_load(tmp_path / "f.db", X, Y)
        service = TrainingService(scan_seed=5, workers=1, buffer_pool_pages=1)
        service.register_table("f", heap=heap)
        service.open_budget("alice", "f", 10.0)
        service.scheduler.retry_backoff_seconds = 0.0
        assert heap.num_pages > service.session.pool.capacity
        return service, heap

    def test_transient_lock_while_building_the_copy_retries_to_the_same_bits(
        self, tmp_path
    ):
        reference = self.reference()
        service, heap = self.thrash_service(tmp_path)
        real_fetch = heap._fetch_page_rows
        faults = []

        def contended(first, last):
            if not faults:
                faults.append(first)
                raise sqlite3.OperationalError("database is locked")
            return real_fetch(first, last)

        heap._fetch_page_rows = contended
        record = submit_one(service)
        service.drain()
        assert record.status is JobStatus.COMPLETED, record.error
        assert service.scheduler.scan_retries_used == 1
        assert np.array_equal(record.model, reference.model)
        assert service.session.shared_scan("f").shuffled_copy is not None
        # One pass over the copy: each page misses once.
        assert service.session.pool.stats_for(heap).cache_misses == heap.num_pages

    def test_permanent_fault_while_building_the_copy_fails_and_refunds_all(
        self, tmp_path
    ):
        service, heap = self.thrash_service(tmp_path)

        def damaged(first, last):
            raise sqlite3.DatabaseError("database disk image is malformed")

        heap._fetch_page_rows = damaged
        before = [(s.spent, s.reserved) for s in service.budgets()]
        records = [submit_one(service, seed=330 + k) for k in range(3)]
        service.drain()
        for record in records:
            assert record.status is JobStatus.FAILED
            assert "malformed" in record.error
            assert record.receipt is None
        assert [(s.spent, s.reserved) for s in service.budgets()] == before
        assert service.scheduler.scan_retries_used == 0
        # The flight failed while building the copy, before any chunk
        # asked the pool for a page.
        assert service.session.pool.stats_for(heap).page_reads == 0
        assert service.session.shared_scan("f").shuffled_copy is None
        assert list(service.loop.dispatch_errors) == []

    def test_transient_fault_on_a_copy_page_mid_flight_gives_the_same_bits(
        self, tmp_path
    ):
        """The opener is held inside chunk 0, with the copy built; a rider
        boards; then the copy's next two page reads fault. The flight
        re-reads that chunk twice, and both riders release the bits of
        the same flight on a clean in-memory heap with the default pool."""
        clean = flight_service(MaterializedHeapFile(X, Y), buffer_pool_pages=65536)
        try:
            clean_opener, clean_rider = board_behind_opener(clean)
        finally:
            clean.stop()

        service = flight_service(SQLiteHeapFile.bulk_load(tmp_path / "f.db", X, Y))
        faults = []

        def arm():
            copy = service.session.shared_scan("f").shuffled_copy
            if copy is None:  # no copy to fault: the asserts below fail
                return
            real_fetch = copy._fetch_page_rows

            def flaky(first, last):
                if len(faults) < 2:
                    faults.append(first)
                    raise sqlite3.OperationalError("database is locked")
                return real_fetch(first, last)

            copy._fetch_page_rows = flaky

        try:
            opener, rider = board_behind_opener(service, arm=arm)
        finally:
            service.stop()
        assert len(faults) == 2
        assert service.scheduler.scan_retries_used == 2
        for record, clean_record in ((opener, clean_opener), (rider, clean_rider)):
            assert record.status is JobStatus.COMPLETED, record.error
            assert record.boarding_offset == clean_record.boarding_offset
            assert np.array_equal(record.model, clean_record.model)

    def test_unwritable_copy_location_warns_once_and_scans_in_place(
        self, tmp_path, monkeypatch
    ):
        """The copy's location is nested under a regular file, so it
        cannot be written: one RuntimeWarning, then the flight reads the
        table in place — the same bits — and later flights neither warn
        nor try the disk again."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        monkeypatch.setattr(storage, "_scan_copy_path", lambda path: blocker / "copy.db")
        service, heap = self.thrash_service(tmp_path)
        record = submit_one(service)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service.drain()
        assert record.status is JobStatus.COMPLETED, record.error
        assert np.array_equal(record.model, self.reference().model)
        copy_warnings = [w for w in caught
                         if issubclass(w.category, RuntimeWarning)
                         and "scan-order copy" in str(w.message)]
        assert len(copy_warnings) == 1
        assert service.session.shared_scan("f").shuffled_copy is None
        # The id gather: the one-page pool misses far more than once a page.
        assert service.session.pool.stats_for(heap).cache_misses > heap.num_pages

        later = submit_one(service, seed=301)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service.drain()
        assert later.status is JobStatus.COMPLETED, later.error
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (blocker / "copy.db").exists()


class TestWorkerCrashContainment:
    def test_crash_before_dispatch_fails_refunds_and_releases(self):
        """Regression for the containment bug: an exception between the
        claim and the dispatch must FAIL the window's jobs, refund their
        reservations, release the table's engine domain, and leave the
        worker serving — the next job on the SAME table completes."""
        crashes = []

        def hook(point):
            if point == "before_dispatch" and not crashes:
                crashes.append(point)
                raise RuntimeError("injected crash between claim and scan")

        service = make_service()
        service.loop.crash_hook = hook
        doomed = submit_one(service, table="t", seed=310)
        service.drain()
        assert doomed.status is JobStatus.FAILED
        assert "injected crash" in doomed.error
        assert doomed.receipt is None
        statement = service.budgets()[0]
        assert statement.spent == (0, 0)
        assert statement.reserved == (0.0, 0.0)
        assert any("injected crash" in entry
                   for entry in service.loop.dispatch_errors)
        # The busy flag came free: same table, same worker, clean run.
        survivor = submit_one(service, table="t", seed=311)
        service.drain()
        assert survivor.status is JobStatus.COMPLETED, survivor.error

    def test_crash_after_dispatch_preserves_the_finished_window(self):
        """Post-dispatch the records are final: a crash there is logged,
        never undone — the drain still reports the completed jobs and
        their receipts stand."""
        def hook(point):
            if point == "after_dispatch":
                raise RuntimeError("injected crash after the scan")

        service = make_service()
        service.loop.crash_hook = hook
        record = submit_one(service, table="t", seed=312)
        finished = service.drain()
        assert [r.job_id for r in finished] == [record.job_id]
        assert record.status is JobStatus.COMPLETED
        assert record.receipt is not None
        assert any("after_dispatch" in entry
                   for entry in service.loop.dispatch_errors)

    def test_claim_error_backs_off_and_recovers(self):
        """A raising claim_window must not kill the worker: the error is
        surfaced, the loop backs off, and once the claim heals the
        queued job still trains."""
        service = make_service()
        original = service.scheduler.claim_window
        failures = []

        def flaky_claim():
            if len(failures) < 2:
                failures.append(1)
                raise RuntimeError("injected claim failure")
            return original()

        service.scheduler.claim_window = flaky_claim
        record = submit_one(service, table="t", seed=313)
        service.drain()
        assert record.status is JobStatus.COMPLETED
        claim_entries = [entry for entry in service.loop.dispatch_errors
                         if "claim_window" in entry]
        assert len(claim_entries) == 2


class TestDegradedDurability:
    def test_unwritable_state_dir_degrades_to_in_memory(self, tmp_path):
        """A state_dir that cannot be created (here: nested under a
        regular file) must not kill the dispatch loop — the service
        warns once, flips to degraded, and keeps completing jobs."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        service = TrainingService(
            scan_seed=5, workers=1, state_dir=blocker / "state"
        )
        service.register_table("t", X, Y)
        service.open_budget("alice", "t", 10.0)
        record = submit_one(service, table="t", seed=320)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service.drain()
        assert record.status is JobStatus.COMPLETED
        degraded = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)
                    and "not writable" in str(w.message)]
        assert degraded, "no degradation warning was raised"
        assert service.durability["mode"] == "degraded"
        assert "error" in service.durability
        # Degraded is sticky and silent: later windows neither warn
        # again nor try the disk again.
        later = submit_one(service, table="t", seed=321)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service.drain()
        assert later.status is JobStatus.COMPLETED
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not (blocker / "state").exists()

    def test_healthy_state_dir_reports_wal_mode(self, tmp_path):
        service = make_service(state_dir=tmp_path)
        assert service.durability["mode"] == "wal"
        submit_one(service, table="t", seed=322)
        service.drain()
        status = service.durability
        assert status["mode"] == "wal"
        assert status["wal_appends"] > 0
        assert status["wal_syncs"] > 0

    def test_no_state_dir_reports_in_memory(self):
        assert make_service().durability == {"mode": "in-memory"}
