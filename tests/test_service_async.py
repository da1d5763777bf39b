"""Tests for the async serving layer: worker dispatch, the cross-drain
result cache, and the durable registry.

Three contracts carry this PR:

* **Async invisibility** — background worker dispatch is invisible to
  the released bits: any interleaving of concurrent ``submit()`` and
  worker scans produces per-job weights bitwise-identical to the
  synchronous single-threaded drain (``np.array_equal``, atol=0), and
  ``submit()`` never blocks on a running scan.
* **Cache soundness** — resubmitting a completed job is a hit: 0 page
  requests, 0 ε re-spend, identical weights; anything that could change
  a single released float (seed, ε, candidate, table contents) misses.
* **Durability** — snapshot → load → resume round-trips records
  bitwise, reconciles budgets from committed receipts (over-budget jobs
  still rejected), re-arms the cache, and marks in-flight work FAILED.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accountant import would_overflow
from repro.optim.losses import LogisticLoss
from repro.service import JobStatus, ModelRegistry, TrainingService
from tests.conftest import make_binary_data

M, D = 300, 8
EPS = 0.05
X, Y = make_binary_data(M, D, seed=21)


def make_service(
    workers: int = 2,
    cap: float = 10.0,
    state_dir=None,
    window: int = 32,
    **kwargs,
) -> TrainingService:
    service = TrainingService(
        scan_seed=5,
        batching_window=window,
        workers=workers,
        state_dir=state_dir,
        **kwargs,
    )
    service.register_table("t", X, Y)
    service.open_budget("alice", "t", cap)
    service.open_budget("bob", "t", cap)
    return service


def mixed_jobs(n: int = 8):
    return [
        dict(
            principal="alice" if j % 2 == 0 else "bob",
            loss=LogisticLoss(regularization=[1e-4, 1e-3, 1e-2][j % 3]),
            epsilon=EPS,
            passes=2,
            batch_size=25,
            seed=900 + j,
        )
        for j in range(n)
    ]


def submit_all(service: TrainingService, jobs):
    return [
        service.submit(job["principal"], "t", job["loss"], epsilon=job["epsilon"],
                       passes=job["passes"], batch_size=job["batch_size"],
                       seed=job["seed"])
        for job in jobs
    ]


def sync_reference(jobs) -> dict:
    """{seed: weights} from the single-threaded reference dispatch."""
    service = make_service(workers=1)
    records = submit_all(service, jobs)
    service.scheduler.run_pending()
    assert all(record.status is JobStatus.COMPLETED for record in records)
    return {record.job.seed: record.model for record in records}


class SlowLoss(LogisticLoss):
    """A logistic loss whose gradients stall — makes scans take long
    enough that submit-vs-scan overlap is observable."""

    def batch_gradient(self, w, X_batch, y_batch):
        time.sleep(0.005)
        return super().batch_gradient(w, X_batch, y_batch)


X2, Y2 = make_binary_data(M, D, seed=22)


def make_two_table_service(
    workers: int = 2, cap: float = 10.0, parallel_scans: bool = True, **kwargs
) -> TrainingService:
    service = make_service(
        workers=workers, cap=cap, parallel_scans=parallel_scans, **kwargs
    )
    service.register_table("u", X2, Y2)
    service.open_budget("alice", "u", cap)
    service.open_budget("bob", "u", cap)
    return service


def cross_table_jobs(n: int = 12, slow: bool = False):
    loss_type = SlowLoss if slow else LogisticLoss
    return [
        dict(
            principal="alice" if j % 2 == 0 else "bob",
            table="t" if j % 2 == 0 else "u",
            loss=loss_type(regularization=[1e-4, 1e-3, 1e-2][j % 3]),
            epsilon=EPS,
            passes=2,
            batch_size=25,
            seed=3000 + j,
        )
        for j in range(n)
    ]


def submit_cross(service: TrainingService, jobs):
    return [
        service.submit(job["principal"], job["table"], job["loss"],
                       epsilon=job["epsilon"], passes=job["passes"],
                       batch_size=job["batch_size"], seed=job["seed"])
        for job in jobs
    ]


class TestAsyncDispatch:
    def test_worker_drain_bitwise_equals_sync(self):
        jobs = mixed_jobs()
        reference = sync_reference(jobs)
        service = make_service(workers=4)
        records = submit_all(service, jobs)
        finished = service.drain()
        assert len(finished) == len(jobs)
        for record in records:
            assert record.status is JobStatus.COMPLETED
            assert np.array_equal(record.model, reference[record.job.seed])

    def test_continuous_server_mode(self):
        """start() once, submit over time, wait on handles, stop()."""
        jobs = mixed_jobs()
        reference = sync_reference(jobs)
        service = make_service(workers=2).start()
        try:
            records = []
            for job in jobs:
                records.append(submit_all(service, [job])[0])
            for record in records:
                assert record.wait(timeout=30.0)
                assert record.done
                assert np.array_equal(record.model, reference[record.job.seed])
        finally:
            service.stop()

    def test_submit_never_blocks_on_a_running_scan(self):
        service = make_service(workers=1).start()
        try:
            slow = service.submit("alice", "t", SlowLoss(1e-3), epsilon=EPS,
                                  passes=2, batch_size=25, seed=1)
            deadline = time.monotonic() + 10.0
            while service.status(slow.job_id) is JobStatus.QUEUED:
                assert time.monotonic() < deadline, "slow job never started"
                time.sleep(0.002)
            # The scan is in flight on the worker; submissions must
            # return without waiting for it.
            start = time.monotonic()
            quick = [
                service.submit("bob", "t", LogisticLoss(1e-3), epsilon=EPS,
                               passes=2, batch_size=25, seed=100 + j)
                for j in range(5)
            ]
            elapsed = time.monotonic() - start
            # The slow scan takes >= 2 * (300/25) * 5ms = 120ms; five
            # admissions are pure bookkeeping and finish far faster.
            assert elapsed < 0.1, f"submit() blocked for {elapsed:.3f}s"
            assert service.status(slow.job_id) in (
                JobStatus.RUNNING, JobStatus.COMPLETED
            )
            for record in quick:
                assert record.wait(timeout=30.0)
                assert record.status is JobStatus.COMPLETED
            assert slow.wait(timeout=30.0)
        finally:
            service.stop()

    def test_drain_returns_only_new_terminals(self):
        service = make_service(workers=2)
        first = submit_all(service, mixed_jobs(4))
        assert len(service.drain()) == 4
        submit_all(service, mixed_jobs(2))  # seeds 900, 901 -> cache hits
        more = [
            service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                           passes=2, batch_size=25, seed=7000 + j)
            for j in range(3)
        ]
        second = service.drain()
        # Cache hits are terminal at submit and never dispatched, so the
        # drain reports exactly the three fresh jobs.
        assert {record.job_id for record in second} == {
            record.job_id for record in more
        }
        assert all(record.job_id not in {f.job_id for f in first}
                   for record in second)

    def test_wait_timeout_returns_false(self):
        service = make_service(workers=1)
        record = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                                passes=1, batch_size=25, seed=3)
        assert record.wait(timeout=0.0) is False
        assert not record.done
        service.drain()
        assert record.wait(timeout=0.0) is True

    def test_concurrent_submitters_and_workers_stay_bitwise(self):
        """3 submitter threads racing 2 workers: same bits as sync."""
        jobs = mixed_jobs(12)
        reference = sync_reference(jobs)
        service = make_service(workers=2).start()
        try:
            records, errors = [], []
            lock = threading.Lock()

            def submitter(chunk):
                try:
                    for job in chunk:
                        record = submit_all(service, [job])[0]
                        with lock:
                            records.append(record)
                except Exception as error:  # pragma: no cover - fail loud
                    errors.append(error)

            threads = [
                threading.Thread(target=submitter, args=(jobs[i::3],))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for record in records:
                assert record.wait(timeout=30.0)
                assert np.array_equal(record.model, reference[record.job.seed])
        finally:
            service.stop()


class TestWorkerRaceLedger:
    @settings(max_examples=8, deadline=None)
    @given(
        epsilons=st.lists(
            st.floats(min_value=0.01, max_value=0.30, allow_nan=False),
            min_size=4,
            max_size=16,
        )
    )
    def test_concurrent_submit_plus_dispatch_never_overspends(self, epsilons):
        """spent + reserved <= cap at every sampled instant, and the
        final spend is exactly the committed jobs' total — under real
        submit/worker races (2 submitter threads + 2 worker threads)."""
        cap = 0.5
        service = make_service(workers=2, cap=cap)
        service.start()
        violations: list = []
        stop_sampling = threading.Event()

        def sampler():
            while not stop_sampling.is_set():
                for statement in service.budgets():
                    if would_overflow(
                        statement.cap,
                        statement.spent[0] + statement.reserved[0],
                        statement.spent[1] + statement.reserved[1],
                    ):
                        violations.append(statement)
                time.sleep(0.001)

        records: list = []
        lock = threading.Lock()

        def submitter(chunk, base_seed):
            for index, epsilon in enumerate(chunk):
                record = service.submit(
                    "alice", "t", LogisticLoss(1e-3), epsilon=float(epsilon),
                    passes=1, batch_size=25, seed=base_seed + index,
                )
                with lock:
                    records.append(record)

        sampler_thread = threading.Thread(target=sampler)
        sampler_thread.start()
        try:
            submitters = [
                threading.Thread(target=submitter, args=(epsilons[i::2], 10_000 * (i + 1)))
                for i in range(2)
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join()
            assert service.loop.wait_quiescent(timeout=60.0)
        finally:
            stop_sampling.set()
            sampler_thread.join()
            service.stop()

        assert not violations, f"ledger overspent under race: {violations[:3]}"
        committed = sum(
            record.receipt.parameters.epsilon
            for record in records
            if record.status is JobStatus.COMPLETED
        )
        statement = [s for s in service.budgets() if s.principal == "alice"][0]
        assert statement.spent[0] == pytest.approx(committed)
        assert not would_overflow(statement.cap, statement.spent[0], statement.spent[1])
        assert statement.reserved == (0.0, 0.0)
        for record in records:
            assert record.status in (
                JobStatus.COMPLETED, JobStatus.REJECTED
            ), record.error
            if record.status is JobStatus.REJECTED:
                assert record.receipt is None


class TestResultCache:
    def test_resubmission_is_a_zero_cost_hit(self):
        service = make_service(workers=2)
        jobs = mixed_jobs()
        originals = submit_all(service, jobs)
        service.drain()
        pages = service.page_reads
        spent = {s.principal: s.spent for s in service.budgets()}

        replays = submit_all(service, jobs)
        for original, replay in zip(originals, replays):
            assert replay.status is JobStatus.COMPLETED
            assert replay.done  # terminal at submit, no drain needed
            assert replay.dispatch == "cached"
            assert replay.cache_source == original.job_id
            assert replay.group_pages == 0
            assert replay.receipt is None
            assert np.array_equal(replay.model, original.model)
        assert service.page_reads == pages, "cache hits touched pages"
        assert {s.principal: s.spent for s in service.budgets()} == spent
        assert service.scheduler.cache.hits == len(jobs)

    def test_any_release_relevant_change_misses(self):
        service = make_service(workers=1)
        base = dict(epsilon=EPS, passes=2, batch_size=25, seed=77)
        service.submit("alice", "t", LogisticLoss(1e-3), **base)
        service.drain()
        variants = [
            ("seed", dict(base, seed=78)),
            ("epsilon", dict(base, epsilon=EPS / 2)),
            ("passes", dict(base, passes=1)),
            ("batch_size", dict(base, batch_size=50)),
        ]
        for name, params in variants:
            record = service.submit("alice", "t", LogisticLoss(1e-3), **params)
            assert record.status is JobStatus.QUEUED, f"{name} should miss"
        miss = service.submit("alice", "t", LogisticLoss(1e-2), **base)
        assert miss.status is JobStatus.QUEUED, "loss change should miss"
        service.drain()

    def test_hit_is_shared_across_principals(self):
        """The release is principal-independent, so bob's identical job
        hits alice's entry — and spends nothing from *his* account."""
        service = make_service(workers=1)
        alice = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                               passes=2, batch_size=25, seed=5)
        service.drain()
        bob = service.submit("bob", "t", LogisticLoss(1e-3), epsilon=EPS,
                             passes=2, batch_size=25, seed=5)
        assert bob.dispatch == "cached"
        assert np.array_equal(bob.model, alice.model)
        bob_statement = [s for s in service.budgets() if s.principal == "bob"][0]
        assert bob_statement.spent == (0, 0)

    def test_hit_requires_a_ledger_account(self):
        """A hit is a free re-release, not an access grant: a principal
        with no account on the table is REJECTED even when an identical
        release sits in the cache."""
        service = make_service(workers=1)
        alice = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                               passes=2, batch_size=25, seed=5)
        service.drain()
        mallory = service.submit("mallory", "t", LogisticLoss(1e-3),
                                 epsilon=EPS, passes=2, batch_size=25, seed=5)
        assert mallory.status is JobStatus.REJECTED
        assert mallory.model is None
        assert "no budget account" in mallory.error
        assert alice.status is JobStatus.COMPLETED

    def test_hit_records_are_mutation_isolated(self):
        """Tenants get their own array: scribbling on one served result
        must not corrupt the cache or other tenants' hits."""
        service = make_service(workers=1)
        original = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                                  passes=2, batch_size=25, seed=5)
        service.drain()
        first = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                               passes=2, batch_size=25, seed=5)
        first.model[:] = 0.0  # a tenant normalizes "their" weights in place
        second = service.submit("bob", "t", LogisticLoss(1e-3), epsilon=EPS,
                                passes=2, batch_size=25, seed=5)
        assert np.array_equal(second.model, original.model)
        assert not np.array_equal(second.model, first.model)

    def test_virtual_heaps_are_uncacheable_not_scanned(self):
        """A generator-backed heap has no cheap content identity, so its
        jobs are never cached — and registering it must not trigger a
        full-table fingerprint synthesis."""
        from repro.rdbms.storage import VirtualHeapFile, tuples_per_page

        per_page = tuples_per_page(D)
        synthesized = []

        def page(page_id, count, dim):
            synthesized.append(page_id)
            rows = slice(page_id * per_page, page_id * per_page + count)
            return X[rows], Y[rows]

        service = make_service(workers=1)
        service.register_table("v", heap=VirtualHeapFile(M, D, page))
        assert synthesized == []  # registration stayed metadata-only
        service.open_budget("alice", "v", 10.0)
        first = service.submit("alice", "v", LogisticLoss(1e-3), epsilon=EPS,
                               passes=1, batch_size=25, seed=2)
        service.drain()
        assert first.status is JobStatus.COMPLETED
        again = service.submit("alice", "v", LogisticLoss(1e-3), epsilon=EPS,
                               passes=1, batch_size=25, seed=2)
        assert again.status is JobStatus.QUEUED  # no fingerprint, no hit
        service.drain()
        assert np.array_equal(again.model, first.model)  # still deterministic

    def test_unhashable_loss_state_is_not_cached(self):
        service = make_service(workers=1)
        loss = LogisticLoss(1e-3)
        loss.opaque_state = [1.0, 2.0]  # kills fusion_key -> uncacheable
        first = service.submit("alice", "t", loss, epsilon=EPS,
                               passes=2, batch_size=25, seed=9)
        service.drain()
        assert first.status is JobStatus.COMPLETED
        again = service.submit("alice", "t", loss, epsilon=EPS,
                               passes=2, batch_size=25, seed=9)
        assert again.status is JobStatus.QUEUED  # trains again, no hit
        service.drain()
        assert again.status is JobStatus.COMPLETED


TWIN = dict(epsilon=0.3, passes=2, batch_size=25, seed=5)


def spent(service: TrainingService) -> dict:
    return {s.principal: (s.spent[0], s.reserved[0]) for s in service.budgets()}


class TestTwins:
    """An identical submit made while the first is still queued or running
    (a resent submit, typically) attaches to it instead of reserving: one
    release, one charge."""

    def test_a_repeated_submit_while_queued_reserves_once(self):
        service = make_service(workers=1)  # not started: both stay queued
        primary = service.submit("alice", "t", LogisticLoss(1e-3), **TWIN)
        twin = service.submit("alice", "t", LogisticLoss(1e-3), **TWIN)
        assert twin.status is JobStatus.QUEUED
        assert spent(service)["alice"] == (0.0, 0.3)
        service.drain()
        assert primary.status is JobStatus.COMPLETED
        assert twin.status is JobStatus.COMPLETED
        assert primary.dispatch == "scan"
        assert twin.dispatch == "cached"
        assert twin.cache_source == primary.job_id
        assert twin.group_pages == 0
        assert twin.receipt is None
        assert np.array_equal(twin.model, primary.model)  # atol=0
        assert twin.model is not primary.model
        assert spent(service)["alice"] == (0.3, 0.0)
        assert service.scheduler.dispatch_log[0][1] == [primary.job_id]

    def test_a_twin_from_another_principal_spends_nothing(self):
        service = make_service(workers=1)
        primary = service.submit("alice", "t", LogisticLoss(1e-3), **TWIN)
        twin = service.submit("bob", "t", LogisticLoss(1e-3), **TWIN)
        service.drain()
        assert twin.dispatch == "cached"
        assert np.array_equal(twin.model, primary.model)
        assert spent(service) == {"alice": (0.3, 0.0), "bob": (0.0, 0.0)}

    def test_cancelling_a_twin_leaves_its_primary_alone(self):
        service = make_service(workers=1)
        primary = service.submit("alice", "t", LogisticLoss(1e-3), **TWIN)
        twin = service.submit("bob", "t", LogisticLoss(1e-3), **TWIN)
        assert spent(service) == {"alice": (0.0, 0.3), "bob": (0.0, 0.0)}
        assert service.cancel(twin.job_id) is True
        assert twin.status is JobStatus.CANCELLED
        assert twin.trace.names() == ["admit", "queued"]
        assert spent(service) == {"alice": (0.0, 0.3), "bob": (0.0, 0.0)}
        service.drain()
        assert primary.status is JobStatus.COMPLETED
        assert twin.status is JobStatus.CANCELLED
        assert spent(service) == {"alice": (0.3, 0.0), "bob": (0.0, 0.0)}

    def test_a_cancelled_primarys_twin_trains_on_its_own(self):
        service = make_service(workers=1)
        primary = service.submit("alice", "t", LogisticLoss(1e-3), **TWIN)
        twin = service.submit("bob", "t", LogisticLoss(1e-3), **TWIN)
        assert service.cancel(primary.job_id) is True
        assert twin.status is JobStatus.QUEUED
        assert spent(service) == {"alice": (0.0, 0.0), "bob": (0.0, 0.3)}
        service.drain()
        assert twin.status is JobStatus.COMPLETED
        assert twin.dispatch == "scan"
        assert spent(service) == {"alice": (0.0, 0.0), "bob": (0.3, 0.0)}

    def test_a_failed_primarys_twins_are_admitted_on_their_own(self):
        service = make_service(workers=1)
        service.open_budget("carol", "t", 0.2)  # an account, not 0.3 of it
        primary = service.submit("alice", "t", LogisticLoss(1e-3), **TWIN)
        carol = service.submit("carol", "t", LogisticLoss(1e-3), **TWIN)
        bob = service.submit("bob", "t", LogisticLoss(1e-3), **TWIN)
        last = service.submit("alice", "t", LogisticLoss(1e-3), **TWIN)
        assert carol.status is JobStatus.QUEUED  # attached: nothing reserved
        window = service.scheduler.claim_window()
        assert [job.job_id for job in window] == [primary.job_id]
        service.scheduler.fail_jobs(window, RuntimeError("scan lost"))
        service.scheduler.release_window(window)
        assert primary.status is JobStatus.FAILED
        # In attach order: carol cannot pay and is rejected, bob reserves
        # and queues, and the last twin attaches to bob's job.
        assert carol.status is JobStatus.REJECTED
        assert bob.status is JobStatus.QUEUED
        assert spent(service) == {
            "alice": (0.0, 0.0), "bob": (0.0, 0.3), "carol": (0.0, 0.0)
        }
        service.drain()
        assert bob.dispatch == "scan"
        assert last.dispatch == "cached"
        assert last.cache_source == bob.job_id
        assert spent(service) == {
            "alice": (0.0, 0.0), "bob": (0.3, 0.0), "carol": (0.0, 0.0)
        }

    @pytest.mark.parametrize("elevator", [False, True])
    def test_racing_identical_submits_pay_once_per_training(self, elevator):
        """Submitters racing the workers (more threads than cores, a short
        switch interval). A twin lost between attach and detach would
        never finish; a second reservation for a key in flight, or a twin
        served an elevator ride's offset release, would show below."""
        service = make_service(workers=2, elevator=elevator).start()
        records, lock = [], threading.Lock()

        def submitter(principal):
            for _ in range(10):
                for seed in range(6):
                    record = service.submit(
                        principal, "t", LogisticLoss(1e-3), epsilon=EPS,
                        passes=1, batch_size=50, seed=seed,
                    )
                    with lock:
                        records.append(record)
                    time.sleep(0.0002)  # keep submitting while jobs land

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submitter, args=(principal,))
                for principal in ("alice", "bob", "alice", "bob")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert all(record.wait(timeout=60.0) for record in records)
        finally:
            sys.setswitchinterval(interval)
            service.stop()
        assert len(records) == 240
        assert all(record.status is JobStatus.COMPLETED for record in records)
        trained = [record for record in records if record.dispatch == "scan"]
        by_id = {record.job_id: record for record in trained}
        for record in records:
            if record.dispatch == "cached":
                source = by_id[record.cache_source]
                assert source.boarding_offset == 0
                assert np.array_equal(record.model, source.model)
        if not elevator:
            assert sorted(record.job.seed for record in trained) == list(range(6))
        statements = service.budgets()
        assert sum(s.spent[0] for s in statements) == pytest.approx(
            len(trained) * EPS
        )
        assert all(s.reserved == (0.0, 0.0) for s in statements)

    def test_a_job_without_a_cache_key_still_reserves_twice(self):
        service = make_service(workers=1)
        loss = LogisticLoss(1e-3)
        loss.opaque_state = [1.0, 2.0]  # no cache identity
        first = service.submit("alice", "t", loss, **TWIN)
        again = service.submit("alice", "t", loss, **TWIN)
        service.drain()
        assert first.dispatch == again.dispatch == "scan"
        assert spent(service)["alice"] == (pytest.approx(0.6), 0.0)


class TestDurableRegistry:
    def test_snapshot_load_roundtrip_is_bitwise(self, tmp_path):
        service = make_service(workers=2)
        records = submit_all(service, mixed_jobs())
        service.drain()
        path = tmp_path / "registry.json"
        service.registry.snapshot(path)

        loaded = ModelRegistry.load(path)
        assert len(loaded) == len(service.registry)
        for record in records:
            twin = loaded.get(record.job_id)
            assert twin.status is record.status
            assert np.array_equal(twin.model, record.model)
            assert twin.receipt == record.receipt
            assert twin.sensitivity == record.sensitivity
            assert twin.dispatch == record.dispatch
            assert twin.group_pages == record.group_pages
            assert twin.job.seed == record.job.seed
            assert type(twin.job.candidate.loss) is type(record.job.candidate.loss)
            assert twin.done  # loaded terminal records are awaitable

    def test_restart_resumes_models_budgets_and_cache(self, tmp_path):
        jobs = mixed_jobs()
        service = make_service(workers=2, cap=0.5, state_dir=tmp_path)
        originals = submit_all(service, jobs)
        service.drain()  # autosave fires per window + at stop

        restarted = make_service(workers=2, cap=0.5, state_dir=tmp_path)
        loaded = restarted.load_state()
        assert loaded == len(jobs)
        # Prior models are served.
        for record in originals:
            assert np.array_equal(
                restarted.model(record.job_id), record.model
            )
        # Budgets reconciled from receipts: 4 jobs x 0.05 eps committed
        # per principal...
        for statement in restarted.budgets():
            assert statement.spent[0] == pytest.approx(4 * EPS)
        # ...so a job that fit before the restart still fits, and one
        # that overflows the reconciled account is rejected at admission.
        ok = restarted.submit("alice", "t", LogisticLoss(1e-3),
                              epsilon=0.5 - 4 * EPS, passes=2, batch_size=25,
                              seed=12345)
        assert ok.status is JobStatus.QUEUED
        over = restarted.submit("bob", "t", LogisticLoss(1e-3),
                                epsilon=0.5 - 4 * EPS + 0.01, passes=2,
                                batch_size=25, seed=12346)
        assert over.status is JobStatus.REJECTED
        assert restarted.page_reads == 0  # admission decisions cost no I/O
        # The cache came back armed: a resubmission is a zero-cost hit.
        hit = restarted.submit(jobs[0]["principal"], "t", jobs[0]["loss"],
                               epsilon=jobs[0]["epsilon"], passes=2,
                               batch_size=25, seed=jobs[0]["seed"])
        assert hit.dispatch == "cached"
        assert np.array_equal(hit.model, originals[0].model)
        assert restarted.page_reads == 0
        restarted.drain()

    def test_load_before_register_table_still_arms_cache(self, tmp_path):
        service = make_service(workers=1, state_dir=tmp_path)
        record = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                                passes=2, batch_size=25, seed=4)
        service.drain()
        service.save_state()

        restarted = TrainingService(scan_seed=5, workers=1, state_dir=tmp_path)
        assert restarted.load_state() == 1  # table not registered yet
        restarted.register_table("t", X, Y)  # same contents -> keys match
        hit = restarted.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                               passes=2, batch_size=25, seed=4)
        assert hit.dispatch == "cached"
        assert np.array_equal(hit.model, record.model)

    def test_inflight_jobs_reload_as_interrupted_failures(self, tmp_path):
        service = make_service(workers=1)
        queued = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                                passes=2, batch_size=25, seed=6)
        service.save_state(tmp_path)  # snapshot with the job still QUEUED

        restarted = make_service(workers=1)
        restarted.load_state(tmp_path)
        twin = restarted.result(queued.job_id)
        assert twin.status is JobStatus.FAILED
        assert "interrupted" in twin.error
        assert twin.receipt is None
        # No receipt -> reconciliation charges nothing for it.
        for statement in restarted.budgets():
            assert statement.spent == (0, 0)
        service.drain()

    def test_changed_table_contents_invalidate_the_cache(self, tmp_path):
        service = make_service(workers=1, state_dir=tmp_path)
        service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                       passes=2, batch_size=25, seed=8)
        service.drain()

        restarted = TrainingService(scan_seed=5, workers=1, state_dir=tmp_path)
        X2 = X.copy()
        X2[0, 0] += 1e-9  # one float differs -> different fingerprint
        restarted.register_table("t", X2, Y)
        restarted.open_budget("alice", "t", 10.0)
        restarted.load_state()
        miss = restarted.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                                passes=2, batch_size=25, seed=8)
        assert miss.status is JobStatus.QUEUED  # not served stale weights
        restarted.drain()

    def test_torn_inflight_record_never_persists_a_receipt(self, tmp_path):
        """The autosave race: a snapshot taken between a worker's ledger
        commit and the status flip to COMPLETED must not persist the
        receipt — else restore would charge the tenant for a job it
        reports as FAILED/interrupted."""
        from repro.service.ledger import BudgetReceipt
        from repro.core.mechanisms import PrivacyParameters

        service = make_service(workers=1)
        record = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                                passes=2, batch_size=25, seed=6)
        # Simulate the mid-release window: receipt + model written, the
        # terminal status (which _release sets last) not yet.
        record.status = JobStatus.RUNNING
        record.model = np.zeros(D)
        record.receipt = BudgetReceipt(
            principal="alice", table="t", job_id=record.job_id,
            parameters=PrivacyParameters(EPS), sequence=1,
        )
        service.save_state(tmp_path)

        restarted = make_service(workers=1)
        restarted.load_state(tmp_path)
        twin = restarted.result(record.job_id)
        assert twin.status is JobStatus.FAILED
        assert twin.receipt is None
        assert twin.model is None
        for statement in restarted.budgets():
            assert statement.spent == (0, 0)

    def test_reconcile_keys_on_receipt_identity_not_sequence(self):
        """A warm ledger's live commit may share a sequence number with a
        prior process's receipt; both spends must count (and replaying
        the same receipt twice must not)."""
        from repro.core.mechanisms import PrivacyParameters
        from repro.service import PrivacyBudgetLedger
        from repro.service.ledger import BudgetReceipt

        ledger = PrivacyBudgetLedger()
        ledger.open_account("alice", "t", 1.0)
        ledger.commit(
            ledger.reserve("alice", "t", PrivacyParameters(0.2), job_id="live-1")
        )  # live commit, sequence 1
        prior = BudgetReceipt(
            principal="alice", table="t", job_id="old-1",
            parameters=PrivacyParameters(0.3), sequence=1,  # colliding seq
        )
        assert ledger.reconcile([prior]) == 1
        assert ledger.statement("alice", "t").spent[0] == pytest.approx(0.5)
        assert ledger.reconcile([prior]) == 0  # identity-idempotent
        assert ledger.statement("alice", "t").spent[0] == pytest.approx(0.5)
        # The counter moved past both histories: the next commit's
        # sequence collides with neither.
        receipt = ledger.commit(
            ledger.reserve("alice", "t", PrivacyParameters(0.1), job_id="live-2")
        )
        assert receipt.sequence > 1

    def test_dispatch_machinery_error_fails_jobs_not_workers(self):
        """An unexpected error outside the engine (here: the table vanishes
        between admission and dispatch) must FAIL the jobs with refunds —
        never strand them QUEUED behind a dead worker thread."""
        service = make_service(workers=1)
        records = [
            service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                           passes=2, batch_size=25, seed=50 + j)
            for j in range(3)
        ]
        service.session.catalog.drop_table("t")
        finished = service.drain()
        assert len(finished) == 3
        for record in records:
            assert record.wait(timeout=10.0)
            assert record.status is JobStatus.FAILED
            assert "no such table" in record.error
        statement = [s for s in service.budgets() if s.principal == "alice"][0]
        assert statement.reserved == (0.0, 0.0)  # all holds refunded
        assert statement.spent == (0, 0)

    def test_reconcile_overflow_rejects_whole_snapshot(self):
        """A snapshot whose receipts overflow a cap must raise with the
        ledger unchanged — never half-charged."""
        from repro.core.accountant import PrivacyBudgetExceeded
        from repro.core.mechanisms import PrivacyParameters
        from repro.service import PrivacyBudgetLedger
        from repro.service.ledger import BudgetReceipt

        ledger = PrivacyBudgetLedger()
        ledger.open_account("alice", "t", 0.5)
        receipts = [
            BudgetReceipt(principal="alice", table="t", job_id=f"old-{i}",
                          parameters=PrivacyParameters(0.3), sequence=i + 1)
            for i in range(2)  # totals 0.6 > cap 0.5
        ]
        with pytest.raises(PrivacyBudgetExceeded, match="refusing to restore"):
            ledger.reconcile(receipts)
        assert ledger.statement("alice", "t").spent == (0, 0)

    def test_stop_during_drain_does_not_hang(self):
        """stop() racing a blocked drain() must wake it (error or clean
        finish), never strand it behind a queue no worker will empty."""
        service = make_service(workers=1).start()
        for j in range(4):
            service.submit("alice", "t", SlowLoss(1e-3), epsilon=EPS,
                           passes=2, batch_size=25, seed=600 + j)
        outcome: list = []

        def drainer():
            try:
                outcome.append(("ok", service.drain()))
            except RuntimeError as error:
                outcome.append(("stopped", error))

        thread = threading.Thread(target=drainer)
        thread.start()
        time.sleep(0.02)  # let the drain block on quiescence
        service.stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "drain hung after stop()"
        assert outcome and outcome[0][0] in ("ok", "stopped")

    def test_snapshot_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "records": []}')
        with pytest.raises(ValueError, match="not a registry snapshot"):
            ModelRegistry.load(path)


class TestPerTableParallelDispatch:
    """Per-table engine domains: N workers overlap scans on N distinct
    tables, and the concurrency is invisible to everything but the clock
    — released bits, per-job page attribution, and ledger invariants are
    exactly the serialized execution's."""

    def cross_reference(self, jobs) -> dict:
        """{(table, seed): weights} from the 1-worker serialized drain."""
        service = make_two_table_service(workers=1)
        records = submit_cross(service, jobs)
        service.scheduler.run_pending()
        assert all(record.status is JobStatus.COMPLETED for record in records)
        return {
            (record.job.table, record.job.seed): record.model
            for record in records
        }

    def test_cross_table_drain_bitwise_equals_sync(self):
        jobs = cross_table_jobs(12)
        reference = self.cross_reference(jobs)
        service = make_two_table_service(workers=3)
        records = submit_cross(service, jobs)
        finished = service.drain()
        assert len(finished) == len(jobs)
        for record in records:
            assert record.status is JobStatus.COMPLETED
            assert np.array_equal(
                record.model, reference[(record.job.table, record.job.seed)]
            )

    def test_scans_on_distinct_tables_really_overlap(self):
        """With slow scans on two tables and two workers, the per-table
        locks must reach overlap 2; the global-lock reference
        configuration must stay at 1 on the identical workload."""
        for parallel, expected in ((True, 2), (False, 1)):
            service = make_two_table_service(workers=2, parallel_scans=parallel)
            records = submit_cross(service, cross_table_jobs(8, slow=True))
            service.drain()
            assert all(r.status is JobStatus.COMPLETED for r in records)
            assert service.peak_scan_overlap == expected, (
                f"parallel_scans={parallel}"
            )

    def test_page_attribution_exact_under_cross_table_overlap(self):
        """Every job's recorded pages under real cross-table concurrency
        == its solo run's — the per-table counters never absorb another
        table's traffic."""
        solo_pages = {}
        for table in ("t", "u"):
            service = make_two_table_service(workers=1)
            record = service.submit(
                "alice", table, LogisticLoss(1e-3),
                epsilon=EPS, passes=2, batch_size=25, seed=1,
            )
            service.drain()
            solo_pages[table] = record.group_pages
            assert solo_pages[table] > 0

        service = make_two_table_service(workers=2)
        records = submit_cross(service, cross_table_jobs(12, slow=True))
        service.drain()
        assert service.peak_scan_overlap == 2  # the race actually happened
        for record in records:
            assert record.status is JobStatus.COMPLETED
            assert record.group_pages == solo_pages[record.job.table]

    def test_claim_window_is_single_table_and_skips_busy_domains(self):
        service = make_two_table_service(workers=1)  # loop never started
        submit_cross(service, cross_table_jobs(8))
        scheduler = service.scheduler
        first = scheduler.claim_window()
        assert first and len({job.table for job in first}) == 1
        second = scheduler.claim_window()
        assert second and len({job.table for job in second}) == 1
        # The second claim went to the other (free) table's work.
        assert {job.table for job in first} != {job.table for job in second}
        # Both domains busy + more queued on neither -> empty claim.
        assert scheduler.claim_window() == []
        scheduler.dispatch_window(first)
        scheduler.dispatch_window(second)

    def test_claim_window_defers_jobs_on_a_busy_table(self):
        service = make_service(workers=1, window=2)
        jobs = mixed_jobs(5)  # all on table "t", window of 2
        submit_all(service, jobs)
        scheduler = service.scheduler
        claimed = scheduler.claim_window()
        assert len(claimed) == 2
        # t is mid-dispatch: its remaining jobs are not claimable...
        assert scheduler.claim_window() == []
        assert len(scheduler.queue) == 3
        # ...until the window finishes and frees the domain.
        scheduler.dispatch_window(claimed)
        reclaimed = scheduler.claim_window()
        assert len(reclaimed) == 2
        scheduler.dispatch_window(reclaimed)
        service.drain()

    @settings(max_examples=6, deadline=None)
    @given(
        epsilons=st.lists(
            st.floats(min_value=0.01, max_value=0.30, allow_nan=False),
            min_size=4,
            max_size=12,
        )
    )
    def test_cross_table_races_never_overspend(self, epsilons):
        """spent + reserved <= cap at every sampled instant with workers
        racing across two tables, and the final spend is exactly the
        committed jobs' total per account."""
        cap = 0.4
        service = make_two_table_service(workers=2, cap=cap)
        service.start()
        violations: list = []
        stop_sampling = threading.Event()

        def sampler():
            while not stop_sampling.is_set():
                for statement in service.budgets():
                    if would_overflow(
                        statement.cap,
                        statement.spent[0] + statement.reserved[0],
                        statement.spent[1] + statement.reserved[1],
                    ):
                        violations.append(statement)
                time.sleep(0.001)

        records: list = []
        lock = threading.Lock()

        def submitter(chunk, table, base_seed):
            for index, epsilon in enumerate(chunk):
                record = service.submit(
                    "alice", table, LogisticLoss(1e-3), epsilon=float(epsilon),
                    passes=1, batch_size=25, seed=base_seed + index,
                )
                with lock:
                    records.append(record)

        sampler_thread = threading.Thread(target=sampler)
        sampler_thread.start()
        try:
            submitters = [
                threading.Thread(
                    target=submitter,
                    args=(epsilons[i::2], "t" if i == 0 else "u", 20_000 * (i + 1)),
                )
                for i in range(2)
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join()
            assert service.loop.wait_quiescent(timeout=60.0)
        finally:
            stop_sampling.set()
            sampler_thread.join()
            service.stop()

        assert not violations, f"ledger overspent under race: {violations[:3]}"
        for table in ("t", "u"):
            committed = sum(
                record.receipt.parameters.epsilon
                for record in records
                if record.status is JobStatus.COMPLETED
                and record.job.table == table
            )
            statement = [
                s for s in service.budgets()
                if s.principal == "alice" and s.table == table
            ][0]
            assert statement.spent[0] == pytest.approx(committed)
            assert statement.reserved == (0.0, 0.0)
        for record in records:
            assert record.status in (JobStatus.COMPLETED, JobStatus.REJECTED)


class TestFingerprintInvalidation:
    """Regression: the fingerprint memo was keyed by table name forever,
    so a table whose contents changed could keep serving cached weights
    trained on the OLD data. Drop-and-recreate is now self-invalidating
    (the memo is keyed to the heap's identity); in-place mutation has an
    explicit ``invalidate_fingerprint`` hook."""

    JOB = dict(epsilon=EPS, passes=2, batch_size=25, seed=8)

    def test_drop_and_recreate_never_serves_a_stale_hit(self):
        X_new, Y_new = make_binary_data(M, D, seed=99)
        service = make_service(workers=1)
        first = service.submit("alice", "t", LogisticLoss(1e-3), **self.JOB)
        service.drain()
        assert first.status is JobStatus.COMPLETED

        service.session.catalog.drop_table("t")
        service.register_table("t", X_new, Y_new)  # same name, new content
        miss = service.submit("alice", "t", LogisticLoss(1e-3), **self.JOB)
        assert miss.status is JobStatus.QUEUED, "stale fingerprint cache hit"
        service.drain()
        assert miss.status is JobStatus.COMPLETED
        assert not np.array_equal(miss.model, first.model)

    def test_recreating_with_identical_content_still_hits(self):
        """The memo is an identity check, not an over-invalidation: the
        recreated table re-hashes to the same fingerprint, so the prior
        release is legitimately served."""
        service = make_service(workers=1)
        first = service.submit("alice", "t", LogisticLoss(1e-3), **self.JOB)
        service.drain()
        service.session.catalog.drop_table("t")
        service.register_table("t", X.copy(), Y.copy())
        hit = service.submit("alice", "t", LogisticLoss(1e-3), **self.JOB)
        assert hit.dispatch == "cached"
        assert np.array_equal(hit.model, first.model)

    def test_in_place_mutation_plus_invalidate_misses(self):
        X_new, _ = make_binary_data(M, D, seed=99)
        service = make_service(workers=1)
        # A private copy: mutating the module-level X would leak into
        # every other test registering it.
        service.register_table("w", X.copy(), Y.copy())
        service.open_budget("alice", "w", 10.0)
        first = service.submit("alice", "w", LogisticLoss(1e-3), **self.JOB)
        service.drain()
        assert first.status is JobStatus.COMPLETED

        heap = service.session.catalog.get("w").heap
        heap._features[:] = X_new  # in-place edit: same heap object
        service.invalidate_fingerprint("w")
        miss = service.submit("alice", "w", LogisticLoss(1e-3), **self.JOB)
        assert miss.status is JobStatus.QUEUED, "stale fingerprint cache hit"
        service.drain()
        assert miss.status is JobStatus.COMPLETED
        assert not np.array_equal(miss.model, first.model)


class TestWorkerWakeLatency:
    def test_freed_domain_wakes_a_parked_worker_immediately(self, monkeypatch):
        """The claim runs inside the wait predicate, so a worker parked
        behind a busy engine domain is woken — and claims — the moment
        the domain frees, not up to a poll interval later. With the poll
        stretched to 5 s, a two-window burst on one table still drains in
        well under a second: any timeout-paced pickup would blow this."""
        monkeypatch.setattr("repro.service.worker._IDLE_POLL_SECONDS", 5.0)
        service = make_service(workers=2, window=1)
        stall = threading.Event()
        stalled = threading.Event()

        def blocking_autosave():
            # The first finisher sticks here, so the SECOND window can
            # only be dispatched by the other worker — the one parked on
            # the busy table with the 5 s poll as its only other wake-up.
            if not stalled.is_set():
                stalled.set()
                stall.wait(timeout=20.0)

        service.loop.autosave = blocking_autosave
        service.start()
        try:
            start = time.monotonic()
            first = service.submit("alice", "t", LogisticLoss(1e-3),
                                   epsilon=EPS, passes=1, batch_size=25, seed=1)
            second = service.submit("bob", "t", LogisticLoss(1e-3),
                                    epsilon=EPS, passes=1, batch_size=25, seed=2)
            assert second.wait(timeout=30.0)
            assert first.wait(timeout=30.0)
            elapsed = time.monotonic() - start
            assert elapsed < 2.0, (
                f"burst took {elapsed:.2f}s — a freed engine domain did not "
                "wake the parked worker (poll-paced pickup)"
            )
        finally:
            stall.set()
            service.stop()

    def test_only_an_admission_that_queued_a_job_wakes_the_loop(self, monkeypatch):
        service = make_service(workers=1, cap=1.0).start()
        wakes = record_calls(monkeypatch, service.loop, "wake")
        job = dict(loss=LogisticLoss(1e-3), epsilon=EPS, passes=1,
                   batch_size=25, seed=1)
        try:
            fresh = service.submit("alice", "t", **job)
            assert len(wakes) == 1
            assert fresh.wait(timeout=30.0)
            cached = service.submit("alice", "t", **job)
            over_budget = service.submit("alice", "t", LogisticLoss(1e-3),
                                         epsilon=2.0, seed=2)
            assert cached.dispatch == "cached"
            assert over_budget.status is JobStatus.REJECTED
            assert len(wakes) == 1
        finally:
            service.stop()

    def test_a_held_wake_is_sent_when_the_block_ends_even_by_raising(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.service.worker._IDLE_POLL_SECONDS", 5.0)
        service = make_service(workers=1).start()
        sent = record_calls(monkeypatch, service.loop, "_wake_workers")
        try:
            first = service.submit("alice", "t", LogisticLoss(1e-3),
                                   epsilon=EPS, passes=1, batch_size=25, seed=1)
            assert len(sent) == 1  # outside a hold, a submit wakes at once
            assert first.wait(timeout=30.0)
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="after admission"):
                with service.loop.holding_wakes():
                    held = service.submit("bob", "t", LogisticLoss(1e-3),
                                          epsilon=EPS, passes=1, batch_size=25,
                                          seed=2)
                    assert len(sent) == 1
                    raise RuntimeError("the request failed after admission")
            assert len(sent) == 2
            assert held.wait(timeout=2.0)
            assert time.monotonic() - started < 2.0
        finally:
            service.stop()


def record_calls(monkeypatch, owner, name: str) -> list:
    """Forward ``owner.name`` calls, recording each call's arguments."""
    calls = []
    real = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


class TestQueueInsertOrder:
    def test_queue_is_kept_sorted_on_insert(self):
        """The queue's dispatch order under bisect-insert is exactly the
        old stable sort's: (-priority, arrival), FIFO within a priority
        level — including pushes that arrive out of arrival order (the
        elevator re-queues never-admitted boarders)."""
        from repro.core.bolton import BoltOnCandidate
        from repro.service.jobs import JobQueue, TrainingJob, _dispatch_order

        rng = np.random.default_rng(17)
        jobs = [
            TrainingJob(
                principal="p", table="t",
                candidate=BoltOnCandidate(
                    loss=LogisticLoss(1e-3), passes=1, batch_size=10
                ),
                epsilon=EPS, priority=int(rng.integers(0, 4)),
                job_id=f"job-{index}", arrival=index,
            )
            for index in range(50)
        ]
        queue = JobQueue()
        for job in rng.permutation(len(jobs)):  # arbitrary push order
            queue.push(jobs[int(job)])
        expected = sorted(jobs, key=_dispatch_order)
        assert queue.pending() == expected
        # Claims are order-preserving prefixes of the dispatch order.
        window = queue.pop_window_for("t", 7)
        assert window == expected[:7]
        assert queue.pending() == expected[7:]


class TestResultCacheBound:
    def test_lru_evicts_the_oldest_hit_entry(self):
        from repro.service.registry import CachedResult, ResultCache

        def entry(tag):
            return CachedResult(
                weights=np.array([float(tag)]), sensitivity=1.0,
                noise_norm=0.0, epochs=1, source_job_id=f"job-{tag}",
            )

        cache = ResultCache(max_entries=2)
        cache.put(("k1",), entry(1))
        cache.put(("k2",), entry(2))
        assert cache.get(("k1",)) is not None  # refresh k1 -> k2 is LRU
        cache.put(("k3",), entry(3))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(("k2",)) is None  # the unhit entry went
        assert cache.get(("k1",)) is not None
        assert cache.get(("k3",)) is not None

    def test_invalid_cap_rejected(self):
        from repro.service.registry import ResultCache

        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)

    def test_service_cache_size_bounds_entries(self):
        service = make_service(workers=1, cache_size=2)
        jobs = mixed_jobs(6)
        submit_all(service, jobs)
        service.drain()
        cache = service.scheduler.cache
        assert len(cache) == 2
        assert cache.evictions == 4
        # The newest releases survive; an evicted job simply trains
        # again (still bitwise-deterministic, just paid for).
        evicted = service.submit(
            jobs[0]["principal"], "t", jobs[0]["loss"],
            epsilon=jobs[0]["epsilon"], passes=jobs[0]["passes"],
            batch_size=jobs[0]["batch_size"], seed=jobs[0]["seed"],
        )
        assert evicted.status is JobStatus.QUEUED
        kept = service.submit(
            jobs[-1]["principal"], "t", jobs[-1]["loss"],
            epsilon=jobs[-1]["epsilon"], passes=jobs[-1]["passes"],
            batch_size=jobs[-1]["batch_size"], seed=jobs[-1]["seed"],
        )
        assert kept.dispatch == "cached"
        service.drain()

    def test_rearmed_snapshot_respects_the_cap(self, tmp_path):
        service = make_service(workers=1, state_dir=tmp_path)
        submit_all(service, mixed_jobs(6))
        service.drain()
        service.save_state()

        restarted = make_service(workers=1, state_dir=tmp_path, cache_size=3)
        assert restarted.load_state() == 6
        assert len(restarted.scheduler.cache) == 3  # re-arm obeys the cap
