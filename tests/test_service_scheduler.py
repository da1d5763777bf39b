"""Tests for the shared-scan scheduler and the training service.

Two contracts carry the subsystem:

* **Determinism / sharing-invisibility** — a job's released weights are
  a pure function of (table, table scan seed, candidate, job seed). The
  same submitted job set must produce *bitwise-identical* per-job
  weights whether jobs share one scan flight, each get their own
  (``batching_window=1``), or arrive in a different order —
  ``np.array_equal``, atol=0, no tolerance.
* **Shared-scan accounting** — a window of K jobs on one table charges
  ~one job's page requests (the acceptance bound: <= 1.1x a single
  job's pages for 32 jobs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.summary import metric_value
from repro.optim.losses import HingeLoss, HuberSVMLoss, LogisticLoss
from repro.service import JobStatus, TrainingService
from tests.conftest import make_binary_data

M, D = 300, 8
EPS = 0.05


def make_service(window: int = 32) -> TrainingService:
    X, y = make_binary_data(M, D, seed=21)
    service = TrainingService(scan_seed=5, batching_window=window)
    service.register_table("t", X, y)
    service.open_budget("alice", "t", 10.0)
    service.open_budget("bob", "t", 10.0)
    return service


def mixed_jobs():
    """8 jobs of one shape: two tenants, three losses, mixed lambdas."""
    jobs = []
    for j in range(8):
        loss = (
            HuberSVMLoss(0.1, regularization=1e-3)
            if j % 4 == 3
            else LogisticLoss(regularization=[1e-4, 1e-3, 1e-2][j % 3])
        )
        jobs.append(
            dict(
                principal="alice" if j % 2 == 0 else "bob",
                loss=loss,
                epsilon=EPS,
                passes=2,
                batch_size=25,
                seed=900 + j,
            )
        )
    return jobs


def run_workload(service: TrainingService, jobs) -> dict:
    """Submit ``jobs``, drain, return {seed: weights} (seed ids a job)."""
    records = [
        service.submit(job["principal"], "t", job["loss"], epsilon=job["epsilon"],
                       passes=job["passes"], batch_size=job["batch_size"],
                       seed=job["seed"])
        for job in jobs
    ]
    service.drain()
    assert all(record.status is JobStatus.COMPLETED for record in records)
    return {record.job.seed: record.model for record in records}


class TestBitwiseDeterminism:
    def test_fused_equals_sequential_equals_reordered(self):
        jobs = mixed_jobs()
        fused = run_workload(make_service(), jobs)
        sequential = run_workload(make_service(window=1), jobs)
        reordered = run_workload(
            make_service(), [jobs[i] for i in (5, 2, 7, 0, 3, 6, 1, 4)]
        )
        for seed, weights in fused.items():
            assert np.array_equal(weights, sequential[seed])
            assert np.array_equal(weights, reordered[seed])

    def test_job_alone_matches_its_fused_self(self):
        jobs = mixed_jobs()
        fused = run_workload(make_service(), jobs)
        for job in (jobs[0], jobs[3]):
            alone = run_workload(make_service(), [job])
            assert np.array_equal(alone[job["seed"]], fused[job["seed"]])

    def test_priorities_reorder_dispatch_not_weights(self):
        jobs = mixed_jobs()
        baseline = run_workload(make_service(), jobs)
        prioritized_service = make_service()
        records = []
        for j, job in enumerate(jobs):
            records.append(
                prioritized_service.submit(
                    job["principal"], "t", job["loss"], epsilon=job["epsilon"],
                    passes=job["passes"], batch_size=job["batch_size"],
                    seed=job["seed"], priority=j % 3,
                )
            )
        prioritized_service.drain()
        for record in records:
            assert np.array_equal(record.model, baseline[record.job.seed])

    def test_batching_window_splits_are_invisible(self):
        """window=3 forces three scan flights — same bits, more pages."""
        jobs = mixed_jobs()
        baseline = run_workload(make_service(), jobs)
        windowed = run_workload(make_service(window=3), jobs)
        for seed, weights in baseline.items():
            assert np.array_equal(weights, windowed[seed])

    def test_resubmission_reproduces_the_release(self):
        jobs = mixed_jobs()
        first = run_workload(make_service(), jobs)
        second = run_workload(make_service(), jobs)
        for seed, weights in first.items():
            assert np.array_equal(weights, second[seed])


class TestSharedScanAccounting:
    def test_32_jobs_cost_one_scan(self):
        """The acceptance criterion: <= 1.1x a single job's pages."""
        service = make_service()
        lambdas = np.logspace(-4, -1, 8)
        records = [
            service.submit("alice" if j % 2 else "bob", "t",
                           LogisticLoss(regularization=float(lambdas[j % 8])),
                           epsilon=0.01, passes=2, batch_size=25, seed=j)
            for j in range(32)
        ]
        service.drain()
        group_pages = service.page_reads
        assert all(record.status is JobStatus.COMPLETED for record in records)
        assert all(record.dispatch == "scan" for record in records)
        assert all(record.group_size == 32 for record in records)

        solo = make_service()
        record = solo.submit("alice", "t", LogisticLoss(regularization=1e-4),
                             epsilon=0.01, passes=2, batch_size=25, seed=0)
        solo.drain()
        single_pages = solo.page_reads
        assert record.status is JobStatus.COMPLETED
        assert group_pages <= 1.1 * single_pages
        # In fact the scan is shared exactly: same page requests as one job.
        assert group_pages == single_pages == 2 * M

    def test_the_scan_seed_is_built_once_per_table_operator(self, monkeypatch):
        """The table's permutation seed is built when the session creates
        the table's shuffle operator: a second flight builds none, and a
        dropped and re-registered table gets a new operator with the
        same permutation."""
        service = make_service()
        scheduler = service.scheduler
        built = []
        table_seed = scheduler._table_seed

        def counting_table_seed(table_name):
            built.append(table_name)
            return table_seed(table_name)

        monkeypatch.setattr(scheduler, "_table_seed", counting_table_seed)

        def fly(seed):
            record = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                                    passes=1, batch_size=25, seed=seed)
            service.drain()
            assert record.status is JobStatus.COMPLETED, record.error
            return service.session.shared_scan("t")

        operator = fly(1)
        assert built == ["t"]
        permutation = operator.permutation.copy()
        assert fly(2) is operator
        assert scheduler.table_scans["t"] == 2
        assert built == ["t"]  # the second flight built no seed

        X, y = make_binary_data(M, D, seed=21)
        service.session.catalog.drop_table("t")
        service.register_table("t", X, y)
        recreated = fly(3)
        assert recreated is not operator
        assert built == ["t", "t"]
        assert np.array_equal(recreated.permutation, permutation)

    def test_sequential_dispatch_pays_k_scans(self):
        service = make_service(window=1)
        for j in range(4):
            service.submit("alice", "t", LogisticLoss(1e-3), epsilon=0.01,
                           passes=2, batch_size=25, seed=j)
        service.drain()
        assert service.page_reads == 4 * 2 * M

    def test_mixed_batch_sizes_and_passes_share_one_flight(self):
        """Riders keep their own batch phase and epoch count, so jobs with
        different batch sizes / passes share one page stream — and each
        still releases exactly the bits of its scan alone."""
        shapes = [(2, 25), (2, 50), (3, 25), (2, 25)]
        jobs = [
            dict(principal="alice" if j % 2 == 0 else "bob",
                 loss=LogisticLoss([1e-3, 1e-3, 1e-3, 1e-2][j]),
                 epsilon=EPS, passes=passes, batch_size=batch, seed=1 + j)
            for j, (passes, batch) in enumerate(shapes)
        ]
        service = make_service()
        shared = run_workload(service, jobs)
        assert len(service.scheduler.dispatch_log) == 1
        assert service.page_reads == 3 * M  # the longest ride, once
        for record in service.jobs():
            assert record.dispatch == "scan"
            assert record.group_size == 4
            assert record.group_pages == record.job.candidate.passes * M
            assert record.boarding_offset == 0
            assert record.epochs_ridden == record.job.candidate.passes
        # The rider metrics count every trained job, elevator or not.
        dump = service.metrics(format="json")
        assert metric_value(dump, "repro_elevator_boardings_total", table="t") == 4
        assert metric_value(dump, "repro_elevator_epochs_ridden_total") == 9
        alone = run_workload(make_service(window=1), jobs)
        for seed, weights in shared.items():
            assert np.array_equal(weights, alone[seed])

    def test_failed_group_member_does_not_poison_the_scan(self):
        service = make_service()
        good = [
            service.submit("alice", "t", LogisticLoss(1e-3), epsilon=EPS,
                           passes=2, batch_size=25, seed=j)
            for j in range(3)
        ]
        bad = service.submit("bob", "t", HingeLoss(), epsilon=EPS,
                             passes=2, batch_size=25, seed=99)
        service.drain()
        assert service.status(bad.job_id) is JobStatus.FAILED
        assert "smooth" in service.result(bad.job_id).error.lower() or (
            service.result(bad.job_id).error
        )
        for record in good:
            assert record.status is JobStatus.COMPLETED
            assert record.group_size == 3
        # bob's reservation came back.
        bob = [s for s in service.budgets() if s.principal == "bob"][0]
        assert bob.spent == (0, 0)
        assert bob.reserved == (0.0, 0.0)


class TestRegistryQueries:
    def test_filters_and_model_access(self):
        service = make_service()
        run_workload(service, mixed_jobs())
        assert len(service.jobs(principal="alice")) == 4
        assert len(service.jobs(status=JobStatus.COMPLETED)) == 8
        assert len(service.jobs(principal="alice", status=JobStatus.FAILED)) == 0
        job_id = service.jobs(principal="alice")[0].job_id
        assert service.model(job_id).shape == (D,)
        with pytest.raises(KeyError):
            service.result("job-99999")
        counts = service.registry.counts()
        assert counts["completed"] == 8

    def test_model_refused_for_non_completed(self):
        service = make_service()
        record = service.submit("alice", "t", HingeLoss(), epsilon=EPS,
                                passes=1, seed=1)
        service.drain()
        with pytest.raises(ValueError, match="no released model"):
            service.model(record.job_id)

    def test_records_from_older_dispatch_paths_still_load(self):
        """Records written when the scheduler had fused, sequential and
        elevator dispatch keep their labels through the payload codec."""
        from repro.service.registry import restore_record

        service = make_service()
        run_workload(service, mixed_jobs()[:1])
        (record,) = service.jobs()
        assert record.dispatch == "scan"
        for label in ("fused", "sequential", "elevator"):
            payload = record.payload()
            payload["dispatch"] = label
            loaded = restore_record(payload)
            assert loaded.dispatch == label
            assert loaded.status is JobStatus.COMPLETED
            assert np.array_equal(loaded.model, record.model)

    def test_receipts_travel_with_records(self):
        service = make_service()
        run_workload(service, mixed_jobs())
        for record in service.jobs(status=JobStatus.COMPLETED):
            assert record.receipt is not None
            assert record.receipt.job_id == record.job_id
            assert record.receipt.parameters.epsilon == EPS
            assert record.sensitivity > 0
            assert record.noise_norm > 0

    def test_unknown_table_raises_at_submit(self):
        service = make_service()
        with pytest.raises(KeyError):
            service.submit("alice", "ghost", LogisticLoss(1e-3), epsilon=EPS)


class TestServiceValidation:
    def test_unstamped_job_rejected_by_scheduler(self):
        from repro.core.bolton import BoltOnCandidate
        from repro.service import TrainingJob

        service = make_service()
        job = TrainingJob(principal="alice", table="t",
                          candidate=BoltOnCandidate(LogisticLoss(1e-3)),
                          epsilon=EPS)
        with pytest.raises(ValueError, match="stamped"):
            service.scheduler.submit(job)

    def test_job_validation(self):
        from repro.core.bolton import BoltOnCandidate
        from repro.service import TrainingJob

        candidate = BoltOnCandidate(LogisticLoss(1e-3))
        with pytest.raises(ValueError, match="principal"):
            TrainingJob(principal="", table="t", candidate=candidate, epsilon=0.1)
        with pytest.raises(ValueError, match="epsilon"):
            TrainingJob(principal="a", table="t", candidate=candidate, epsilon=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 123456789012])
    def test_noise_stream_is_the_spawned_noise_stream(self, seed):
        """The epilogue's ``noise_stream()`` draws what the second of the
        job's two seed-spawned streams draws, so releases keep their noise."""
        from repro.core.bolton import BoltOnCandidate
        from repro.service import TrainingJob

        job = TrainingJob(principal="a", table="t", seed=seed,
                          candidate=BoltOnCandidate(LogisticLoss(1e-3)), epsilon=0.1)
        _, noise_rng = job.spawn_streams()
        expected = noise_rng.standard_normal(64)
        assert np.array_equal(job.noise_stream().standard_normal(64), expected)


class TestReviewRegressions:
    def test_averaging_candidates_refused_before_any_budget_moves(self):
        from repro.core.bolton import BoltOnCandidate
        from repro.service import TrainingJob

        service = make_service()
        job = TrainingJob(
            principal="alice", table="t",
            candidate=BoltOnCandidate(LogisticLoss(1e-3), average="uniform"),
            epsilon=EPS,
        )
        with pytest.raises(ValueError, match="averaging"):
            service.submit_job(job)
        statement = [s for s in service.budgets() if s.principal == "alice"][0]
        assert statement.reserved == (0.0, 0.0)
        assert statement.spent == (0, 0)

    def test_concurrent_submitters_get_unique_ids_and_no_leaked_holds(self):
        import threading

        service = make_service()
        records, errors = [], []
        lock = threading.Lock()

        def submit(thread_id: int) -> None:
            for j in range(10):
                try:
                    record = service.submit(
                        "alice", "t", LogisticLoss(1e-3), epsilon=0.01,
                        passes=1, batch_size=25, seed=thread_id * 100 + j,
                    )
                    with lock:
                        records.append(record)
                except Exception as error:  # pragma: no cover - the bug
                    with lock:
                        errors.append(error)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        job_ids = [record.job_id for record in records]
        assert len(set(job_ids)) == 60
        service.drain()
        statement = [s for s in service.budgets() if s.principal == "alice"][0]
        assert statement.reserved == (0.0, 0.0)
        assert statement.spent[0] == pytest.approx(0.01 * 60)

    def test_mutating_ovr_models_is_reflected_in_scores(self):
        from repro.core.mechanisms import PrivacyParameters
        from repro.multiclass.ovr import OneVsRestResult

        rng = np.random.default_rng(2)
        result = OneVsRestResult(
            models=[rng.normal(size=4) for _ in range(3)],
            classes=[0, 1, 2],
            privacy=PrivacyParameters(1.0),
            per_model_privacy=PrivacyParameters(0.5),
        )
        X = rng.normal(size=(10, 4))
        before = result.decision_scores(X).copy()
        result.models[1] = rng.normal(size=4)
        after = result.decision_scores(X)
        assert not np.array_equal(before[:, 1], after[:, 1])
        np.testing.assert_array_equal(before[:, 0], after[:, 0])
