"""Tests for the Bismarck session, cost model, and synthesizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim.losses import LogisticLoss
from repro.optim.schedules import ConstantSchedule
from repro.rdbms.bismarck import BismarckSession, integration_report
from repro.rdbms.cost_model import CostModel, RuntimeBreakdown, WorkCounters
from repro.rdbms.synthesizer import (
    analytic_counters,
    dataset_size_gb,
    synthesize_heap,
)
from repro.rdbms.uda import SGDUDA
from tests.conftest import make_binary_data


def make_session(m=300, d=8, seed=0, pool_pages=1000):
    session = BismarckSession(buffer_pool_pages=pool_pages)
    X, y = make_binary_data(m, d, seed=seed)
    session.load_table("t", X, y)
    return session, X, y


class TestNoiselessTraining:
    def test_learns(self):
        session, X, y = make_session()
        report = session.run_noiseless(
            "t", LogisticLoss(), ConstantSchedule(0.5), epochs=10, batch_size=10,
            random_state=0,
        )
        accuracy = float(np.mean(np.where(X @ report.model >= 0, 1, -1) == y))
        assert accuracy > 0.9
        assert len(report.epochs) == 10
        assert report.noise_draws == 0

    def test_convergence_test_stops_early(self):
        session, X, y = make_session()
        report = session.run_noiseless(
            "t", LogisticLoss(regularization=0.1),
            ConstantSchedule(0.5), epochs=50, batch_size=10,
            convergence_tolerance=1e-3, random_state=0,
        )
        assert report.converged_early
        assert len(report.epochs) < 50

    def test_runtime_accumulates(self):
        session, X, y = make_session()
        report = session.run_noiseless(
            "t", LogisticLoss(), ConstantSchedule(0.1), epochs=4, random_state=0
        )
        assert report.simulated_seconds > 0
        assert report.simulated_seconds == pytest.approx(
            sum(e.runtime.total for e in report.epochs)
        )


class TestBoltOnTraining:
    def test_one_noise_draw(self):
        session, X, y = make_session()
        report = session.run_bolton_private(
            "t", LogisticLoss(), epsilon=1.0, epochs=3, batch_size=10,
            random_state=0,
        )
        assert report.noise_draws == 1

    def test_matches_library_sensitivity(self):
        session, X, y = make_session()
        lam = 0.05
        report = session.run_bolton_private(
            "t", LogisticLoss(regularization=lam), epsilon=1.0, epochs=2,
            batch_size=10, radius=1 / lam, random_state=0,
        )
        assert np.all(np.isfinite(report.model))

    def test_early_stop_requires_strong_convexity(self):
        session, X, y = make_session()
        with pytest.raises(ValueError, match="strongly convex"):
            session.run_bolton_private(
                "t", LogisticLoss(), epsilon=1.0, epochs=5,
                convergence_tolerance=1e-3, random_state=0,
            )

    def test_early_stop_allowed_when_strongly_convex(self):
        session, X, y = make_session()
        report = session.run_bolton_private(
            "t", LogisticLoss(regularization=0.1), epsilon=1.0, epochs=50,
            batch_size=10, radius=10.0, convergence_tolerance=1e-3,
            random_state=0,
        )
        assert report.converged_early


class TestWhiteBoxTraining:
    def test_scs13_noise_per_batch(self):
        session, X, y = make_session(m=300)
        report = session.run_scs13(
            "t", LogisticLoss(), epsilon=1.0, epochs=2, batch_size=10,
            random_state=0,
        )
        assert report.noise_draws == 2 * 30

    def test_bst14_noise_per_batch(self):
        session, X, y = make_session(m=300)
        report = session.run_bst14(
            "t", LogisticLoss(), epsilon=1.0, delta=1e-6, epochs=2, batch_size=10,
            radius=5.0, random_state=0,
        )
        assert report.noise_draws == 2 * 30

    def test_runtime_ordering_matches_paper(self):
        """Figure 5's story: ours ~ noiseless << SCS13/BST14 at small b."""
        session, X, y = make_session(m=500, pool_pages=10_000)
        noiseless = session.run_noiseless(
            "t", LogisticLoss(), ConstantSchedule(0.1), epochs=2, batch_size=1,
            random_state=0,
        ).simulated_seconds
        ours = session.run_bolton_private(
            "t", LogisticLoss(), epsilon=1.0, epochs=2, batch_size=1,
            random_state=0,
        ).simulated_seconds
        scs13 = session.run_scs13(
            "t", LogisticLoss(), epsilon=1.0, epochs=2, batch_size=1,
            random_state=0,
        ).simulated_seconds
        bst14 = session.run_bst14(
            "t", LogisticLoss(), epsilon=1.0, delta=1e-6, epochs=2, batch_size=1,
            radius=5.0, random_state=0,
        ).simulated_seconds
        assert ours <= noiseless * 1.10  # virtually no overhead
        assert scs13 > ours * 1.5
        assert bst14 > ours * 1.5

    def test_overhead_shrinks_with_batch_size(self):
        """Figure 5 row 2: the noise-sampling overhead disappears at large b."""
        session, X, y = make_session(m=2000, pool_pages=10_000)

        def ratio(batch):
            ours = session.run_bolton_private(
                "t", LogisticLoss(), epsilon=1.0, epochs=1, batch_size=batch,
                random_state=0,
            ).simulated_seconds
            scs13 = session.run_scs13(
                "t", LogisticLoss(), epsilon=1.0, epochs=1, batch_size=batch,
                random_state=0,
            ).simulated_seconds
            return scs13 / ours

        assert ratio(1) > ratio(500)
        assert ratio(500) < 1.3


class TestIntegrationReport:
    def test_bolton_is_small(self):
        report = integration_report()
        # The paper: "about 10 lines of code in Python".
        assert report["bolton_integration_loc"] <= 15
        assert report["whitebox_integration_loc"] > report["bolton_integration_loc"]
        assert not report["bolton_touches_engine_internals"]
        assert report["whitebox_touches_engine_internals"]


class TestCostModel:
    def test_zero_work_zero_cost(self):
        assert CostModel().charge(WorkCounters()).total == 0.0

    def test_noise_cost_dominates_at_batch_one(self):
        model = CostModel()
        work = analytic_counters(
            100_000, 50, epochs=1, batch_size=1, algorithm="scs13",
            buffer_pool_pages=10**6,
        )
        breakdown = model.charge(work)
        assert breakdown.noise_seconds > breakdown.gradient_seconds

    def test_breakdown_addition(self):
        a = RuntimeBreakdown(gradient_seconds=1.0, io_seconds=2.0)
        b = RuntimeBreakdown(gradient_seconds=0.5, noise_seconds=1.5)
        total = a + b
        assert total.gradient_seconds == 1.5
        assert total.total == pytest.approx(5.0)
        assert total.cpu_seconds == pytest.approx(3.0)


class TestSynthesizer:
    def test_deterministic_pages(self):
        heap = synthesize_heap(10_000, 20, seed=3)
        a = heap.read_page(5)
        b = heap.read_page(5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_unit_ball(self):
        heap = synthesize_heap(1_000, 20, seed=3)
        page = heap.read_page(0)
        assert np.linalg.norm(page.features, axis=1).max() <= 1.0 + 1e-9

    def test_labels_binary(self):
        heap = synthesize_heap(1_000, 20, seed=3)
        page = heap.read_page(0)
        assert set(np.unique(page.labels)) <= {-1.0, 1.0}

    def test_paper_sizes(self):
        # Figure 2: 50M x (50 dims) ~ 18.6 GB in the paper; our page layout
        # yields the same order of magnitude.
        assert 10 < dataset_size_gb(50_000_000, 50) < 30
        assert 300 < dataset_size_gb(1_200_000_000, 50) < 600

    def test_learnable(self):
        heap = synthesize_heap(2_000, 10, seed=4, margin_noise=0.1)
        pages = [heap.read_page(i) for i in range(heap.num_pages)]
        X = np.vstack([p.features for p in pages])
        y = np.concatenate([p.labels for p in pages])
        from repro.optim.psgd import run_psgd

        result = run_psgd(
            LogisticLoss(), X, y, ConstantSchedule(0.5), passes=5, batch_size=10,
            random_state=0,
        )
        accuracy = float(np.mean(np.where(X @ result.model >= 0, 1, -1) == y))
        assert accuracy > 0.85


class TestAnalyticCounters:
    def test_matches_executed_run(self):
        """The analytic counters must agree with a real executed run —
        this is what licenses the Figure 2 extrapolation."""
        m, d, epochs, batch = 2000, 10, 2, 5
        session, X, y = make_session(m=m, d=d, pool_pages=10_000)
        report = session.run_scs13(
            "t", LogisticLoss(), epsilon=1.0, epochs=epochs, batch_size=batch,
            random_state=0,
        )
        analytic = analytic_counters(
            m, d, epochs, batch, "scs13", buffer_pool_pages=10_000
        )
        executed_draws = report.noise_draws
        assert executed_draws == analytic.noise_draws
        assert analytic.batch_updates == epochs * -(-m // batch)
        assert analytic.tuples_processed == m * epochs

    def test_matches_an_executed_run_in_the_thrash_regime(self):
        """A table four times the pool: the shared scan reads its
        shuffled copy, so every epoch misses each of the 250 pages exactly
        once, and hits and misses are the analytic model's, epoch by
        epoch and in total."""
        m, d, epochs, batch, pool_pages = 5000, 50, 2, 50, 60
        session, X, y = make_session(m=m, d=d, pool_pages=pool_pages)
        heap = session.catalog.get("t").heap
        assert heap.num_pages == 250
        stats = session.pool.stats_for(heap)
        report = session.run_sgd(
            "t", SGDUDA(LogisticLoss(), ConstantSchedule(0.1), batch), epochs,
            chunk_size=256, shuffle=session.shared_scan("t", random_state=0),
        )
        analytic = analytic_counters(
            m, d, epochs, batch, "noiseless", buffer_pool_pages=pool_pages
        )
        assert (stats.cache_hits, stats.cache_misses) == (
            analytic.page_hits, analytic.page_misses
        ) == (9500, 500)
        per_epoch = CostModel().charge(analytic_counters(
            m, d, 1, batch, "noiseless", buffer_pool_pages=pool_pages
        ))
        for epoch in report.epochs:
            assert epoch.runtime.io_seconds == per_epoch.io_seconds

    def test_memory_vs_disk_miss_pattern(self):
        cold = analytic_counters(
            100_000, 50, epochs=3, batch_size=1, algorithm="noiseless",
            buffer_pool_pages=10**6, warm_cache=False,
        )
        warm = analytic_counters(
            100_000, 50, epochs=3, batch_size=1, algorithm="noiseless",
            buffer_pool_pages=10**6, warm_cache=True,
        )
        disk = analytic_counters(
            100_000, 50, epochs=3, batch_size=1, algorithm="noiseless",
            buffer_pool_pages=10,
        )
        assert warm.page_misses == 0
        assert disk.page_misses == 3 * cold.page_misses

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            analytic_counters(100, 5, 1, 1, "sgdx", buffer_pool_pages=10)

    def test_linear_scaling(self):
        """Figure 2: runtime scales linearly with dataset size."""
        model = CostModel()
        times = []
        for m in (10_000_000, 20_000_000, 40_000_000):
            work = analytic_counters(
                m, 50, 1, 1, "bolton", buffer_pool_pages=8_000_000
            )
            times.append(model.charge(work).total)
        assert times[1] / times[0] == pytest.approx(2.0, rel=0.01)
        assert times[2] / times[0] == pytest.approx(4.0, rel=0.01)
