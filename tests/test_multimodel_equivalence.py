"""Fused-vs-sequential equivalence: K models in one scan == K runs.

The fused engines (:class:`repro.optim.psgd.MultiModelPSGD`,
:class:`repro.rdbms.uda.MultiSGDUDA`, :func:`repro.core.bolton.
private_psgd_fleet`) are only admissible because each model's trajectory
is *the same algorithm* as its standalone run: same permutation, same
mini-batch boundaries, same per-model step sizes / regularization /
projection, same per-model noise stream. This suite is the lock on that
contract, in the same spirit as ``test_vectorized_equivalence.py``,
but tighter: every comparison is bitwise (``np.array_equal``). No
rounding slack is left to admit. ``MarginLoss``'s multi-model kernels
stack the single-model matrix-vector products into one ``np.matmul``,
which runs that same product once per row; the compiled row projector
takes each row's norm as that row's own dot product; and schedules,
noise streams and averaging were already per model. (The vectorized
suite keeps its 1e-12: a per-example gradient loop and one batched
contraction genuinely sum in different orders. Nothing here compares
those two paths.)

It also pins the resource side of the bargain: a fused scan charges ONE
scan's worth of page requests where K sequential runs charge K.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bolton import (
    BoltOnCandidate,
    BoltOnTrainerFactory,
    private_psgd_fleet,
    train_bolt_on,
)
from repro.optim.losses import (
    HingeLoss,
    HuberSVMLoss,
    LeastSquaresLoss,
    LogisticLoss,
    Loss,
)
from repro.optim.projection import L2BallProjection
from repro.optim.psgd import PSGD, ModelSpec, MultiModelPSGD, PSGDConfig
from repro.optim.schedules import (
    CappedInverseTSchedule,
    ConstantSchedule,
    DecreasingSchedule,
    InverseSqrtTSchedule,
    SquareRootSchedule,
)
from repro.rdbms.catalog import Catalog
from repro.rdbms.executor import ShuffleOnce, run_aggregate
from repro.rdbms.storage import BufferPool
from repro.rdbms.uda import MultiSGDUDA, SGDUDA
from tests.conftest import make_binary_data, pin_each_tuple

#: Every loss family (regularized and not) — as in the vectorized suite.
LOSSES = [
    pytest.param(LogisticLoss(), id="logistic"),
    pytest.param(LogisticLoss(regularization=0.05), id="logistic-l2"),
    pytest.param(LogisticLoss(tight_smoothness=True), id="logistic-tight"),
    pytest.param(HuberSVMLoss(smoothing=0.1), id="huber"),
    pytest.param(HuberSVMLoss(smoothing=0.3, regularization=0.02), id="huber-l2"),
    pytest.param(LeastSquaresLoss(margin_bound=2.0), id="least-squares"),
    pytest.param(HingeLoss(), id="hinge"),
]

#: One schedule per analysed step-size regime.
REGIMES = [
    pytest.param(ConstantSchedule(0.1), id="constant"),
    pytest.param(DecreasingSchedule(beta=1.0, m=80, c=0.5), id="decreasing"),
    pytest.param(SquareRootSchedule(beta=1.0, m=80, c=0.5), id="square-root"),
    pytest.param(CappedInverseTSchedule(beta=1.05, gamma=0.05), id="capped-inverse-t"),
    pytest.param(InverseSqrtTSchedule(0.2), id="inverse-sqrt-t"),
]


def sequential_reference(specs, X, y, perm, passes, batch_size, noise_seeds=None):
    """K standalone vectorized PSGD runs over the same permutation."""
    results = []
    for k, spec in enumerate(specs):
        config = PSGDConfig(
            schedule=spec.schedule,
            passes=spec.passes if spec.passes is not None else passes,
            batch_size=batch_size,
            projection=spec.projection,
            average=spec.average,
        )
        engine = PSGD(spec.loss, config, gradient_noise=spec.gradient_noise)
        labels = y if y.ndim == 1 else y[k]
        results.append(
            engine.run(
                X,
                labels,
                permutation=perm,
                random_state=None if noise_seeds is None else noise_seeds[k],
            )
        )
    return results


def assert_fused_equals_sequential(fused, references):
    for k, reference in enumerate(references):
        np.testing.assert_array_equal(fused.models[k], reference.model)
        np.testing.assert_array_equal(fused.final_iterates[k], reference.final_iterate)
        assert int(fused.updates_per_model[k]) == reference.updates


class TestHomogeneousGrids:
    """Same loss family, K models — the grid-search shape."""

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("schedule", REGIMES)
    def test_loss_by_regime(self, loss, schedule):
        X, y = make_binary_data(80, 6, seed=0)
        perm = np.random.default_rng(100).permutation(80)
        specs = [
            ModelSpec(loss, schedule),
            ModelSpec(loss, ConstantSchedule(0.05)),
            ModelSpec(loss, schedule, average="uniform"),
        ]
        fused = MultiModelPSGD(specs, passes=2, batch_size=7).run(
            X, y, permutation=perm
        )
        references = sequential_reference(specs, X, y, perm, 2, 7)
        assert_fused_equals_sequential(fused, references)

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 80, 100])
    def test_batch_sizes_including_tail_and_oversized(self, batch_size):
        X, y = make_binary_data(80, 5, seed=2)
        perm = np.random.default_rng(7).permutation(80)
        specs = [
            ModelSpec(LogisticLoss(regularization=lam), ConstantSchedule(0.1))
            for lam in (0.0, 0.01, 0.1)
        ]
        fused = MultiModelPSGD(specs, passes=3, batch_size=batch_size).run(
            X, y, permutation=perm
        )
        references = sequential_reference(specs, X, y, perm, 3, batch_size)
        assert_fused_equals_sequential(fused, references)


class TestHeterogeneousModels:
    """Mixed losses, schedules, radii, passes, averaging — one scan."""

    def test_kitchen_sink(self):
        X, y = make_binary_data(97, 6, seed=3)
        perm = np.random.default_rng(5).permutation(97)
        specs = [
            ModelSpec(LogisticLoss(), ConstantSchedule(0.1)),
            ModelSpec(
                LogisticLoss(regularization=0.05),
                CappedInverseTSchedule(1.05, 0.05),
                projection=L2BallProjection(1.0 / 0.05),
            ),
            ModelSpec(
                HuberSVMLoss(smoothing=0.2),
                InverseSqrtTSchedule(0.3),
                projection=L2BallProjection(0.7),
                average="suffix",
            ),
            ModelSpec(LogisticLoss(), ConstantSchedule(0.2), passes=1),
            ModelSpec(
                LeastSquaresLoss(margin_bound=2.0),
                DecreasingSchedule(beta=1.0, m=97, c=0.5),
                average="uniform",
            ),
            ModelSpec(HingeLoss(), ConstantSchedule(0.05), passes=2),
        ]
        fused = MultiModelPSGD(specs, passes=3, batch_size=10).run(
            X, y, permutation=perm
        )
        references = sequential_reference(specs, X, y, perm, 3, 10)
        assert_fused_equals_sequential(fused, references)

    def test_scalar_only_loss_rides_row_loop_fallback(self):
        class ScalarOnlyAbsLoss(Loss):
            def value(self, w, x, y):
                margin = 1.0 - float(y) * float(np.dot(w, x))
                return float(np.sqrt(1.0 + margin**2) - 1.0)

            def gradient(self, w, x, y):
                margin = 1.0 - float(y) * float(np.dot(w, x))
                coef = -float(y) * margin / float(np.sqrt(1.0 + margin**2))
                return coef * np.asarray(x, dtype=np.float64)

        X, y = make_binary_data(60, 5, seed=6)
        perm = np.random.default_rng(9).permutation(60)
        specs = [
            ModelSpec(ScalarOnlyAbsLoss(), ConstantSchedule(0.1)),
            ModelSpec(LogisticLoss(), ConstantSchedule(0.1)),
        ]
        fused = MultiModelPSGD(specs, passes=2, batch_size=6).run(
            X, y, permutation=perm
        )
        references = sequential_reference(specs, X, y, perm, 2, 6)
        assert_fused_equals_sequential(fused, references)
        assert float(np.linalg.norm(fused.models[0])) > 0.0

    def test_per_model_labels_ovr_shape(self):
        X, y = make_binary_data(70, 5, seed=8)
        Y = np.stack([y, -y, np.where(X[:, 0] > 0.0, 1.0, -1.0)])
        perm = np.random.default_rng(11).permutation(70)
        specs = [
            ModelSpec(LogisticLoss(regularization=lam), ConstantSchedule(0.1))
            for lam in (0.0, 0.02, 0.0)
        ]
        fused = MultiModelPSGD(specs, passes=2, batch_size=8).run(
            X, Y, permutation=perm
        )
        references = sequential_reference(specs, X, Y, perm, 2, 8)
        assert_fused_equals_sequential(fused, references)

    def test_stacked_per_model_datasets(self):
        """Partition-style fusion: each model has its own data and its own
        permutation, and must match its standalone run bit for bit."""
        Xs = np.stack([make_binary_data(48, 5, seed=s)[0] for s in (1, 2, 3)])
        Ys = np.stack([make_binary_data(48, 5, seed=s)[1] for s in (1, 2, 3)])
        perms = np.stack(
            [np.random.default_rng(40 + s).permutation(48) for s in (1, 2, 3)]
        )
        specs = [
            ModelSpec(LogisticLoss(regularization=lam), ConstantSchedule(0.1))
            for lam in (0.0, 0.05, 0.2)
        ]
        fused = MultiModelPSGD(specs, passes=2, batch_size=7).run(
            Xs, Ys, permutation=perms
        )
        for k, spec in enumerate(specs):
            config = PSGDConfig(
                schedule=spec.schedule, passes=2, batch_size=7,
                projection=spec.projection,
            )
            reference = PSGD(spec.loss, config).run(
                Xs[k], Ys[k], permutation=perms[k]
            )
            np.testing.assert_array_equal(fused.models[k], reference.model)


class TestNoisyModels:
    """The white-box baselines fused: per-model noise streams must consume
    exactly what each standalone run would have consumed."""

    @pytest.mark.parametrize("schedule", REGIMES)
    def test_noisy_fused_equals_noisy_sequential(self, schedule):
        X, y = make_binary_data(66, 5, seed=4)
        perm = np.random.default_rng(21).permutation(66)

        def gaussian_noise(t, dimension, rng):
            return rng.normal(0.0, 0.02, size=dimension)

        def laplace_style_noise(t, dimension, rng):
            from repro.utils.linalg import random_unit_vector

            return rng.gamma(shape=dimension, scale=0.01) * random_unit_vector(
                dimension, rng
            )

        specs = [
            ModelSpec(LogisticLoss(), schedule, gradient_noise=gaussian_noise),
            ModelSpec(
                LogisticLoss(regularization=0.05),
                ConstantSchedule(0.1),
                gradient_noise=laplace_style_noise,
            ),
            ModelSpec(HuberSVMLoss(smoothing=0.3), schedule),  # noiseless rider
        ]
        noise_seeds = [77, 88, 99]
        fused = MultiModelPSGD(specs, passes=2, batch_size=6).run(
            X, y, permutation=perm, noise_random_states=noise_seeds
        )
        references = sequential_reference(
            specs, X, y, perm, 2, 6, noise_seeds=noise_seeds
        )
        assert_fused_equals_sequential(fused, references)


class TestBoltOnFleet:
    """Fleet == per-candidate train_bolt_on, noise draw included."""

    def test_stacked_fleet_matches_sequential_trainers(self):
        Xs = np.stack([make_binary_data(60, 5, seed=s)[0] for s in (4, 5, 6, 7)])
        Ys = np.stack([make_binary_data(60, 5, seed=s)[1] for s in (4, 5, 6, 7)])
        candidates = [
            BoltOnCandidate(LogisticLoss(regularization=0.05), passes=2, batch_size=10),
            BoltOnCandidate(LogisticLoss(regularization=0.1), passes=3, batch_size=10),
            BoltOnCandidate(LogisticLoss(), passes=2, batch_size=10),
            BoltOnCandidate(HuberSVMLoss(smoothing=0.5), passes=1, batch_size=10,
                            eta=0.2, radius=1.5),
        ]
        seeds = [11, 22, 33, 44]
        fleet = private_psgd_fleet(Xs, Ys, candidates, 2.0, random_states=seeds)
        for k, candidate in enumerate(candidates):
            reference = train_bolt_on(
                Xs[k], Ys[k], candidate, 2.0, random_state=seeds[k]
            )
            np.testing.assert_array_equal(fleet[k].model, reference.model)
            np.testing.assert_array_equal(
                fleet[k].unreleased_noiseless_model,
                reference.unreleased_noiseless_model,
            )
            assert fleet[k].sensitivity.value == reference.sensitivity.value

    def test_shared_fleet_matches_sequential_given_scan_permutation(self):
        """Shared-scan fleet: fixing the scan permutation, each candidate
        equals its standalone trainer run on that same permutation."""
        X, y = make_binary_data(90, 6, seed=9)
        perm = np.random.default_rng(3).permutation(90)
        candidates = [
            BoltOnCandidate(LogisticLoss(regularization=lam), passes=k, batch_size=9)
            for lam, k in ((0.05, 2), (0.01, 3), (0.1, 2))
        ]
        seeds = [1, 2, 3]
        fleet = private_psgd_fleet(
            X, y, candidates, 1.0, random_states=seeds, permutation=perm
        )
        for k, candidate in enumerate(candidates):
            reference = train_bolt_on(
                X, y, candidate, 1.0, random_state=seeds[k], permutation=perm
            )
            np.testing.assert_array_equal(fleet[k].model, reference.model)

    def test_private_tuning_fused_equals_sequential(self):
        from repro.tuning.grid import ParameterGrid
        from repro.tuning.private import privately_tuned_sgd

        X, y = make_binary_data(600, 6, seed=1)
        factory = BoltOnTrainerFactory(
            lambda theta: LogisticLoss(theta.get("regularization", 0.0)),
            batch_size=10,
        )
        grid = ParameterGrid({"passes": [2, 5], "regularization": [0.01, 0.1]})
        fused = privately_tuned_sgd(X, y, factory, grid, epsilon=2.0, random_state=9)
        sequential = privately_tuned_sgd(  # an opaque factory: sequential
            X, y, lambda theta: factory(theta), grid, epsilon=2.0, random_state=9
        )
        assert fused.chosen_index == sequential.chosen_index
        np.testing.assert_array_equal(
            np.asarray(fused.model_result.model),
            np.asarray(sequential.model_result.model),
        )
        assert fused.unreleased_error_counts == sequential.unreleased_error_counts


class TestFusedRDBMS:
    """MultiSGDUDA == K SGDUDA epochs; pages charged once, not K times."""

    def make_table(self, m=137, d=6, seed=3):
        catalog = Catalog()
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, d))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        y = np.where(rng.random(m) > 0.5, 1.0, -1.0)
        return catalog.create_table_from_arrays("t", X, y)

    LOSSES_SCHEDULES = [
        (LogisticLoss(), ConstantSchedule(0.1)),
        (LogisticLoss(regularization=0.01), ConstantSchedule(0.05)),
        (HuberSVMLoss(smoothing=0.25), InverseSqrtTSchedule(0.2)),
        (LogisticLoss(regularization=0.1), CappedInverseTSchedule(1.1, 0.1)),
    ]

    @pytest.mark.parametrize("chunk_size", [1, 32, 500])
    def test_fused_uda_equals_sequential_udas(self, chunk_size):
        losses = [pair[0] for pair in self.LOSSES_SCHEDULES]
        schedules = [pair[1] for pair in self.LOSSES_SCHEDULES]
        projections = [None, None, L2BallProjection(0.8), L2BallProjection(10.0)]

        info = self.make_table()
        pool = BufferPool(100)
        shuffle = ShuffleOnce(info, pool, random_state=7)
        fused_uda = MultiSGDUDA(losses, schedules, batch_size=10, projections=projections)
        fused_models = run_aggregate(
            shuffle, fused_uda, chunk_size=chunk_size, dimension=6
        )
        fused_pages = shuffle.stats.pages_requested

        sequential_pages = 0
        for k in range(len(losses)):
            info_k = self.make_table()
            pool_k = BufferPool(100)
            shuffle_k = ShuffleOnce(info_k, pool_k, random_state=7)
            uda = SGDUDA(losses[k], schedules[k], batch_size=10,
                         projection=projections[k])
            model = run_aggregate(shuffle_k, uda, chunk_size=chunk_size, dimension=6)
            sequential_pages += shuffle_k.stats.pages_requested
            np.testing.assert_array_equal(fused_models[k], model)

        # The scan-sharing claim, exactly: fused charges ONE scan's pages,
        # the sequential runs charge K of them.
        assert fused_pages == 137
        assert sequential_pages == 137 * len(losses)

    def test_noisy_samplers_ride_fused_uda(self):
        from repro.rdbms.bismarck import NoisySGDUDA

        def make_sampler(seed):
            rng = np.random.default_rng(seed)

            def sampler(step, dimension):
                return rng.normal(0.0, 0.01, size=dimension)

            return sampler

        info = self.make_table(m=90, d=5)
        pool = BufferPool(100)
        shuffle = ShuffleOnce(info, pool, random_state=7)
        fused = MultiSGDUDA(
            [LogisticLoss(), LogisticLoss(0.01)],
            [ConstantSchedule(0.1), ConstantSchedule(0.1)],
            batch_size=10,
            noise_samplers=[make_sampler(21), make_sampler(22)],
        )
        fused_models = run_aggregate(shuffle, fused, chunk_size=32, dimension=5)
        assert fused.noise_draws == 2 * 9

        for k, (loss, seed) in enumerate(
            [(LogisticLoss(), 21), (LogisticLoss(0.01), 22)]
        ):
            info_k = self.make_table(m=90, d=5)
            shuffle_k = ShuffleOnce(info_k, BufferPool(100), random_state=7)
            uda = NoisySGDUDA(
                loss, ConstantSchedule(0.1), make_sampler(seed), batch_size=10
            )
            model = run_aggregate(shuffle_k, uda, chunk_size=32, dimension=5)
            np.testing.assert_array_equal(fused_models[k], model)

    def test_session_multi_report_charges_scan_once(self):
        from repro.rdbms.bismarck import BismarckSession

        losses = [LogisticLoss(), LogisticLoss(0.01), LogisticLoss(0.1)]
        schedules = [ConstantSchedule(0.1)] * 3
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 6))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        y = np.where(rng.random(120) > 0.5, 1.0, -1.0)

        fused_session = BismarckSession()
        fused_session.load_table("t", X, y)
        fused_session.warm_cache("t")
        fused = fused_session.run_sgd_multi(
            "t", MultiSGDUDA(losses, schedules, batch_size=10), epochs=2,
            random_state=3,
        )
        assert fused.num_models == 3

        solo_session = BismarckSession()
        solo_session.load_table("t", X, y)
        solo_session.warm_cache("t")
        solo = solo_session.run_noiseless(
            "t", losses[0], schedules[0], epochs=2, batch_size=10,
            random_state=3,
        )
        # Fused pays ONE scan's I/O while tripling the gradient work: its
        # simulated I/O seconds equal the single-model run's, and K solo
        # runs would pay K times that.
        fused_io = fused.total_runtime.io_seconds
        solo_io = solo.total_runtime.io_seconds
        assert fused_io == pytest.approx(solo_io)
        assert fused.total_runtime.gradient_seconds == pytest.approx(
            3 * solo.total_runtime.gradient_seconds
        )
        # And the fused models equal the solo run model for the first spec.
        np.testing.assert_array_equal(fused.models[0], solo.model)


class TestPageGroupedGather:
    """The chunked shuffle replay groups row copies by page while leaving
    counters AND buffer-pool state exactly where pinning each tuple's page
    in turn leaves them — in every regime, including an actively evicting
    pool."""

    @staticmethod
    def _table(m, d, seed):
        catalog = Catalog()
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, d))
        y = np.where(rng.random(m) > 0.5, 1.0, -1.0)
        return catalog.create_table_from_arrays("t", X, y)

    @pytest.mark.parametrize(
        "m,d,capacity,chunk_size",
        [
            (250, 5, 100, 17),   # warm pool, dense chunks (few pages)
            (400, 6, 100, 400),  # one chunk spanning the table
            (4000, 50, 40, 32),  # EVICTING pool: capacity 40 < 125 pages
            (4000, 50, 1, 64),   # pathological thrash, sparse chunks
        ],
    )
    def test_counters_and_pool_state_path_invariant(self, m, d, capacity, chunk_size):
        info = self._table(m, d, seed=1)

        pool_tuple = BufferPool(capacity)
        shuffle_tuple = ShuffleOnce(info, pool_tuple, random_state=9)
        per_tuple, _ = pin_each_tuple(shuffle_tuple)

        info2 = self._table(m, d, seed=1)
        pool_chunk = BufferPool(capacity)
        shuffle_chunk = ShuffleOnce(info2, pool_chunk, random_state=9)
        chunked = np.vstack(
            [block.copy() for block, _ in shuffle_chunk.scan_chunks(chunk_size)]
        )

        np.testing.assert_array_equal(chunked, per_tuple)
        assert shuffle_chunk.stats.pages_requested == m
        assert shuffle_chunk.stats.tuples_produced == m
        # The buffer pool sees the identical touch sequence, so hit/miss/
        # eviction counters — the cost model's input — agree exactly even
        # while the pool is actively evicting.
        assert pool_chunk.stats.page_reads == pool_tuple.stats.page_reads
        assert pool_chunk.stats.cache_hits == pool_tuple.stats.cache_hits
        assert pool_chunk.stats.cache_misses == pool_tuple.stats.cache_misses
        assert pool_chunk.stats.evictions == pool_tuple.stats.evictions
