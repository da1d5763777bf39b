"""Failure-injection and adversarial-input tests.

A privacy library must fail *closed*: bad configurations, corrupted
inputs, and misuse must raise before any under-noised release can happen.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bolton import private_convex_psgd, private_strongly_convex_psgd
from repro.core.mechanisms import GaussianMechanism, PrivacyParameters
from repro.optim.losses import LogisticLoss
from repro.optim.psgd import PSGD, PSGDConfig
from repro.optim.schedules import ConstantSchedule
from repro.rdbms.bismarck import BismarckSession
from repro.rdbms.executor import ShuffleOnce, run_aggregate
from repro.rdbms.storage import BufferPool, MaterializedHeapFile, VirtualHeapFile
from repro.rdbms.uda import UDA
from tests.conftest import make_binary_data


class TestPrivacyFailsClosed:
    def test_unnormalized_features_refused_everywhere(self):
        X = np.full((20, 3), 2.0)
        y = np.ones(20)
        with pytest.raises(ValueError, match="unit L2 ball"):
            private_convex_psgd(X, y, LogisticLoss(), epsilon=1.0)
        with pytest.raises(ValueError, match="unit L2 ball"):
            private_strongly_convex_psgd(
                X, y, LogisticLoss(regularization=0.1), epsilon=1.0
            )

    def test_slightly_over_norm_refused(self):
        # Even a 1% violation must be caught — noise calibrated for
        # ||x|| <= 1 does not cover it.
        X = np.zeros((10, 2))
        X[:, 0] = 1.01
        with pytest.raises(ValueError, match="unit L2 ball"):
            private_convex_psgd(X, np.ones(10), LogisticLoss(), epsilon=1.0)

    def test_epsilon_must_be_positive(self, medium_data):
        X, y = medium_data
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                private_convex_psgd(X, y, LogisticLoss(), epsilon=bad)

    def test_delta_one_rejected(self, medium_data):
        X, y = medium_data
        with pytest.raises(ValueError):
            private_convex_psgd(X, y, LogisticLoss(), epsilon=1.0, delta=1.0)

    def test_oversized_constant_step_rejected(self, medium_data):
        # eta > 2/beta voids 1-expansiveness, hence the sensitivity.
        X, y = medium_data
        with pytest.raises(ValueError, match="2/beta"):
            private_convex_psgd(
                X, y, LogisticLoss(), epsilon=1.0, eta=3.0
            )

    def test_gaussian_mechanism_never_pure(self, rng):
        mech = GaussianMechanism()
        with pytest.raises(ValueError):
            mech.privatize(np.ones(3), 0.1, PrivacyParameters(1.0), rng)

    def test_nan_labels_rejected(self):
        X, y = make_binary_data(10, 3, seed=0)
        y = y.copy()
        y[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            private_convex_psgd(X, y, LogisticLoss(), epsilon=1.0)


class TestEngineRobustness:
    def test_failing_page_generator_propagates(self):
        def exploding(page_id, count, dim):
            raise IOError("disk failure simulated")

        heap = VirtualHeapFile(1000, 5, exploding)
        pool = BufferPool(10)
        with pytest.raises(IOError, match="disk failure"):
            pool.get_page(heap, 0)

    def test_failing_transition_propagates(self):
        class ExplodingUDA(UDA):
            def initialize(self, **kwargs):
                return 0

            def transition_batch(self, state, features, labels):
                raise RuntimeError("transition bug")

            def terminate(self, state):  # pragma: no cover
                return state

        rng = np.random.default_rng(0)
        heap = MaterializedHeapFile(rng.normal(size=(10, 3)), np.ones(10))
        from repro.rdbms.catalog import Catalog

        catalog = Catalog()
        catalog.create_table("t", heap)
        with pytest.raises(RuntimeError, match="transition bug"):
            run_aggregate(ShuffleOnce(catalog.get("t"), BufferPool(4)), ExplodingUDA())

    def test_session_rejects_zero_epochs(self):
        session = BismarckSession()
        X, y = make_binary_data(20, 3, seed=0)
        session.load_table("t", X, y)
        with pytest.raises(ValueError):
            session.run_noiseless(
                "t", LogisticLoss(), ConstantSchedule(0.1), epochs=0
            )

    def test_session_unknown_table(self):
        session = BismarckSession()
        with pytest.raises(KeyError):
            session.run_noiseless(
                "ghost", LogisticLoss(), ConstantSchedule(0.1), epochs=1
            )

    def test_minimal_buffer_pool_still_correct(self):
        """A 1-page pool thrashes but must not change results."""
        # d=4 packs ~200 tuples per page; 1000 rows span several pages so
        # the 1-page pool genuinely thrashes.
        X, y = make_binary_data(1000, 4, seed=3)
        big = BismarckSession(buffer_pool_pages=10_000)
        tiny = BismarckSession(buffer_pool_pages=1)
        big.load_table("t", X, y)
        tiny.load_table("t", X, y)
        a = big.run_noiseless(
            "t", LogisticLoss(), ConstantSchedule(0.1), epochs=2, batch_size=10,
            random_state=4,
        )
        b = tiny.run_noiseless(
            "t", LogisticLoss(), ConstantSchedule(0.1), epochs=2, batch_size=10,
            random_state=4,
        )
        np.testing.assert_allclose(a.model, b.model)
        # ... but the tiny pool pays real I/O.
        assert b.total_runtime.io_seconds > a.total_runtime.io_seconds


class TestNumericalEdges:
    def test_extreme_regularization_still_finite(self, medium_data):
        X, y = medium_data
        result = private_strongly_convex_psgd(
            X, y, LogisticLoss(regularization=10.0), epsilon=1.0,
            passes=2, random_state=0,
        )
        assert np.all(np.isfinite(result.model))

    def test_single_example_dataset(self):
        X = np.array([[0.5, 0.5]])
        y = np.array([1.0])
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0, random_state=0
        )
        assert result.model.shape == (2,)

    def test_batch_larger_than_dataset(self, small_data):
        X, y = small_data
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1.0, batch_size=1000, random_state=0
        )
        assert result.psgd.updates == 1

    def test_tiny_epsilon_huge_noise_is_finite(self, medium_data):
        X, y = medium_data
        result = private_convex_psgd(
            X, y, LogisticLoss(), epsilon=1e-6, random_state=0
        )
        assert np.all(np.isfinite(result.model))
        assert result.noise_norm > 100

    def test_long_run_stays_stable(self):
        X, y = make_binary_data(50, 4, seed=9)
        config = PSGDConfig(schedule=ConstantSchedule(1.9), passes=50)
        result = PSGD(LogisticLoss(), config).run(X, y, random_state=0)
        assert np.all(np.isfinite(result.model))
