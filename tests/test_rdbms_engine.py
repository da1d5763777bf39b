"""Tests for catalog, executor, and UDA layers."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.optim.losses import LogisticLoss
from repro.optim.schedules import ConstantSchedule
from repro.rdbms.catalog import Catalog
from repro.rdbms.executor import ShuffleOnce, run_aggregate
from repro.rdbms.storage import BufferPool
from repro.rdbms.uda import SGDUDA
from tests.conftest import pin_each_tuple


def make_table(catalog, name="t", m=120, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    y = np.where(rng.random(m) > 0.5, 1.0, -1.0)
    return catalog.create_table_from_arrays(name, X, y), X, y


class TestCatalog:
    def test_create_and_get(self):
        catalog = Catalog()
        info, X, y = make_table(catalog)
        assert catalog.get("t").num_tuples == 120
        assert "t" in catalog

    def test_duplicate_rejected(self):
        catalog = Catalog()
        make_table(catalog)
        with pytest.raises(ValueError, match="already exists"):
            catalog.create_table_from_arrays("t", np.zeros((1, 2)), np.zeros(1))

    def test_invalid_name(self):
        catalog = Catalog()
        with pytest.raises(ValueError, match="invalid"):
            catalog.create_table_from_arrays("bad name!", np.zeros((1, 2)), np.zeros(1))

    def test_drop(self):
        catalog = Catalog()
        make_table(catalog)
        catalog.drop_table("t")
        assert "t" not in catalog
        with pytest.raises(KeyError):
            catalog.drop_table("t")

    def test_missing_table(self):
        with pytest.raises(KeyError, match="no such table"):
            Catalog().get("ghost")

    def test_table_names_sorted(self):
        catalog = Catalog()
        make_table(catalog, "zeta")
        make_table(catalog, "alpha", seed=1)
        assert catalog.table_names() == ["alpha", "zeta"]


def scanned(shuffle, chunk_size):
    """One epoch of ``shuffle``'s chunks, stacked as ``(X, y)``."""
    blocks = list(shuffle.scan_chunks(chunk_size))
    return (
        np.concatenate([X_block for X_block, _ in blocks]),
        np.concatenate([y_block for _, y_block in blocks]),
    )


class TestShuffle:
    def test_shuffle_once_replays_same_order(self):
        catalog = Catalog()
        info, X, y = make_table(catalog)
        pool = BufferPool(100)
        shuffle = ShuffleOnce(info, pool, random_state=5)
        first, _ = scanned(shuffle, 17)
        second, _ = scanned(shuffle, 17)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, X[shuffle.permutation])

    def test_permutation_covers_everything(self):
        catalog = Catalog()
        info, X, y = make_table(catalog)
        pool = BufferPool(100)
        shuffle = ShuffleOnce(info, pool, random_state=1)
        assert sorted(shuffle.permutation.tolist()) == list(range(120))


class TestShuffledCopy:
    """A table with more pages than the pool holds is scanned from its
    shuffled copy: the same tuples in the same order as the id gather,
    with each page missed once per pass."""

    @staticmethod
    def thrash_table():
        catalog = Catalog()
        info, X, y = make_table(catalog, m=600, d=40)  # 25 pages of 24 rows
        return info

    def test_both_paths_replay_the_permutation_missing_each_page_once(self):
        """The id gather (the table fits its pool) and the copy (it does
        not) deliver the same rows; the copy misses each page once, at
        any chunk size."""
        info = self.thrash_table()
        reference = ShuffleOnce(info, BufferPool(10_000), random_state=3)
        expected_X, expected_y = scanned(reference, 64)
        assert reference.shuffled_copy is None

        for chunk_size in (1, 64):
            pool = BufferPool(2)
            chunked = ShuffleOnce(info, pool, random_state=3)
            X_scan, y_scan = scanned(chunked, chunk_size)
            assert np.array_equal(X_scan, expected_X)
            assert np.array_equal(y_scan, expected_y)
            assert chunked.shuffled_copy is not None
            stats = pool.stats_for(info.heap)
            assert stats.page_reads == chunked.stats.pages_requested == 600
            assert stats.cache_misses == info.heap.num_pages == 25

    def test_racing_first_scans_build_one_copy(self):
        info = self.thrash_table()
        builds = []
        build = info.heap.clustered

        def counted(order):
            builds.append(order)
            return build(order)

        info.heap.clustered = counted
        pool = BufferPool(2)
        shuffle = ShuffleOnce(info, pool, random_state=3)
        blocks = [None] * 8

        def first_chunk(k):
            blocks[k] = next(shuffle.scan_chunks(64))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_chunk, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        for X_block, y_block in blocks:
            assert np.array_equal(X_block, blocks[0][0])
            assert np.array_equal(y_block, blocks[0][1])
        assert pool.stats_for(info.heap).page_reads == 8 * 64


class TestSGDUDA:
    def test_one_epoch_matches_library_psgd(self):
        """The UDA epoch must produce exactly the same model as the plain
        PSGD engine on the same permutation — the substrate and the
        library are the same algorithm."""
        from repro.optim.psgd import run_psgd

        catalog = Catalog()
        info, X, y = make_table(catalog, m=90, d=5, seed=3)
        pool = BufferPool(100)
        loss = LogisticLoss()
        schedule = ConstantSchedule(0.1)

        shuffle = ShuffleOnce(info, pool, random_state=7)
        uda = SGDUDA(loss, schedule, batch_size=10)
        model_uda = run_aggregate(shuffle, uda, dimension=5)

        reference = run_psgd(
            loss, X, y, schedule, passes=1, batch_size=10,
            permutation=shuffle.permutation, random_state=0,
        )
        np.testing.assert_allclose(model_uda, reference.model, atol=1e-12)

    def test_tail_batch_flushed(self):
        catalog = Catalog()
        info, X, y = make_table(catalog, m=95, d=5)
        pool = BufferPool(100)
        uda = SGDUDA(LogisticLoss(), ConstantSchedule(0.1), batch_size=10)
        run_aggregate(ShuffleOnce(info, pool, random_state=0), uda, dimension=5)
        assert uda.updates_applied == 10  # ceil(95/10)

    def test_epoch_chaining_continues_schedule(self):
        catalog = Catalog()
        make_table(catalog, m=20, d=4)
        from repro.optim.schedules import InverseTSchedule

        uda = SGDUDA(LogisticLoss(), InverseTSchedule(1.0), batch_size=5)
        state = uda.initialize(dimension=4, global_step_offset=4)
        assert state.next_step_index == 5

    def test_initialize_needs_model_or_dimension(self):
        uda = SGDUDA(LogisticLoss(), ConstantSchedule(0.1))
        with pytest.raises(ValueError, match="model or a dimension"):
            uda.initialize()

    def test_projection_applied(self):
        from repro.optim.projection import L2BallProjection

        catalog = Catalog()
        info, X, y = make_table(catalog, m=50, d=4)
        pool = BufferPool(100)
        uda = SGDUDA(
            LogisticLoss(), ConstantSchedule(2.0), batch_size=1,
            projection=L2BallProjection(0.1),
        )
        model = run_aggregate(ShuffleOnce(info, pool, random_state=0), uda, dimension=4)
        assert np.linalg.norm(model) <= 0.1 + 1e-9


class TestChunkedExecution:
    def test_shuffle_once_chunks_replay_permutation(self):
        catalog = Catalog()
        info, X, y = make_table(catalog)
        pool = BufferPool(100)
        shuffle = ShuffleOnce(info, pool, random_state=5)
        chunked, labels = scanned(shuffle, 17)
        np.testing.assert_array_equal(chunked, X[shuffle.permutation])
        np.testing.assert_array_equal(labels, y[shuffle.permutation])
        assert shuffle.stats.pages_requested == shuffle.stats.tuples_produced == 120

    def test_invalid_chunk_size_rejected(self):
        catalog = Catalog()
        info, X, y = make_table(catalog)
        pool = BufferPool(100)
        with pytest.raises(ValueError):
            list(ShuffleOnce(info, pool).scan_chunks(0))


def seeded_noise(seed=33):
    """A per-step noise sampler, ``(step, dimension) -> vector``, drawing
    from its own seeded stream; two samplers with one seed draw alike."""
    rng = np.random.default_rng(seed)

    def draw(step, dimension):
        return rng.normal(0.0, 0.05 / step, size=dimension)

    return draw


class TestChunkedRunEqualsScalarOracle:
    """A chunked ``run_sgd`` over a table's shared permutation is PSGD's
    per-example reference loop (``execution="scalar"``) over the same
    permutation: every step at the same tuple position, to rounding.

    The grid covers the margin losses; b dividing m, b not dividing m
    and b > m; chunks of one tuple, of 32 and larger than the table; one
    and three epochs; and the white-box ``NoisySGDUDA``, whose sampler
    and PSGD's ``gradient_noise`` draw from identically seeded streams.
    """

    M, D = 90, 5

    @pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy"])
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("chunk_size", [1, 32, 256])
    @pytest.mark.parametrize("batch_size", [1, 10, 7, 128])
    @pytest.mark.parametrize("loss_name", ["logistic", "huber", "least-squares", "hinge"])
    def test_chunked_run_equals_scalar_psgd(
        self, loss_name, batch_size, chunk_size, epochs, noisy
    ):
        from repro.optim.losses import HingeLoss, HuberSVMLoss, LeastSquaresLoss
        from repro.optim.projection import BoxProjection, IdentityProjection, L2BallProjection
        from repro.optim.psgd import PSGD, PSGDConfig
        from repro.optim.schedules import CappedInverseTSchedule, InverseSqrtTSchedule
        from repro.rdbms.bismarck import BismarckSession, NoisySGDUDA
        from tests.conftest import make_binary_data

        loss, schedule, projection = {
            "logistic": (LogisticLoss(0.01), ConstantSchedule(0.2), IdentityProjection()),
            "huber": (
                HuberSVMLoss(0.1, 0.01), InverseSqrtTSchedule(0.5), L2BallProjection(0.5)
            ),
            "least-squares": (
                LeastSquaresLoss(0.02), CappedInverseTSchedule(1.0, 0.02), L2BallProjection(0.3)
            ),
            "hinge": (HingeLoss(), ConstantSchedule(0.1), BoxProjection(-0.2, 0.2)),
        }[loss_name]
        X, y = make_binary_data(self.M, self.D, seed=11)
        session = BismarckSession(buffer_pool_pages=4)
        session.load_table("t", X, y)
        shuffle = session.shared_scan("t", random_state=2)
        gradient_noise = None
        if noisy:
            uda = NoisySGDUDA(loss, schedule, seeded_noise(), batch_size, projection)
            draw = seeded_noise()

            def gradient_noise(step, dimension, rng):
                return draw(step, dimension)
        else:
            uda = SGDUDA(loss, schedule, batch_size, projection)
        report = session.run_sgd(
            "t", uda, epochs, chunk_size=chunk_size, shuffle=shuffle
        )

        config = PSGDConfig(
            schedule=schedule,
            passes=epochs,
            batch_size=batch_size,
            projection=projection,
            execution="scalar",
        )
        oracle = PSGD(loss, config, gradient_noise=gradient_noise).run(
            X, y, permutation=shuffle.permutation
        )
        np.testing.assert_allclose(report.model, oracle.model, rtol=0, atol=1e-12)
        steps = epochs * -(-self.M // batch_size)
        assert uda.updates_applied == oracle.updates == steps
        assert report.noise_draws == (steps if noisy else 0)


class TestVirtualHeapChunkGather:
    """Chunked shuffled scans of virtual tables: each page synthesized at
    most once per chunk, with buffer-pool accounting path-invariant."""

    D = 200  # 1608-byte tuples -> 5 tuples per page: many pages, small m

    def _make_virtual(self, m):
        from repro.rdbms.storage import VirtualHeapFile

        synth_calls = {}

        def generator(page_id, count, dimension):
            synth_calls[page_id] = synth_calls.get(page_id, 0) + 1
            rng = np.random.default_rng(page_id)
            return (
                rng.normal(size=(count, dimension)),
                np.where(rng.random(count) > 0.5, 1.0, -1.0),
            )

        return VirtualHeapFile(m, self.D, generator), synth_calls

    def _thrashing_permutation(self, m, per_page):
        # Visit pages round-robin (tuple 0 of every page, then tuple 1 of
        # every page, ...): with a small pool every revisit is a miss.
        ids = np.arange(m).reshape(-1, per_page).T.ravel()
        return ids

    # chunk_size 50 takes the sparse (per-tuple copy) gather branch,
    # 100 the dense (fancy-indexed) one; the memo must hold in both.
    @pytest.mark.parametrize("chunk_size", [50, 100])
    def test_synthesis_once_per_chunk_and_counters_invariant(self, chunk_size):
        from repro.rdbms.storage import tuples_per_page

        catalog = Catalog()
        m = 100
        heap, synth_calls = self._make_virtual(m)
        info = catalog.create_table("virtual", heap)
        per_page = tuples_per_page(self.D)
        perm = self._thrashing_permutation(m, per_page)

        # Page-by-page reference: counters + streamed values.
        pool_ref = BufferPool(3)
        shuffle_ref = ShuffleOnce(info, pool_ref)
        shuffle_ref._permutation = perm.copy()
        ref_X, ref_y = pin_each_tuple(shuffle_ref)
        ref_stats = (pool_ref.stats.page_reads, pool_ref.stats.cache_hits,
                     pool_ref.stats.cache_misses, pool_ref.stats.evictions)
        ref_synth = dict(synth_calls)
        assert sum(ref_synth.values()) > heap.num_pages  # thrash regime

        # Chunked path on a fresh pool: identical accounting, bounded
        # synthesis.
        synth_calls.clear()
        pool = BufferPool(3)
        shuffle = ShuffleOnce(info, pool)
        shuffle._permutation = perm.copy()
        blocks = list(shuffle.scan_chunks(chunk_size))
        chunk_stats = (pool.stats.page_reads, pool.stats.cache_hits,
                       pool.stats.cache_misses, pool.stats.evictions)
        assert chunk_stats == ref_stats

        # Values identical to the page-by-page stream.
        X_chunked = np.vstack([X_block for X_block, _ in blocks])
        y_chunked = np.concatenate([y_block for _, y_block in blocks])
        np.testing.assert_array_equal(X_chunked, ref_X)
        np.testing.assert_array_equal(y_chunked, ref_y)

        # At most one synthesis per (chunk, page) — far below the
        # page-by-page pins' miss-driven synthesis count.
        chunks = -(-m // chunk_size)
        assert sum(synth_calls.values()) <= chunks * heap.num_pages
        assert sum(synth_calls.values()) < sum(ref_synth.values())
        assert max(synth_calls.values()) <= chunks

    def test_materialized_tables_unaffected(self):
        """The memo is a pure optimization for materialized heaps too:
        chunked output and counters unchanged (golden contract)."""
        catalog = Catalog()
        info, X, y = make_table(catalog, m=120, d=6, seed=9)
        pool_a, pool_b = BufferPool(2), BufferPool(2)
        sh_a = ShuffleOnce(info, pool_a, random_state=3)
        perm = sh_a.permutation
        sh_b = ShuffleOnce(info, pool_b)
        sh_b._permutation = perm.copy()
        rows, _ = pin_each_tuple(sh_a)
        chunked, _ = scanned(sh_b, 17)
        np.testing.assert_array_equal(chunked, rows)
        assert (
            pool_a.stats.page_reads,
            pool_a.stats.cache_hits,
            pool_a.stats.cache_misses,
            pool_a.stats.evictions,
        ) == (
            pool_b.stats.page_reads,
            pool_b.stats.cache_hits,
            pool_b.stats.cache_misses,
            pool_b.stats.evictions,
        )


class ReferenceStep:
    """The SGD step as written before its per-call overhead was trimmed:
    literal ``transition_batch``/``_rate``/``_apply_batch``, mixed into a
    UDA class as the bit-for-bit oracle for the lean step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rates_cache = None

    def transition_batch(self, state, features, labels):
        n = int(features.shape[0])
        start = 0
        while start < n:
            take = min(self.batch_size - state.examples_in_batch, n - start)
            segment_X = features[start : start + take]
            segment_y = labels[start : start + take]
            mean = self.loss.batch_gradient(state.model, segment_X, segment_y)
            state.accumulated_gradient += mean * take
            state.examples_in_batch += take
            start += take
            if state.examples_in_batch >= self.batch_size:
                self._apply_batch(state)
        return state

    def _rate(self, t):
        cache = self._rates_cache
        if cache is None or t > cache.shape[0]:
            total = max(t, 64 if cache is None else 2 * cache.shape[0])
            self._rates_cache = cache = self.schedule.rates(total)
        return float(cache[t - 1])

    def _apply_batch(self, state):
        eta = self._rate(state.next_step_index)
        mean_gradient = state.accumulated_gradient / state.examples_in_batch
        mean_gradient = self._adjust_gradient(state, mean_gradient)
        state.model = self.projection(state.model - eta * mean_gradient)
        state.accumulated_gradient[:] = 0.0
        state.examples_in_batch = 0
        state.batches_completed += 1
        self.updates_applied += 1


class TestLeanStepIsTheReferenceStep:
    """``SGDUDA``'s step releases exactly the reference step's bits.

    ``run_sgd`` drives both UDAs over the same permutation for enough
    epochs that the rates cache grows past its first block; every
    release must be ``np.array_equal`` — no tolerance.
    """

    CHUNK = 32

    def _session(self, m=211, d=7):
        from repro.rdbms.bismarck import BismarckSession
        from tests.conftest import make_binary_data

        session = BismarckSession(buffer_pool_pages=4)
        X, y = make_binary_data(m, d, seed=5)
        session.load_table("t", X, y)
        return session

    def _release(self, uda, epochs=4):
        return self._session().run_sgd(
            "t", uda, epochs, random_state=9, chunk_size=self.CHUNK
        ).model

    @pytest.mark.parametrize("batch_size", [1, 8, 32, 5, 13, 50])
    @pytest.mark.parametrize(
        "loss, schedule, projection",
        [
            ("logistic", "constant", None),
            ("logistic-reg", "inverse-t", "ball"),
            ("huber", "sqrt-t", "box"),
            ("least-squares", "capped", "ball"),
            ("hinge", "constant", None),
        ],
    )
    def test_release_equals_reference(self, loss, schedule, projection, batch_size):
        from repro.optim.losses import HingeLoss, HuberSVMLoss, LeastSquaresLoss
        from repro.optim.projection import BoxProjection, L2BallProjection
        from repro.optim.schedules import (
            CappedInverseTSchedule,
            InverseSqrtTSchedule,
            InverseTSchedule,
        )

        losses = {
            "logistic": LogisticLoss(),
            "logistic-reg": LogisticLoss(0.05),
            "huber": HuberSVMLoss(0.1, 0.01),
            "least-squares": LeastSquaresLoss(0.02),
            "hinge": HingeLoss(),
        }
        schedules = {
            "constant": ConstantSchedule(0.3),
            "inverse-t": InverseTSchedule(0.05),
            "sqrt-t": InverseSqrtTSchedule(0.5),
            "capped": CappedInverseTSchedule(1.0, 0.02),
        }
        projections = {
            None: None,
            "ball": L2BallProjection(0.2),
            "box": BoxProjection(-0.05, 0.05),
        }

        class ReferenceSGDUDA(ReferenceStep, SGDUDA):
            pass

        args = (losses[loss], schedules[schedule], batch_size, projections[projection])
        lean = self._release(SGDUDA(*args))
        reference = self._release(ReferenceSGDUDA(*args))
        assert np.array_equal(lean, reference)

    @pytest.mark.parametrize("batch_size", [8, 13])
    def test_noisy_release_equals_reference(self, batch_size):
        from repro.optim.projection import L2BallProjection
        from repro.optim.schedules import InverseTSchedule
        from repro.rdbms.bismarck import NoisySGDUDA

        class ReferenceNoisySGDUDA(ReferenceStep, NoisySGDUDA):
            pass

        def build(cls):
            noise_rng = np.random.default_rng(33)

            def noise_sampler(step, dimension):
                return noise_rng.normal(0.0, 0.05 / step, size=dimension)

            return cls(
                LogisticLoss(0.01), InverseTSchedule(0.05), noise_sampler,
                batch_size, L2BallProjection(0.5),
            )

        lean, reference = build(NoisySGDUDA), build(ReferenceNoisySGDUDA)
        lean_model = self._release(lean)
        reference_model = self._release(reference)
        assert np.array_equal(lean_model, reference_model)
        assert lean.noise_draws == reference.noise_draws > 0
        assert lean.updates_applied == reference.updates_applied
