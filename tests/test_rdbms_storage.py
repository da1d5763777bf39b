"""Tests for the storage layer: pages, heap files, buffer pool.

The per-table engine-domain contract carries the service's cross-table
parallelism: every heap owns its LRU shard, its counters, and its lock,
so concurrent scans on *disjoint* tables must produce exactly the
hit/miss/eviction counters (and resident sets) a serialized execution
would — locked here by a threaded stress test over hypothesis-drawn
scan orders.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdbms.storage import (
    PAGE_SIZE_BYTES,
    BufferPool,
    FaultyHeapFile,
    LatencyHeapFile,
    MaterializedHeapFile,
    PageFaultError,
    TransientPageFault,
    VirtualHeapFile,
    tuple_width_bytes,
    tuples_per_page,
)


class TestTupleLayout:
    def test_width(self):
        # d floats + 1 label, 8 bytes each
        assert tuple_width_bytes(50) == 51 * 8

    def test_per_page(self):
        per = tuples_per_page(50)
        assert per == (PAGE_SIZE_BYTES - 16) // (51 * 8)
        assert per >= 1

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError, match="too wide"):
            tuples_per_page(5000)


class TestMaterializedHeapFile:
    def make(self, m=100, d=10, seed=0):
        rng = np.random.default_rng(seed)
        return MaterializedHeapFile(
            rng.normal(size=(m, d)), np.where(rng.random(m) > 0.5, 1.0, -1.0)
        )

    def test_counts(self):
        heap = self.make(m=100, d=10)
        assert heap.num_tuples == 100
        assert heap.dimension == 10
        per = tuples_per_page(10)
        assert heap.num_pages == -(-100 // per)

    def test_pages_partition_rows(self):
        heap = self.make(m=250, d=30)
        seen = 0
        for page_id in range(heap.num_pages):
            page = heap.read_page(page_id)
            seen += page.tuple_count
        assert seen == 250

    def test_roundtrip_content(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 6))
        y = np.ones(40)
        heap = MaterializedHeapFile(X, y)
        per = tuples_per_page(6)
        page = heap.read_page(0)
        np.testing.assert_array_equal(page.features, X[:per])

    def test_out_of_range_page(self):
        heap = self.make()
        with pytest.raises(IndexError):
            heap.read_page(heap.num_pages)
        with pytest.raises(IndexError):
            heap.read_page(-1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MaterializedHeapFile(np.zeros((0, 3)), np.zeros(0))

    def test_mismatched_rejected(self):
        with pytest.raises(ValueError):
            MaterializedHeapFile(np.zeros((5, 3)), np.zeros(4))

    def test_size_bytes(self):
        heap = self.make(m=1000, d=50)
        assert heap.size_bytes == heap.num_pages * PAGE_SIZE_BYTES


class TestVirtualHeapFile:
    def make(self, m=1000, d=10):
        def generate(page_id, count, dim):
            rng = np.random.default_rng(page_id)
            return rng.normal(size=(count, dim)), np.ones(count)

        return VirtualHeapFile(m, d, generate)

    def test_deterministic_pages(self):
        heap = self.make()
        a = heap.read_page(3)
        b = heap.read_page(3)
        np.testing.assert_array_equal(a.features, b.features)

    def test_tail_page_short(self):
        heap = self.make(m=1000, d=10)
        per = tuples_per_page(10)
        last = heap.read_page(heap.num_pages - 1)
        assert last.tuple_count == 1000 - per * (heap.num_pages - 1)

    def test_bad_generator_shapes_detected(self):
        def bad(page_id, count, dim):
            return np.zeros((count + 1, dim)), np.zeros(count)

        heap = VirtualHeapFile(100, 5, bad)
        with pytest.raises(ValueError, match="wrong shapes"):
            heap.read_page(0)

    def test_large_virtual_table_is_cheap(self):
        # A "447 GB" table should not allocate anything until read.
        heap = self.make(m=1_200_000_000, d=50)
        assert heap.size_bytes > 4e11
        page = heap.read_page(heap.num_pages // 2)
        assert page.tuple_count == tuples_per_page(50)


class TestBufferPool:
    def make_heap(self, m=500, d=10):
        rng = np.random.default_rng(2)
        return MaterializedHeapFile(rng.normal(size=(m, d)), np.ones(m))

    def test_cold_scan_all_misses(self):
        heap = self.make_heap()
        pool = BufferPool(capacity_pages=100)
        list(pool.scan(heap))
        assert pool.stats.cache_misses == heap.num_pages
        assert pool.stats.cache_hits == 0

    def test_warm_scan_all_hits(self):
        heap = self.make_heap()
        pool = BufferPool(capacity_pages=100)
        list(pool.scan(heap))
        pool.stats.reset()
        list(pool.scan(heap))
        assert pool.stats.cache_hits == heap.num_pages
        assert pool.stats.cache_misses == 0

    def test_undersized_pool_thrashes_on_repeat_scans(self):
        # The disk-based regime of Figure 2(b): table larger than memory,
        # every sequential scan misses every page.
        heap = self.make_heap(m=2000)
        assert heap.num_pages > 3
        pool = BufferPool(capacity_pages=2)
        list(pool.scan(heap))
        pool.stats.reset()
        list(pool.scan(heap))
        assert pool.stats.cache_misses == heap.num_pages

    def test_lru_eviction_order(self):
        heap = self.make_heap(m=2000)
        pool = BufferPool(capacity_pages=2)
        pool.get_page(heap, 0)
        pool.get_page(heap, 1)
        pool.get_page(heap, 0)  # touch 0 -> 1 becomes LRU
        pool.get_page(heap, 2)  # evicts 1
        pool.stats.reset()
        pool.get_page(heap, 0)
        assert pool.stats.cache_hits == 1
        pool.get_page(heap, 1)
        assert pool.stats.cache_misses == 1

    def test_eviction_counter(self):
        heap = self.make_heap(m=2000)
        pool = BufferPool(capacity_pages=1)
        list(pool.scan(heap))
        assert pool.stats.evictions == heap.num_pages - 1

    def test_hit_rate(self):
        heap = self.make_heap()
        pool = BufferPool(capacity_pages=100)
        list(pool.scan(heap))
        list(pool.scan(heap))
        assert pool.stats.hit_rate == pytest.approx(0.5)

    def test_clear(self):
        heap = self.make_heap()
        pool = BufferPool(capacity_pages=100)
        list(pool.scan(heap))
        pool.clear()
        assert pool.resident_pages == 0

    def test_distinct_heaps_do_not_collide(self):
        heap_a = self.make_heap(m=100)
        heap_b = self.make_heap(m=100)
        pool = BufferPool(capacity_pages=10)
        page_a = pool.get_page(heap_a, 0)
        page_b = pool.get_page(heap_b, 0)
        assert pool.stats.cache_misses == 2
        assert page_a is not page_b


class TestLatencyHeapFile:
    def make_inner(self, m=200, d=10):
        rng = np.random.default_rng(3)
        return MaterializedHeapFile(rng.normal(size=(m, d)), np.ones(m))

    def test_delegates_shape_and_content(self):
        inner = self.make_inner()
        heap = LatencyHeapFile(inner, 0.0)
        assert heap.dimension == inner.dimension
        assert heap.num_pages == inner.num_pages
        assert heap.num_tuples == inner.num_tuples
        np.testing.assert_array_equal(
            heap.read_page(1).features, inner.read_page(1).features
        )

    def test_sleeps_once_per_read(self):
        sleeps = []
        heap = LatencyHeapFile(self.make_inner(), 0.25, sleeper=sleeps.append)
        heap.read_page(0)
        heap.read_page(0)
        heap.read_page(2)
        assert sleeps == [0.25, 0.25, 0.25]
        assert heap.reads == 3

    def test_zero_latency_never_calls_the_sleeper(self):
        sleeps = []
        heap = LatencyHeapFile(self.make_inner(), 0.0, sleeper=sleeps.append)
        heap.read_page(0)
        assert sleeps == []
        assert heap.reads == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            LatencyHeapFile(self.make_inner(), -0.1)

    def test_pool_pays_latency_on_misses_only(self):
        sleeps = []
        heap = LatencyHeapFile(self.make_inner(), 0.5, sleeper=sleeps.append)
        pool = BufferPool(capacity_pages=100)
        list(pool.scan(heap))
        assert len(sleeps) == heap.num_pages  # cold: one fetch per page
        list(pool.scan(heap))
        assert len(sleeps) == heap.num_pages  # warm: all hits, no I/O


def scan_counters(pool, heap):
    stats = pool.stats_for(heap)
    return (stats.page_reads, stats.cache_hits, stats.cache_misses, stats.evictions)


class TestPerTableDomains:
    def make_heap(self, m=500, d=10, seed=2):
        rng = np.random.default_rng(seed)
        return MaterializedHeapFile(rng.normal(size=(m, d)), np.ones(m))

    def test_stats_for_is_isolated_per_heap(self):
        heap_a, heap_b = self.make_heap(seed=0), self.make_heap(seed=1)
        pool = BufferPool(capacity_pages=100)
        list(pool.scan(heap_a))
        assert scan_counters(pool, heap_a) == (
            heap_a.num_pages, 0, heap_a.num_pages, 0
        )
        assert scan_counters(pool, heap_b) == (0, 0, 0, 0)
        list(pool.scan(heap_b))
        # b's traffic never moved a's counters.
        assert scan_counters(pool, heap_a) == (
            heap_a.num_pages, 0, heap_a.num_pages, 0
        )

    def test_pool_stats_is_the_sum_over_domains(self):
        heap_a, heap_b = self.make_heap(seed=0), self.make_heap(seed=1)
        pool = BufferPool(capacity_pages=100)
        list(pool.scan(heap_a))
        list(pool.scan(heap_b))
        list(pool.scan(heap_b))
        assert pool.stats.page_reads == 3 * heap_a.num_pages
        assert pool.stats.cache_hits == heap_b.num_pages
        assert pool.stats.cache_misses == 2 * heap_a.num_pages

    def test_view_reset_does_not_touch_domain_counters(self):
        heap_a, heap_b = self.make_heap(seed=0), self.make_heap(seed=1)
        pool = BufferPool(capacity_pages=100)
        list(pool.scan(heap_a))
        pool.stats.reset()
        assert pool.stats.page_reads == 0
        # The per-table truth is monotonic — a whole-pool view reset (a
        # benchmarking convenience) must never skew dispatch accounting.
        assert scan_counters(pool, heap_a)[0] == heap_a.num_pages
        list(pool.scan(heap_b))
        assert pool.stats.page_reads == heap_b.num_pages

    def test_dropped_heap_frees_its_cache_but_keeps_pool_history(self):
        import gc

        pool = BufferPool(capacity_pages=100)
        heap = self.make_heap(seed=0)
        pages = heap.num_pages
        list(pool.scan(heap))
        assert pool.resident_pages == pages
        del heap
        gc.collect()
        # The domain (and its cached Pages) died with the heap...
        assert pool.resident_pages == 0
        # ...but the whole-pool counters stay monotonic (retired tally).
        assert pool.stats.page_reads == pages
        assert pool.stats.cache_misses == pages
        # A new heap — even one reusing the dead heap's address — can
        # never inherit the old cache: it starts cold.
        fresh = self.make_heap(seed=0)
        list(pool.scan(fresh))
        assert pool.stats.cache_misses == 2 * pages
        assert pool.stats.cache_hits == 0

    def test_a_copy_counts_once_as_its_table(self):
        """A scan-order copy has its own cache (its page ids name its own
        pages) but its owner's counters: the whole-pool view, before and
        after either heap dies, counts each request once."""
        import gc

        pool = BufferPool(capacity_pages=100)
        heap = self.make_heap(seed=0)
        pages = heap.num_pages
        copy = heap.clustered(np.arange(heap.num_tuples)[::-1])
        pool.count_as(copy, heap)
        list(pool.scan(heap))
        list(pool.scan(copy))  # cold: none of the table's pages serve it
        assert scan_counters(pool, heap) == (2 * pages, 0, 2 * pages, 0)
        assert scan_counters(pool, copy) == scan_counters(pool, heap)
        assert pool.stats.page_reads == 2 * pages
        assert pool.resident_pages == 2 * pages
        del copy
        gc.collect()
        assert pool.resident_pages == pages
        assert pool.stats.page_reads == 2 * pages
        del heap
        gc.collect()
        assert pool.resident_pages == 0
        assert (pool.stats.page_reads, pool.stats.cache_misses) == (2 * pages, 2 * pages)

    def test_capacity_is_per_domain(self):
        # Two tables that each fit: neither evicts the other (the domain
        # is the unit of memory accounting, like the unit of locking).
        heap_a, heap_b = self.make_heap(seed=0), self.make_heap(seed=1)
        pool = BufferPool(capacity_pages=heap_a.num_pages)
        list(pool.scan(heap_a))
        list(pool.scan(heap_b))
        assert pool.resident_pages == heap_a.num_pages + heap_b.num_pages
        list(pool.scan(heap_a))
        list(pool.scan(heap_b))
        assert pool.stats.evictions == 0
        assert pool.stats.cache_hits == heap_a.num_pages + heap_b.num_pages


class TestConcurrentDomainCounters:
    """Satellite lock-in: concurrent scans on disjoint tables leave every
    per-table counter exactly as the serialized execution would."""

    HEAPS, ROUNDS = 3, 3

    def _orders(self, heaps, seed):
        rng = np.random.default_rng(seed)
        return [
            [list(rng.permutation(heap.num_pages)) for _ in range(self.ROUNDS)]
            for heap in heaps
        ]

    def _run_serialized(self, heaps, orders, capacity):
        pool = BufferPool(capacity_pages=capacity)
        for heap, heap_orders in zip(heaps, orders):
            for order in heap_orders:
                list(pool.scan(heap, page_order=order))
        return pool

    def _run_concurrent(self, heaps, orders, capacity):
        pool = BufferPool(capacity_pages=capacity)
        barrier = threading.Barrier(len(heaps))
        errors = []

        def scan_all(heap, heap_orders):
            try:
                barrier.wait()
                for order in heap_orders:
                    list(pool.scan(heap, page_order=order))
            except Exception as error:  # pragma: no cover - fail loud
                errors.append(error)

        threads = [
            threading.Thread(target=scan_all, args=(heap, heap_orders))
            for heap, heap_orders in zip(heaps, orders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        return pool

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_concurrent_counters_equal_serialized(self, seed):
        heaps = [
            MaterializedHeapFile(
                np.random.default_rng(i).normal(size=(400 + 80 * i, 8)),
                np.ones(400 + 80 * i),
            )
            for i in range(self.HEAPS)
        ]
        # capacity=2 < num_pages: the thrash regime, where hit/miss/evict
        # and LRU recency are all order-sensitive — the hard case.
        orders = self._orders(heaps, seed)
        serial = self._run_serialized(heaps, orders, capacity=2)
        racing = self._run_concurrent(heaps, orders, capacity=2)
        for heap in heaps:
            assert scan_counters(racing, heap) == scan_counters(serial, heap)
        assert racing.resident_pages == serial.resident_pages
        assert racing.stats.page_reads == serial.stats.page_reads
        assert racing.stats.evictions == serial.stats.evictions


class TestFaultyHeapFile:
    def make(self, m=100, d=10, seed=0, **kwargs):
        rng = np.random.default_rng(seed)
        inner = MaterializedHeapFile(
            rng.normal(size=(m, d)), np.where(rng.random(m) > 0.5, 1.0, -1.0)
        )
        return FaultyHeapFile(inner, **kwargs), inner

    def test_delegates_metadata_and_clean_reads(self):
        faulty, inner = self.make()
        assert faulty.dimension == inner.dimension
        assert faulty.num_pages == inner.num_pages
        assert faulty.num_tuples == inner.num_tuples
        page = faulty.read_page(0)
        assert np.array_equal(page.features, inner.read_page(0).features)
        assert faulty.reads == 1
        assert faulty.faults_injected == 0

    def test_fail_pages_fault_deterministically(self):
        faulty, _ = self.make(fail_pages=(1,))
        faulty.read_page(0)
        with pytest.raises(TransientPageFault, match="page 1"):
            faulty.read_page(1)
        with pytest.raises(TransientPageFault):
            faulty.read_page(1)  # unlimited budget: faults every time
        assert faulty.faults_injected == 2

    def test_fail_times_caps_the_fault_budget(self):
        faulty, inner = self.make(fail_pages=(0,), fail_times=2)
        for _ in range(2):
            with pytest.raises(TransientPageFault):
                faulty.read_page(0)
        # Budget exhausted: the same page now reads clean.
        page = faulty.read_page(0)
        assert np.array_equal(page.features, inner.read_page(0).features)
        assert faulty.faults_injected == 2

    def test_permanent_faults_are_not_transient(self):
        faulty, _ = self.make(fail_pages=(0,), transient=False)
        with pytest.raises(PageFaultError) as excinfo:
            faulty.read_page(0)
        assert not isinstance(excinfo.value, TransientPageFault)
        # The hierarchy still lets callers catch all injected faults.
        assert isinstance(excinfo.value, IOError)

    def test_probability_faults_are_seed_reproducible(self):
        first, _ = self.make(probability=0.5, seed=7)
        second, _ = self.make(probability=0.5, seed=7)

        def fault_pattern(heap, n=40):
            pattern = []
            for i in range(n):
                try:
                    heap.read_page(i % heap.num_pages)
                    pattern.append(False)
                except TransientPageFault:
                    pattern.append(True)
            return pattern

        pattern = fault_pattern(first)
        assert any(pattern) and not all(pattern)
        assert fault_pattern(second) == pattern

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            self.make(probability=1.5)
        with pytest.raises(ValueError, match="fail_times"):
            self.make(fail_times=-1)

    def test_faulted_page_is_never_cached(self):
        """The interplay the service's retry relies on: a fault is raised
        before the pool caches the page, so a retried scan re-reads it
        (and fail_times=1 makes exactly the first attempt fail)."""
        faulty, _ = self.make(fail_pages=(0,), fail_times=1)
        pool = BufferPool(capacity_pages=8)
        with pytest.raises(TransientPageFault):
            pool.get_page(faulty, 0)
        page = pool.get_page(faulty, 0)  # the retry reaches the heap
        assert page is not None
        assert faulty.reads == 2
        stats = pool.stats
        assert stats.cache_hits == 0  # the faulted read cached nothing


def lru_order(pool, heap):
    """The heap's resident page ids, least recently used first (white-box:
    the LRU shard is private to the pool)."""
    return list(pool._domain(heap).cache.keys())


def get_page_loop(pool, heap, page_ids, reader=None):
    """The reference ``get_pages`` must equal: one ``get_page`` per id."""
    return [pool.get_page(heap, page_id, reader=reader) for page_id in page_ids]


class TestGetPages:
    """``BufferPool.get_pages`` is a ``get_page`` loop under one lock hold:
    same pages, counters, LRU order, reader calls and fault behaviour."""

    PAGES = 12

    def make_heap(self, seed=4):
        rng = np.random.default_rng(seed)
        m = tuples_per_page(50) * self.PAGES
        return MaterializedHeapFile(rng.normal(size=(m, 50)), rng.normal(size=m))

    def recording_reader(self, heap, calls):
        def reader(page_id):
            calls.append(page_id)
            return heap.read_page(page_id)

        return reader

    @settings(max_examples=150, deadline=None)
    @given(
        warm=st.lists(st.integers(0, PAGES - 1), max_size=20),
        runs=st.lists(
            st.lists(st.integers(0, PAGES - 1), max_size=40), min_size=1, max_size=4
        ),
        capacity=st.integers(1, PAGES + 2),
        use_reader=st.booleans(),
    )
    def test_equals_get_page_loop(self, warm, runs, capacity, use_reader):
        # capacity < PAGES is the evicting regime, >= PAGES fully resident.
        heap = self.make_heap()
        batched, looped = BufferPool(capacity), BufferPool(capacity)
        batched_reads, looped_reads = [], []
        get_page_loop(batched, heap, warm)
        get_page_loop(looped, heap, warm)
        for page_ids in runs:
            got = batched.get_pages(
                heap, page_ids,
                reader=self.recording_reader(heap, batched_reads) if use_reader else None,
            )
            want = get_page_loop(
                looped, heap, page_ids,
                reader=self.recording_reader(heap, looped_reads) if use_reader else None,
            )
            assert [page.page_id for page in got] == list(page_ids)
            for page, twin in zip(got, want):
                assert page.page_id == twin.page_id
                assert np.array_equal(page.features, twin.features)
                assert np.array_equal(page.labels, twin.labels)
            assert scan_counters(batched, heap) == scan_counters(looped, heap)
            assert lru_order(batched, heap) == lru_order(looped, heap)
        assert batched_reads == looped_reads

    def test_returns_the_cached_page_objects(self):
        heap = self.make_heap()
        pool = BufferPool(self.PAGES)
        first = pool.get_pages(heap, [3, 5, 3])
        assert first[0] is first[2]
        assert pool.get_pages(heap, [5])[0] is first[1]

    def test_empty_run_touches_nothing(self):
        heap = self.make_heap()
        pool = BufferPool(4)
        assert pool.get_pages(heap, []) == []
        assert scan_counters(pool, heap) == (0, 0, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        warm=st.lists(st.integers(0, PAGES - 2), max_size=12),
        before=st.lists(st.integers(0, PAGES - 2), max_size=20),
        after=st.lists(st.integers(0, PAGES - 2), max_size=20),
        capacity=st.integers(1, PAGES + 1),
    )
    def test_transient_fault_at_position_j_matches_the_loop(
        self, warm, before, after, capacity
    ):
        # The last page appears once, at position j = len(before), and is
        # never resident — so both paths fault exactly there.
        faulty_page = self.PAGES - 1
        page_ids = before + [faulty_page] + after
        inner = self.make_heap()
        batched_heap = FaultyHeapFile(inner, fail_pages=(faulty_page,), fail_times=1)
        looped_heap = FaultyHeapFile(inner, fail_pages=(faulty_page,), fail_times=1)
        batched, looped = BufferPool(capacity), BufferPool(capacity)
        get_page_loop(batched, batched_heap, warm)
        get_page_loop(looped, looped_heap, warm)

        with pytest.raises(TransientPageFault):
            batched.get_pages(batched_heap, page_ids)
        with pytest.raises(TransientPageFault):
            get_page_loop(looped, looped_heap, page_ids)
        assert scan_counters(batched, batched_heap) == scan_counters(looped, looped_heap)
        assert lru_order(batched, batched_heap) == lru_order(looped, looped_heap)
        assert faulty_page not in lru_order(batched, batched_heap)
        assert batched_heap.reads == looped_heap.reads

        # The retry (fault budget spent) reads clean, still in lockstep.
        batched.get_pages(batched_heap, page_ids)
        get_page_loop(looped, looped_heap, page_ids)
        assert scan_counters(batched, batched_heap) == scan_counters(looped, looped_heap)
        assert lru_order(batched, batched_heap) == lru_order(looped, looped_heap)

    def _race(self, pool, jobs):
        """Run ``(heap, runs)`` jobs on one thread each, released together
        under a shortened switch interval so threads interleave often."""
        barrier = threading.Barrier(len(jobs))
        errors = []

        def drive(heap, heap_runs):
            try:
                barrier.wait(timeout=30)
                for page_ids in heap_runs:
                    pool.get_pages(heap, page_ids)
            except Exception as error:  # pragma: no cover - fail loud
                errors.append(error)

        threads = [threading.Thread(target=drive, args=job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

    def test_two_threads_on_two_heaps_keep_per_heap_counters_exact(self):
        heaps = [self.make_heap(seed) for seed in (1, 2)]
        rng = np.random.default_rng(8)
        runs = [
            [rng.integers(0, self.PAGES, size=64).tolist() for _ in range(150)]
            for _ in heaps
        ]
        serial = BufferPool(capacity_pages=5)
        for heap, heap_runs in zip(heaps, runs):
            for page_ids in heap_runs:
                get_page_loop(serial, heap, page_ids)

        racing = BufferPool(capacity_pages=5)
        self._race(racing, list(zip(heaps, runs)))
        for heap in heaps:
            assert scan_counters(racing, heap) == scan_counters(serial, heap)
            assert lru_order(racing, heap) == lru_order(serial, heap)
        assert racing.stats.page_reads == serial.stats.page_reads == 2 * 150 * 64

    def test_threads_sharing_a_heap_lose_no_counter_update(self):
        # Four threads, two per heap, on a two-core host: which request
        # hits depends on the interleaving, but no update may be lost.
        heaps = [self.make_heap(seed) for seed in (1, 2)]
        rng = np.random.default_rng(9)
        jobs = [
            (heap, [rng.integers(0, self.PAGES, size=32).tolist() for _ in range(100)])
            for heap in heaps
            for _ in range(2)
        ]
        pool = BufferPool(capacity_pages=5)
        self._race(pool, jobs)
        for heap in heaps:
            reads, hits, misses, evictions = scan_counters(pool, heap)
            assert reads == 2 * 100 * 32
            assert hits + misses == reads
            assert misses - evictions == len(lru_order(pool, heap)) == 5
