"""Query execution: sequential scan, shuffle, and aggregate evaluation.

Bismarck drives each SGD epoch with an SQL query of the form::

    SELECT sgd_agg(features, label) FROM dataset ORDER BY RANDOM();

This module provides the corresponding physical operators:

* :class:`SeqScan` — page-at-a-time scan through the buffer pool;
* :class:`Shuffle` — the ``ORDER BY RANDOM()`` stage: materializes a random
  permutation of tuple ids and re-reads tuples in that order (every page
  touched once per resident window; with a too-small pool this produces
  the random-I/O penalty real shuffles pay);
* :class:`ShuffleOnce` — Bismarck's shuffle-once: one permutation,
  replayed every epoch. A table with more pages than the pool holds is
  scanned from a copy stored in permutation order, so each page misses
  once per epoch; a table that fits is read in place;
* :func:`run_aggregate` — feed an operator's tuple stream through a UDA.

Operators expose the counters the cost model charges: tuples produced,
pages requested, comparison work for the shuffle.

Two execution paths
-------------------

Every operator can deliver its tuples two ways:

* **per-tuple** (``__iter__``) — the classic Volcano-style
  ``(features_row, label)`` stream that feeds ``UDA.transition``;
* **chunked** (``scan_chunks(chunk_size)``) — ``(X_block, y_block)`` array
  pairs of up to ``chunk_size`` rows that feed ``UDA.transition_batch``,
  letting the SGD UDA take NumPy-speed mini-batch steps.

**Determinism contract**: both paths visit tuples in exactly the same
order (storage order for :class:`SeqScan`, the drawn permutation for the
shuffles) and request pages through the buffer pool at exactly the same
points, so ``OperatorStats`` — including ``pages_requested`` — and the
resulting model are path-independent; the golden tests in
``tests/test_rdbms_engine.py`` lock both invariants in.

Storage-agnostic by construction
--------------------------------

Scans never read a page directly: every page arrives via
``BufferPool.get_page`` (per tuple) or ``BufferPool.get_pages`` (per
chunk), and every heap speaks the same ``HeapFile``
protocol with the same :func:`tuples_per_page` page grid. The one direct
read is :class:`ShuffleOnce`'s one-off build of a shuffled copy
(``HeapFile.clustered``), which moves no pool counter. That is what
lets a :class:`~repro.rdbms.storage.SQLiteHeapFile` (real pages on real
disk, WAL-mode reads) slot under these operators unchanged: the scan
order, the chunk grid, the page-request counters, and therefore the
released weights are all bitwise-identical to an in-memory heap holding
the same tuples. Pages read from real storage may be backed by
read-only buffers — operators copy rows into fresh blocks and never
write through a page, so the distinction is invisible here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

import numpy as np

from repro.rdbms.catalog import TableInfo
from repro.rdbms.storage import BufferPool, HeapFile, tuples_per_page
from repro.rdbms.uda import UDA
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

#: A tuple stream item: (features row, label).
TupleItem = Tuple[np.ndarray, float]

#: A chunk stream item: (features block, labels block), up to chunk_size rows.
ChunkItem = Tuple[np.ndarray, np.ndarray]


@dataclass
class OperatorStats:
    """Work counters for one operator execution."""

    tuples_produced: int = 0
    pages_requested: int = 0
    shuffle_sorted_tuples: int = 0


class SeqScan:
    """Sequential scan in storage order."""

    def __init__(self, table: TableInfo, pool: BufferPool):
        self.table = table
        self.pool = pool
        self.stats = OperatorStats()

    def __iter__(self) -> Iterator[TupleItem]:
        for page in self.pool.scan(self.table.heap):
            self.stats.pages_requested += 1
            for row in range(page.tuple_count):
                self.stats.tuples_produced += 1
                yield page.features[row], float(page.labels[row])

    def scan_chunks(self, chunk_size: int) -> Iterator[ChunkItem]:
        """Storage-order scan emitting ``(X_block, y_block)`` arrays.

        Pages are requested exactly as in the per-tuple path (once each,
        through the buffer pool); chunks simply re-slice page contents, so
        they may span page boundaries.
        """
        check_positive_int(chunk_size, "chunk_size")
        d = self.table.dimension
        X_block = np.empty((chunk_size, d), dtype=np.float64)
        y_block = np.empty(chunk_size, dtype=np.float64)
        fill = 0
        for page in self.pool.scan(self.table.heap):
            self.stats.pages_requested += 1
            self.stats.tuples_produced += page.tuple_count
            start = 0
            while start < page.tuple_count:
                take = min(chunk_size - fill, page.tuple_count - start)
                X_block[fill : fill + take] = page.features[start : start + take]
                y_block[fill : fill + take] = page.labels[start : start + take]
                fill += take
                start += take
                if fill == chunk_size:
                    yield X_block, y_block
                    X_block = np.empty((chunk_size, d), dtype=np.float64)
                    y_block = np.empty(chunk_size, dtype=np.float64)
                    fill = 0
        if fill > 0:
            yield X_block[:fill], y_block[:fill]


class Shuffle:
    """``ORDER BY RANDOM()``: yield tuples in a fresh random order.

    The permutation is over global tuple ids; tuples are fetched through
    the buffer pool page by page, so a pool smaller than the table makes
    shuffled access expensive — exactly why Bismarck shuffles *once* and
    then scans sequentially each epoch. :class:`ShuffleOnce` implements
    that optimization.
    """

    def __init__(
        self,
        table: TableInfo,
        pool: BufferPool,
        random_state: RandomState = None,
    ):
        self.table = table
        self.pool = pool
        self.rng = as_generator(random_state)
        self.stats = OperatorStats()

    def permutation(self) -> np.ndarray:
        perm = self.rng.permutation(self.table.num_tuples)
        self.stats.shuffle_sorted_tuples += self.table.num_tuples
        return perm

    def __iter__(self) -> Iterator[TupleItem]:
        per_page = tuples_per_page(self.table.dimension)
        for tuple_id in self.permutation():
            page_id, row = divmod(int(tuple_id), per_page)
            page = self.pool.get_page(self.table.heap, page_id)
            self.stats.pages_requested += 1
            self.stats.tuples_produced += 1
            yield page.features[row], float(page.labels[row])

    def scan_chunks(self, chunk_size: int) -> Iterator[ChunkItem]:
        """Permuted scan emitting ``(X_block, y_block)`` arrays.

        Draws a fresh permutation (like ``__iter__``) and gathers each run
        of ``chunk_size`` permuted tuples into a block with one
        ``get_pages`` call per chunk, one page request per tuple —
        matching the per-tuple path's counters.
        """
        yield from _gather_permuted_chunks(
            self.table.heap, self.pool, self.stats, self.permutation(), chunk_size
        )


class ShuffleOnce:
    """Bismarck's strategy: shuffle the table once, then replay that order
    every epoch.

    Scan position ``i`` is always tuple ``permutation[i]``. Where that
    tuple is read from is decided once per permutation, at the first
    scan, by comparing the table's pages with the pool's per-table
    capacity:

    * **the shuffled copy** — a table with more pages than the pool
      holds gets Bismarck's copy of itself stored in permutation order
      (:meth:`~repro.rdbms.storage.HeapFile.clustered`), and position
      ``i`` reads copy tuple ``i``. Each chunk then asks for contiguous
      tuples and each page misses once per loop: the one sequential miss
      per page per epoch that ``analytic_counters`` and ``CostModel``
      charge, which is what keeps the paper's disk-based runs I/O-bound
      rather than seek-bound. The copy's requests count as the table's
      (:meth:`~repro.rdbms.storage.BufferPool.count_as`).
    * **the id gather** — everything else reads ``permutation[i]`` from
      the table's own heap: a table that fits the pool (it costs no
      misses in any order), a heap that keeps no copy (virtual heaps,
      the latency and fault wrappers), and a copy that could not be
      written.

    Either way each chunk is the same block of bytes from the same
    number of page requests, so releases and ``pages_requested`` never
    depend on the choice; only the hit/miss/eviction counters do. The
    copy is built lazily inside the first scan, under the operator's
    lock: a page fault while reading the table for it propagates like a
    fault in any chunk, and the next scan tries again.
    """

    def __init__(
        self,
        table: TableInfo,
        pool: BufferPool,
        random_state: RandomState = None,
    ):
        self.table = table
        self.pool = pool
        self.rng = as_generator(random_state)
        self.stats = OperatorStats()
        self._permutation: Optional[np.ndarray] = None
        #: (heap, tuple ids) the scans read — decided once per permutation.
        self._source: Optional[Tuple[HeapFile, np.ndarray]] = None
        self._lock = threading.Lock()
        self._cursors: dict = {}

    @property
    def permutation(self) -> np.ndarray:
        if self._permutation is None:
            self._permutation = self.rng.permutation(self.table.num_tuples)
            self.stats.shuffle_sorted_tuples += self.table.num_tuples
        return self._permutation

    @property
    def shuffled_copy(self) -> Optional[HeapFile]:
        """The copy the scans read, or ``None`` (no scan yet, or the id
        gather)."""
        source = self._source
        if source is None or source[0] is self.table.heap:
            return None
        return source[0]

    def _scan_source(self) -> Tuple[HeapFile, np.ndarray]:
        """The heap the scans read and, per permutation position, the id
        of the tuple to read there (see the class docstring)."""
        source = self._source
        if source is None:
            with self._lock:
                source = self._source
                if source is None:
                    heap, perm = self.table.heap, self.permutation
                    copy = None
                    if heap.num_pages > self.pool.capacity:
                        copy = heap.clustered(perm)
                    if copy is None:
                        source = (heap, perm)
                    else:
                        self.pool.count_as(copy, heap)
                        source = (copy, np.arange(len(perm)))
                    self._source = source
        return source

    def __iter__(self) -> Iterator[TupleItem]:
        heap, ids = self._scan_source()
        page_ids, rows = np.divmod(ids, tuples_per_page(heap.dimension))
        for tuple_index in range(len(ids)):
            page = self.pool.get_page(heap, int(page_ids[tuple_index]))
            self.stats.pages_requested += 1
            self.stats.tuples_produced += 1
            row = int(rows[tuple_index])
            yield page.features[row], float(page.labels[row])

    def scan_chunks(self, chunk_size: int, start_offset: int = 0) -> Iterator[ChunkItem]:
        """Replay the stored permutation as ``(X_block, y_block)`` arrays.

        Same order as the per-tuple replay, and the same accounting: one
        ``get_pages`` call per chunk, one page request per tuple — so
        epochs are path-independent.

        ``start_offset`` rotates the delivery: the epoch starts at that
        permutation position and wraps around, visiting every tuple
        exactly once. The offset must sit on the *canonical chunk grid*
        (a multiple of ``chunk_size``) so the chunks delivered are the
        same blocks an offset-0 scan would produce, merely reordered —
        the property that makes a mid-scan boarder's ride bitwise equal
        to its solo run (see :class:`ScanCursor`).
        """
        heap, ids = self._scan_source()
        for start in _chunk_starts(len(ids), chunk_size, start_offset):
            yield _gather_chunk(
                heap, self.pool, self.stats, ids[start : start + chunk_size]
            )

    def cursor(self, chunk_size: int) -> "ScanCursor":
        """The table's persistent elevator cursor for this chunk size
        (get-or-create): a resumable position on the canonical chunk grid
        that survives across scan loops, so a dispatcher can park it and
        later resume — see :class:`ScanCursor`.
        """
        check_positive_int(chunk_size, "chunk_size")
        cursor = self._cursors.get(chunk_size)
        if cursor is None:
            cursor = ScanCursor(self, chunk_size)
            self._cursors[chunk_size] = cursor
        return cursor


#: Average tuples per distinct page above which a chunk is "dense" enough
#: for the grouped per-page row gather to beat scalar row copies (below
#: it, per-group NumPy call overhead exceeds the copies it replaces).
_DENSE_GATHER_THRESHOLD = 4


def _gather_permuted_chunks(
    heap: HeapFile,
    pool: BufferPool,
    stats: OperatorStats,
    permutation: np.ndarray,
    chunk_size: int,
) -> Iterator[ChunkItem]:
    """Gather permuted tuples into blocks with page-grouped row copies.

    Shared by the two shuffle operators. Every tuple still pins its page
    through the buffer pool in visit order — one ``get_pages`` call per
    chunk, one page request per tuple — so ``OperatorStats``, the pool's
    hit/miss/eviction counters, and the
    LRU recency state are *exactly* the per-tuple path's in every regime,
    resident or thrashing (the golden tests in
    ``tests/test_rdbms_engine.py`` and the eviction-regime test in
    ``tests/test_multimodel_equivalence.py`` lock this in).

    The speedup comes from the row copies: ``divmod`` is vectorized for
    the whole chunk, and when the chunk is *dense* — at least
    ``_DENSE_GATHER_THRESHOLD`` tuples per distinct page on average
    (clustered permutations, or chunks spanning a small table, e.g. every
    golden-test and Bismarck-example configuration) — each page's rows
    land in the block via one fancy-indexed gather instead of scalar
    copies. Sparse chunks (a random permutation over a many-page table)
    keep the scalar copy per tuple, which measures faster there than any
    grouped form: with ~1 tuple per page there is nothing to batch.

    Pool misses materialize through a per-chunk memo
    (``BufferPool.get_pages``'s ``reader`` hook): within one chunk each
    distinct page is read from the heap **at most once**, even when an
    actively evicting pool misses the same page several times. For a
    :class:`~repro.rdbms.storage.VirtualHeapFile` that means each page is
    *synthesized* once per chunk instead of once per miss — the cost that
    dominated the Figure 2 scale sweeps under shuffled access — while the
    pool's hit/miss/eviction counters and LRU state stay exactly the
    per-tuple path's (page content is deterministic per page id, so the
    memo changes which bytes get recomputed, never what they are).
    """
    check_positive_int(chunk_size, "chunk_size")
    m = len(permutation)
    for start in range(0, m, chunk_size):
        yield _gather_chunk(
            heap, pool, stats, permutation[start : start + chunk_size]
        )


def _gather_chunk(
    heap: HeapFile,
    pool: BufferPool,
    stats: OperatorStats,
    ids: np.ndarray,
) -> ChunkItem:
    """Gather one run of ``heap``'s tuple ids into an ``(X, y)`` block.

    The single-chunk core of :func:`_gather_permuted_chunks` — also the
    unit a :class:`ScanCursor` delivers, so a boarded ride and a rotated
    solo replay materialize byte-identical blocks from identical page
    requests. ``heap`` is a table's own heap (permuted ids) or its
    shuffled copy (contiguous ids).
    """
    d = heap.dimension
    per_page = tuples_per_page(d)
    read_page = heap.read_page
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    page_ids, rows = np.divmod(ids, per_page)
    X_block = np.empty((n, d), dtype=np.float64)
    y_block = np.empty(n, dtype=np.float64)

    materialized: dict = {}

    def chunk_reader(page_id: int, _memo=materialized):
        page = _memo.get(page_id)
        if page is None:
            page = read_page(page_id)
            _memo[page_id] = page
        return page

    # Stable sort groups equal pages while preserving visit order
    # inside each group; group starts are the boundaries.
    order = np.argsort(page_ids, kind="stable")
    sorted_pages = page_ids[order]
    boundaries = np.flatnonzero(
        np.r_[True, sorted_pages[1:] != sorted_pages[:-1]]
    )
    boundaries = np.r_[boundaries, n]
    distinct = len(boundaries) - 1

    # Every tuple pins its page, in visit order, through one pool call.
    pages = pool.get_pages(heap, page_ids.tolist(), reader=chunk_reader)
    if n >= _DENSE_GATHER_THRESHOLD * distinct:
        for group in range(distinct):
            members = order[boundaries[group] : boundaries[group + 1]]
            page = pages[members[0]]
            page_rows = rows[members]
            X_block[members] = page.features[page_rows]
            y_block[members] = page.labels[page_rows]
    else:
        for j, (page, row) in enumerate(zip(pages, rows.tolist())):
            X_block[j] = page.features[row]
            y_block[j] = page.labels[row]
    stats.pages_requested += n
    stats.tuples_produced += n
    return X_block, y_block


def _chunk_starts(num_tuples: int, chunk_size: int, start_offset: int = 0) -> list:
    """The canonical chunk-grid start positions for one full epoch,
    rotated to begin at ``start_offset``.

    The canonical grid is fixed by ``chunk_size`` alone — chunk *j*
    covers permutation positions ``[j*chunk_size, min((j+1)*chunk_size,
    m))`` — so every rider of a shared cursor sees the *same* blocks
    regardless of where it boarded; only the visit order rotates.
    ``start_offset`` must therefore sit on the grid.
    """
    check_positive_int(chunk_size, "chunk_size")
    if start_offset and (
        start_offset % chunk_size != 0
        or not 0 <= start_offset < num_tuples
    ):
        raise ValueError(
            f"start_offset {start_offset} is not on the canonical chunk grid "
            f"(multiples of {chunk_size} below {num_tuples})"
        )
    starts = list(range(0, num_tuples, chunk_size))
    pivot = start_offset // chunk_size
    return starts[pivot:] + starts[:pivot]


class ScanCursor:
    """A resumable position on a :class:`ShuffleOnce`'s canonical chunk
    grid — the *elevator* of the shared-cursor design.

    The paper's shared-scan economy is strongest when a table runs **one
    continuous scan loop** that late-arriving jobs board at the cursor's
    current position, ride through the wrap-around, and exit where they
    got on — page cost then scales with concurrent scan loops, not with
    batching windows. The cursor is the mechanism: :meth:`next_chunk`
    delivers the canonical chunk at :attr:`position` (identical block,
    identical page requests, identical pool/LRU effects as an offset-0
    ``scan_chunks`` delivering that chunk) and advances, wrapping to
    position 0 at the end of the permutation.

    Two invariants make boarding bitwise-safe:

    * chunks are always the canonical grid's blocks — boarding rotates
      the order a rider sees them, never their contents or boundaries;
    * boarding happens only *between* chunks, so a rider's boarding
      offset is a grid position and each of its epochs spans exactly
      ``num_tuples`` tuples, ending back at its boarding chunk.

    ``park()`` rewinds to position 0 when a scan loop drains, so the
    next loop's openers board at 0 and their releases stay
    cache-eligible.
    """

    def __init__(self, shuffle: ShuffleOnce, chunk_size: int):
        self.shuffle = shuffle
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        #: Permutation position of the next chunk's start — always on
        #: the canonical grid.
        self.position = 0
        #: Completed wrap-arounds over the cursor's lifetime.
        self.loops = 0

    @property
    def num_tuples(self) -> int:
        return self.shuffle.table.num_tuples

    def next_chunk(self) -> ChunkItem:
        """Deliver the canonical chunk at :attr:`position` and advance
        (wrapping). Page accounting matches ``scan_chunks`` exactly. The
        first chunk of a permutation may build the shuffled copy (see
        :class:`ShuffleOnce`); a fault while building it raises here."""
        heap, ids = self.shuffle._scan_source()
        m = len(ids)
        start = self.position
        end = min(start + self.chunk_size, m)
        chunk = _gather_chunk(
            heap, self.shuffle.pool, self.shuffle.stats, ids[start:end]
        )
        if end >= m:
            self.position = 0
            self.loops += 1
        else:
            self.position = end
        return chunk

    def park(self) -> None:
        """Rewind to position 0 (called when the scan loop drains)."""
        self.position = 0


class OffsetScanView:
    """A shuffle operator viewed with its epoch rotated to ``start_offset``.

    The *solo-reference twin* of a boarded elevator ride: feeding this
    view through :func:`run_aggregate` delivers the underlying
    :class:`ShuffleOnce`'s canonical chunks starting at the boarding
    offset and wrapping — exactly the stream a rider that boarded a
    :class:`ScanCursor` at that position consumed. Chunked delivery only
    (boarding offsets are positions on a chunk grid; there is no
    per-tuple boarding).
    """

    def __init__(self, source: ShuffleOnce, start_offset: int):
        self.source = source
        self.start_offset = int(start_offset)

    @property
    def stats(self) -> OperatorStats:
        return self.source.stats

    def __iter__(self) -> Iterator[TupleItem]:
        raise TypeError(
            "OffsetScanView is chunked-only: boarding offsets live on a "
            "chunk grid, so pass a chunk_size when running from an offset"
        )

    def scan_chunks(self, chunk_size: int) -> Iterator[ChunkItem]:
        yield from self.source.scan_chunks(
            chunk_size, start_offset=self.start_offset
        )


def run_aggregate(
    source, uda: UDA, *, chunk_size: Optional[int] = None, **initialize_kwargs: Any
) -> Any:
    """Evaluate ``SELECT uda(...) FROM source``: the aggregate pipeline.

    ``chunk_size=None`` streams per-tuple through ``UDA.transition``;
    a positive ``chunk_size`` streams ``source.scan_chunks(chunk_size)``
    blocks through ``UDA.transition_batch`` — same tuples, same order,
    same result, vectorized.
    """
    state = uda.initialize(**initialize_kwargs)
    if chunk_size is None:
        for features, label in source:
            state = uda.transition(state, features, label)
    else:
        for features, labels in source.scan_chunks(chunk_size):
            state = uda.transition_batch(state, features, labels)
    return uda.terminate(state)
