"""Query execution: the shuffle-once scan and aggregate evaluation.

Bismarck drives each SGD epoch with an SQL query of the form::

    SELECT sgd_agg(features, label) FROM dataset ORDER BY RANDOM();

and shuffles only once: it permutes the table one time and replays that
order every epoch. This module provides the corresponding operators:

* :class:`ShuffleOnce` — Bismarck's shuffle-once: one permutation,
  replayed every epoch. A table with more pages than the pool holds is
  scanned from a copy stored in permutation order, so each page misses
  once per epoch; a table that fits is read in place;
* :class:`ScanCursor` — a resumable position on that replay, the shared
  scan loop the training service's flights ride;
* :func:`run_aggregate` — fold an operator's stream through a UDA.

Operators expose the counters the cost model charges: tuples produced,
pages requested, comparison work for the shuffle.

One chunked stream
------------------

Every scan delivers ``(X_block, y_block)`` array pairs of up to
``chunk_size`` rows (:data:`DEFAULT_CHUNK_SIZE` unless the caller picks
one), which feed ``UDA.transition_batch``. Chunk *j* covers permutation
positions ``[j*chunk_size, (j+1)*chunk_size)``. Each chunk pins its
tuples' pages through one ``BufferPool.get_pages`` call, one page
request per tuple in visit order, so ``OperatorStats`` and the pool's
hit/miss/eviction counters do not depend on the chunk size. The SGD
aggregate steps at mini-batch boundaries, never at chunk boundaries, so
the chunk size moves no step either; it moves a model only through the
summation order inside a mini-batch that spans two chunks (PSGD's
``execution="scalar"`` loop is the oracle, at ``atol=1e-12``). Riders
that must agree bitwise — a service flight and its solo reference —
use the same chunk size.

Storage-agnostic by construction
--------------------------------

Scans never read a page directly: every page a chunk touches is pinned
via ``BufferPool.get_pages``, and every heap speaks the same
``HeapFile`` protocol with the same :func:`tuples_per_page` page grid.
A chunk's rows come from those pinned pages, or — for a heap whose pages
are windows on arrays it holds (``HeapFile.backing_arrays``) — from
those arrays, once the pins are done; either way the bytes are the
same. The one direct read is :class:`ShuffleOnce`'s one-off build of a
shuffled copy (``HeapFile.clustered``), which moves no pool counter.
That is what lets a :class:`~repro.rdbms.storage.SQLiteHeapFile` (real
pages on real disk, WAL-mode reads) slot under these operators
unchanged: the scan order, the chunk grid, the page-request counters,
and therefore the released weights are all bitwise-identical to an
in-memory heap holding the same tuples. Pages read from real storage may
be backed by read-only buffers — operators copy rows into fresh blocks
and never write through a page or into a heap's arrays, so the
distinction is invisible here.
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

#: A chunk stream item: (features block, labels block), up to chunk_size rows.
ChunkItem = Tuple[np.ndarray, np.ndarray]

#: Rows per chunk when the caller names none: ``run_sgd``'s default and
#: the training service's scan grid.
DEFAULT_CHUNK_SIZE = 256


@dataclass
class OperatorStats:
    """Work counters for one operator execution."""

    tuples_produced: int = 0
    pages_requested: int = 0
    shuffle_sorted_tuples: int = 0


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
    depend on the choice; only the hit/miss/eviction counters do. How a
    chunk's rows are copied depends only on the heap read (see
    :func:`_gather_chunk`): one fancy index on an in-memory heap's
    arrays, the table's or its copy's, or one slice per page run of any
    other heap — for the SQLite copy, a few runs of a page each. The
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

    def scan_chunks(self, chunk_size: int, start_offset: int = 0) -> Iterator[ChunkItem]:
        """Replay the stored permutation as ``(X_block, y_block)`` arrays:
        one ``get_pages`` call per chunk, one page request per tuple (see
        :func:`_gather_chunk`).

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


def _gather_chunk(
    heap: HeapFile,
    pool: BufferPool,
    stats: OperatorStats,
    ids: np.ndarray,
) -> ChunkItem:
    """Gather one chunk of ``heap``'s tuple ids into an ``(X, y)`` block.

    The unit every scan delivers — :meth:`ShuffleOnce.scan_chunks` and
    :meth:`ScanCursor.next_chunk` alike — so a boarded ride and a rotated
    solo replay materialize byte-identical blocks from identical page
    requests. ``heap`` is a table's own heap (permuted ids) or its
    shuffled copy (contiguous ids).

    Every tuple pins its page through the buffer pool in visit order —
    one ``get_pages`` call per chunk, one page request per tuple — so
    ``OperatorStats``, the pool's hit/miss/eviction counters and its LRU
    recency state are those of pinning each tuple's page in turn, in
    every regime, resident or thrashing, whatever the chunk size (the
    tests in ``tests/test_rdbms_engine.py`` and
    ``tests/test_multimodel_equivalence.py`` lock this in).

    Only the row copies depend on the heap, and they copy bytes, so the
    block is the same whichever way it is built:

    * a heap whose pages are windows on arrays it holds
      (:meth:`~repro.rdbms.storage.HeapFile.backing_arrays`: an in-memory
      table or its scan-order copy) gives the block as one fancy index
      on those arrays, once the pins are done;
    * any other heap (SQLite, virtual, the latency and fault wrappers)
      copies from its pinned pages, one slice per *run*: a maximal
      stretch of consecutive tuple ids on one page, found from the ids
      themselves (a run breaks where the next id is not this one plus
      one, or opens a page). A chunk of a scan-order copy is a few runs
      of a page each; a permuted chunk over many pages is mostly runs of
      one tuple, each a one-row slice.

    The block is always freshly allocated, C-contiguous float64 — never
    a view into a heap.

    Pool misses materialize through a per-chunk memo
    (``BufferPool.get_pages``'s ``reader`` hook): within one chunk each
    distinct page is read from the heap **at most once**, even when an
    actively evicting pool misses the same page several times. For a
    :class:`~repro.rdbms.storage.VirtualHeapFile` that means each page is
    *synthesized* once per chunk instead of once per miss — the cost that
    dominated the Figure 2 scale sweeps under shuffled access — while the
    pool's counters and LRU state stay those of the page-by-page pins
    (page content is deterministic per page id, so the memo changes which
    bytes get recomputed, never what they are).
    """
    d = heap.dimension
    read_page = heap.read_page
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    page_ids, rows = np.divmod(ids, tuples_per_page(d))

    materialized: dict = {}

    def chunk_reader(page_id: int, _memo=materialized):
        page = _memo.get(page_id)
        if page is None:
            page = read_page(page_id)
            _memo[page_id] = page
        return page

    # Every tuple pins its page, in visit order, through one pool call.
    pages = pool.get_pages(heap, page_ids.tolist(), reader=chunk_reader)
    stats.pages_requested += n
    stats.tuples_produced += n
    arrays = heap.backing_arrays()
    if arrays is not None:
        features, labels = arrays
        return features[ids], labels[ids]
    X_block = np.empty((n, d), dtype=np.float64)
    y_block = np.empty(n, dtype=np.float64)
    breaks = np.flatnonzero((np.diff(ids) != 1) | (rows[1:] == 0)) + 1
    bounds = [0, *breaks.tolist(), n]
    row_list = rows.tolist()
    for start, end in zip(bounds, bounds[1:]):
        page = pages[start]
        row = row_list[start]
        stop = row + end - start
        X_block[start:end] = page.features[row:stop]
        y_block[start:end] = page.labels[row:stop]
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


def run_aggregate(
    source: ShuffleOnce,
    uda: UDA,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    **initialize_kwargs: Any,
) -> Any:
    """Evaluate ``SELECT uda(...) FROM source``: the aggregate pipeline.

    Streams ``source.scan_chunks(chunk_size)`` blocks through
    ``UDA.transition_batch`` between ``initialize(**initialize_kwargs)``
    and ``terminate``.
    """
    state = uda.initialize(**initialize_kwargs)
    for features, labels in source.scan_chunks(chunk_size):
        state = uda.transition_batch(state, features, labels)
    return uda.terminate(state)
