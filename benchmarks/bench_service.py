"""Service-level benchmark: one shared scan flight vs one scan per job, sync vs async.

The shared-scan scheduler's win is I/O amortization: a window of K jobs
on one table flies as one scan and costs one job's page requests
instead of K. This bench measures that on the standard service shape —
**32 concurrent jobs on one table** — against the same service claiming
one job per window (``batching_window=1``: one scan per job), plus
wall-clock jobs/sec for both, and it gates CI on the structural claim:

* ``python benchmarks/bench_service.py --gate`` **exits 1 unless the
  shared flight makes at least 3x fewer page requests** than one scan
  per job for the same 32-job workload (the measured ratio is 32x: one
  shared scan vs 32 scans), and unless every shared job's weights are
  bitwise-identical to its one-scan-per-job twin's.

* ``--async`` benchmarks the background dispatch loop: submit latency
  (admission only — never blocks on a scan) vs drain throughput with
  4 workers, plus the cross-drain result cache (resubmitting the whole
  workload must cost 0 pages and return bitwise-identical weights).

* ``--parallel`` benchmarks **per-table engine domains**: the same
  2-table workload on 2 workers, with each table's heap wrapped in a
  :class:`~repro.rdbms.storage.LatencyHeapFile` (page fetches cost real,
  GIL-releasing wall-clock — the disk regime) and an undersized buffer
  pool so every scan pays I/O. The gate **exits 1 unless the per-table
  configuration is >= 1.5x faster wall-clock than the global-engine-lock
  configuration** (``parallel_scans=False``), unless every job's weights
  are bitwise-identical to the synchronous 1-worker drain, and unless
  every job's recorded page count equals its solo run's — cross-table
  concurrency must be invisible to everything but the clock.

* ``--cursor`` benchmarks **elevator (shared-cursor) boarding** against
  window-boundary batching on a sustained-arrival workload: late jobs
  with mixed batch sizes arrive while the opener's scan is mid-flight
  (held there by a gated loss, so the scenario is deterministic); window
  batching flies them as one more flight once the opener's lands. The
  gate **exits 1 unless boarding is >= 1.5x cheaper on page requests**,
  unless every late job really boarded (``boarding_offset > 0``), and
  unless every boarded release is bitwise-identical to its solo
  ``run_sgd(start_offset=...)`` reference.

* ``--observability`` benchmarks the telemetry layer's cost: the same
  shared-flight drain with the live metrics registry + traces vs
  ``obs.disabled()`` (the no-op twin). It times 192 pairs of fresh
  drains, one per arm, alternating which arm drains first, and gates on
  the median over pairs of the instrumented-over-disabled ratio. It
  **exits 1 unless the instrumented drains are within 5% wall-clock of
  the disabled ones** and the weights are bitwise-identical —
  telemetry reads clocks and counters only, never the training path.
  With ``--report`` it also writes ``metrics-dump.prom`` /
  ``metrics-dump.json`` next to the report (the CI artifact).

* ``--disk`` re-proves the shared-scan claims on **real storage**: the
  bench table bulk-loaded into a SQLite-WAL heap file, so every pool
  miss is an actual database read. The gate **exits 1 unless the shared
  flight still makes >= 3x fewer page requests than one scan per job on
  real I/O**, unless shared == per-job bitwise on the SQLite backend,
  and unless the SQLite-backed release is bitwise-identical (atol=0) to
  the in-memory release — storage must be invisible to the weights. Its
  **thrash arm** flies the same jobs with the SQLite table behind a pool
  a quarter of its size, so the flight scans the table's shuffled copy:
  the gate also **exits 1 unless that flight's pool misses are exactly
  pages x loops** (each page read once per loop) and unless its releases
  are bitwise the in-memory ones. A warm-pool vs cold-pool full-table
  sweep is printed as a note.

* ``--queue`` prints the submit-latency note at 10^4 queued jobs (p50 /
  p99 / max) — informational, recording the insert-sorted queue's
  admission-lock cost; it never gates.

* ``--http`` benchmarks the ``repro-api/v2`` front-end against the
  in-process verbs on twin services: per-submit latency through a live
  socket (stdlib ``ThreadingHTTPServer`` + ``http.client`` keep-alive
  client) and end-to-end jobs/sec with workers draining behind both
  transports
  (the median, over 16 alternating fresh-twin pairs, of the per-pair
  throughput ratio). The gate **exits 1 unless HTTP submit p99 <= 50
  ms**, unless HTTP-side sustained throughput is **>= 0.5x the
  in-process twin's**,
  and unless every HTTP-submitted release is bitwise-identical to its
  in-process twin. The full shape adds the 10^4-queued-jobs HTTP
  submit-latency note (informational, mirrors ``--queue``).

* ``--durability`` prints the per-window autosave scaling note: one
  window's append-only log events (append + fsync) vs a full registry
  snapshot, at growing history sizes — the WAL rewrite's O(1)-per-window
  claim, made measurable. Informational, never gates.

* ``--smoke`` shrinks the workload for CI (12 jobs, m=600) while
  keeping every gate assert — page ratio >= 3x, bitwise equality, and
  the >= 1.5x scan-overlap speedup are structural, not scale-dependent.

* ``--report PATH`` merges per-gate summaries (value/floor/passed) into
  a JSON file at any shape — what CI uploads as an artifact and renders
  into the step summary.

Timings and page counts append to ``BENCH_hotloops.json`` under the
``"service"``, ``"service_async"``, ``"service_parallel"``,
``"service_wal"``, ``"service_disk"``, and ``"service_http"`` keys
(full shape only),
extending the machine-readable
perf trajectory (scalar → vectorized → fused → shared-scan service →
async service → cross-table parallel service → crash-safe WAL service).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import time
import zlib
from typing import Optional

# Direct script execution (`python benchmarks/bench_service.py`) puts only
# benchmarks/ on sys.path; make the package, tests.conftest, and the
# sibling bench module importable the same way conftest.py does.
_here = pathlib.Path(__file__).resolve().parent
for _path in (str(_here.parent / "src"), str(_here.parent), str(_here)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np

from bench_hotloops import _write_results, write_report
from repro import obs
from repro.core.mechanisms import mechanism_for
from repro.core.sensitivity import sensitivity_for_schedule
from repro.optim.losses import LogisticLoss
from repro.rdbms.bismarck import BismarckSession
from repro.rdbms.storage import LatencyHeapFile, MaterializedHeapFile
from repro.rdbms.uda import SGDUDA
from repro.service import JobStatus, TrainingService
from tests.conftest import make_binary_data

#: The standard service shape: 32 concurrent jobs on one m x d table.
JOBS, M, D = 32, 5000, 50
PASSES, BATCH = 2, 50
EPS = 0.05
WORKERS = 4

#: --smoke shrinks to this (the page-ratio and bitwise gates are
#: structural, so they hold at any shape that still shares a window).
SMOKE_JOBS, SMOKE_M, SMOKE_D = 12, 600, 20

#: --gate fails below this per-job-over-shared page-request ratio.
PAGE_RATIO_FLOOR = 3.0

#: The --parallel shape: 2 workers x 2 tables, each table latency-backed
#: (simulated disk; the sleep releases the GIL, so overlapped scans
#: really overlap) behind a 1-page buffer-pool domain (thrash regime —
#: every scan pays I/O, like the paper's larger-than-memory runs).
PAR_TABLES, PAR_WORKERS, PAR_JOBS_PER_TABLE = 2, 2, 8
PAR_M, PAR_D = 1500, 20
PAR_PAGE_LATENCY = 0.0005
SMOKE_PAR_M, SMOKE_PAR_LATENCY = 600, 0.001

#: --gate --parallel fails below this per-table-over-global-lock
#: wall-clock speedup at 2 workers x 2 tables.
PARALLEL_SPEEDUP_FLOOR = 1.5


def _set_shape(jobs: int, m: int, d: int) -> None:
    global JOBS, M, D
    JOBS, M, D = jobs, m, d


def _set_parallel_shape(m: int, latency: float) -> None:
    global PAR_M, PAR_PAGE_LATENCY
    PAR_M, PAR_PAGE_LATENCY = m, latency


def _build_service(
    window: Optional[int] = None, workers: int = 1, metrics=None
) -> TrainingService:
    """The standard bench service; ``window=1`` gives every job its own
    scan (the reference arm), the default shares one flight per JOBS."""
    X, y = make_binary_data(M, D, seed=77)
    service = TrainingService(
        scan_seed=11, batching_window=window or JOBS, workers=workers,
        metrics=metrics,
    )
    service.register_table("bench", X, y)
    # Room for the workload twice over: the async bench resubmits it to
    # measure cache hits (which must spend nothing — the slack proves it).
    service.open_budget("bench-tenant", "bench", 2 * JOBS * EPS + 1e-9)
    return service


def _submit_workload_one(service: TrainingService, j: int):
    lambdas = np.logspace(-4, -1, 8)
    return service.submit(
        "bench-tenant",
        "bench",
        LogisticLoss(regularization=float(lambdas[j % len(lambdas)])),
        epsilon=EPS,
        passes=PASSES,
        batch_size=BATCH,
        seed=7000 + j,
    )


def _submit_workload(service: TrainingService) -> list:
    return [_submit_workload_one(service, j) for j in range(JOBS)]


def _run(window: Optional[int] = None) -> dict:
    service = _build_service(window)
    records = _submit_workload(service)
    pages_before = service.page_reads
    start = time.perf_counter()
    service.drain()
    elapsed = time.perf_counter() - start
    pages = service.page_reads - pages_before
    assert all(record.status is JobStatus.COMPLETED for record in records)
    return {
        "mode": "per-job" if window == 1 else "shared",
        "jobs": JOBS,
        "seconds": elapsed,
        "jobs_per_second": JOBS / elapsed,
        "pages": pages,
        "pages_per_job": pages / JOBS,
        "models": np.stack([record.model for record in records]),
    }


def bench_service(gate: bool, write: bool = True, report=None) -> int:
    print(f"service shape: {JOBS} jobs, m={M}, d={D}, b={BATCH}, k={PASSES}")
    shared = _run()
    per_job = _run(window=1)

    bitwise = all(
        np.array_equal(shared["models"][j], per_job["models"][j])
        for j in range(JOBS)
    )
    ratio = per_job["pages"] / shared["pages"]
    single_job_pages = PASSES * M

    for row in (shared, per_job):
        print(
            f"{row['mode']:>10}: {row['seconds'] * 1e3:8.1f} ms"
            f"   {row['jobs_per_second']:7.1f} jobs/s"
            f"   {row['pages']:>7} pages ({row['pages_per_job']:.0f}/job)"
        )
    print(f"page ratio:   {ratio:6.1f}x fewer requests shared"
          f"  (gate: >= {PAGE_RATIO_FLOOR}x)")
    print(f"one job alone: {single_job_pages} pages "
          f"-> shared window costs {shared['pages'] / single_job_pages:.2f}x that")
    print(f"bitwise shared == per-job: {bitwise}")

    if write:
        _write_results(
            service={
                "jobs": JOBS,
                "fused_s": shared["seconds"],
                "sequential_s": per_job["seconds"],
                "fused_jobs_per_s": shared["jobs_per_second"],
                "sequential_jobs_per_s": per_job["jobs_per_second"],
                "fused_pages": shared["pages"],
                "sequential_pages": per_job["pages"],
                "page_ratio": ratio,
                "single_job_pages": single_job_pages,
                "bitwise_equal": bitwise,
            }
        )

    if report is not None:
        write_report(
            report,
            shared_scan_pages={
                "metric": f"page-request ratio, one scan per job over one "
                f"shared flight ({JOBS} jobs, one table)",
                "value": ratio,
                "floor": PAGE_RATIO_FLOOR,
                "passed": bool(ratio >= PAGE_RATIO_FLOOR and bitwise),
                "bitwise_equal": bitwise,
                "shape": {"m": M, "d": D, "jobs": JOBS},
            },
        )

    if gate and (ratio < PAGE_RATIO_FLOOR or not bitwise):
        if ratio < PAGE_RATIO_FLOOR:
            print(f"FAIL: shared flight below {PAGE_RATIO_FLOOR}x fewer pages")
        if not bitwise:
            print("FAIL: shared weights diverged from one-scan-per-job twins")
        return 1
    print("PASS")
    return 0


def bench_async(gate: bool, write: bool = True, report=None) -> int:
    """Submit-latency vs drain-throughput with the background loop, plus
    the zero-cost cache-hit replay. Asserted invariants double as the
    gate: async weights bitwise-equal to the synchronous drain, cache
    replay charges 0 pages."""
    print(f"\nasync service: {JOBS} jobs, {WORKERS} workers")
    reference = _run()  # the synchronous shared drain

    service = _build_service(workers=WORKERS)
    service.start()
    submit_seconds = []
    start = time.perf_counter()
    records = []
    for j in range(JOBS):
        t0 = time.perf_counter()
        records.append(_submit_workload_one(service, j))
        submit_seconds.append(time.perf_counter() - t0)
    service.drain()
    drain_elapsed = time.perf_counter() - start
    bitwise = all(
        np.array_equal(records[j].model, reference["models"][j])
        for j in range(JOBS)
    )

    # The cross-drain cache: the same workload again is free.
    pages_before = service.page_reads
    t0 = time.perf_counter()
    replays = _submit_workload(service)
    cache_elapsed = time.perf_counter() - t0
    cache_pages = service.page_reads - pages_before
    cached = all(record.dispatch == "cached" for record in replays)
    service.stop()

    print(f"submit latency : max {max(submit_seconds) * 1e3:8.3f} ms, "
          f"mean {np.mean(submit_seconds) * 1e3:.3f} ms (admission only)")
    print(f"drain          : {drain_elapsed * 1e3:8.1f} ms submit->quiescent "
          f"({JOBS / drain_elapsed:.1f} jobs/s, "
          f"sync was {reference['jobs_per_second']:.1f})")
    print(f"cache replay   : {JOBS} jobs in {cache_elapsed * 1e3:8.2f} ms, "
          f"{cache_pages} pages ({'all cached' if cached else 'MISSES'})")
    print(f"bitwise async == sync per job: {bitwise}")

    if write:
        _write_results(
            service_async={
                "jobs": JOBS,
                "workers": WORKERS,
                "submit_latency_max_s": max(submit_seconds),
                "submit_latency_mean_s": float(np.mean(submit_seconds)),
                "drain_s": drain_elapsed,
                "jobs_per_s": JOBS / drain_elapsed,
                "sync_jobs_per_s": reference["jobs_per_second"],
                "cache_replay_s": cache_elapsed,
                "cache_replay_pages": cache_pages,
                "bitwise_equal_to_sync": bitwise,
            }
        )

    if report is not None:
        write_report(
            report,
            async_and_cache={
                "metric": "async bitwise == sync AND cache replay pages == 0",
                "value": float(cache_pages),
                "floor": 0.0,
                "passed": bool(bitwise and cached and cache_pages == 0),
                "bitwise_equal": bitwise,
                "all_cached": cached,
                "shape": {"m": M, "d": D, "jobs": JOBS, "workers": WORKERS},
            },
        )

    if gate and not (bitwise and cached and cache_pages == 0):
        if not bitwise:
            print("FAIL: async weights diverged from the synchronous drain")
        if not cached or cache_pages != 0:
            print("FAIL: cache replay was not free (pages or misses)")
        return 1
    print("PASS")
    return 0


# -- the per-table parallel-dispatch gate --------------------------------------


def _build_parallel_service(workers: int, parallel_scans: bool) -> TrainingService:
    service = TrainingService(
        scan_seed=11,
        batching_window=PAR_JOBS_PER_TABLE,
        workers=workers,
        parallel_scans=parallel_scans,
        buffer_pool_pages=1,
    )
    for t in range(PAR_TABLES):
        X, y = make_binary_data(PAR_M, PAR_D, seed=50 + t)
        heap = LatencyHeapFile(MaterializedHeapFile(X, y), PAR_PAGE_LATENCY)
        service.register_table(f"par{t}", heap=heap)
        service.open_budget(
            "bench-tenant", f"par{t}", PAR_JOBS_PER_TABLE * EPS + 1e-9
        )
    return service


def _submit_parallel_workload(service: TrainingService) -> list:
    lambdas = np.logspace(-4, -1, PAR_JOBS_PER_TABLE)
    records = []
    for j in range(PAR_JOBS_PER_TABLE):
        for t in range(PAR_TABLES):
            records.append(
                service.submit(
                    "bench-tenant",
                    f"par{t}",
                    LogisticLoss(regularization=float(lambdas[j])),
                    epsilon=EPS,
                    passes=PASSES,
                    batch_size=BATCH,
                    seed=8000 + 100 * t + j,
                )
            )
    return records


def _run_parallel(parallel_scans: bool, workers: int = PAR_WORKERS) -> dict:
    service = _build_parallel_service(workers, parallel_scans)
    start = time.perf_counter()
    records = _submit_parallel_workload(service)
    service.drain()
    elapsed = time.perf_counter() - start
    assert all(record.status is JobStatus.COMPLETED for record in records)
    return {
        "seconds": elapsed,
        "records": records,
        "overlap": service.peak_scan_overlap,
        "weights": {
            (record.job.table, record.job.seed): record.model for record in records
        },
    }


def _solo_pages() -> int:
    """Page requests one job alone records (the attribution reference)."""
    service = _build_parallel_service(workers=1, parallel_scans=True)
    record = service.submit(
        "bench-tenant", "par0", LogisticLoss(regularization=1e-3),
        epsilon=EPS, passes=PASSES, batch_size=BATCH, seed=1,
    )
    service.drain()
    assert record.status is JobStatus.COMPLETED
    return record.group_pages


def bench_parallel(gate: bool, write: bool = True, report=None) -> int:
    """Per-table engine domains vs one global engine lock, wall-clock.

    Same jobs, same tables, same workers — the only difference is the
    unit the scans serialize on. The gate requires the overlap to be
    *visible* (>= 1.5x faster) and *invisible* everywhere else: weights
    bitwise-equal to the synchronous 1-worker drain, and every job's
    recorded page count exactly its solo run's (per-table attribution —
    a concurrent scan on the other table must never leak into it).
    """
    total_jobs = PAR_TABLES * PAR_JOBS_PER_TABLE
    print(
        f"\nparallel dispatch: {PAR_WORKERS} workers x {PAR_TABLES} tables, "
        f"{total_jobs} jobs, m={PAR_M}, d={PAR_D}, "
        f"page latency {PAR_PAGE_LATENCY * 1e3:.1f} ms"
    )
    reference = _run_parallel(parallel_scans=True, workers=1)
    serialized = _run_parallel(parallel_scans=False)
    parallel = _run_parallel(parallel_scans=True)
    speedup = serialized["seconds"] / parallel["seconds"]
    solo = _solo_pages()

    bitwise = all(
        np.array_equal(
            record.model, reference["weights"][(record.job.table, record.job.seed)]
        )
        for record in parallel["records"] + serialized["records"]
    )
    pages_exact = all(
        record.group_pages == solo
        for record in parallel["records"] + serialized["records"]
    )

    print(f"global lock    : {serialized['seconds'] * 1e3:8.1f} ms "
          f"(peak overlap {serialized['overlap']})")
    print(f"per-table locks: {parallel['seconds'] * 1e3:8.1f} ms "
          f"(peak overlap {parallel['overlap']})")
    print(f"speedup        : {speedup:6.2f}x  "
          f"(gate: >= {PARALLEL_SPEEDUP_FLOOR}x)")
    print(f"pages per job  : solo {solo}; all jobs identical: {pages_exact}")
    print(f"bitwise parallel == sync per job: {bitwise}")

    if write:
        _write_results(
            service_parallel={
                "tables": PAR_TABLES,
                "workers": PAR_WORKERS,
                "jobs": total_jobs,
                "page_latency_s": PAR_PAGE_LATENCY,
                "global_lock_s": serialized["seconds"],
                "per_table_s": parallel["seconds"],
                "speedup": speedup,
                "peak_overlap": parallel["overlap"],
                "solo_pages": solo,
                "pages_exact": pages_exact,
                "bitwise_equal_to_sync": bitwise,
            }
        )
    if report is not None:
        write_report(
            report,
            parallel_dispatch={
                "metric": "wall-clock speedup, per-table engine domains over "
                f"global lock ({PAR_WORKERS} workers x {PAR_TABLES} tables)",
                "value": speedup,
                "floor": PARALLEL_SPEEDUP_FLOOR,
                "passed": bool(
                    speedup >= PARALLEL_SPEEDUP_FLOOR and bitwise and pages_exact
                ),
                "bitwise_equal": bitwise,
                "pages_exact": pages_exact,
                "peak_overlap": parallel["overlap"],
                "shape": {"m": PAR_M, "d": PAR_D, "jobs": total_jobs},
            },
        )

    if gate and not (speedup >= PARALLEL_SPEEDUP_FLOOR and bitwise and pages_exact):
        if speedup < PARALLEL_SPEEDUP_FLOOR:
            print(f"FAIL: cross-table overlap below {PARALLEL_SPEEDUP_FLOOR}x")
        if not bitwise:
            print("FAIL: parallel weights diverged from the synchronous drain")
        if not pages_exact:
            print("FAIL: per-table page attribution drifted from the solo run")
        return 1
    print("PASS")
    return 0


# -- the elevator (shared-cursor) gate -----------------------------------------

#: Late arrivals during the opener's scan, cycling batch sizes. Window
#: batching parks them for the next window — one more flight of 2m pages
#: once the opener's lands — while the elevator boards them all onto the
#: opener's cursor stream.
CUR_LATE_JOBS = 6
CUR_LATE_BATCHES = (10, 50, 100)

#: --gate --cursor fails below this windowed-over-elevator page ratio on
#: the sustained-arrival workload. The measured ratio is ~2x: windowed
#: pays 2 flights of 2m pages, the elevator one cursor stream of
#: 2m + chunk_size plus the last boarder's ride past the opener's.
ELEVATOR_PAGE_FLOOR = 1.5


class _GatedLoss(LogisticLoss):
    """Blocks gradients until released: guarantees the late jobs arrive
    while the opener's scan is genuinely mid-flight, making the boarding
    scenario (and its page counts) deterministic rather than a race."""

    def __init__(self, regularization):
        super().__init__(regularization)
        self.started = threading.Event()
        self.release = threading.Event()

    def batch_gradient(self, w, X_batch, y_batch):
        self.started.set()
        self.release.wait(timeout=60.0)
        return super().batch_gradient(w, X_batch, y_batch)


def _run_cursor(elevator: bool) -> dict:
    """The sustained-arrival script, identical in both modes: one opener
    starts a scan, CUR_LATE_JOBS compatible-on-the-table jobs arrive while
    it runs. Elevator mode boards them on the live cursor; windowed mode
    parks them for the next batching window."""
    X, y = make_binary_data(M, D, seed=77)
    service = TrainingService(
        elevator=elevator, scan_seed=11, batching_window=JOBS, workers=1,
    )
    service.register_table("bench", X, y)
    service.open_budget("bench-tenant", "bench", (1 + CUR_LATE_JOBS) * EPS + 1e-9)
    gate_loss = _GatedLoss(1e-3)
    lambdas = np.logspace(-4, -1, CUR_LATE_JOBS)
    start = time.perf_counter()
    opener = service.submit(
        "bench-tenant", "bench", gate_loss,
        epsilon=EPS, passes=PASSES, batch_size=BATCH, seed=7100,
    )
    service.start()
    assert gate_loss.started.wait(timeout=30.0), "opener scan never started"
    lates = [
        service.submit(
            "bench-tenant", "bench",
            LogisticLoss(regularization=float(lambdas[j])),
            epsilon=EPS, passes=PASSES,
            batch_size=CUR_LATE_BATCHES[j % len(CUR_LATE_BATCHES)],
            seed=7200 + j,
        )
        for j in range(CUR_LATE_JOBS)
    ]
    gate_loss.release.set()
    assert service.loop.wait_quiescent(timeout=300.0)
    elapsed = time.perf_counter() - start
    service.stop()
    records = [opener] + lates
    assert all(record.status is JobStatus.COMPLETED for record in records)
    return {
        "mode": "elevator" if elevator else "windowed",
        "seconds": elapsed,
        "pages": service.page_reads,
        "scans": service.scheduler.table_scans["bench"],
        "boarded": sum(1 for record in lates if record.boarding_offset > 0),
        "records": records,
        "data": (X, y),
    }


def _cursor_reference(record, X, y) -> np.ndarray:
    """Rebuild ``record``'s release solo from its provenance: a fresh
    engine, the service permutation, run_sgd at the recorded boarding
    offset, the job's own noise stream."""
    job = record.job
    session = BismarckSession()
    session.load_table(job.table, X, y)
    shuffle = session.shared_scan(
        job.table,
        random_state=np.random.SeedSequence(
            [11, zlib.crc32(job.table.encode("utf-8"))]
        ),
    )
    schedule, projection, properties = job.candidate.resolve(M)
    sensitivity = sensitivity_for_schedule(
        properties, schedule, M, job.candidate.passes, job.candidate.batch_size
    )
    uda = SGDUDA(job.candidate.loss, schedule, job.candidate.batch_size, projection)
    report = session.run_sgd(
        job.table, uda, epochs=job.candidate.passes, chunk_size=256,
        shuffle=shuffle, start_offset=record.boarding_offset,
    )
    _, noise_rng = job.spawn_streams()
    noise = mechanism_for(job.privacy).sample(
        report.model.shape[0], sensitivity.value, job.privacy, noise_rng
    )
    return report.model + noise


def bench_cursor(gate: bool, write: bool = True, report=None) -> int:
    """Elevator boarding vs window-boundary batching under sustained
    arrivals. The gate requires the elevator to be >= 1.5x cheaper on
    pages, every late job to have actually boarded mid-flight
    (boarding_offset > 0), and every boarded release to be bitwise-equal
    to its solo ``run_sgd(start_offset=...)`` reference."""
    total = 1 + CUR_LATE_JOBS
    print(
        f"\nelevator dispatch: 1 opener + {CUR_LATE_JOBS} late arrivals "
        f"(batch sizes {CUR_LATE_BATCHES}), m={M}, d={D}"
    )
    elevator = _run_cursor(elevator=True)
    windowed = _run_cursor(elevator=False)
    ratio = windowed["pages"] / elevator["pages"]
    X, y = elevator["data"]
    bitwise = all(
        np.array_equal(record.model, _cursor_reference(record, X, y))
        for record in elevator["records"]
    )
    all_boarded = elevator["boarded"] == CUR_LATE_JOBS

    for row in (windowed, elevator):
        print(
            f"{row['mode']:>10}: {row['seconds'] * 1e3:8.1f} ms"
            f"   {row['pages']:>7} pages   {row['scans']} scan(s)"
        )
    print(f"page ratio:   {ratio:6.1f}x fewer requests boarding "
          f"(gate: >= {ELEVATOR_PAGE_FLOOR}x)")
    print(f"late jobs boarded mid-flight: {elevator['boarded']}/{CUR_LATE_JOBS}")
    print(f"bitwise boarded == solo(start_offset): {bitwise}")

    if write:
        _write_results(
            service_elevator={
                "jobs": total,
                "late_jobs": CUR_LATE_JOBS,
                "windowed_pages": windowed["pages"],
                "elevator_pages": elevator["pages"],
                "page_ratio": ratio,
                "windowed_s": windowed["seconds"],
                "elevator_s": elevator["seconds"],
                "boarded": elevator["boarded"],
                "bitwise_equal": bitwise,
            }
        )
    if report is not None:
        write_report(
            report,
            elevator_boarding={
                "metric": "page-request ratio, window batching over elevator "
                f"boarding ({total} jobs, sustained arrivals)",
                "value": ratio,
                "floor": ELEVATOR_PAGE_FLOOR,
                "passed": bool(
                    ratio >= ELEVATOR_PAGE_FLOOR and bitwise and all_boarded
                ),
                "bitwise_equal": bitwise,
                "boarded": elevator["boarded"],
                "shape": {"m": M, "d": D, "jobs": total},
            },
        )

    if gate and not (ratio >= ELEVATOR_PAGE_FLOOR and bitwise and all_boarded):
        if ratio < ELEVATOR_PAGE_FLOOR:
            print(f"FAIL: boarding below {ELEVATOR_PAGE_FLOOR}x fewer pages")
        if not all_boarded:
            print("FAIL: late jobs did not board the running scan")
        if not bitwise:
            print("FAIL: boarded weights diverged from solo offset runs")
        return 1
    print("PASS")
    return 0


# -- the durability (WAL vs snapshot) note -------------------------------------

#: History sizes the durability note samples: the snapshot path rewrites
#: all N records per window, the log path appends one window's events.
WAL_HISTORY_SIZES = (100, 400, 1600)
WAL_WINDOW_EVENTS = 16


def _synthetic_record(j: int, d: int = 8):
    """A terminal record with a realistic payload shape — cheap to mint
    by the thousand, so the note can scale history without training
    thousands of real jobs. It is marked done, as a released record is,
    so its payload carries the weights."""
    from repro.core.bolton import BoltOnCandidate
    from repro.service import JobRecord, TrainingJob

    job = TrainingJob(
        principal="bench-tenant",
        table="bench",
        candidate=BoltOnCandidate(
            loss=LogisticLoss(regularization=1e-3), passes=1, batch_size=50
        ),
        epsilon=EPS,
        job_id=f"wal-{j:06d}",
        arrival=j,
    )
    record = JobRecord(
        job=job, status=JobStatus.COMPLETED, model=np.zeros(d),
        sensitivity=1.0, noise_norm=0.1, dispatch="scan",
        group_size=1, group_pages=10, epochs=1, submitted_at=j,
    )
    record.mark_done()
    return record


def bench_durability(write: bool = True) -> int:
    """Per-window autosave cost: append-only log vs full snapshot.

    The WAL rewrite's claim is O(1) durability per dispatched window —
    the autosave appends and fsyncs the window's events instead of
    re-serializing the whole registry. This times both strategies on the
    same synthetic history at growing sizes and prints the scaling note;
    informational, never a gate (absolute fsync latency flakes on shared
    CI runners).
    """
    import tempfile

    print(f"\ndurability     : {WAL_WINDOW_EVENTS}-event window autosave, "
          f"log append+fsync vs full snapshot")
    rows = []
    for size in WAL_HISTORY_SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            service = TrainingService(workers=1, state_dir=tmp)
            for j in range(size):
                service.registry.add(_synthetic_record(j))
            t0 = time.perf_counter()
            service.save_state()
            snapshot_s = time.perf_counter() - t0
            events = [
                {"event": "record", "record": _synthetic_record(j).payload()}
                for j in range(size, size + WAL_WINDOW_EVENTS)
            ]
            t0 = time.perf_counter()
            for event in events:
                service.wal.append(event)
            service.wal.sync()
            wal_s = time.perf_counter() - t0
            rows.append((size, snapshot_s, wal_s))
            print(f"  history {size:>5}: snapshot {snapshot_s * 1e3:8.2f} ms, "
                  f"log window {wal_s * 1e3:8.2f} ms "
                  f"({snapshot_s / wal_s:6.1f}x)")
    # The headline: snapshot cost grows with history, the log's does not.
    snapshot_growth = rows[-1][1] / rows[0][1]
    wal_growth = rows[-1][2] / rows[0][2]
    print(f"  {WAL_HISTORY_SIZES[0]} -> {WAL_HISTORY_SIZES[-1]} records: "
          f"snapshot cost x{snapshot_growth:.1f}, log window cost "
          f"x{wal_growth:.1f}")
    if write:
        _write_results(
            service_wal={
                "history_sizes": list(WAL_HISTORY_SIZES),
                "window_events": WAL_WINDOW_EVENTS,
                "snapshot_s": [row[1] for row in rows],
                "wal_window_s": [row[2] for row in rows],
                "snapshot_growth": snapshot_growth,
                "wal_window_growth": wal_growth,
            }
        )
    return 0


# -- the queue-scaling note ----------------------------------------------------

QUEUE_JOBS = 10_000


def bench_queue(write: bool = True) -> int:
    """Submit latency with 10^4 jobs piling up in the queue (no workers).

    The queue is kept sorted on insert (bisect), so each claim is one
    O(n) pass and each push O(log n) compares + one shift — the old
    sort-at-pop charged an O(n log n) re-sort to the admission lock that
    submit p99 waits on. This prints the note the ROADMAP records; it is
    informational, not a gate (absolute latency gates flake on shared CI
    runners).
    """
    X, y = make_binary_data(SMOKE_M, SMOKE_D, seed=77)
    service = TrainingService(scan_seed=11, workers=1)
    service.register_table("bench", X, y)
    service.open_budget("bench-tenant", "bench", QUEUE_JOBS * EPS + 1e-9)
    lambdas = np.logspace(-4, -1, 8)
    seconds = np.empty(QUEUE_JOBS)
    for j in range(QUEUE_JOBS):
        t0 = time.perf_counter()
        service.submit(
            "bench-tenant", "bench",
            LogisticLoss(regularization=float(lambdas[j % len(lambdas)])),
            epsilon=EPS, passes=PASSES, batch_size=BATCH,
            priority=j % 4,  # mid-queue inserts, not append-only
            seed=9000 + j,
        )
        seconds[j] = time.perf_counter() - t0
    p50, p99 = np.percentile(seconds, [50, 99])
    print(f"\nqueue scaling  : {QUEUE_JOBS} submits, queue depth 0 -> {QUEUE_JOBS}")
    print(f"submit latency : p50 {p50 * 1e6:7.1f} us, p99 {p99 * 1e6:7.1f} us, "
          f"max {seconds.max() * 1e6:.1f} us (insert-sorted queue)")
    if write:
        _write_results(
            service_queue={
                "queued_jobs": QUEUE_JOBS,
                "submit_p50_s": float(p50),
                "submit_p99_s": float(p99),
                "submit_max_s": float(seconds.max()),
            }
        )
    return 0


# -- the observability-overhead gate -------------------------------------------

#: --gate --observability fails above this instrumented-over-disabled
#: drain wall-clock overhead. The telemetry design budget: every hot-path
#: record is O(1) and per scan/window, never per tuple.
OBS_OVERHEAD_CEILING_PCT = 5.0
#: Pairs of fresh drains (one per arm) behind the gate. A smoke drain
#: lasts ~5 ms and a stall on a shared host can double one; the two
#: drains of a pair run back to back, so their ratio mostly cancels the
#: host's drift, and the median over many pairs ignores the stalls that
#: a sum or a best-of-trials still let decide the gate.
OBS_PAIRS = 192


def _run_obs(metrics) -> dict:
    """One shared-flight synchronous drain of the standard workload under
    the given metrics registry (live or the disabled twin)."""
    service = _build_service(metrics=metrics)
    records = _submit_workload(service)
    start = time.perf_counter()
    service.drain()
    elapsed = time.perf_counter() - start
    assert all(record.status is JobStatus.COMPLETED for record in records)
    return {
        "seconds": elapsed,
        "models": np.stack([record.model for record in records]),
        "service": service,
    }


def bench_observability(gate: bool, write: bool = True, report=None) -> int:
    """Instrumented vs obs.disabled() drain wall-clock.

    Same workload, same seeds — the only difference is whether the
    metrics registry and traces record anything. ``OBS_PAIRS`` pairs of
    fresh drains, one per arm, alternate which arm drains first (so
    neither always pays the first-position cost); the overhead is the
    median over pairs of instrumented / disabled, which must stay under
    ``OBS_OVERHEAD_CEILING_PCT``, with the weights bitwise-equal
    (telemetry must never touch the training path).
    """
    print(f"\nobservability  : {JOBS} jobs, instrumented vs disabled, "
          f"median of {OBS_PAIRS} alternating drain pairs")
    instrumented_s, disabled_s = [], []
    instrumented = disabled_run = None
    for pair in range(OBS_PAIRS):
        if pair % 2:
            instrumented = _run_obs(None)  # the service default: a live registry
            disabled_run = _run_obs(obs.disabled())
        else:
            disabled_run = _run_obs(obs.disabled())
            instrumented = _run_obs(None)
        disabled_s.append(disabled_run["seconds"])
        instrumented_s.append(instrumented["seconds"])
    ratios = np.asarray(instrumented_s) / np.asarray(disabled_s)
    overhead_pct = max(0.0, (float(np.median(ratios)) - 1.0) * 100.0)
    median_base = float(np.median(disabled_s))
    median_inst = float(np.median(instrumented_s))
    bitwise = bool(
        np.array_equal(instrumented["models"], disabled_run["models"])
    )
    service = instrumented["service"]
    traced = all(
        record.trace.names()[-1] == "commit"
        for record in service.loop.finished
    )

    print(f"disabled       : {median_base * 1e3:8.1f} ms per drain (median)")
    print(f"instrumented   : {median_inst * 1e3:8.1f} ms per drain (median)")
    print(f"overhead       : {overhead_pct:6.2f}%  "
          f"(gate: <= {OBS_OVERHEAD_CEILING_PCT}%)")
    print(f"bitwise instrumented == disabled per job: {bitwise}")
    print(f"all records fully traced (admit -> commit): {traced}")

    if write:
        _write_results(
            service_obs={
                "jobs": JOBS,
                "pairs": OBS_PAIRS,
                "disabled_s": median_base,
                "instrumented_s": median_inst,
                "overhead_pct": overhead_pct,
                "bitwise_equal": bitwise,
            }
        )
    if report is not None:
        write_report(
            report,
            service_obs={
                "metric": "telemetry overhead, instrumented over disabled "
                f"drain wall-clock ({JOBS} jobs)",
                "value": overhead_pct,
                "floor": OBS_OVERHEAD_CEILING_PCT,
                "passed": bool(
                    overhead_pct <= OBS_OVERHEAD_CEILING_PCT
                    and bitwise
                    and traced
                ),
                "bitwise_equal": bitwise,
                "all_traced": traced,
                "shape": {"m": M, "d": D, "jobs": JOBS},
            },
        )
        # The exported artifact: both expositions of the instrumented run.
        report_dir = pathlib.Path(report).resolve().parent
        (report_dir / "metrics-dump.prom").write_text(service.metrics())
        (report_dir / "metrics-dump.json").write_text(
            json.dumps(service.metrics(format="json"), indent=1, sort_keys=True)
            + "\n"
        )

    failed = overhead_pct > OBS_OVERHEAD_CEILING_PCT or not bitwise or not traced
    if gate and failed:
        if overhead_pct > OBS_OVERHEAD_CEILING_PCT:
            print(f"FAIL: telemetry overhead above {OBS_OVERHEAD_CEILING_PCT}%")
        if not bitwise:
            print("FAIL: instrumentation changed the released weights")
        if not traced:
            print("FAIL: a terminal record is missing its commit span")
        return 1
    print("PASS")
    return 0


def _build_disk_service(
    window: int, sqlite_path, buffer_pool_pages: int = 65536
) -> TrainingService:
    """The standard bench service, but with the table on real storage:
    the dataset is bulk-loaded into a SQLite-WAL heap and every pool
    miss pays an actual database read."""
    X, y = make_binary_data(M, D, seed=77)
    service = TrainingService(
        scan_seed=11, batching_window=window, workers=1,
        buffer_pool_pages=buffer_pool_pages,
    )
    service.register_table(
        "bench", X, y, backend="sqlite", path=sqlite_path
    )
    service.open_budget("bench-tenant", "bench", 2 * JOBS * EPS + 1e-9)
    return service


def _run_disk(window: int, sqlite_path, buffer_pool_pages: int = 65536) -> dict:
    service = _build_disk_service(window, sqlite_path, buffer_pool_pages)
    heap = service.session.catalog.get("bench").heap
    stats = service.session.pool.stats_for(heap)
    records = _submit_workload(service)
    pages_before, misses_before = service.page_reads, stats.cache_misses
    start = time.perf_counter()
    service.drain()
    elapsed = time.perf_counter() - start
    pages = service.page_reads - pages_before
    assert all(record.status is JobStatus.COMPLETED for record in records)
    return {
        "mode": "per-job" if window == 1 else "shared",
        "seconds": elapsed,
        "pages": pages,
        "misses": stats.cache_misses - misses_before,
        "table_pages": heap.num_pages,
        "models": np.stack([record.model for record in records]),
    }


def bench_disk(gate: bool, write: bool = True, report=None) -> int:
    """The shared-scan claims, re-proven on real I/O.

    Same workload as the base gate, but the table lives in a SQLite-WAL
    heap file: every buffer-pool miss is an actual database read, not an
    array slice or a simulated sleep. Gates (exit 1) on three claims:
    the shared flight still >= PAGE_RATIO_FLOOR x fewer page requests
    than one scan per job on real storage; shared == per-job bitwise on
    the SQLite backend; and the SQLite-backed release is bitwise-identical
    (atol=0) to the in-memory release of the same jobs — storage is
    invisible to the trained weights. The thrash arm repeats the shared
    flight behind a pool a quarter of the table, which scans the table's
    shuffled copy, and gates on two more claims: the flight's pool
    misses are exactly pages x loops (its page requests are loops x m),
    and its releases are bitwise the in-memory ones. Also prints the
    warm-pool vs cold-pool sweep note (informational): the same
    full-table pool scan with every page faulting in from SQLite vs every
    page resident.
    """
    import tempfile

    from repro.rdbms.storage import BufferPool, SQLiteHeapFile, tuples_per_page

    print(f"\ndisk backend: {JOBS} jobs on a SQLite-WAL heap, m={M}, d={D}")
    with tempfile.TemporaryDirectory(prefix="repro-bench-disk-") as tmp:
        tmp = pathlib.Path(tmp)
        shared = _run_disk(JOBS, sqlite_path=tmp / "shared.db")
        per_job = _run_disk(1, sqlite_path=tmp / "per-job.db")
        thrash_pool = max(1, -(-M // tuples_per_page(D)) // 4)
        thrash = _run_disk(JOBS, tmp / "thrash.db", buffer_pool_pages=thrash_pool)
        reference = _run()  # the in-memory twin

        ratio = per_job["pages"] / shared["pages"]
        bitwise_paths = all(
            np.array_equal(shared["models"][j], per_job["models"][j])
            for j in range(JOBS)
        )
        bitwise_backend = all(
            np.array_equal(shared["models"][j], reference["models"][j])
            for j in range(JOBS)
        )
        loops, ragged = divmod(thrash["pages"], M)
        thrash_expected = thrash["table_pages"] * loops
        thrash_exact = ragged == 0 and thrash["misses"] == thrash_expected
        bitwise_thrash = np.array_equal(thrash["models"], reference["models"])

        # Warm vs cold pool, off to the side (a private heap + pool so the
        # sweep never perturbs the gated runs' counters): one full-table
        # scan with every page faulting in from SQLite, then the same scan
        # with every page resident.
        X, y = make_binary_data(M, D, seed=77)
        heap = SQLiteHeapFile.bulk_load(tmp / "sweep.db", X, y)
        pool = BufferPool(capacity_pages=heap.num_pages)
        start = time.perf_counter()
        for _ in pool.scan(heap):
            pass
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in pool.scan(heap):
            pass
        warm_s = time.perf_counter() - start
        heap.close()

    for row in (shared, per_job):
        print(
            f"{row['mode']:>10}: {row['seconds'] * 1e3:8.1f} ms"
            f"   {row['pages']:>7} pages"
        )
    print(f"page ratio:   {ratio:6.1f}x fewer requests shared on real I/O"
          f"  (gate: >= {PAGE_RATIO_FLOOR}x)")
    print(f"bitwise shared == per-job (sqlite):    {bitwise_paths}")
    print(f"bitwise sqlite == in-memory (atol=0):  {bitwise_backend}")
    print(f"thrash arm:   {thrash_pool}-page pool, {thrash['table_pages']}-page "
          f"table: {thrash['misses']} misses over {loops} loops "
          f"(gate: == {thrash_expected}, pages x loops)")
    print(f"bitwise thrash sqlite == in-memory:    {bitwise_thrash}")
    print(f"pool sweep:   cold {cold_s * 1e3:.1f} ms ({heap.num_pages} pages "
          f"from SQLite) vs warm {warm_s * 1e3:.1f} ms (all resident) — "
          f"{cold_s / max(warm_s, 1e-9):.1f}x (informational)")

    if write:
        _write_results(
            service_disk={
                "jobs": JOBS,
                "fused_s": shared["seconds"],
                "sequential_s": per_job["seconds"],
                "fused_pages": shared["pages"],
                "sequential_pages": per_job["pages"],
                "page_ratio": ratio,
                "bitwise_fused_vs_sequential": bitwise_paths,
                "bitwise_sqlite_vs_memory": bitwise_backend,
                "thrash_misses": thrash["misses"],
                "thrash_expected_misses": thrash_expected,
                "bitwise_thrash_vs_memory": bitwise_thrash,
                "cold_sweep_s": cold_s,
                "warm_sweep_s": warm_s,
            }
        )

    if report is not None:
        write_report(
            report,
            disk_backend={
                "metric": f"page-request ratio, one scan per job over one "
                f"shared flight, "
                f"SQLite-WAL heap ({JOBS} jobs, one table)",
                "value": ratio,
                "floor": PAGE_RATIO_FLOOR,
                "passed": bool(
                    ratio >= PAGE_RATIO_FLOOR
                    and bitwise_paths
                    and bitwise_backend
                ),
                "bitwise_fused_vs_sequential": bitwise_paths,
                "bitwise_sqlite_vs_memory": bitwise_backend,
                "cold_sweep_s": cold_s,
                "warm_sweep_s": warm_s,
                "shape": {"m": M, "d": D, "jobs": JOBS},
            },
            disk_thrash={
                "metric": "pool misses of one shared flight over a SQLite-WAL "
                "heap behind a pool a quarter its size; must equal pages x loops",
                "value": thrash["misses"],
                "floor": thrash_expected,
                "passed": bool(thrash_exact and bitwise_thrash),
                "loops": loops,
                "bitwise_thrash_vs_memory": bitwise_thrash,
                "shape": {
                    "m": M, "d": D, "jobs": JOBS,
                    "pages": thrash["table_pages"], "pool_pages": thrash_pool,
                },
            },
        )

    failed = (
        ratio < PAGE_RATIO_FLOOR
        or not bitwise_paths
        or not bitwise_backend
        or not thrash_exact
        or not bitwise_thrash
    )
    if gate and failed:
        if ratio < PAGE_RATIO_FLOOR:
            print(f"FAIL: shared flight below {PAGE_RATIO_FLOOR}x on real I/O")
        if not bitwise_paths:
            print("FAIL: shared weights diverged from per-job on sqlite")
        if not bitwise_backend:
            print("FAIL: sqlite-backed weights diverged from in-memory twins")
        if not thrash_exact:
            print("FAIL: thrash-arm misses are not one per page per loop")
        if not bitwise_thrash:
            print("FAIL: thrash-arm weights diverged from in-memory twins")
        return 1
    print("PASS")
    return 0


# -- the HTTP front-end gate ---------------------------------------------------

#: --gate --http fails above this per-submit p99 through the socket.
#: Loopback + JSON + admission on a kept-alive connection is ~1-2 ms;
#: 50 ms leaves room for noisy shared CI runners. It cannot catch a lost
#: TCP_NODELAY on the server (every kept-alive response then waits ~44
#: ms for a delayed ACK): tests/test_api_http.py pins that with a 20 ms
#: median.
HTTP_SUBMIT_P99_CEILING_S = 0.050

#: --gate --http fails below this HTTP-over-in-process sustained
#: throughput ratio. Submission rides the socket but training dominates
#: the drain, so the front-end must stay within 2x end to end.
HTTP_THROUGHPUT_FLOOR = 0.5

#: Fresh-twin pairs (one drain per transport); the gate reads the median
#: over pairs of in-process / HTTP drain time. A smoke drain is ~15 ms
#: in process, so one stalled drain moved the old best-of-3 ratio by a
#: fifth; the median of back-to-back pairs does not move with it.
HTTP_PAIRS = 16

#: Passes for the throughput phase's jobs. The ratio compares transports
#: on a workload where training dominates (the serving regime the
#: front-end exists for); at the smoke shape the standard 2-pass jobs
#: finish in ~1 ms each, which would gate on socket overhead alone.
HTTP_DRAIN_PASSES = 4 * PASSES


def _http_tokens() -> dict:
    return {"bench-token": "bench-tenant"}


def _drain_workload(service, submit_one, jobs: int, submitters: int = 1):
    """Submit ``jobs`` jobs via ``submit_one``, then drain with workers;
    returns (wall_seconds, [records in submission-index order]).

    ``submitters`` > 1 fans the submission stream over that many
    threads — the natural load shape for the HTTP transport (that is
    what ``ThreadingHTTPServer`` is for), and a no-op-cost choice for
    the ~20 us in-process verb.
    """
    submitted = [None] * jobs
    start = time.perf_counter()
    if submitters <= 1:
        for j in range(jobs):
            submitted[j] = submit_one(j)
    else:
        def run(indices):
            for j in indices:
                submitted[j] = submit_one(j)

        threads = [
            threading.Thread(target=run, args=(range(k, jobs, submitters),))
            for k in range(submitters)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    service.drain()
    elapsed = time.perf_counter() - start
    return elapsed, submitted


def bench_http(gate: bool, write: bool = True, report=None) -> int:
    from repro.api import ServiceApiServer, ServiceClient

    print(f"\nhttp api shape: {JOBS} jobs over repro-api/v2 "
          "(ThreadingHTTPServer + http.client keep-alive client, loopback)")

    # -- submit latency: admission through the socket, no workers ------
    lat_service = _build_service()
    with ServiceApiServer(lat_service, _http_tokens()) as lat_server:
        lat_server.start()
        client = ServiceClient(lat_server.url, token="bench-token")
        lambdas = np.logspace(-4, -1, 8)
        seconds = np.empty(JOBS)
        for j in range(JOBS):
            t0 = time.perf_counter()
            client.submit(
                "bench-tenant", "bench",
                LogisticLoss(regularization=float(lambdas[j % len(lambdas)])),
                epsilon=EPS, passes=PASSES, batch_size=BATCH, seed=7000 + j,
            )
            seconds[j] = time.perf_counter() - t0
    p50, p99 = np.percentile(seconds, [50, 99])
    print(f"submit latency: p50 {p50 * 1e3:6.2f} ms, p99 {p99 * 1e3:6.2f} ms, "
          f"max {seconds.max() * 1e3:.2f} ms "
          f"(gate: p99 <= {HTTP_SUBMIT_P99_CEILING_S * 1e3:.0f} ms)")

    # -- end-to-end throughput: twin services, workers draining, the
    # median over HTTP_PAIRS fresh-twin pairs of the per-pair ratio (one
    # drain per transport, alternating which goes first).
    def inproc_drain():
        service = _build_service(workers=WORKERS)
        return _drain_workload(
            service,
            lambda j: service.submit(
                "bench-tenant", "bench",
                LogisticLoss(regularization=float(lambdas[j % len(lambdas)])),
                epsilon=EPS, passes=HTTP_DRAIN_PASSES, batch_size=BATCH,
                seed=7000 + j,
            ),
            JOBS,
        )

    def http_drain():
        service = _build_service(workers=WORKERS)
        with ServiceApiServer(service, _http_tokens()) as server:
            client = ServiceClient(server.url, token="bench-token")
            seconds, views = _drain_workload(
                service,
                lambda j: client.submit(
                    "bench-tenant", "bench",
                    LogisticLoss(
                        regularization=float(lambdas[j % len(lambdas)])
                    ),
                    epsilon=EPS, passes=HTTP_DRAIN_PASSES,
                    batch_size=BATCH, seed=7000 + j,
                ),
                JOBS,
                submitters=WORKERS,
            )
            models = [client.model(view.job_id) for view in views]
        return seconds, models

    inproc_times, http_times = [], []
    bitwise = True
    for pair in range(HTTP_PAIRS):
        if pair % 2:
            http_s, http_models = http_drain()
            inproc_s, inproc_records = inproc_drain()
        else:
            inproc_s, inproc_records = inproc_drain()
            http_s, http_models = http_drain()
        inproc_times.append(inproc_s)
        http_times.append(http_s)
        # The conformance claim, re-proven at bench shape: the socket is
        # invisible to the released bits.
        bitwise = bitwise and all(
            np.array_equal(model, record.model)
            for model, record in zip(http_models, inproc_records)
        )
    throughput_ratio = float(
        np.median(np.asarray(inproc_times) / np.asarray(http_times))
    )
    inproc_s = float(np.median(inproc_times))
    http_s = float(np.median(http_times))
    inproc_jps = JOBS / inproc_s
    http_jps = JOBS / http_s
    print(f"   in-process: {inproc_s * 1e3:8.1f} ms   {inproc_jps:7.1f} jobs/s (median)")
    print(f"         http: {http_s * 1e3:8.1f} ms   {http_jps:7.1f} jobs/s (median)")
    print(f"throughput:   {throughput_ratio:6.2f}x in-process end to end, median "
          f"of {HTTP_PAIRS} pairs (gate: >= {HTTP_THROUGHPUT_FLOOR}x)")
    print(f"bitwise http == in-process per job: {bitwise}")

    # -- full shape only: the 10^4-queued-jobs note over the socket ----
    queue_note = None
    if write:
        q_X, q_y = make_binary_data(SMOKE_M, SMOKE_D, seed=77)
        q_service = TrainingService(scan_seed=11, workers=1)
        q_service.register_table("bench", q_X, q_y)
        q_service.open_budget("bench-tenant", "bench", QUEUE_JOBS * EPS + 1e-9)
        with ServiceApiServer(q_service, _http_tokens()) as q_server:
            q_server.start()
            q_client = ServiceClient(q_server.url, token="bench-token")
            q_seconds = np.empty(QUEUE_JOBS)
            for j in range(QUEUE_JOBS):
                t0 = time.perf_counter()
                q_client.submit(
                    "bench-tenant", "bench",
                    LogisticLoss(
                        regularization=float(lambdas[j % len(lambdas)])
                    ),
                    epsilon=EPS, passes=PASSES, batch_size=BATCH,
                    priority=j % 4, seed=9000 + j,
                )
                q_seconds[j] = time.perf_counter() - t0
        q_p50, q_p99 = np.percentile(q_seconds, [50, 99])
        queue_note = {
            "queued_jobs": QUEUE_JOBS,
            "submit_p50_s": float(q_p50),
            "submit_p99_s": float(q_p99),
            "submit_max_s": float(q_seconds.max()),
        }
        print(f"queue note:   {QUEUE_JOBS} http submits, "
              f"p50 {q_p50 * 1e3:.2f} ms, p99 {q_p99 * 1e3:.2f} ms, "
              f"max {q_seconds.max() * 1e3:.2f} ms (informational)")

    if write:
        _write_results(
            service_http={
                "jobs": JOBS,
                "submit_p50_s": float(p50),
                "submit_p99_s": float(p99),
                "inproc_jobs_per_s": inproc_jps,
                "http_jobs_per_s": http_jps,
                "throughput_ratio": throughput_ratio,
                "bitwise_equal": bitwise,
                "queued": queue_note,
            }
        )

    if report is not None:
        write_report(
            report,
            service_http={
                "metric": f"http submit p99 (s) and end-to-end throughput "
                f"ratio over in-process ({JOBS} jobs, {WORKERS} workers)",
                "value": throughput_ratio,
                "floor": HTTP_THROUGHPUT_FLOOR,
                "passed": bool(
                    p99 <= HTTP_SUBMIT_P99_CEILING_S
                    and throughput_ratio >= HTTP_THROUGHPUT_FLOOR
                    and bitwise
                ),
                "submit_p99_s": float(p99),
                "submit_p99_ceiling_s": HTTP_SUBMIT_P99_CEILING_S,
                "bitwise_equal": bitwise,
                "shape": {"m": M, "d": D, "jobs": JOBS},
            },
        )

    failed = []
    if p99 > HTTP_SUBMIT_P99_CEILING_S:
        failed.append(
            f"FAIL: http submit p99 {p99 * 1e3:.2f} ms above "
            f"{HTTP_SUBMIT_P99_CEILING_S * 1e3:.0f} ms"
        )
    if throughput_ratio < HTTP_THROUGHPUT_FLOOR:
        failed.append(
            f"FAIL: http throughput {throughput_ratio:.2f}x below "
            f"{HTTP_THROUGHPUT_FLOOR}x in-process"
        )
    if not bitwise:
        failed.append("FAIL: http-submitted weights diverged from in-process")
    if gate and failed:
        for line in failed:
            print(line)
        return 1
    print("PASS")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 unless one shared flight makes >= "
        f"{PAGE_RATIO_FLOOR}x fewer page requests than one scan per job "
        "(and stays bitwise-equal)",
    )
    parser.add_argument(
        "--async",
        dest="run_async",
        action="store_true",
        help="also benchmark background-worker dispatch (submit latency "
        "vs drain throughput) and the zero-cost cache replay",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="also benchmark per-table engine domains on 2 latency-backed "
        f"tables x {PAR_WORKERS} workers and fail (exit 1) below "
        f"{PARALLEL_SPEEDUP_FLOOR}x over the global engine lock",
    )
    parser.add_argument(
        "--cursor",
        action="store_true",
        help="also benchmark elevator (shared-cursor) boarding against "
        "window-boundary batching under sustained arrivals and fail "
        f"(exit 1) below {ELEVATOR_PAGE_FLOOR}x fewer pages",
    )
    parser.add_argument(
        "--observability",
        action="store_true",
        help="also benchmark the telemetry layer's drain overhead against "
        f"obs.disabled() and fail (exit 1) above {OBS_OVERHEAD_CEILING_PCT}% "
        "or on any weight divergence",
    )
    parser.add_argument(
        "--disk",
        action="store_true",
        help="also re-prove the shared-scan claims on real storage: the "
        "table in a SQLite-WAL heap file, shared still >= "
        f"{PAGE_RATIO_FLOOR}x fewer pages, releases bitwise-equal to the "
        "in-memory backend, and behind a pool smaller than the table one "
        "miss per page per loop (plus a warm-vs-cold pool sweep note)",
    )
    parser.add_argument(
        "--http",
        action="store_true",
        help="also benchmark the repro-api/v2 HTTP front-end vs the "
        f"in-process verbs and fail (exit 1) above a "
        f"{HTTP_SUBMIT_P99_CEILING_S * 1e3:.0f} ms submit p99, below "
        f"{HTTP_THROUGHPUT_FLOOR}x end-to-end throughput, or on any "
        "weight divergence",
    )
    parser.add_argument(
        "--queue",
        action="store_true",
        help=f"also print the submit-latency note at {QUEUE_JOBS} queued "
        "jobs (informational, never gates)",
    )
    parser.add_argument(
        "--durability",
        action="store_true",
        help="also print the per-window autosave note — append-only log "
        "vs full snapshot at growing history (informational, never gates)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run ({SMOKE_JOBS} jobs, m={SMOKE_M}): same gates, "
        "no BENCH_hotloops.json update",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also merge per-gate summaries (value/floor/passed) into this "
        "JSON file — written at any shape, for CI artifacts + step summary",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        _set_shape(SMOKE_JOBS, SMOKE_M, SMOKE_D)
        _set_parallel_shape(SMOKE_PAR_M, SMOKE_PAR_LATENCY)
        print(f"SMOKE mode: {JOBS} jobs, m={M}, d={D} (gates unchanged)")
    status = bench_service(args.gate, write=not args.smoke, report=args.report)
    if status == 0 and args.run_async:
        status = bench_async(args.gate, write=not args.smoke, report=args.report)
    if status == 0 and args.parallel:
        status = bench_parallel(args.gate, write=not args.smoke, report=args.report)
    if status == 0 and args.cursor:
        status = bench_cursor(args.gate, write=not args.smoke, report=args.report)
    if status == 0 and args.observability:
        status = bench_observability(
            args.gate, write=not args.smoke, report=args.report
        )
    if status == 0 and args.disk:
        status = bench_disk(args.gate, write=not args.smoke, report=args.report)
    if status == 0 and args.http:
        status = bench_http(args.gate, write=not args.smoke, report=args.report)
    if status == 0 and args.queue:
        status = bench_queue(write=not args.smoke)
    if status == 0 and args.durability:
        status = bench_durability(write=not args.smoke)
    return status


if __name__ == "__main__":
    sys.exit(main())
