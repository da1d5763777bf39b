"""Digest a seeded synchronous service run: the "no bit moved" check.

Usage (from a checkout's root)::

    PYTHONPATH=src python tools/release_digest.py

Trains fixed regularization grids through ``TrainingService`` on the
calling thread (``scheduler.run_pending``) at three shapes — the
repository benchmark's ``grid_memory`` table (fits the pool), its
``disk_scan`` table (a SQLite heap four times the pool), and a small
thrashing table whose batch size divides neither the chunk nor the
table — and prints one line per shape: the pool counters and a SHA-256
over every released weight vector, every job's ``group_pages`` and
those counters. Run it from two checkouts on the same host: equal
digests mean a change moved no released bit, no page count and no pool
counter. Digests are comparable only on one host, because BLAS
summation differs across CPUs.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import tempfile

import numpy as np

from repro.data.preprocessing import normalize_rows
from repro.optim.losses import HuberSVMLoss, LogisticLoss
from repro.service import JobStatus, TrainingService

#: name -> (m, d, jobs, passes, batch, pool pages or None for in-memory).
SHAPES = {
    "grid_memory": (2500, 50, 32, 2, 50, None),
    "disk_scan": (5000, 50, 16, 1, 50, 60),
    "thrash_odd_batch": (700, 13, 6, 2, 37, 3),
}
ROUNDS = 2


def make_table(m: int, d: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    features = normalize_rows(rng.standard_normal((m, d)) / np.sqrt(d))
    labels = np.where(features @ direction >= 0.0, 1.0, -1.0)
    return features, labels


def digest(name: str, workdir: pathlib.Path) -> str:
    m, d, jobs, passes, batch, pool_pages = SHAPES[name]
    features, labels = make_table(m, d)
    if pool_pages is None:
        service = TrainingService()
        info = service.register_table(name, features, labels)
    else:
        service = TrainingService(buffer_pool_pages=pool_pages)
        info = service.register_table(
            name, features, labels, backend="sqlite", path=workdir / f"{name}.sqlite"
        )
    seeds = np.random.default_rng(3)
    sha = hashlib.sha256()
    for round_index in range(ROUNDS):
        principal = f"tuner-{round_index}"
        service.open_budget(principal, name, 1e9)
        records = []
        for k, lam in enumerate(np.logspace(-5, -1, jobs)):
            loss = LogisticLoss(float(lam)) if k % 4 else HuberSVMLoss(0.1, float(lam))
            records.append(
                service.submit(
                    principal, name, loss, epsilon=0.1, passes=passes,
                    batch_size=batch, seed=int(seeds.integers(1, 1 << 40)),
                )
            )
        service.scheduler.run_pending()
        for record in records:
            if record.status is not JobStatus.COMPLETED:
                raise RuntimeError(f"{record.job_id} ended {record.status.name}")
            sha.update(np.ascontiguousarray(record.model).tobytes())
            sha.update(str(record.group_pages).encode())
    stats = service.session.pool.stats_for(info.heap)
    counters = (stats.page_reads, stats.cache_hits, stats.cache_misses, stats.evictions)
    sha.update(repr(counters).encode())
    if pool_pages is not None:
        info.heap.close()
    reads, hits, misses, evictions = counters
    return (
        f"{name:<17} reads={reads} hits={hits} misses={misses} "
        f"evictions={evictions} sha256={sha.hexdigest()}"
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        for name in SHAPES:
            print(digest(name, pathlib.Path(scratch)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
