"""Shared fixtures for the test-suite."""

from __future__ import annotations

import threading
import zlib

import numpy as np
import pytest

from repro.core.mechanisms import mechanism_for
from repro.core.sensitivity import sensitivity_for_schedule
from repro.data.preprocessing import normalize_rows
from repro.optim.losses import LogisticLoss
from repro.rdbms.bismarck import BismarckSession
from repro.rdbms.storage import tuples_per_page
from repro.rdbms.uda import SGDUDA


def make_binary_data(m: int, d: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A small linearly-separable-ish binary dataset on the unit ball."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    X = normalize_rows(rng.standard_normal((m, d)) / np.sqrt(d))
    y = np.where(X @ direction >= 0.0, 1.0, -1.0)
    return X, y


def pin_each_tuple(shuffle) -> tuple[np.ndarray, np.ndarray]:
    """The page-by-page reference scan of a ``ShuffleOnce``: read every
    permutation position from the operator's scan source, pinning the
    tuple's page with one ``get_page`` call in visit order. Returns the
    rows as ``(X, y)``; the chunked scan must deliver the same rows and
    leave the pool's counters where these pins leave them."""
    heap, ids = shuffle._scan_source()
    per_page = tuples_per_page(heap.dimension)
    X = np.empty((len(ids), heap.dimension))
    y = np.empty(len(ids))
    for position, tuple_id in enumerate(ids.tolist()):
        page_id, row = divmod(tuple_id, per_page)
        page = shuffle.pool.get_page(heap, page_id)
        X[position] = page.features[row]
        y[position] = page.labels[row]
    return X, y


class GatedLoss(LogisticLoss):
    """Blocks every gradient until released: holds a flight mid-scan, so
    a job submitted meanwhile boards it at a deterministic non-zero
    offset (and a fault can be armed at a deterministic point)."""

    def __init__(self, regularization):
        super().__init__(regularization)
        self.started = threading.Event()
        self.release = threading.Event()

    def batch_gradient(self, w, X_batch, y_batch):
        self.started.set()
        self.release.wait(timeout=30.0)
        return super().batch_gradient(w, X_batch, y_batch)


def solo_release(record, features, labels, scan_seed: int, chunk_size: int) -> np.ndarray:
    """Replicate a service's release for ``record`` from scratch: a fresh
    engine, the table's service permutation (the service's ``scan_seed``),
    a solo ``run_sgd(start_offset=record.boarding_offset)`` on the
    service's ``chunk_size`` grid, and the job's own noise stream — the
    reference a boarded release must equal bitwise."""
    job = record.job
    session = BismarckSession()
    session.load_table(job.table, features, labels)
    shuffle = session.shared_scan(
        job.table,
        random_state=np.random.SeedSequence(
            [scan_seed, zlib.crc32(job.table.encode("utf-8"))]
        ),
    )
    m = features.shape[0]
    schedule, projection, properties = job.candidate.resolve(m)
    sensitivity = sensitivity_for_schedule(
        properties, schedule, m, job.candidate.passes, job.candidate.batch_size
    )
    uda = SGDUDA(job.candidate.loss, schedule, job.candidate.batch_size, projection)
    report = session.run_sgd(
        job.table,
        uda,
        epochs=job.candidate.passes,
        chunk_size=chunk_size,
        shuffle=shuffle,
        start_offset=record.boarding_offset,
    )
    _, noise_rng = job.spawn_streams()
    noise = mechanism_for(job.privacy).sample(
        report.model.shape[0], sensitivity.value, job.privacy, noise_rng
    )
    return report.model + noise


@pytest.fixture
def small_data() -> tuple[np.ndarray, np.ndarray]:
    """60 examples, 5 dims — fast unit-test fodder."""
    return make_binary_data(60, 5, seed=1)


@pytest.fixture
def medium_data() -> tuple[np.ndarray, np.ndarray]:
    """600 examples, 10 dims — for accuracy-sensitive tests."""
    return make_binary_data(600, 10, seed=2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
