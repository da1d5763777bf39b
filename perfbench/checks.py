"""Output checks, run after the timed region.

A sampled set of trained releases is recomputed from scratch and compared
bitwise (atol=0); every cached release must equal the release it was
served from; every submitted job must be terminal; and no ledger account
may hold more than its cap. Any mismatch is reported as one line.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence

import numpy as np

from repro.core.accountant import would_overflow
from repro.core.mechanisms import mechanism_for
from repro.core.sensitivity import sensitivity_for_schedule
from repro.rdbms.bismarck import BismarckSession
from repro.rdbms.uda import SGDUDA
from repro.service import JobStatus

TERMINAL = (
    JobStatus.COMPLETED,
    JobStatus.FAILED,
    JobStatus.REJECTED,
    JobStatus.CANCELLED,
)


def solo_release(record, features, labels, chunk_size: int, scan_seed: int) -> np.ndarray:
    """Recompute ``record``'s release independently of the service: a fresh
    engine, the table's service permutation, a solo ``run_sgd`` from the
    record's boarding offset, and the job's own noise stream."""
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


def sample_trained(records: Sequence, rng: np.random.Generator, size: int) -> List:
    """A seeded sample of the completed records that paid for a scan."""
    trained = [
        record
        for record in records
        if record.status is JobStatus.COMPLETED and record.dispatch != "cached"
    ]
    if len(trained) <= size:
        return trained
    picks = rng.choice(len(trained), size=size, replace=False)
    return [trained[int(i)] for i in sorted(picks)]


def check_outputs(
    service,
    records: Sequence,
    sampled: Sequence,
    tables: Dict[str, tuple],
    fetched: Dict[str, np.ndarray],
) -> List[str]:
    """Every mismatch found, as one message each (empty means correct)."""
    errors: List[str] = []
    scheduler = service.scheduler
    for record in records:
        if not record.done or record.status not in TERMINAL:
            errors.append(f"{record.job_id}: not terminal ({record.status})")
    for record in sampled:
        features, labels = tables[record.job.table]
        reference = solo_release(
            record, features, labels, scheduler.chunk_size, scheduler.scan_seed
        )
        if not np.array_equal(record.model, reference):
            errors.append(f"{record.job_id}: release differs from its solo reference")
    for record in records:
        if record.status is JobStatus.COMPLETED and record.dispatch == "cached":
            source = service.result(record.cache_source)
            if not np.array_equal(record.model, source.model):
                errors.append(
                    f"{record.job_id}: cached release differs from its source "
                    f"{record.cache_source}"
                )
    for job_id, weights in fetched.items():
        if not np.array_equal(weights, service.model(job_id)):
            errors.append(f"{job_id}: weights fetched over HTTP differ from the record")
    for statement in service.budgets():
        if would_overflow(
            statement.cap,
            statement.spent[0] + statement.reserved[0],
            statement.spent[1] + statement.reserved[1],
        ):
            errors.append(
                f"account {statement.principal}/{statement.table}: spent + reserved "
                "exceeds its cap"
            )
    return errors


def tamper(record) -> None:
    """Flip the last bit of one weight of ``record``'s release in place —
    the deliberate corruption the self-tests expect the checks to catch."""
    model = np.array(record.model, dtype=np.float64)
    model[0] = np.nextafter(model[0], np.inf)
    record.model = model
