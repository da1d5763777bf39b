"""Write ``tests/data/state_v1``: a service state directory to restore.

The directory was written by commit d1212a0, the last commit whose
snapshot, write-ahead log and HTTP wire each had their own record codec.
``tests/test_record_codec.py`` loads it to check that state written in
that format still restores: every weight bitwise, the same budgets, and a
cache hit on resubmission. To rewrite it, run this script from a checkout
of that commit::

    PYTHONPATH=src python tests/data/make_state_v1.py tests/data/state_v1

A durable service trains a few jobs on a small table. The first window
writes the base snapshot (``registry.json``, ``accounts.json``). The
second lands in the log (``receipts.wal``) as ``admit`` and ``record``
events and holds every terminal status: completed, a cache hit, failed,
rejected and cancelled. Then one more job is admitted and the log synced,
and the process writes nothing more, so that job is queued at the crash.
Beside the service's files the script writes ``table.json`` (the table,
so a resubmission can hit the restored cache) and ``expected.json``
(each job's status and weights as ``float.hex``, and every account's
statement, read from the live service at the crash).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

import numpy as np

from repro.optim.losses import HingeLoss, HuberSVMLoss, LeastSquaresLoss, LogisticLoss
from repro.service import TrainingService

M, D = 48, 4
SCAN_SEED = 5


def table() -> tuple:
    rng = np.random.default_rng(18)
    features = rng.standard_normal((M, D))
    features /= np.maximum(1.0, np.linalg.norm(features, axis=1))[:, None]
    labels = np.where(features @ rng.standard_normal(D) >= 0.0, 1.0, -1.0)
    return features, labels


def main(out: pathlib.Path) -> None:
    if out.exists():
        shutil.rmtree(out)
    features, labels = table()
    service = TrainingService(scan_seed=SCAN_SEED, workers=1, state_dir=out)
    service.register_table("t", features, labels)
    service.open_budget("alice", "t", 1.0)
    service.open_budget("bob", "t", 0.5)
    common = dict(passes=2, batch_size=8)

    # Window 1: the bootstrap writes the base snapshot.
    service.submit("alice", "t", LogisticLoss(1e-3), epsilon=0.1, seed=1, **common)
    service.submit("bob", "t", HuberSVMLoss(0.1, 1e-3), epsilon=0.1, seed=2, **common)
    service.drain()

    # Window 2: every terminal status, logged as WAL events.
    service.submit(
        "alice", "t", LeastSquaresLoss(1e-3), epsilon=0.1, radius=1.0, seed=3, **common
    )
    service.submit("alice", "t", HingeLoss(), epsilon=0.05, seed=4, **common)
    service.submit("alice", "t", LogisticLoss(1e-3), epsilon=0.1, seed=1, **common)
    service.submit("bob", "t", LogisticLoss(1e-3), epsilon=5.0, seed=5, **common)
    cancelled = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=0.1, seed=6, **common)
    assert service.cancel(cancelled.job_id)
    service.drain()

    # The crash: one job admitted and its admit event synced, no more.
    service.submit("alice", "t", LogisticLoss(1e-2), epsilon=0.1, seed=7, **common)
    service.wal.sync()

    jobs = {}
    for record in service.jobs():
        entry = {"status": record.status.value, "dispatch": record.dispatch}
        if record.model is not None:
            entry["model"] = [float(value).hex() for value in record.model]
        jobs[record.job_id] = entry
    budgets = [
        {
            "principal": statement.principal,
            "table": statement.table,
            "cap": [statement.cap.epsilon, statement.cap.delta],
            "spent": list(statement.spent),
        }
        for statement in service.budgets()
    ]
    (out / "expected.json").write_text(
        json.dumps({"jobs": jobs, "budgets": budgets}, indent=1, sort_keys=True) + "\n"
    )
    (out / "table.json").write_text(
        json.dumps(
            {"scan_seed": SCAN_SEED, "features": features.tolist(), "labels": labels.tolist()}
        )
        + "\n"
    )


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]))
