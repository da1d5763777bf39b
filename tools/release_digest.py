"""Digest seeded synchronous training runs: the "no bit moved" check.

Usage (from a checkout's root)::

    PYTHONPATH=src python tools/release_digest.py

Trains fixed regularization grids through ``TrainingService`` on the
calling thread (``scheduler.run_pending``) at seven shapes, which
between them take every way a scan reads and gathers its rows — the
repository benchmark's ``grid_memory`` table (in memory, fits the pool:
permuted chunks copied from the table's arrays), its ``disk_scan``
table (a SQLite heap four times the pool: page runs of the scan-order
copy, each chunk's missed pages read as one stretch), a small
thrashing SQLite table whose batch size divides neither the chunk nor
the table, ``sqlite_in_place`` (a SQLite table that fits the default
pool, read in place: permuted chunks, whose missed pages are stretches
of one page; each round's first pass reads cold, its second warm),
``memory_thrash`` (an in-memory table with more pages than its pool:
the arrays of its in-memory scan-order copy), and ``wrapped_dense`` /
``wrapped_sparse`` (in-memory tables behind a ``LatencyHeapFile`` at
0 s/page, read in place through a pool that fits them: page runs of
permuted chunks, many tuples per page at 600x20 and about two at
2500x50) — plus a ``mixed_flight``: one elevator flight
whose openers mix losses, lambdas, batch sizes, passes and radii (so
some fold as stacked cohorts and some alone), boarded mid-flight by two
more mixed groups at two cursor positions. Two more lines cover the
in-memory fused engine (``MultiModelPSGD``, through
``private_psgd_fleet``): ``fleet_shared`` trains one-vs-rest-shaped
candidates over one table with per-candidate labels, mixing two loss
families (two fusion groups), an L2-ball candidate and an averaging
one; ``fleet_stacked`` trains per-candidate datasets with passes 1, 2
and 3, so the set of models still stepping shrinks between passes. A
``trainers`` line covers the sequential trainers: Algorithms 1 and 2
with their defaults and options, ``private_psgd``, ``train_bolt_on``,
``BoltOnPrivateClassifier``, ``scenarios.train("ours")``,
``BismarckSession.run_bolton_private`` and both Figure 5 runtime series.
A ``durable`` line covers what a service with a state directory writes:
its snapshot, its log events and its budget statements, before and
after a restart.

It prints one line per shape: a ``release_sha`` — a SHA-256 over every
released weight vector and every job's ``group_pages`` (and, for the
flight, boarding offset and epochs ridden; for a fleet, every
``unreleased_noiseless_model`` instead; for the trainers, every noiseless
model and sensitivity, and the Figure 5 series; for the durable state,
its bytes with every trace dropped) — then, for the service shapes, the
table's pool counters in plain text. Run it from two
checkouts on the same host: equal ``release_sha`` values mean a change
moved no released bit and no page count, even when it moves the pool
counters by design (a change that should not move them must also leave
the counter fields equal). Digests are comparable only on one host,
because BLAS summation differs across CPUs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

from repro.core.bolton import (
    BoltOnCandidate,
    private_convex_psgd,
    private_psgd,
    private_psgd_fleet,
    private_strongly_convex_psgd,
    train_bolt_on,
)
from repro.core.estimators import BoltOnPrivateClassifier
from repro.data.dataset import Dataset
from repro.data.preprocessing import normalize_rows
from repro.evaluation import scenarios
from repro.evaluation.figures import figure5_runtime_vs_batch, figure5_runtime_vs_epochs
from repro.optim.losses import HuberSVMLoss, LeastSquaresLoss, LogisticLoss
from repro.optim.projection import L2BallProjection
from repro.optim.schedules import DecreasingSchedule, SquareRootSchedule
from repro.rdbms.bismarck import BismarckSession
from repro.rdbms.storage import LatencyHeapFile, MaterializedHeapFile
from repro.service import JobStatus, TrainingService, WriteAheadLog

#: name -> (m, d, jobs, passes, batch, pool pages or None for the
#: service's default pool, storage): "memory" (the arrays), "sqlite" (a
#: SQLite heap) or "wrapped" (the arrays behind a 0 s/page LatencyHeapFile).
SHAPES = {
    "grid_memory": (2500, 50, 32, 2, 50, None, "memory"),
    "disk_scan": (5000, 50, 16, 1, 50, 60, "sqlite"),
    "thrash_odd_batch": (700, 13, 6, 2, 37, 3, "sqlite"),
    "sqlite_in_place": (1200, 20, 8, 2, 25, None, "sqlite"),
    "memory_thrash": (2500, 50, 16, 2, 50, 30, "memory"),
    "wrapped_dense": (600, 20, 16, 2, 50, None, "wrapped"),
    "wrapped_sparse": (2500, 50, 32, 2, 50, None, "wrapped"),
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
    m, d, jobs, passes, batch, pool_pages, storage = SHAPES[name]
    features, labels = make_table(m, d)
    if pool_pages is None:
        service = TrainingService()
    else:
        service = TrainingService(buffer_pool_pages=pool_pages)
    if storage == "sqlite":
        info = service.register_table(
            name, features, labels, backend="sqlite", path=workdir / f"{name}.sqlite"
        )
    elif storage == "wrapped":
        heap = LatencyHeapFile(MaterializedHeapFile(features, labels), 0.0)
        info = service.register_table(name, heap=heap)
    else:
        info = service.register_table(name, features, labels)
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
    line = summary_line(name, sha, service.session.pool.stats_for(info.heap))
    if storage == "sqlite":
        info.heap.close()
    return line


def summary_line(name: str, sha, stats) -> str:
    """The shape's line: the release digest, then the pool counters."""
    return (
        f"{name:<17} release_sha={sha.hexdigest()} reads={stats.page_reads} "
        f"hits={stats.cache_hits} misses={stats.cache_misses} "
        f"evictions={stats.evictions}"
    )


#: The mixed flight's table and canonical chunk (6 chunks, the last ragged).
FLIGHT_ROWS, FLIGHT_DIM, FLIGHT_CHUNK = 1500, 24, 256


def mixed_group(rng: np.random.Generator, size: int) -> list:
    """``size`` jobs as ``(loss, passes, batch_size, radius)``, drawn from a
    small grid so same-shape jobs (cohorts) and odd ones both occur."""
    group = []
    for _ in range(size):
        family = int(rng.integers(3))
        lam = float(rng.choice([0.0, 1e-4, 1e-3, 1e-2]))
        radius = rng.choice([None, 0.5, 5.0])
        if family == 0:
            loss = LogisticLoss(lam)
        elif family == 1:
            loss = HuberSVMLoss(0.1, lam)
        else:
            loss = LeastSquaresLoss(lam)
            radius = 2.0 if radius is None else radius  # needs a bound
        group.append(
            (loss, int(rng.choice([1, 2, 3])), int(rng.choice([10, 37, 50])),
             None if radius is None else float(radius))
        )
    return group


class BoardingTrigger(LogisticLoss):
    """An opener stepping once per chunk (batch size = chunk size) that
    runs ``actions[n]`` on its n-th gradient call — so jobs it submits
    board the running flight at fixed cursor positions."""

    def __init__(self, regularization: float, actions: dict):
        super().__init__(regularization)
        self.actions = actions
        self.calls = 0

    def batch_gradient(self, w, X, y):
        self.calls += 1
        action = self.actions.pop(self.calls, None)
        if action is not None:
            action()
        return super().batch_gradient(w, X, y)


def digest_mixed_flight() -> str:
    name = "mixed_flight"
    features, labels = make_table(FLIGHT_ROWS, FLIGHT_DIM)
    service = TrainingService(elevator=True, chunk_size=FLIGHT_CHUNK)
    info = service.register_table(name, features, labels)
    service.open_budget("tuner", name, 1e9)
    rng = np.random.default_rng(11)
    records = []

    def submit(group) -> None:
        for loss, passes, batch_size, radius in group:
            records.append(
                service.submit(
                    "tuner", name, loss, epsilon=0.1, passes=passes,
                    batch_size=batch_size, radius=radius,
                    seed=int(rng.integers(1, 1 << 40)),
                )
            )

    boarders = [mixed_group(rng, 8), mixed_group(rng, 8)]
    trigger = BoardingTrigger(
        1e-3, {2: lambda: submit(boarders[0]), 4: lambda: submit(boarders[1])}
    )
    records.append(
        service.submit(
            "tuner", name, trigger, epsilon=0.1, passes=2,
            batch_size=FLIGHT_CHUNK, seed=int(rng.integers(1, 1 << 40)),
        )
    )
    submit(mixed_group(rng, 14))  # 1 + 14 + 8 + 8 riders fit one flight
    service.scheduler.run_pending()
    sha = hashlib.sha256()
    offsets = set()
    for record in records:
        if record.status is not JobStatus.COMPLETED:
            raise RuntimeError(f"{record.job_id} ended {record.status.name}")
        sha.update(np.ascontiguousarray(record.model).tobytes())
        fields = (record.group_pages, record.boarding_offset, record.epochs_ridden)
        sha.update(str(fields).encode())
        offsets.add(record.boarding_offset)
    if len(offsets) != 3:
        raise RuntimeError(f"expected boarders at two offsets past 0, got {offsets}")
    return summary_line(name, sha, service.session.pool.stats_for(info.heap))


def fleet_line(name: str, results) -> str:
    """A fleet's line: one digest over every release and noiseless model."""
    sha = hashlib.sha256()
    for result in results:
        sha.update(np.ascontiguousarray(result.model).tobytes())
        sha.update(np.ascontiguousarray(result.unreleased_noiseless_model).tobytes())
    return f"{name:<17} release_sha={sha.hexdigest()}"


def digest_fleet_shared() -> str:
    """One table, one label column per candidate (the one-vs-rest shape):
    logistic and Huber candidates (two fusion groups), one of them held
    in a small L2 ball and one averaging its iterates."""
    m, d = 1200, 16
    features, _ = make_table(m, d)
    directions = np.random.default_rng(5).standard_normal((8, d))
    labels = np.where(features @ directions.T >= 0.0, 1.0, -1.0).T
    candidates = [
        BoltOnCandidate(LogisticLoss(lam), passes=2, batch_size=40)
        for lam in (0.0, 1e-3, 1e-2)
    ] + [
        BoltOnCandidate(HuberSVMLoss(0.1, lam), passes=2, batch_size=40)
        for lam in (0.0, 1e-2)
    ] + [
        BoltOnCandidate(LogisticLoss(), passes=2, batch_size=40, eta=0.5, radius=0.3),
        BoltOnCandidate(HuberSVMLoss(0.1), passes=2, batch_size=40, average="uniform"),
        BoltOnCandidate(LogisticLoss(1e-4), passes=2, batch_size=40),
    ]
    results = private_psgd_fleet(
        features, labels, candidates, 0.5,
        random_states=list(range(101, 109)), scan_random_state=17,
    )
    return fleet_line("fleet_shared", results)


def digest_fleet_stacked() -> str:
    """Per-candidate datasets (the private-tuning partition shape) with
    passes 1, 2 and 3: the models still stepping shrink between passes."""
    m, d, k = 500, 12, 6
    tables = [make_table(m, d, seed=20 + i) for i in range(k)]
    features = np.stack([table[0] for table in tables])
    labels = np.stack([table[1] for table in tables])
    candidates = [
        BoltOnCandidate(
            LogisticLoss(lam) if i % 3 else HuberSVMLoss(0.1, lam),
            passes=1 + i % 3, batch_size=25,
        )
        for i, lam in enumerate(np.logspace(-4, -1, k))
    ]
    results = private_psgd_fleet(
        features, labels, candidates, 1.0, random_states=list(range(201, 201 + k))
    )
    return fleet_line("fleet_stacked", results)


def digest_trainers() -> str:
    """Every sequential private trainer on one small table: each run's
    release, noiseless model and sensitivity (the in-RDBMS runs keep only
    their release; the Figure 5 helpers return simulated runtimes)."""
    m, d = 300, 8
    X, y = make_table(m, d, seed=31)
    sha = hashlib.sha256()

    def add(result) -> None:
        sha.update(np.ascontiguousarray(result.model).tobytes())
        sha.update(np.ascontiguousarray(result.unreleased_noiseless_model).tobytes())
        sha.update(repr(result.sensitivity.value).encode())

    shape = dict(passes=2, batch_size=10)
    # Algorithm 1: default eta; a given eta in an L2 ball; uniform
    # averaging; a fresh permutation each pass.
    add(private_convex_psgd(X, y, LogisticLoss(), 0.5, random_state=1, **shape))
    add(private_convex_psgd(
        X, y, HuberSVMLoss(0.1), 0.5, eta=0.3, projection=L2BallProjection(0.8),
        random_state=2, **shape,
    ))
    add(private_convex_psgd(
        X, y, LogisticLoss(), 0.5, delta=1e-5, average="uniform", random_state=3,
        **shape,
    ))
    add(private_convex_psgd(
        X, y, HuberSVMLoss(0.1), 0.5, passes=3, fresh_permutation_each_pass=True,
        random_state=4,
    ))
    # Algorithm 2: default R; a given R; a convergence tolerance.
    add(private_strongly_convex_psgd(X, y, LogisticLoss(1e-2), 0.5, random_state=5, **shape))
    add(private_strongly_convex_psgd(
        X, y, HuberSVMLoss(0.1, 1e-3), 0.5, delta=1e-5, radius=2.0, random_state=6,
        **shape,
    ))
    add(private_strongly_convex_psgd(
        X, y, LogisticLoss(0.05), 0.5, passes=20, batch_size=10,
        convergence_tolerance=1e-3, random_state=7,
    ))
    # The generic trainer: Corollary 2's and Corollary 3's schedules.
    for seed, schedule in ((8, DecreasingSchedule(1.0, m)), (9, SquareRootSchedule(1.0, m))):
        add(private_psgd(X, y, LogisticLoss(), 0.5, schedule, random_state=seed, **shape))
    # The fleet tests' sequential reference on their four candidates.
    candidates = [
        BoltOnCandidate(LogisticLoss(0.05), passes=2, batch_size=10),
        BoltOnCandidate(LogisticLoss(0.1), passes=3, batch_size=10),
        BoltOnCandidate(LogisticLoss(), passes=2, batch_size=10),
        BoltOnCandidate(HuberSVMLoss(0.5), passes=1, batch_size=10, eta=0.2, radius=1.5),
    ]
    for seed, candidate in zip((11, 22, 33, 44), candidates):
        add(train_bolt_on(X, y, candidate, 2.0, random_state=seed))
    # The estimator at lambda = 0 (Algorithm 1) and lambda > 0 (Algorithm 2).
    for seed, classifier in (
        (12, BoltOnPrivateClassifier(0.5, loss="logistic", passes=2, batch_size=10)),
        (13, BoltOnPrivateClassifier(
            0.5, delta=1e-5, loss="huber", regularization=1e-3, passes=2, batch_size=10
        )),
    ):
        add(classifier.fit(X, y, random_state=seed).result_)
    # The evaluation harness's "ours" in the four scenarios of Section 4.3.
    for seed, scenario in enumerate(scenarios.Scenario, start=14):
        settings = scenarios.TrainSettings(scenario, epsilon=0.5, **shape)
        add(scenarios.train("ours", X, y, settings, random_state=seed))
    # In the RDBMS: convex, and strongly convex with a radius.
    session = BismarckSession()
    session.load_table("t", X, y)
    for seed, loss, radius in ((18, LogisticLoss(), None), (19, LogisticLoss(1e-2), 20.0)):
        report = session.run_bolton_private(
            "t", loss, 0.5, epochs=2, batch_size=10, radius=radius, random_state=seed
        )
        sha.update(np.ascontiguousarray(report.model).tobytes())
    # Figure 5's two rows at a tiny shape.
    dataset = Dataset(name="digest", features=X, labels=y)
    for figure in (
        figure5_runtime_vs_epochs(dataset, epoch_grid=(1, 2), batch_size=10),
        figure5_runtime_vs_batch(dataset, batch_grid=(1, 50)),
    ):
        sha.update(repr(sorted(figure["series"].items())).encode())
    return f"{'trainers':<17} release_sha={sha.hexdigest()}"


def untraced(record: dict) -> dict:
    """A record payload without its trace (spans hold clock readings)."""
    return {key: value for key, value in record.items() if key != "trace"}


def hash_state(sha, directory: pathlib.Path, service: TrainingService) -> int:
    """Fold a state directory and a service's budgets into ``sha``:
    ``registry.json`` and the log's events, each record untraced, then
    ``accounts.json`` as written and every budget statement. Returns
    the number of log events."""
    snapshot = json.loads((directory / "registry.json").read_text())
    snapshot["records"] = [untraced(record) for record in snapshot["records"]]
    sha.update(json.dumps(snapshot, indent=1, sort_keys=True).encode())
    events = WriteAheadLog.replay(directory / "receipts.wal")  # [] without a log
    for event in events:
        if "record" in event:
            event["record"] = untraced(event["record"])
    sha.update(json.dumps(events, sort_keys=True).encode())
    sha.update((directory / "accounts.json").read_bytes())
    statements = [statement.payload() for statement in service.budgets()]
    sha.update(json.dumps(statements, sort_keys=True).encode())  # 0 is not 0.0
    return len(events)


def digest_durable(workdir: pathlib.Path) -> str:
    """A seeded service with a state directory, trained on the calling
    thread over two accounts (one with delta > 0) beside an unspent one:
    a twin, a cache hit, an over-budget rejection and a cancel; then
    ``save_state()``, more jobs and a log sync. Its state, then the state
    a fresh service writes after ``load_state()`` of it."""
    features, labels = make_table(400, 10)
    state = workdir / "durable"
    service = TrainingService(scan_seed=3, state_dir=state)
    service.register_table("t", features, labels)
    service.open_budget("alice", "t", 1.0)
    service.open_budget("bob", "t", 0.5, delta=1e-5)
    service.open_budget("carol", "t", 0.5)

    def submit(principal: str, seed: int, epsilon: float = 0.1, delta: float = 0.0):
        return service.submit(
            principal, "t", LogisticLoss(1e-3), epsilon=epsilon, delta=delta,
            passes=2, batch_size=20, seed=seed,
        )

    submit("alice", 1)
    submit("alice", 1)  # a twin: attaches to the queued job, charged once
    submit("bob", 2, delta=1e-6)
    cancelled = submit("alice", 3)
    if not service.cancel(cancelled.job_id):
        raise RuntimeError("the cancel came too late")
    service.scheduler.run_pending()
    submit("alice", 1)  # a cache hit
    submit("bob", 4, epsilon=5.0)  # over budget: rejected at admission
    service.save_state()
    submit("alice", 5, epsilon=0.2)
    submit("bob", 6, delta=1e-6)
    service.scheduler.run_pending()
    service.wal.sync()
    statuses = sorted(record.status.value for record in service.registry.jobs())
    if statuses != ["cancelled"] + ["completed"] * 6 + ["rejected"]:
        raise RuntimeError(f"unexpected statuses {statuses}")

    sha = hashlib.sha256()
    events = hash_state(sha, state, service)
    resumed = TrainingService(scan_seed=3)
    records = resumed.load_state(state)
    resumed.save_state(workdir / "resumed")
    hash_state(sha, workdir / "resumed", resumed)
    return f"{'durable':<17} release_sha={sha.hexdigest()} records={records} events={events}"


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        for name in SHAPES:
            print(digest(name, pathlib.Path(scratch)))
        print(digest_durable(pathlib.Path(scratch)))
    print(digest_mixed_flight())
    print(digest_fleet_shared())
    print(digest_fleet_stacked())
    print(digest_trainers())
    return 0


if __name__ == "__main__":
    sys.exit(main())
