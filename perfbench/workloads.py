"""The benchmark's three workloads: inputs from a seed, a measured loop, records.

Each workload builds its tables from the seed and deploys a service over
them (:meth:`setup`), warms it with a few generated jobs outside the
timed region (:meth:`warm`), and then runs a measured window
(:meth:`measure`) that returns a :class:`Samples`. The service under test
only ever sees the generated requests.

* ``tenants_http`` — open loop over the HTTP front end: Poisson arrivals
  at a fixed rate from one generator thread, 8 principals on two small
  in-memory tables, a quarter of the requests exact resubmissions of an
  earlier request (result-cache hits). Job latency runs from a request's
  scheduled send time until its weights arrive back over HTTP; each
  principal waits on its own jobs, so one slow job delays no other
  tenant's.
* ``grid_memory`` — closed loop, in process: a caller submits a K-model
  regularization grid that fuses into one shared scan of a table that
  fits the buffer pool, waits for all of it, and repeats. Every job of a
  round finishes when the round does, so a closed loop's job latency is
  its round latency, one sample per round.
* ``disk_scan`` — closed loop, in process: 16 fused jobs per round on a
  SQLite heap four times larger than the buffer pool, so every scan
  thrashes the pool and reads pages from the database.
"""

from __future__ import annotations

import pathlib
import queue
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from reference import ReferenceClock
from repro.api import ServiceApiServer, ServiceClient
from repro.api.client import ApiUnreachable
from repro.data.preprocessing import normalize_rows
from repro.optim.losses import LogisticLoss
from repro.service import JobStatus, TrainingService
from repro.service.errors import ServiceError

#: Privacy cost of every generated job, and the cap each account is
#: granted — large enough that no job in any run is ever refused.
JOB_EPSILON = 0.1
AMPLE_CAP = 1e9
#: How long the measured window waits for stragglers after the last
#: request before counting them as timed out.
DRAIN_TIMEOUT_S = 60.0
#: A closed loop runs at least this many rounds (one job-latency sample
#: each), so that its p75 has ten samples beyond it.
MIN_ROUNDS = 40
#: The open loop times the reference loop (``reference.py``) in a gap
#: between requests: it waits this long, then times the loop if no job is
#: in flight and the next request is still this far off.
QUIET_GAP_S = 0.01


def make_table(seed_sequence: np.random.SeedSequence, m: int, d: int):
    """A linearly-separable-ish binary dataset on the unit ball."""
    rng = np.random.default_rng(seed_sequence)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    features = normalize_rows(rng.standard_normal((m, d)) / np.sqrt(d))
    labels = np.where(features @ direction >= 0.0, 1.0, -1.0)
    return features, labels


@dataclass(frozen=True)
class Request:
    """One generated job request (the whole of what the service sees)."""

    principal: str
    table: str
    regularization: float
    batch_size: int
    passes: int
    seed: int


@dataclass
class Samples:
    """What one measured window observed."""

    #: Submit calls as (start, end) perf_counter instants, one per
    #: submitted request.
    submit: List[Tuple[float, float]] = field(default_factory=list)
    #: Jobs as (start, end) instants: one per completed job of an open
    #: loop, one per round of a closed loop.
    job: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Failures split by kind (rejected, failed, timed_out, transport).
    failures: Dict[str, int] = field(default_factory=dict)
    #: Records of every submitted job (the output checks read these).
    records: list = field(default_factory=list)
    #: Weights fetched over HTTP, by job id (tenants_http only).
    fetched: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Σ passes·m over trained (non-cached) completed jobs.
    trained_tuples: int = 0
    completed: int = 0
    #: The window's first and last instants.
    start: float = 0.0
    end: float = 0.0
    #: True when the jobs ran in rounds, back to back (closed loop).
    closed_loop: bool = False
    #: Reference-loop timings taken at quiet moments of the window.
    clock: ReferenceClock = field(default_factory=ReferenceClock)
    #: Peak resident memory (MB) once a fixed amount of work is done.
    rss_mb: float = 0.0
    #: Open-loop generator lateness (s) per request (tenants_http only).
    late: List[float] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fail(self, kind: str) -> None:
        with self._lock:
            self.failed += 1
            self.failures[kind] = self.failures.get(kind, 0) + 1

    def complete(self, record, m: int, interval: Optional[Tuple[float, float]] = None) -> None:
        with self._lock:
            self.completed += 1
            if record.dispatch != "cached":
                self.trained_tuples += record.job.candidate.passes * m
            if interval is not None:
                self.job.append(interval)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle(record, samples: Samples) -> bool:
    """True when ``record`` completed; otherwise count it as a failure."""
    if not record.done:
        samples.fail("timed_out")
        return False
    if record.status is JobStatus.COMPLETED:
        return True
    samples.fail("rejected" if record.status is JobStatus.REJECTED else "failed")
    return False


class Workload:
    """Shared plumbing: seeds, sizes, the table registry, teardown."""

    name = ""
    #: Shape name -> size parameters.
    shapes: Dict[str, dict] = {}

    def __init__(self, seed: int, shape: str = "full") -> None:
        self.seed = int(seed)
        self.shape_name = shape
        self.shape = dict(self.shapes[shape])
        root = np.random.SeedSequence([self.seed, sum(map(ord, self.name))])
        self._data_seed, self._job_seed = root.spawn(2)
        #: table name -> (features, labels), rebuilt by each set-up.
        self.tables: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def build_tables(self) -> None:
        names = self.table_names()
        for name, child in zip(names, self._data_seed.spawn(len(names))):
            self.tables[name] = make_table(child, self.shape["m"], self.shape["d"])

    def table_names(self) -> List[str]:
        raise NotImplementedError

    def setup(self, workdir: pathlib.Path) -> Deployment:
        """Build the tables from the seed and deploy a service over them."""
        self.build_tables()
        return self.deploy(workdir)

    def deploy(self, workdir: pathlib.Path) -> Deployment:
        raise NotImplementedError

    def job_rng(self, phase: int) -> np.random.Generator:
        """The job-input stream of one phase: 0 is the warm-up, 1 and up the
        measured windows, so no window resubmits another's jobs."""
        return np.random.default_rng(
            np.random.SeedSequence(
                self._job_seed.entropy,
                spawn_key=self._job_seed.spawn_key + (phase,),
            )
        )


class Deployment:
    """A running service plus whatever fronts it; :meth:`close` stops it all."""

    def __init__(self, service: TrainingService, workdir: pathlib.Path) -> None:
        self.service = service
        self.workdir = workdir
        self.server: Optional[ServiceApiServer] = None
        self.clients: Dict[str, ServiceClient] = {}
        self.heaps: list = []

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.service.stop()
        for heap in self.heaps:
            heap.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- tenants_http ----------------------------------------------------------------


class TenantsHttp(Workload):
    name = "tenants_http"
    shapes = {
        "full": dict(m=500, d=20, principals=8, rate=20.0, workers=2, warm=8),
        "tiny": dict(m=120, d=4, principals=3, rate=40.0, workers=2, warm=2),
    }
    #: Share of requests that exactly resubmit an earlier request, and how
    #: far back (s) that request's scheduled time must lie, so that it has
    #: long completed and the resubmission is answered from the cache.
    resubmit_share = 0.25
    resubmit_age_s = 1.0
    lambdas = tuple(np.logspace(-4, -2, 8).tolist())

    def table_names(self) -> List[str]:
        return ["t0", "t1"]

    def principals(self) -> List[str]:
        return [f"p{i}" for i in range(self.shape["principals"])]

    def _fresh(self, rng: np.random.Generator, batch_size: int, seed: int) -> Request:
        principals = self.principals()
        tables = self.table_names()
        return Request(
            principal=principals[int(rng.integers(len(principals)))],
            table=tables[int(rng.integers(len(tables)))],
            regularization=float(self.lambdas[int(rng.integers(len(self.lambdas)))]),
            batch_size=int(batch_size),
            passes=1,
            seed=seed,
        )

    def schedule(self, seconds: float, phase: int) -> Tuple[np.ndarray, List[Request]]:
        """The seeded open-loop input: arrival offsets (s) and requests.

        Arrivals are a Poisson process conditioned on its count (sorted
        uniform instants), so every seed offers exactly ``rate * seconds``
        requests; batch sizes split evenly between 10 and 50, and exactly a
        ``resubmit_share`` of the eligible arrivals repeat an earlier fresh
        request verbatim.
        """
        rng = self.job_rng(phase)
        count = max(1, int(round(self.shape["rate"] * seconds)))
        arrivals = np.sort(rng.uniform(0.0, seconds, count))
        batches = np.resize(np.array([10, 50]), count)
        rng.shuffle(batches)
        seed_base = int(rng.integers(1, 1 << 40))
        eligible = np.flatnonzero(arrivals >= arrivals[0] + self.resubmit_age_s)
        resubmits = set(
            rng.choice(
                eligible,
                size=int(round(self.resubmit_share * len(eligible))),
                replace=False,
            ).tolist()
        ) if len(eligible) else set()
        requests: List[Request] = []
        for index in range(count):
            if index in resubmits:
                sources = [
                    j for j in range(index)
                    if j not in resubmits
                    and arrivals[j] <= arrivals[index] - self.resubmit_age_s
                ]
                requests.append(requests[sources[int(rng.integers(len(sources)))]])
            else:
                requests.append(self._fresh(rng, batches[index], seed_base + index))
        return arrivals, requests

    def deploy(self, workdir: pathlib.Path) -> Deployment:
        service = TrainingService(
            workers=self.shape["workers"], state_dir=workdir / "state"
        )
        deployment = Deployment(service, workdir)
        try:
            for name, (features, labels) in self.tables.items():
                service.register_table(name, features, labels)
            tokens = {f"token-{p}": p for p in self.principals()}
            for principal in self.principals():
                for name in self.tables:
                    service.open_budget(principal, name, AMPLE_CAP)
            service.start()
            deployment.server = ServiceApiServer(service, tokens).start()
            deployment.clients = {
                principal: ServiceClient(
                    deployment.server.url, token=token, timeout=30.0
                )
                for token, principal in tokens.items()
            }
        except BaseException:
            deployment.close()
            raise
        return deployment

    def _submit(self, deployment: Deployment, request: Request):
        return deployment.clients[request.principal].submit(
            request.principal,
            request.table,
            LogisticLoss(request.regularization),
            epsilon=JOB_EPSILON,
            passes=request.passes,
            batch_size=request.batch_size,
            seed=request.seed,
        )

    def warm(self, deployment: Deployment) -> None:
        rng = self.job_rng(0)
        seed_base = int(rng.integers(1, 1 << 40))
        for index in range(self.shape["warm"]):
            request = self._fresh(rng, (10, 50)[index % 2], seed_base + index)
            view = self._submit(deployment, request)
            deployment.service.result(view.job_id).wait(DRAIN_TIMEOUT_S)
            deployment.clients[request.principal].model(view.job_id)

    def measure(self, deployment: Deployment, seconds: float, phase: int) -> Samples:
        """Offer the seeded schedule for ``seconds`` and wait for every job."""
        arrivals, requests = self.schedule(seconds, phase)
        service = deployment.service
        samples = Samples()
        pending: Dict[str, "queue.Queue[Optional[Tuple[float, object]]]"] = {
            principal: queue.Queue() for principal in self.principals()
        }
        finished: List[float] = []
        in_flight = [0]
        flight_lock = threading.Lock()
        m = self.shape["m"]

        def complete(principal: str) -> None:
            # One waiter per principal: waits on each of that tenant's jobs
            # through its in-process completion event (no polling of the
            # service), then fetches the weights over HTTP.
            client = deployment.clients[principal]
            while True:
                item = pending[principal].get()
                if item is None:
                    return
                due, record = item
                try:
                    record.wait(max(0.0, deadline - time.perf_counter()))
                    if not settle(record, samples):
                        continue
                    try:
                        weights = client.model(record.job_id)
                    except ApiUnreachable:
                        samples.fail("transport")
                        continue
                    done = time.perf_counter()
                    samples.complete(record, m, (due, done))
                    samples.fetched[record.job_id] = weights
                    finished.append(done)
                finally:
                    with flight_lock:
                        in_flight[0] -= 1

        waiters = [
            threading.Thread(target=complete, args=(p,), name=f"perfbench-wait-{p}")
            for p in pending
        ]
        start = time.perf_counter() + 0.05
        deadline = start + seconds + DRAIN_TIMEOUT_S
        for waiter in waiters:
            waiter.start()
        try:
            for offset, request in zip(arrivals.tolist(), requests):
                due = start + offset
                # In a long gap, time the reference loop once the service
                # has gone idle.
                if due - time.perf_counter() > 2 * QUIET_GAP_S:
                    time.sleep(QUIET_GAP_S)
                    if not in_flight[0] and due - time.perf_counter() > QUIET_GAP_S:
                        samples.clock.tick()
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                samples.late.append(max(0.0, time.perf_counter() - due))
                samples.attempted += 1
                try:
                    view = self._submit(deployment, request)
                except ApiUnreachable:
                    samples.fail("transport")
                    continue
                except ServiceError:
                    samples.fail("failed")
                    continue
                samples.submit.append((due, time.perf_counter()))
                record = service.result(view.job_id)
                samples.records.append(record)
                with flight_lock:
                    in_flight[0] += 1
                pending[request.principal].put((due, record))
        finally:
            for queue_ in pending.values():
                queue_.put(None)
            for waiter in waiters:
                waiter.join()
        # Until the last weights arrived: a service that falls behind the
        # offered rate stretches this, and its throughput reads lower.
        samples.start = start
        samples.end = max(finished, default=time.perf_counter())
        if not samples.clock.ticks:  # never idle: time it now, drained
            samples.clock.tick()
        samples.rss_mb = peak_rss_mb()  # the schedule fixes the work done
        return samples


# -- the closed-loop, in-process workloads --------------------------------------


class ClosedLoop(Workload):
    """Submit a round of jobs, wait for all of them, repeat until time is up.

    Each round comes from its own principal with a freshly opened budget.
    A ledger account's admission check sums every charge it holds, so one
    principal submitting round after round would make each round slower
    than the last and tie the figures to the run's length.
    """

    table = ""

    def table_names(self) -> List[str]:
        return [self.table]

    def round_requests(self, rng: np.random.Generator, principal: str) -> List[Request]:
        """One round: a regularization grid with fresh job seeds, so no
        job of the run is ever a result-cache hit."""
        grid = np.logspace(-5, -1, self.shape["models"])
        seeds = rng.integers(1, 1 << 40, size=len(grid))
        return [
            Request(
                principal=principal,
                table=self.table,
                regularization=float(lam),
                batch_size=self.shape["batch"],
                passes=self.shape["passes"],
                seed=int(seed),
            )
            for lam, seed in zip(grid, seeds)
        ]

    def run_round(
        self, service: TrainingService, requests: List[Request], samples: Samples
    ) -> None:
        submitted = []
        service.open_budget(requests[0].principal, self.table, AMPLE_CAP)
        round_started = time.perf_counter()
        for request in requests:
            started = time.perf_counter()
            record = service.submit(
                request.principal,
                request.table,
                LogisticLoss(request.regularization),
                epsilon=JOB_EPSILON,
                passes=request.passes,
                batch_size=request.batch_size,
                seed=request.seed,
            )
            samples.submit.append((started, time.perf_counter()))
            samples.attempted += 1
            samples.records.append(record)
            submitted.append(record)
        # drain() holds the dispatch loop until the whole round is queued,
        # so the round is claimed as one window and fuses into one scan.
        service.drain(timeout=DRAIN_TIMEOUT_S)
        samples.job.append((round_started, time.perf_counter()))
        for record in submitted:
            if settle(record, samples):
                samples.complete(record, self.shape["m"])

    def warm(self, deployment: Deployment) -> None:
        requests = self.round_requests(self.job_rng(0), "tuner-0-0")
        self.run_round(deployment.service, requests, Samples())

    def measure(self, deployment: Deployment, seconds: float, phase: int) -> Samples:
        """Run rounds until ``seconds`` have passed and at least
        :data:`MIN_ROUNDS` rounds are in, timing the reference loop after
        each round, while the service is idle."""
        rng = self.job_rng(phase)
        samples = Samples(closed_loop=True)
        samples.start = time.perf_counter()
        while time.perf_counter() - samples.start < seconds or len(samples.job) < MIN_ROUNDS:
            principal = f"tuner-{phase}-{len(samples.job)}"
            self.run_round(deployment.service, self.round_requests(rng, principal), samples)
            samples.clock.tick()
            if len(samples.job) == MIN_ROUNDS:
                samples.rss_mb = peak_rss_mb()
        samples.end = time.perf_counter()
        return samples


class GridMemory(ClosedLoop):
    name = "grid_memory"
    table = "grid"
    shapes = {
        "full": dict(m=2500, d=50, models=32, passes=2, batch=50),
        "tiny": dict(m=300, d=5, models=4, passes=2, batch=10),
    }

    def deploy(self, workdir: pathlib.Path) -> Deployment:
        service = TrainingService()
        features, labels = self.tables[self.table]
        service.register_table(self.table, features, labels)
        return Deployment(service, workdir)


class DiskScan(ClosedLoop):
    name = "disk_scan"
    table = "disk"
    #: 250 pages behind a 60-page pool. A round's first submit costs about
    #: twice the others; with 8 jobs a round it sat right on the submit
    #: percentiles' boundary and made them jump from run to run.
    shapes = {
        "full": dict(m=5000, d=50, models=16, passes=1, batch=50, pool_pages=60),
        "tiny": dict(m=400, d=5, models=2, passes=1, batch=10, pool_pages=2),
    }

    def deploy(self, workdir: pathlib.Path) -> Deployment:
        service = TrainingService(buffer_pool_pages=self.shape["pool_pages"])
        deployment = Deployment(service, workdir)
        try:
            features, labels = self.tables[self.table]
            info = service.register_table(
                self.table,
                features,
                labels,
                backend="sqlite",
                path=workdir / "heap.sqlite",
            )
            deployment.heaps.append(info.heap)
        except BaseException:
            deployment.close()
            raise
        return deployment


WORKLOADS = {cls.name: cls for cls in (TenantsHttp, GridMemory, DiskScan)}
