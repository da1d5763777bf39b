#!/usr/bin/env python
"""The async training service: 50 mixed-tenant jobs, background workers,
shared scans, hard budgets, a result cache, and a durable registry.

The walkthrough the ROADMAP's service-layer section narrates:

1. two tables are registered with the service ("ratings" and "clicks");
2. four tenants get per-(principal, table) privacy budgets — mallory's
   is deliberately too small for her appetite;
3. 50 jobs are submitted to a *running* service (``start()`` launched
   background dispatch workers, so every ``submit()`` returns a job
   handle immediately): a mix of logistic/Huber losses, regularization
   strengths, priorities and seeds, plus one *unreleasable* job (a
   non-smooth hinge loss) and a tail of over-budget ones;
4. the workers train everything while the submitter is still free:
   each claimed window flies as one shared scan of its table (pages
   charged once per flight), and since every rider keeps its own batch
   phase and pass count, carol's batch-40 jobs and the lone passes=3
   job share ratings flights with alice's and bob's; the hinge job
   fails with its reservation refunded, and mallory's over-budget jobs
   are rejected having never touched a page;
5. resubmitting a completed job hits the cross-drain result cache — the
   same release comes back with 0 page requests and 0 ε re-spent;
6. the registry + budgets snapshot to disk, and a *restarted* service
   resumes: prior models served, budgets reconciled from committed
   receipts, the cache re-armed.

Every completed job's released weights are bitwise-identical to what the
job would have produced running alone — shared scans, worker
scheduling, the cache, and even a process restart are invisible to
tenants everywhere except the page counters and the clock.

Run:  python examples/service_demo.py
"""

from __future__ import annotations

import tempfile
import time

from repro.data.synthetic import linearly_separable_binary
from repro.optim.losses import HingeLoss, HuberSVMLoss, LogisticLoss
from repro.service import JobStatus, TrainingService

EPS_PER_JOB = 0.05
PASSES, BATCH = 2, 25
WORKERS = 4


def build_service(state_dir=None) -> TrainingService:
    service = TrainingService(batching_window=32, chunk_size=128, scan_seed=7,
                              workers=WORKERS, state_dir=state_dir)
    ratings = linearly_separable_binary("ratings", 600, 10, 12, random_state=1).train
    clicks = linearly_separable_binary("clicks", 400, 10, 8, random_state=2).train
    service.register_table("ratings", ratings.features, ratings.labels)
    service.register_table("clicks", clicks.features, clicks.labels)

    # Budgets: alice and bob are comfortable, carol is tight, and mallory
    # gets 3 jobs' worth on ratings but will ask for far more.
    service.open_budget("alice", "ratings", 1.0)
    service.open_budget("alice", "clicks", 0.5)
    service.open_budget("bob", "ratings", 1.0)
    service.open_budget("bob", "clicks", 0.5)
    service.open_budget("carol", "ratings", 6 * EPS_PER_JOB)
    service.open_budget("mallory", "ratings", 3 * EPS_PER_JOB)
    return service


def submit_workload(service: TrainingService) -> list:
    records = []
    lambdas = [1e-4, 1e-3, 1e-2]
    # 1-20: alice & bob on ratings — one shape (same batch/passes),
    # heterogeneous losses and regularization.
    for j in range(20):
        principal = "alice" if j % 2 == 0 else "bob"
        loss = (
            LogisticLoss(regularization=lambdas[j % 3])
            if j % 4 != 3
            else HuberSVMLoss(0.1, regularization=lambdas[j % 3])
        )
        records.append(service.submit(principal, "ratings", loss,
                                      epsilon=EPS_PER_JOB, passes=PASSES,
                                      batch_size=BATCH, seed=100 + j))
    # 21-32: the clicks table — its own flight, higher priority.
    for j in range(12):
        principal = "alice" if j % 2 == 0 else "bob"
        records.append(service.submit(
            principal, "clicks", LogisticLoss(regularization=lambdas[j % 3]),
            epsilon=EPS_PER_JOB, passes=PASSES, batch_size=BATCH,
            priority=1, seed=200 + j))
    # 33-38: carol's ratings jobs with a *different* batch size — riders
    # keep their own mini-batch phase, so they share the ratings flight.
    for j in range(6):
        records.append(service.submit(
            "carol", "ratings", LogisticLoss(regularization=lambdas[j % 3]),
            epsilon=EPS_PER_JOB, passes=PASSES, batch_size=40, seed=300 + j))
    # 39: a lone odd job (passes=3) — it rides the same flight and stays
    # aboard for one more loop of the cursor after the others land.
    records.append(service.submit(
        "alice", "ratings", LogisticLoss(regularization=1e-3),
        epsilon=EPS_PER_JOB, passes=3, batch_size=BATCH, seed=400))
    # 40: bob asks for a non-smooth hinge loss — trainable, but not
    # privately releasable; the job FAILS before any scan and his
    # reservation is refunded.
    records.append(service.submit("bob", "ratings", HingeLoss(),
                                  epsilon=EPS_PER_JOB, passes=PASSES,
                                  batch_size=BATCH, seed=401))
    # 41-50: mallory hammers ratings; only her first 3 fit her budget,
    # the other 7 are REJECTED at admission — zero pages, zero epsilon.
    for j in range(10):
        records.append(service.submit(
            "mallory", "ratings", LogisticLoss(regularization=1e-3),
            epsilon=EPS_PER_JOB, passes=PASSES, batch_size=BATCH,
            seed=500 + j))
    return records


def main() -> None:
    import numpy as np

    state_dir = tempfile.mkdtemp(prefix="repro-service-")
    service = build_service(state_dir)

    # The server is live BEFORE any work arrives: background workers
    # watch the queue, so submissions below are pure admission.
    service.start()
    pages_before = service.page_reads
    submit_times = []
    t0 = time.perf_counter()
    submit_workload(service)
    submit_times.append(time.perf_counter() - t0)
    assert len(service.registry) == 50

    finished = service.drain()  # block until quiescent (workers did the work)
    pages = service.page_reads - pages_before

    counts = service.registry.counts()
    print("== 50 mixed-tenant jobs, 4 background workers ==")
    print(f"submit   : all 50 in {submit_times[0] * 1e3:.1f} ms "
          f"(admission only — workers scan concurrently)")
    print("statuses :", ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v))
    print(f"flights  : {len(service.scheduler.dispatch_log)} scans for "
          f"{counts['completed']} completed jobs")
    for (table,), job_ids, flight_pages in service.scheduler.dispatch_log:
        print(f"  flight on {table:>7}: {len(job_ids):>2} riders, "
              f"{flight_pages} page requests")
    print(f"pages    : {pages} total — one job alone on ratings costs "
          f"{PASSES * 600}, on clicks {PASSES * 400}")

    print("\n== budgets after the drain ==")
    for statement in service.budgets():
        print(f"  {statement.principal:>8} on {statement.table:>7}: "
              f"spent ({statement.spent[0]:.2f}, {statement.spent[1]:g}) "
              f"of cap {statement.cap.epsilon:.2f}, "
              f"available eps {statement.available_epsilon:.2f}")

    failed = service.jobs(status=JobStatus.FAILED)
    rejected = service.jobs(status=JobStatus.REJECTED)
    print(f"\nfailed   : {[record.job_id for record in failed]} "
          f"(budget refunded — bob spent nothing on it)")
    print(f"rejected : {len(rejected)} of mallory's jobs "
          f"(admission control; they charged 0 pages)")

    # The cross-drain result cache: resubmitting job-00001 verbatim
    # returns the committed release instantly — 0 pages, 0 epsilon.
    pages_before = service.page_reads
    hit = service.submit("alice", "ratings", LogisticLoss(regularization=1e-4),
                         epsilon=EPS_PER_JOB, passes=PASSES,
                         batch_size=BATCH, seed=100)
    assert hit.done and hit.dispatch == "cached"
    assert service.page_reads == pages_before
    same = np.array_equal(hit.model, service.model("job-00001"))
    print(f"\ncache    : resubmitted job-00001 -> {hit.job_id} served from "
          f"cache, 0 pages, 0 eps, bitwise-equal: {same}")
    assert same
    service.stop()  # final autosave lands in state_dir

    # Durability: a NEW process would do exactly this — register tables,
    # load the snapshot, and keep serving with budgets reconciled from
    # the committed receipts.
    restarted = TrainingService(batching_window=32, chunk_size=128,
                                scan_seed=7, workers=WORKERS)
    ratings = linearly_separable_binary("ratings", 600, 10, 12, random_state=1).train
    clicks = linearly_separable_binary("clicks", 400, 10, 8, random_state=2).train
    restarted.register_table("ratings", ratings.features, ratings.labels)
    restarted.register_table("clicks", clicks.features, clicks.labels)
    loaded = restarted.load_state(state_dir)
    replay = restarted.submit("alice", "ratings",
                              LogisticLoss(regularization=1e-4),
                              epsilon=EPS_PER_JOB, passes=PASSES,
                              batch_size=BATCH, seed=100)
    mallory = restarted.submit("mallory", "ratings",
                               LogisticLoss(regularization=1e-3),
                               epsilon=EPS_PER_JOB, passes=PASSES,
                               batch_size=BATCH, seed=999)
    print(f"restart  : {loaded} records loaded; replay of job-00001 is "
          f"{replay.dispatch} (bitwise-equal: "
          f"{np.array_equal(replay.model, service.model('job-00001'))}); "
          f"mallory's reconciled account still rejects: "
          f"{mallory.status.value}")
    assert replay.dispatch == "cached"
    assert mallory.status is JobStatus.REJECTED
    assert len(finished) == counts["completed"] + counts["failed"]

    # Telemetry rode along the whole time: every job carries a span-level
    # lifecycle trace, and the always-on metrics registry exposes the
    # run in Prometheus text (or JSON via metrics(format="json")).
    trace = service.trace("job-00001")
    print("\n== telemetry (always on; see also `repro trace JOB`) ==")
    print("trace    : job-00001 -> "
          + " -> ".join(f"{span.name} {span.duration * 1e3:.2f}ms"
                        for span in trace.spans()))
    exposition = service.metrics()  # Prometheus text format
    wanted = ("repro_registry_jobs", "repro_scan_pages_total",
              "repro_ledger_epsilon_spent")
    shown = [line for line in exposition.splitlines()
             if line.startswith(wanted)][:8]
    print(f"metrics  : {len(exposition.splitlines())} exposition lines, e.g.")
    for line in shown:
        print(f"  {line}")


if __name__ == "__main__":
    main()
