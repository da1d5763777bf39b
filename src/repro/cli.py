"""Command-line interface.

Six subcommands::

    python -m repro train --dataset protein --epsilon 0.2 [--delta auto]
        Train a bolt-on private model on a registry dataset and report
        accuracy, sensitivity, and noise magnitude.

    python -m repro reproduce {table2,table3,table4,fig1,fig2} [options]
        Regenerate one of the cheap paper artefacts and print it. (The
        accuracy figures take minutes; run the benchmark harness for
        those: ``pytest benchmarks/ --benchmark-only``.)

    python -m repro submit --dataset protein --epsilon 0.2 [--budget 1.0]
        Drive one job through the multi-tenant training service — budget
        reservation, scheduling, the bolt-on release, the receipt — and
        report the job record.

    python -m repro serve --jobs 50 --workers 4 --tables 2 [--state-dir DIR]
        The async scheduling demo: a synthetic mixed-tenant workload
        over ``--tables`` tables submitted to a running dispatch loop
        (``submit()`` returns immediately; background workers run each
        claimed window as one scan flight, overlapping flights on
        distinct tables thanks to per-table engine domains), reporting
        submit latency, the per-table scan overlap achieved, page
        requests against one job's solo cost, cache hits for
        resubmitted jobs, per-status job counts, and every tenant's
        budget statement. Warns when ``--workers`` exceeds the tables
        with queued work (same-table scans serialize, so the extra
        workers cannot overlap I/O). With
        ``--state-dir`` the registry + budgets autosave there and a
        restarted serve resumes from the snapshot; ``--metrics-file``
        additionally exports the telemetry registry (Prometheus text,
        or a JSON dump when the path ends in ``.json``) after every
        dispatched window. The end-of-run summary renders from the same
        registry, so the report and the export can never disagree.

    python -m repro status JOB {--url http://HOST:PORT --token T | --state-dir DIR}
        One job's status and record summary, from a running HTTP
        front-end or from a prior serve run's state directory.

    python -m repro trace JOB {--state-dir DIR | --url ... --token T} [--json]
        Print one job's lifecycle trace — the monotonic-clock spans
        (admit, queued, claim, scan, epilogue, commit) — from a prior
        serve run's state directory (the durable trace its record
        carries) or over the HTTP API (the live trace, which ends in
        ``wal_sync`` once the job's window was synced). ``--json``
        emits the raw span payload instead of the pretty table.

``serve --http PORT`` additionally starts the ``repro-api/v2`` HTTP
front-end (``repro.api``) and drives the demo workload through
``ServiceClient`` over a real socket; ``--token-file`` maps bearer
tokens to principals (generated and written when the file is missing),
and ``--hold`` keeps serving after the demo until SIGTERM/SIGINT or
``POST /v1/admin/shutdown`` — either path drains the autosave window
before exit, so a containerized deploy never tears the WAL tail.
``submit --url http://... --token ...`` submits through the same
client, making the CLI the API's first consumer.

The CLI is intentionally a thin shell over the library — everything it
does is one public API call.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from repro.core.estimators import BoltOnPrivateClassifier
from repro.data.registry import REGISTRY
from repro.evaluation.figures import (
    figure1_integration,
    figure2_scalability,
    load_experiment_dataset,
)
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.tables import table2_rows, table3, table4_rows
from repro.optim.losses import LogisticLoss


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bolt-on differentially private SGD (Wu et al., SIGMOD 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a private model on a dataset")
    train.add_argument(
        "--dataset", choices=sorted(REGISTRY), default="protein",
        help="registry dataset (synthetic stand-in)",
    )
    train.add_argument("--epsilon", type=float, required=True)
    train.add_argument(
        "--delta", default="0",
        help="'auto' for 1/m^2, or a float (0 = pure eps-DP)",
    )
    train.add_argument("--passes", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=50)
    train.add_argument(
        "--regularization", type=float, default=1e-3,
        help="lambda; 0 selects the convex Algorithm 1",
    )
    train.add_argument("--loss", choices=("logistic", "huber"), default="logistic")
    train.add_argument("--scale", type=float, default=None,
                       help="dataset scale (default: registry default)")
    train.add_argument("--seed", type=int, default=0)

    reproduce = sub.add_parser("reproduce", help="regenerate a paper artefact")
    reproduce.add_argument(
        "artefact", choices=("table2", "table3", "table4", "fig1", "fig2"),
    )

    submit = sub.add_parser(
        "submit", help="run one job through the training service"
    )
    submit.add_argument(
        "--dataset", choices=sorted(REGISTRY), default="protein",
        help="registry dataset (synthetic stand-in)",
    )
    submit.add_argument("--epsilon", type=float, required=True)
    submit.add_argument("--delta", type=float, default=0.0)
    submit.add_argument(
        "--budget", type=float, default=None,
        help="the principal's epsilon cap on the table (default: 2x epsilon)",
    )
    submit.add_argument("--principal", default="analyst")
    submit.add_argument("--passes", type=int, default=5)
    submit.add_argument("--batch-size", type=int, default=50)
    submit.add_argument("--regularization", type=float, default=1e-3)
    submit.add_argument("--scale", type=float, default=None)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--url", default=None, metavar="http://HOST:PORT",
        help="submit through a running HTTP front-end (repro serve --http) "
        "instead of spinning up an in-process service",
    )
    submit.add_argument(
        "--token", default=None,
        help="bearer token for --url (maps to the submitting principal)",
    )
    submit.add_argument(
        "--table", default=None,
        help="server-side table to train against (--url mode only)",
    )
    submit.add_argument(
        "--wait-seconds", type=float, default=600.0,
        help="--url mode: how long to poll for the job to finish",
    )

    serve = sub.add_parser(
        "serve", help="demo the async shared-scan server on a mixed-tenant workload"
    )
    serve.add_argument("--jobs", type=int, default=50, help="jobs to submit")
    serve.add_argument("--tenants", type=int, default=4)
    serve.add_argument("--rows", type=int, default=2000)
    serve.add_argument("--dim", type=int, default=20)
    serve.add_argument("--passes", type=int, default=2)
    serve.add_argument("--batch-size", type=int, default=50)
    serve.add_argument(
        "--epsilon", type=float, default=0.05, help="epsilon per job"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--workers", type=int, default=4,
        help="background dispatch worker threads (the async loop)",
    )
    serve.add_argument(
        "--tables", type=int, default=2,
        help="registered tables to spread the workload over; workers "
        "overlap scans on distinct tables (per-table engine domains)",
    )
    serve.add_argument(
        "--state-dir", default=None,
        help="autosave registry + budgets here and resume from a prior run",
    )
    serve.add_argument(
        "--elevator", action="store_true",
        help="keep scan flights open for boarding: jobs submitted "
        "mid-scan board the running flight at its current position "
        "instead of waiting for the next batching window",
    )
    serve.add_argument(
        "--metrics-file", default=None,
        help="export the metrics registry here after every dispatched "
        "window (atomic replace; a .json suffix selects the JSON dump, "
        "anything else the Prometheus text exposition)",
    )
    serve.add_argument(
        "--backend", choices=("memory", "sqlite"), default="memory",
        help="table storage: 'memory' (in-process arrays) or 'sqlite' "
        "(each table bulk-loaded into a SQLite-WAL heap file; scans pay "
        "real page I/O through the buffer pool)",
    )
    serve.add_argument(
        "--sqlite-dir", default=None,
        help="directory for the SQLite heap files (--backend sqlite); "
        "defaults to <state-dir>/heaps, or a temp dir without --state-dir",
    )
    serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="start the repro-api/v2 HTTP front-end on PORT (0 = pick an "
        "ephemeral port) and drive the demo workload through ServiceClient "
        "over a real socket",
    )
    serve.add_argument(
        "--token-file", default=None,
        help="principal:token lines mapping bearer tokens to principals "
        "(the 'admin' principal's token guards POST /v1/admin/shutdown); "
        "a missing file is generated with demo tokens and written back",
    )
    serve.add_argument(
        "--hold", action="store_true",
        help="with --http: keep serving after the demo workload until "
        "SIGTERM/SIGINT or POST /v1/admin/shutdown (draining the autosave "
        "window before exit)",
    )

    status = sub.add_parser(
        "status",
        help="one job's status from a running HTTP front-end or a state dir",
    )
    status.add_argument("job_id", help="the job id (e.g. job-00001)")
    status.add_argument(
        "--url", default=None, metavar="http://HOST:PORT",
        help="a running HTTP front-end (repro serve --http)",
    )
    status.add_argument("--token", default=None, help="bearer token for --url")
    status.add_argument(
        "--state-dir", default=None,
        help="a prior serve run's state directory (instead of --url)",
    )

    trace = sub.add_parser(
        "trace",
        help="print one job's lifecycle trace from a state dir or over HTTP",
    )
    trace.add_argument("job_id", help="the job id (e.g. job-00001)")
    trace.add_argument(
        "--state-dir", default=None,
        help="a prior serve run's state directory (snapshot + receipt log)",
    )
    trace.add_argument(
        "--url", default=None, metavar="http://HOST:PORT",
        help="a running HTTP front-end (instead of --state-dir)",
    )
    trace.add_argument("--token", default=None, help="bearer token for --url")
    trace.add_argument(
        "--json", action="store_true",
        help="emit the record's raw trace payload as JSON",
    )
    return parser


def _train(args: argparse.Namespace) -> int:
    pair = load_experiment_dataset(args.dataset, scale=args.scale, seed=args.seed)
    train_ds, test_ds = pair.train, pair.test
    if train_ds.num_classes != 2:
        print(
            f"{args.dataset} is multiclass; the CLI trains binary models — "
            "use repro.multiclass.train_one_vs_rest from Python",
            file=sys.stderr,
        )
        return 2
    delta = 1.0 / train_ds.size**2 if args.delta == "auto" else float(args.delta)

    classifier = BoltOnPrivateClassifier(
        epsilon=args.epsilon,
        delta=delta,
        loss=args.loss,
        regularization=args.regularization,
        passes=args.passes,
        batch_size=args.batch_size,
    ).fit(train_ds.features, train_ds.labels, random_state=args.seed)

    print(f"dataset         : {train_ds.name} (m={train_ds.size}, d={train_ds.dimension})")
    print(f"privacy         : {classifier.privacy_}")
    print(f"sensitivity     : {classifier.sensitivity_:.6g} "
          f"({classifier.result_.sensitivity.regime})")
    print(f"noise norm      : {classifier.noise_norm_:.6g}")
    print(f"test accuracy   : {classifier.score(test_ds.features, test_ds.labels):.4f}")
    return 0


def _reproduce(args: argparse.Namespace) -> int:
    if args.artefact == "table2":
        print(format_table(table2_rows()))
    elif args.artefact == "table3":
        print(format_table(table3()))
    elif args.artefact == "table4":
        props = LogisticLoss(regularization=1e-4).properties(radius=1e4)
        print(format_table(table4_rows(72876, props)))
    elif args.artefact == "fig1":
        fig = figure1_integration()
        for key, value in fig["meta"].items():
            print(f"{key}: {value}")
    elif args.artefact == "fig2":
        fig = figure2_scalability()
        print(format_series(
            "Figure 2(a) (simulated minutes/epoch)", "millions",
            fig["x"], fig["series"],
        ))
    return 0


def _submit_remote(args: argparse.Namespace) -> int:
    """``repro submit --url``: the same verb, spoken through the client."""
    from repro.api import ServiceClient
    from repro.optim.losses import LogisticLoss as _Logistic
    from repro.service import ServiceError

    if args.table is None:
        print("submit --url needs --table (the server-side table name)",
              file=sys.stderr)
        return 2
    client = ServiceClient(args.url, token=args.token)
    try:
        record = client.submit(
            args.principal,
            args.table,
            _Logistic(regularization=args.regularization),
            epsilon=args.epsilon,
            delta=args.delta,
            passes=args.passes,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        if not record.done:
            record = client.wait(record.job_id, timeout=args.wait_seconds)
        statements = [
            statement
            for statement in client.budgets()
            if statement.principal == args.principal
            and statement.table == args.table
        ]
    except (ServiceError, TimeoutError) as error:
        code = getattr(error, "code", "error")
        print(f"error: {code}: {error}", file=sys.stderr)
        return 2
    return _print_submitted(
        record, args.principal, args.table, statements[0] if statements else None
    )


def _print_submitted(record, principal, table, statement, accuracy=None) -> int:
    """``repro submit``'s report on one job, local or remote; returns the
    exit status (0 when the job completed). ``accuracy``, when given, is
    the released model's test accuracy."""
    from repro.service import JobStatus

    completed = record.status is JobStatus.COMPLETED
    print(f"job             : {record.job_id} ({principal} on {table})")
    print(f"status          : {record.status}")
    if completed:
        print(f"dispatch        : {record.dispatch} (group of {record.group_size})")
        print(f"pages charged   : {record.group_pages}")
        print(f"sensitivity     : {record.sensitivity:.6g}")
        print(f"noise norm      : {record.noise_norm:.6g}")
        if record.receipt is not None:
            print(f"receipt         : #{record.receipt.sequence} for "
                  f"{record.receipt.parameters}")
        if accuracy is not None:
            print(f"test accuracy   : {accuracy:.4f}")
    elif record.error:
        print(f"reason          : {record.error}")
    if statement is not None:
        print(
            f"budget          : cap {statement.cap}, spent "
            f"({statement.spent[0]:g}, {statement.spent[1]:g}), "
            f"available eps {statement.available_epsilon:g}"
        )
    return 0 if completed else 1


def _submit(args: argparse.Namespace) -> int:
    from repro.optim.losses import LogisticLoss as _Logistic
    from repro.service import JobStatus, TrainingService

    if args.url is not None:
        return _submit_remote(args)
    pair = load_experiment_dataset(args.dataset, scale=args.scale, seed=args.seed)
    train_ds, test_ds = pair.train, pair.test
    if train_ds.num_classes != 2:
        print(
            f"{args.dataset} is multiclass; the service CLI submits binary "
            "jobs — use repro.service.TrainingService from Python",
            file=sys.stderr,
        )
        return 2
    budget = args.budget if args.budget is not None else 2.0 * args.epsilon
    table_name = train_ds.name.replace("-", "_")  # catalog names are [A-Za-z0-9_]

    service = TrainingService(scan_seed=args.seed)
    service.register_table(table_name, train_ds.features, train_ds.labels)
    service.open_budget(args.principal, table_name, budget, args.delta)
    record = service.submit(
        args.principal,
        table_name,
        _Logistic(regularization=args.regularization),
        epsilon=args.epsilon,
        delta=args.delta,
        passes=args.passes,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    service.drain()

    accuracy = None
    if record.status is JobStatus.COMPLETED:
        loss = record.job.candidate.loss
        accuracy = float(
            (loss.predict(record.model, test_ds.features) == test_ds.labels).mean()
        )
    return _print_submitted(
        record, args.principal, table_name, service.budgets()[0], accuracy
    )


def _serve_tokens(token_file, tenants):
    """The bearer-token map for ``serve --http``: token -> principal.

    ``token_file`` holds ``principal:token`` lines (``#`` comments); the
    ``admin`` principal's token guards ``POST /v1/admin/shutdown``. When
    the path is missing (or None), deterministic demo tokens are
    generated — and written back to the path, if one was given, so a
    follow-up ``repro submit --url --token $(...)`` can read them. Demo
    tokens are for the demo: a real deploy writes its own file.
    """
    entries = {}
    if token_file is not None and pathlib.Path(token_file).exists():
        for line in pathlib.Path(token_file).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            principal, _, token = line.partition(":")
            if not token:
                raise ValueError(
                    f"{token_file}: expected 'principal:token', got {line!r}"
                )
            entries[principal.strip()] = token.strip()
    else:
        entries = {tenant: f"{tenant}-token" for tenant in tenants}
        entries["admin"] = "admin-token"
        if token_file is not None:
            lines = [f"{p}:{t}" for p, t in sorted(entries.items())]
            pathlib.Path(token_file).write_text("\n".join(lines) + "\n")
    admin_token = entries.pop("admin", None)
    tokens = {token: principal for principal, token in entries.items()}
    return tokens, admin_token


def _serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    import time

    import numpy as np

    from repro.data.synthetic import linearly_separable_binary
    from repro.obs.summary import serve_summary_lines
    from repro.optim.losses import LogisticLoss as _Logistic
    from repro.service import TrainingService

    if args.workers < 1:
        print("serve needs at least one worker", file=sys.stderr)
        return 2
    if args.tables < 1:
        print("serve needs at least one table", file=sys.stderr)
        return 2
    if args.hold and args.http is None:
        print("--hold needs --http (there is nothing to hold open)", file=sys.stderr)
        return 2
    tenants = [f"tenant-{i}" for i in range(max(1, args.tenants))]
    table_names = [f"shared_{t}" for t in range(args.tables)]
    # Jobs rotate tenants first, then tables — how many tables actually
    # receive queued work bounds the scan overlap the workers can reach.
    tables_used = min(args.tables, max(1, -(-args.jobs // len(tenants))))
    if args.workers > tables_used:
        print(
            f"warning: --workers {args.workers} exceeds the {tables_used} "
            f"table(s) with queued work; scans of the same table serialize "
            f"(per-table engine domains), so at most {tables_used} scan(s) "
            f"overlap and the extra workers only overlap epilogues — "
            f"spread jobs over more --tables to use the full fleet",
            file=sys.stderr,
        )

    service = TrainingService(
        scan_seed=args.seed,
        workers=args.workers,
        elevator=args.elevator,
        state_dir=args.state_dir,
        metrics_file=args.metrics_file,
    )
    sqlite_dir = None
    if args.backend == "sqlite":
        if args.sqlite_dir is not None:
            sqlite_dir = pathlib.Path(args.sqlite_dir)
        elif args.state_dir is not None:
            sqlite_dir = pathlib.Path(args.state_dir) / "heaps"
        else:
            import tempfile

            sqlite_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-heaps-"))
        sqlite_dir.mkdir(parents=True, exist_ok=True)
    table = None
    for t, name in enumerate(table_names):
        pair = linearly_separable_binary(
            "served", args.rows, 10, args.dim, random_state=args.seed + t
        )
        table = table if table is not None else pair.train
        if args.backend == "sqlite":
            service.register_table(
                name,
                pair.train.features,
                pair.train.labels,
                backend="sqlite",
                path=sqlite_dir / f"{name}.db",
            )
        else:
            service.register_table(name, pair.train.features, pair.train.labels)
    resumed = service.load_state() if args.state_dir else 0

    jobs_per_tenant = -(-args.jobs // len(tenants))
    jobs_per_account = max(1, -(-jobs_per_tenant // args.tables))
    for index, tenant in enumerate(tenants):
        # The last tenant gets roughly half the allowance it needs, so the
        # tail of its submissions exercises admission-control rejection.
        # (A resumed run already has the accounts — budgets are durable.)
        share = (
            jobs_per_account
            if index < len(tenants) - 1
            else max(1, jobs_per_account // 2)
        )
        for name in table_names:
            if service.ledger.has_account(tenant, name):
                continue
            service.open_budget(tenant, name, args.epsilon * share + 1e-9)

    # The optional HTTP front-end: the demo workload then rides
    # ServiceClient over a real socket — the CLI is the API's first
    # consumer, and the submit latencies below include the wire.
    api_server = None
    clients = {}
    stop_event = threading.Event()
    if args.http is not None:
        from repro.api import ServiceApiServer, ServiceClient

        tokens, admin_token = _serve_tokens(args.token_file, tenants)
        api_server = ServiceApiServer(
            service, tokens, admin_token=admin_token, port=args.http
        ).start()
        clients = {
            principal: ServiceClient(api_server.url, token)
            for token, principal in tokens.items()
        }
        missing = [t for t in tenants if t not in clients]
        if missing:
            print(
                f"error: token file grants no token to {missing[0]!r} "
                "(every tenant in the demo workload needs one)",
                file=sys.stderr,
            )
            api_server.close()
            return 2

    # A containerized deploy stops with SIGTERM: finish the workload
    # path we are on, drain the autosave window, and only then exit —
    # never tear the WAL tail. (Handlers only install from the main
    # thread; elsewhere — e.g. tests driving main() — the default
    # disposition stays.)
    def _graceful(signum, frame):
        stop_event.set()
        if api_server is not None:
            api_server.request_shutdown()

    previous_handlers = {}
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[sig] = signal.signal(sig, _graceful)
    except ValueError:
        pass

    try:
        # The async loop: workers dispatch in the background while
        # submit() returns immediately — the per-call latency below is
        # the proof.
        service.start()
        lambdas = np.logspace(-4, -2, 5)
        submit_seconds = []
        for j in range(args.jobs):
            tenant = tenants[j % len(tenants)]
            table_name = table_names[(j // len(tenants)) % args.tables]
            loss = _Logistic(regularization=float(lambdas[j % len(lambdas)]))
            start = time.perf_counter()
            if clients:
                clients[tenant].submit(
                    tenant,
                    table_name,
                    loss,
                    epsilon=args.epsilon,
                    passes=args.passes,
                    batch_size=args.batch_size,
                    seed=1000 + j,
                )
            else:
                service.submit(
                    tenant,
                    table_name,
                    loss,
                    epsilon=args.epsilon,
                    passes=args.passes,
                    batch_size=args.batch_size,
                    seed=1000 + j,
                )
            submit_seconds.append(time.perf_counter() - start)
        drain_start = time.perf_counter()
        service.drain()
        drain_seconds = time.perf_counter() - drain_start
        if args.hold and api_server is not None and not stop_event.is_set():
            print(
                f"holding         : {api_server.url} serving until SIGTERM "
                "or POST /v1/admin/shutdown"
            )
            while not (
                stop_event.wait(0.1) or api_server.shutdown_requested.is_set()
            ):
                pass
            service.drain()  # jobs submitted during the hold finish too
        service.stop()
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        if api_server is not None:
            api_server.close()

    single_scan_pages = args.passes * table.size
    print(f"workload        : {args.jobs} jobs, {len(tenants)} tenants, "
          f"{args.tables} tables, m={table.size}, d={table.features.shape[1]}")
    boarding = "open (elevator)" if args.elevator else "closed"
    print(f"dispatch mode   : one scan flight per window, boarding "
          f"{boarding}, {args.workers} workers")
    if api_server is not None:
        print(
            f"http front-end  : {api_server.url} (repro-api/v2, "
            f"{len(clients)} tenant tokens; submits rode the socket)"
        )
    if args.backend == "sqlite":
        print(f"storage backend : sqlite (WAL heaps under {sqlite_dir})")
    if resumed:
        print(f"resumed         : {resumed} records from {args.state_dir} "
              f"(cache hits serve them free)")
    if submit_seconds:  # ``--jobs 0`` (a long-lived ``--hold``) submits none
        print(f"submit latency  : max {max(submit_seconds) * 1e3:.2f} ms, "
              f"mean {np.mean(submit_seconds) * 1e3:.2f} ms "
              f"(never blocks on a scan)")
    print(f"drain           : {drain_seconds * 1e3:.1f} ms until quiescent")
    # The snapshot happens before the summary so its WAL counters (and
    # the metrics dump, if one is being exported) include it.
    if args.state_dir and service.durability["mode"] != "degraded":
        service.save_state()
    for line in serve_summary_lines(
        service,
        table_names=table_names,
        overlap_note=f" of {min(args.workers, tables_used)} possible "
                     f"({args.workers} workers, {tables_used} tables with work)",
        pages_note=f" ({single_scan_pages} = one job alone on its table)",
        state_dir=args.state_dir,
    ):
        print(line)
    return 0


def _record_source(args: argparse.Namespace):
    """Resolve ``--url`` / ``--state-dir`` into a record fetcher.

    Returns ``(fetch, where, code)``: ``fetch(job_id)`` yields a
    :class:`JobRecord` (restored from the state directory, or decoded
    from the server's reply), ``where`` names the source for error
    messages. On a usage/load error, ``fetch`` is None and ``code`` is
    the exit status to return. A record fetched over HTTP carries the
    trace route's live trace (``wal_sync`` included), not the durable
    one its job body holds.
    """
    from repro.service import TrainingService, WalCorruption

    if (args.url is None) == (args.state_dir is None):
        print("pass exactly one of --url or --state-dir", file=sys.stderr)
        return None, "", 2
    if args.url is not None:
        from repro.api import ServiceClient

        client = ServiceClient(args.url, token=args.token)

        def fetch(job_id: str):
            record = client.result(job_id)
            record.trace = client.trace(job_id)
            return record

        return fetch, args.url, 0
    service = TrainingService()
    try:
        service.load_state(args.state_dir)
    except (OSError, ValueError, WalCorruption) as error:
        print(f"error: cannot load {args.state_dir}: {error}", file=sys.stderr)
        return None, "", 2
    return service.result, args.state_dir, 0


def _status(args: argparse.Namespace) -> int:
    from repro.service import JobStatus, ServiceError, UnknownJob

    fetch, where, code = _record_source(args)
    if fetch is None:
        return code
    try:
        record = fetch(args.job_id)
    except UnknownJob:
        print(f"error: no job {args.job_id!r} at {where}", file=sys.stderr)
        return 2
    except ServiceError as error:
        print(f"error: {getattr(error, 'code', 'error')}: {error}",
              file=sys.stderr)
        return 2
    print(f"job             : {record.job_id} "
          f"({record.job.principal} on {record.job.table})")
    print(f"status          : {record.status}")
    if record.error:
        print(f"reason          : {record.error}")
    if record.status is JobStatus.COMPLETED:
        print(f"dispatch        : {record.dispatch} (group of {record.group_size})")
        print(f"pages charged   : {record.group_pages}")
    return 0 if record.status is JobStatus.COMPLETED else 1


def _trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.summary import trace_lines
    from repro.service import ServiceError, UnknownJob

    fetch, where, code = _record_source(args)
    if fetch is None:
        return code
    try:
        record = fetch(args.job_id)
    except UnknownJob:
        print(
            f"error: no job {args.job_id!r} in {where} "
            "(only records that reached the log/snapshot are durable)",
            file=sys.stderr,
        )
        return 2
    except ServiceError as error:
        print(f"error: {getattr(error, 'code', 'error')}: {error}",
              file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "job_id": record.job_id,
            "principal": record.job.principal,
            "table": record.job.table,
            "status": str(record.status),
            "trace": record.trace.payload(),
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in trace_lines(record):
            print(line)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return _train(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "status":
        return _status(args)
    if args.command == "trace":
        return _trace(args)
    return _reproduce(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    raise SystemExit(main())
