"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_memory --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` first measures an untraced window, then installs span
wrappers around each layer's public entry points (``perfbench/spans.py``)
and measures a traced window of the same length; it reports the per-layer
metrics and the tracing overhead between the two windows.

Either way, set-up is repeated :data:`SETUP_REPEATS` times (the median is
``setup_s``), a few warm-up jobs run before any timing, and after the
timed region the output checks (``perfbench/checks.py``) recompute a
seeded sample of releases bitwise. Every end-to-end metric is taken over
the whole measured window, and each timing is scaled to a reference host
speed measured inside the same run (``perfbench/reference.py``); the raw
figures go to the run history. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 for
a correct, valid run; 1 when an output check fails (the result line then
says ``"correct": false``); 3 when the run is invalid — too few samples
for a reported percentile, or an open-loop generator that ran late —
with no result line; 2 when the package under test cannot be imported.

Every run appends its result, raw figures and provenance (commit, host,
versions, seed, shape, reference-loop times) to ``perfbench/_runs/history.jsonl``; a traced run also
writes its spans to ``perfbench/_runs/spans-*.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Output checks: how many trained releases are recomputed per workload.
CHECK_SAMPLES = {"tenants_http": 6, "grid_memory": 3, "disk_scan": 2}
#: An open-loop run whose generator sent its requests later than this
#: (p90, ms) did not offer the load it claims and is invalid.
LATE_LIMIT_MS = 20.0

#: Traced layer entry points (span names from ``spans.install``). Each
#: reports ``<name>_ms`` (mean per call), ``<name>_calls`` and
#: ``<name>_self_pct`` (self time as a share of the traced window).
SPAN_NAMES = (
    "api.submit",
    "api.fetch",
    "service.submit",
    "scheduler.admit",
    "scheduler.dispatch",
    "ledger.reserve",
    "ledger.commit",
    "wal.sync",
    "wal.compact",
    "session.scan",
    "executor.gather",
    "heap.read",
    "uda.fold",
    "optim.gradient",
    "core.epilogue",
)


def declared_metrics(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for
    ``section`` ("end_to_end" or "per_layer"). A declared metric the run
    does not produce reads ``None`` and invalidates the run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of ``values``, or ``None`` unless at least
    ten samples lie beyond it (so p50 needs 20 samples, p75 40, p90 100)."""
    if len(values) * (100.0 - q) / 100.0 < 10:
        return None
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1e3


def end_to_end(samples, setup_s: float, scaled: bool = True) -> Dict[str, Optional[float]]:
    """The end-to-end metrics of one measured window, each taken over the
    whole window. With ``scaled``, durations are read on the window's
    reference clock (``reference.py``), otherwise on the wall clock.

    A closed loop's throughput is over the time spent in its rounds. An
    open loop's is over its whole window, whose length the offered
    schedule sets in wall-clock time, so it is never scaled.
    """
    length = samples.clock.length if scaled else (lambda start, end: end - start)
    if samples.closed_loop:
        elapsed = sum(length(start, end) for start, end in samples.job)
    else:
        elapsed = samples.end - samples.start

    def ms(intervals, q: float) -> Optional[float]:
        return _ms(percentile([length(start, end) for start, end in intervals], q))

    return {
        "setup_s": setup_s,
        "jobs_per_s": samples.completed / elapsed,
        "train_tuples_per_s": samples.trained_tuples / elapsed,
        "job_p50_ms": ms(samples.job, 50),
        "job_p75_ms": ms(samples.job, 75),
        "submit_p50_ms": ms(samples.submit, 50),
        "submit_p75_ms": ms(samples.submit, 75),
        "peak_rss_mb": samples.rss_mb,
    }


def service_counters(service, dimension: int) -> Dict[str, float]:
    """Cumulative service-side counters (the traced window uses deltas)."""
    from repro.rdbms.storage import tuples_per_page

    stats = service.session.table_stats().values()
    reads = sum(s.page_reads for s in stats)
    cache = service.scheduler.cache
    wal = service.wal
    return {
        "page_passes": reads / tuples_per_page(dimension),
        "pool_hits": sum(s.cache_hits for s in stats),
        "pool_misses": sum(s.cache_misses for s in stats),
        "pool_evictions": sum(s.evictions for s in stats),
        "pool_requests": reads,
        "scans": len(service.scheduler.dispatch_log),
        "scan_pages": sum(pages for _, _, pages in service.scheduler.dispatch_log),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "wal_syncs": wal.syncs if wal is not None else 0,
        "wal_compactions": wal.resets if wal is not None else 0,
    }


def per_layer(tracer, samples, before, after) -> Dict[str, float]:
    """Per-layer metrics of the traced window."""
    from repro.service import JobStatus

    layers = tracer.by_name()
    wall = samples.end - samples.start
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        row = layers.get(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        calls = row["calls"]
        metrics[f"{name}_ms"] = row["seconds"] / calls * 1e3 if calls else 0.0
        metrics[f"{name}_calls"] = calls
        metrics[f"{name}_self_pct"] = 100.0 * row["self_seconds"] / wall
    delta = {key: after[key] - before[key] for key in before}

    # The client round trip minus the service verb it carried, per job.
    service_submit = {
        job: end - start
        for _, _, name, start, end, job, _ in tracer.spans
        if name == "service.submit" and job is not None
    }
    overheads = [
        (end - start) - service_submit[job]
        for _, _, name, start, end, job, _ in tracer.spans
        if name == "api.submit" and job in service_submit
    ]
    metrics["api.submit_overhead_ms"] = (
        statistics.fmean(overheads) * 1e3 if overheads else 0.0
    )
    metrics["api.transport_errors"] = samples.failures.get("transport", 0)

    waits = []
    trained = 0
    for record in samples.records:
        span = record.trace.span("queued")
        if span is not None:
            waits.append(span.duration)
        if record.status is JobStatus.COMPLETED and record.dispatch != "cached":
            trained += 1
    metrics["scheduler.queue_wait_p50_ms"] = _ms(percentile(waits, 50))
    metrics["scheduler.queue_wait_p90_ms"] = _ms(percentile(waits, 90))
    metrics["scheduler.scans"] = delta["scans"]
    metrics["scheduler.jobs_per_scan"] = trained / delta["scans"] if delta["scans"] else 0.0
    metrics["scheduler.pages_per_job"] = delta["scan_pages"] / trained if trained else 0.0
    lookups = delta["cache_hits"] + delta["cache_misses"]
    metrics["scheduler.cache_hit_ratio"] = delta["cache_hits"] / lookups if lookups else 0.0

    metrics["wal.syncs"] = delta["wal_syncs"]
    metrics["wal.compactions"] = delta["wal_compactions"]
    metrics["wal.bytes_per_job"] = (
        tracer.wal_bytes / samples.attempted if samples.attempted else 0.0
    )

    reads = layers.get("heap.read", {}).get("calls", 0)
    metrics["heap.reads_per_page_pass"] = (
        reads / delta["page_passes"] if delta["page_passes"] else 0.0
    )
    metrics["pool.hit_ratio"] = (
        delta["pool_hits"] / delta["pool_requests"] if delta["pool_requests"] else 0.0
    )
    metrics["pool.misses"] = delta["pool_misses"]
    metrics["pool.evictions"] = delta["pool_evictions"]

    scan_s = layers.get("session.scan", {}).get("seconds", 0.0)
    epilogue_s = layers.get("core.epilogue", {}).get("seconds", 0.0)
    metrics["core.epilogue_share"] = epilogue_s / scan_s if scan_s else 0.0
    metrics["loadgen.late_p90_ms"] = _ms(percentile(samples.late, 90)) if samples.late else 0.0
    metrics["loadgen.late_max_ms"] = max(samples.late) * 1e3 if samples.late else 0.0
    return metrics


def trace_overhead_pct(workload_name: str, plain: list, traced) -> float:
    """How much tracing cost, on the workload's headline number read on
    each window's reference clock: job p50 latency for the open loop,
    training throughput for the closed loops. ``plain`` are the untraced
    windows around the traced one."""

    def headline(windows) -> Optional[float]:
        spans = [(w.clock.length(a, b), w) for w in windows for a, b in w.job]
        if workload_name == "tenants_http":
            return percentile([length for length, _ in spans], 50)
        return sum(w.trained_tuples for w in windows) / sum(length for length, _ in spans)

    base, slow = headline(plain), headline([traced])
    if not base or not slow:
        return 0.0
    if workload_name == "tenants_http":
        return 100.0 * (slow / base - 1.0)
    return 100.0 * (base / slow - 1.0)


# -- provenance ------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload, seconds: float, trace: bool) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # layout differs across NumPy versions
        blas = "unknown"
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest()[:16],
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workload": workload.name,
        "seed": workload.seed,
        "shape": {"name": workload.shape_name, **workload.shape},
        "seconds": seconds,
        "trace": trace,
        "unix_time": time.time(),
    }


# -- the run -----------------------------------------------------------------------


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    shape: str = "full",
    tamper: bool = False,
) -> dict:
    """One benchmark run; returns the result, checks and provenance."""
    from checks import check_outputs, sample_trained
    from checks import tamper as tamper_record
    from reference import ReferenceClock
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, shape)
    RUNS.mkdir(parents=True, exist_ok=True)
    setups: List[Tuple[float, float]] = []
    setup_clock = ReferenceClock()
    deployment = None
    for index in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
        workdir = RUNS / f"work-{os.getpid()}-{index}"
        started = time.perf_counter()
        deployment = workload.setup(workdir)
        setups.append((started, time.perf_counter()))
        setup_clock.tick()
    try:
        workload.warm(deployment)
        layers = None
        if not trace:
            measured = workload.measure(deployment, seconds, phase=1)
            windows = [measured]
        else:
            import spans

            # Untraced quarters before and after the traced window, so the
            # overhead figure is not skewed by the service's growing history.
            plain = [workload.measure(deployment, seconds / 4, phase=1)]
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                before = service_counters(deployment.service, workload.shape["d"])
                tracer.enabled = True
                measured = workload.measure(deployment, seconds, phase=2)
                tracer.enabled = False
                after = service_counters(deployment.service, workload.shape["d"])
            finally:
                tracer.enabled = False
                uninstall()
            plain.append(workload.measure(deployment, seconds / 4, phase=3))
            windows = plain + [measured]
            layers = per_layer(tracer, measured, before, after)
            layers["trace.overhead_pct"] = trace_overhead_pct(workload_name, plain, measured)
            tracer.dump(RUNS / f"spans-{workload_name}-seed{seed}-{os.getpid()}.jsonl")

        # Output checks, outside every timed region.
        import numpy as np

        rng = np.random.default_rng([seed, 7])
        records = [record for window in windows for record in window.records]
        fetched = {k: v for window in windows for k, v in window.fetched.items()}
        sampled = sample_trained(
            records, rng, CHECK_SAMPLES[workload_name]
        )
        if tamper and sampled:
            tamper_record(sampled[0])
        errors = check_outputs(
            deployment.service, records, sampled, workload.tables, fetched
        )
        if not sampled:
            errors.append("no trained release to check")
    finally:
        deployment.close()

    raw = end_to_end(measured, statistics.median(b - a for a, b in setups), scaled=False)
    metrics = layers or end_to_end(
        measured, statistics.median(setup_clock.length(a, b) for a, b in setups)
    )
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    return {
        "result": {
            "correct": not errors,
            "attempted": measured.attempted,
            "failed": measured.failed,
            "metrics": {
                name: {"value": metrics.get(name), "unit": unit}
                for name, unit in declared.items()
            },
        },
        "errors": errors,
        "failures": measured.failures,
        "samples": {
            "job": len(measured.job),
            "submit": len(measured.submit),
            "checked_releases": len(sampled),
        },
        "late_p90_ms": _ms(percentile(measured.late, 90)) if measured.late else None,
        "raw_metrics": raw,
        "reference_s": {
            "setup_median": setup_clock.median_s(),
            "window_median": measured.clock.median_s(),
            "window_ticks": len(measured.clock.ticks),
        },
        "provenance": provenance(workload, seconds, trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the package under test: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(RUNS / "history.jsonl", "a") as history:
        history.write(json.dumps(outcome) + "\n")
    result = outcome["result"]
    for message in outcome["errors"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed={args.seed} samples={outcome['samples']} "
        f"failures={outcome['failures']} reference_s={outcome['reference_s']}",
        file=sys.stderr,
    )
    if not result["correct"]:
        print(json.dumps(result))
        return 1
    missing = [name for name, entry in result["metrics"].items() if entry["value"] is None]
    if missing:
        print(f"perfbench: invalid run, too few samples for {missing}", file=sys.stderr)
        return 3
    late = outcome["late_p90_ms"]
    if late is not None and late > LATE_LIMIT_MS:
        print(
            f"perfbench: invalid run, the open-loop generator ran {late:.1f} ms late "
            f"at p90 (limit {LATE_LIMIT_MS} ms)",
            file=sys.stderr,
        )
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
