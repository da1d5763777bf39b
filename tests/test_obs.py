"""The observability layer: metrics registry, job traces, consistency.

Three layers of guarantees:

* **Unit** — counters/gauges/histograms record correctly, the Prometheus
  text exposition is well-formed (checked by a small parser, not string
  soup), the JSON dump round-trips exactly, traces are gapless by
  construction and serialize bitwise.
* **Integration** — every terminal job record carries a complete,
  monotonically-ordered trace whose attributes match the record's own
  fields; traces survive the WAL-recovery restart.
* **Consistency** — the exported numbers equal the ground truth they
  sample: scan page totals equal the dispatch log and the buffer pool's
  per-heap deltas, ledger gauges equal the accountant's statements at
  every sampled instant, never just at quiescence.
"""

from __future__ import annotations

import json
import re
import threading
import warnings

import pytest

from repro.obs import metrics as obs
from repro.obs.summary import metric_samples, metric_value, serve_summary_lines
from repro.obs.trace import SPAN_ORDER, JobTrace
from repro.optim.losses import LogisticLoss
from repro.service import JobStatus, TrainingService
from tests.conftest import make_binary_data

M, D = 240, 6
EPS = 0.05
X, Y = make_binary_data(M, D, seed=33)


def make_service(workers: int = 1, cap: float = 10.0, **kwargs) -> TrainingService:
    service = TrainingService(scan_seed=7, workers=workers, **kwargs)
    service.register_table("t", X, Y)
    service.open_budget("alice", "t", cap)
    return service


def submit_one(service, principal="alice", table="t", seed=400, **kwargs):
    params = dict(epsilon=EPS, passes=1, batch_size=30, seed=seed)
    params.update(kwargs)
    return service.submit(principal, table, LogisticLoss(1e-3), **params)


# -- metrics: unit ---------------------------------------------------------------


class TestMetricsPrimitives:
    def test_counter_counts_and_rejects_negatives(self):
        reg = obs.MetricsRegistry()
        c = reg.counter("repro_test_total", "help", ("table",))
        c.inc(table="a")
        c.inc(2, table="a")
        c.inc(table="b")
        assert c.value(table="a") == 3
        assert c.value(table="b") == 1
        assert c.value(table="never") == 0
        with pytest.raises(ValueError):
            c.inc(-1, table="a")

    def test_counter_label_set_is_exact(self):
        reg = obs.MetricsRegistry()
        c = reg.counter("repro_test_total", "help", ("table",))
        with pytest.raises(ValueError):
            c.inc()  # missing the label
        with pytest.raises(ValueError):
            c.inc(table="a", extra="b")
        plain = reg.counter("repro_plain_total", "help")
        with pytest.raises(ValueError):
            plain.inc(table="a")

    def test_gauge_sets_and_moves(self):
        reg = obs.MetricsRegistry()
        g = reg.gauge("repro_test_gauge", "help")
        g.set(4.5)
        g.inc(-1.5)
        assert g.value() == 3.0

    def test_histogram_buckets_are_cumulative_in_exposition(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("repro_test_seconds", "help", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.count() == 5
        assert h.sum() == pytest.approx(56.05)
        ((key, counts, total, count),) = h.samples()
        assert counts == [1, 2, 1]  # per-bucket, 50.0 overflows them all
        text = reg.render_prometheus()
        assert 'repro_test_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_test_seconds_bucket{le="1"} 3' in text
        assert 'repro_test_seconds_bucket{le="10"} 4' in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_test_seconds_count 5" in text

    def test_histogram_rejects_unsorted_buckets(self):
        reg = obs.MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("repro_bad_seconds", "help", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("repro_bad2_seconds", "help", buckets=(2.0, 1.0))

    def test_invalid_metric_names_raise(self):
        reg = obs.MetricsRegistry()
        for name in ("", "1starts_with_digit", "has space", "has-dash"):
            with pytest.raises(ValueError):
                reg.counter(name, "help")

    def test_get_or_create_is_idempotent_and_typed(self):
        reg = obs.MetricsRegistry()
        first = reg.counter("repro_idem_total", "help", ("table",))
        again = reg.counter("repro_idem_total", "other help", ("table",))
        assert first is again
        with pytest.raises(ValueError):
            reg.gauge("repro_idem_total", "help", ("table",))
        with pytest.raises(ValueError):
            reg.counter("repro_idem_total", "help", ("other",))

    def test_collectors_run_at_render_time_only(self):
        reg = obs.MetricsRegistry()
        calls = []

        def sample():
            calls.append(1)
            reg.gauge("repro_sampled", "help").set(len(calls))

        reg.add_collector(sample)
        assert calls == []
        dump = reg.render_json()
        assert calls == [1]
        assert metric_value(dump, "repro_sampled") == 1.0
        reg.render_prometheus()
        assert len(calls) == 2


_PROM_LABEL = r'[A-Za-z0-9_]+="(?:[^"\\]|\\.)*"'  # value may escape \" and \\
_PROM_SAMPLE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)"                # metric name
    rf"(\{{{_PROM_LABEL}(,{_PROM_LABEL})*\}})?"    # optional {label="v",...}
    r" (-?[0-9].*|\+Inf|-Inf|NaN)$"               # value
)


def check_prometheus_text(text: str) -> int:
    """A minimal exposition-format validator: every sample line parses,
    every sample's base name was declared by a # TYPE line, histograms
    expose _bucket/_sum/_count. Returns the number of sample lines."""
    declared = {}
    samples = 0
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            assert len(line.split(" ", 3)) >= 3
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram", "untyped")
            declared[name] = kind
            continue
        match = _PROM_SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name = match.group(1)
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in declared or base in declared, f"undeclared metric {name}"
        if name.endswith(("_bucket", "_sum", "_count")) and base in declared:
            assert declared[base] == "histogram"
        samples += 1
    return samples


class TestExposition:
    def test_prometheus_text_parses(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_a_total", "counts\nwith newline", ("table",)).inc(
            table='odd"name\\'
        )
        reg.gauge("repro_b", "a gauge").set(2.5)
        reg.histogram("repro_c_seconds", "hist", buckets=(0.5, 1.0)).observe(0.7)
        assert check_prometheus_text(reg.render_prometheus()) >= 6

    def test_json_dump_round_trips_exactly(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_a_total", "h", ("table",)).inc(3, table="t")
        reg.histogram("repro_c_seconds", "h", buckets=(0.5, 1.0)).observe(0.7)
        dump = reg.render_json()
        assert dump["format"] == "repro-metrics/v1"
        assert json.loads(json.dumps(dump)) == dump

    def test_disabled_registry_swallows_everything(self):
        reg = obs.disabled()
        assert reg.enabled is False
        c = reg.counter("repro_a_total", "h", ("table",))
        c.inc(table="t")
        c.inc(-5)  # not even validation runs on the null metric
        reg.gauge("repro_b", "h").set(1.0)
        reg.histogram("repro_c_seconds", "h").observe(0.1)
        reg.add_collector(lambda: (_ for _ in ()).throw(RuntimeError))
        assert reg.render_prometheus() == ""
        assert reg.render_json() == {"format": "repro-metrics/v1", "metrics": []}


# -- traces: unit ----------------------------------------------------------------


class TestJobTrace:
    def test_enter_closes_the_previous_span_gaplessly(self):
        trace = JobTrace()
        trace.enter("admit")
        closed = trace.enter("queued", checks=3)
        assert closed.name == "admit"
        assert closed.attrs == {"checks": 3}
        trace.close()
        a, b = trace.spans()
        assert (a.name, b.name) == ("admit", "queued")
        assert a.end == b.start  # shared boundary: no gap, no overlap
        assert a.duration >= 0 and b.duration >= 0
        assert trace.current is None

    def test_close_is_idempotent_and_append_extends(self):
        trace = JobTrace()
        assert trace.close() is None
        trace.enter("commit")
        trace.close()
        span = trace.append("wal_sync")
        assert trace.names() == ["commit", "wal_sync"]
        assert span.start == trace.spans()[0].end
        assert trace.duration == pytest.approx(
            trace.spans()[-1].end - trace.spans()[0].start
        )

    def test_payload_round_trips_bitwise_through_json(self):
        trace = JobTrace()
        trace.enter("admit")
        trace.enter("scan", pages=12)
        trace.close(retries=0)
        payload = trace.payload()
        reloaded = JobTrace.from_payload(json.loads(json.dumps(payload)))
        assert reloaded.payload() == payload  # float equality is exact
        for before, after in zip(trace.spans(), reloaded.spans()):
            assert (before.start, before.end) == (after.start, after.end)

    def test_open_span_is_not_serialized(self):
        trace = JobTrace()
        trace.enter("admit")
        trace.enter("queued")
        assert [s["name"] for s in trace.payload()["spans"]] == ["admit"]


# -- service integration ---------------------------------------------------------


def assert_well_formed(trace: JobTrace) -> None:
    """Complete ordering contract: known names, lifecycle order, gapless
    non-negative spans."""
    spans = trace.spans()
    names = [span.name for span in spans]
    assert names, "terminal record with an empty trace"
    positions = [SPAN_ORDER.index(name) for name in names]
    assert positions == sorted(positions), f"out of lifecycle order: {names}"
    assert len(set(names)) == len(names), f"duplicated span: {names}"
    for span in spans:
        assert span.duration >= 0.0
    for left, right in zip(spans, spans[1:]):
        assert left.end == right.start, f"gap between {left.name}/{right.name}"
    assert trace.current is None, "terminal record left a span open"


class TestLifecycleTraces:
    def test_completed_job_has_the_full_span_set(self):
        service = make_service()
        record = submit_one(service)
        service.drain()
        assert record.status is JobStatus.COMPLETED
        trace = service.trace(record.job_id)
        assert_well_formed(trace)
        assert trace.names() == [
            "admit", "queued", "claim", "scan", "epilogue", "commit",
        ]

    def test_scan_attrs_match_the_record_fields(self):
        service = make_service()
        record = submit_one(service)
        service.drain()
        scan = service.trace(record.job_id).span("scan")
        assert scan.attrs["pages"] == record.group_pages
        assert scan.attrs["retries"] == 0
        assert scan.attrs["boarding_offset"] == record.boarding_offset
        assert scan.attrs["epochs_ridden"] == record.epochs_ridden

    def test_rejected_job_stops_at_admit(self):
        service = make_service(cap=EPS / 2)
        record = submit_one(service)
        assert record.status is JobStatus.REJECTED
        assert_well_formed(record.trace)
        assert record.trace.names() == ["admit"]

    def test_cached_job_stops_at_admit(self):
        service = make_service()
        paid = submit_one(service)
        service.drain()
        free = submit_one(service)  # identical job: result-cache hit
        assert free.status is JobStatus.COMPLETED
        assert free.dispatch == "cached"
        assert free.trace.names() == ["admit"]
        assert paid.trace.names()[-1] == "commit"

    def test_cancelled_job_closes_its_queued_span(self):
        service = make_service()  # loop not started: the job stays queued
        record = submit_one(service)
        assert service.cancel(record.job_id)
        assert record.status is JobStatus.CANCELLED
        assert_well_formed(record.trace)
        assert record.trace.names() == ["admit", "queued"]

    def test_failed_job_trace_carries_the_error(self):
        from repro.rdbms.storage import FaultyHeapFile, MaterializedHeapFile

        service = TrainingService(scan_seed=7, workers=1, scan_retries=0)
        service.register_table(
            "f", heap=FaultyHeapFile(MaterializedHeapFile(X, Y), fail_pages=(0,))
        )
        service.open_budget("alice", "f", 10.0)
        record = submit_one(service, table="f")
        service.drain()
        assert record.status is JobStatus.FAILED
        assert_well_formed(record.trace)
        assert record.trace.spans()[-1].name == "scan"
        assert record.trace.spans()[-1].attrs.get("error")

    def test_trace_of_unknown_job_raises(self):
        with pytest.raises(KeyError):
            make_service().trace("job-nope")

    def test_elevator_rider_spans_stay_ordered(self):
        service = make_service(workers=2, elevator=True)
        records = [submit_one(service, seed=500 + i) for i in range(4)]
        service.drain()
        for record in records:
            assert record.status is JobStatus.COMPLETED, record.error
            assert_well_formed(record.trace)
            assert record.trace.names()[-1] == "commit"

    def test_wal_sync_span_trails_a_durable_run(self, tmp_path):
        service = make_service(state_dir=tmp_path / "state")
        record = submit_one(service)
        service.drain()
        assert record.trace.names()[-1] == "wal_sync"
        assert_well_formed(record.trace)

    def test_traces_survive_restart_bitwise(self, tmp_path):
        state = tmp_path / "state"
        service = make_service(state_dir=state)
        records = [submit_one(service, seed=600 + i) for i in range(3)]
        service.drain()
        service.save_state()

        resumed = TrainingService(scan_seed=7, state_dir=state)
        resumed.register_table("t", X, Y)
        assert resumed.load_state() == len(records)
        for record in records:
            reloaded = resumed.trace(record.job_id).spans()
            # The durable trace is the admit->commit prefix: the trailing
            # wal_sync span is appended live, after the journal event.
            original = record.trace.spans()[:len(reloaded)]
            assert [s.name for s in reloaded] == [s.name for s in original]
            assert [s.name for s in reloaded][-1] == "commit"
            for before, after in zip(original, reloaded):
                assert (before.start, before.end) == (after.start, after.end)
                assert before.attrs == after.attrs

    def test_a_trace_is_durable_whichever_snapshot_first_holds_it(self, tmp_path):
        """A compaction snapshots every record, including the jobs of
        earlier windows, whose live traces by then end in wal_sync; the
        restored trace is still the admit->commit prefix, as it is for
        the jobs of the compacting window itself."""
        state = tmp_path / "state"
        service = make_service(state_dir=state, wal_compact_records=10)
        records = []
        for window in range(6):
            records += [submit_one(service, seed=650 + 2 * window + i) for i in range(2)]
            service.drain()
        assert service.durability["compactions"] >= 1
        service.save_state()

        resumed = TrainingService(scan_seed=7, state_dir=state)
        assert resumed.load_state() == len(records)
        for record in records:
            live = record.trace.spans()
            assert live[-1].name == "wal_sync"
            reloaded = resumed.trace(record.job_id).spans()
            assert [s.name for s in reloaded] == [s.name for s in live[:-1]]
            assert [(s.start, s.end, s.attrs) for s in reloaded] == [
                (s.start, s.end, s.attrs) for s in live[:-1]
            ]


# -- telemetry consistency -------------------------------------------------------


class TestTelemetryConsistency:
    def test_scan_pages_equal_dispatch_log_and_pool_deltas(self):
        service = make_service(workers=2)
        before = {
            name: stats.page_reads
            for name, stats in service.session.table_stats().items()
        }
        for i in range(5):
            submit_one(service, seed=700 + i, passes=1 + i % 2)
        service.drain()
        dump = service.metrics(format="json")
        exported = {
            sample["labels"]["table"]: sample["value"]
            for sample in metric_samples(dump, "repro_scan_pages_total")
        }
        logged = sum(pages for _, _, pages in service.scheduler.dispatch_log)
        assert sum(exported.values()) == logged
        for name, stats in service.session.table_stats().items():
            assert exported.get(name, 0) == stats.page_reads - before[name]

    def test_scan_and_queue_histograms_are_populated(self):
        service = make_service()
        for i in range(3):
            submit_one(service, seed=710 + i)
        service.drain()
        dump = service.metrics(format="json")
        (scan_sample,) = metric_samples(dump, "repro_scan_duration_seconds")
        assert scan_sample["count"] == len(service.scheduler.dispatch_log)
        assert scan_sample["sum"] > 0.0
        (wait_sample,) = metric_samples(dump, "repro_queue_wait_seconds")
        assert wait_sample["count"] == 3

    def test_registry_and_cache_metrics_match_ground_truth(self):
        service = make_service()
        submit_one(service, seed=720)
        service.drain()
        submit_one(service, seed=720)  # cache hit
        dump = service.metrics(format="json")
        assert metric_value(dump, "repro_registry_jobs", status="completed") == 2
        assert metric_value(dump, "repro_cache_hits_total") == 1
        assert metric_value(
            dump, "repro_scan_overlap_peak"
        ) == service.peak_scan_overlap
        assert metric_value(dump, "repro_scan_groups_total") == 1

    def test_ledger_gauges_equal_statements_at_every_sampled_instant(self):
        service = make_service(workers=2, cap=10.0)
        service.open_budget("bob", "t", 5.0)
        stop = threading.Event()
        violations = []

        def sampler():
            while not stop.is_set():
                dump = service.metrics(format="json")
                for sample in metric_samples(dump, "repro_ledger_epsilon_spent"):
                    labels = sample["labels"]
                    cap = metric_value(
                        dump, "repro_ledger_epsilon_cap", **labels
                    )
                    reserved = metric_value(
                        dump, "repro_ledger_epsilon_reserved", **labels
                    )
                    if sample["value"] + reserved > cap + 1e-9:
                        violations.append((labels, sample["value"], reserved))
                    if sample["value"] < -1e-12 or reserved < -1e-12:
                        violations.append((labels, sample["value"], reserved))

        thread = threading.Thread(target=sampler)
        thread.start()
        try:
            for i in range(8):
                submit_one(service, principal=("alice", "bob")[i % 2],
                           seed=730 + i)
            service.drain()
        finally:
            stop.set()
            thread.join()
        assert violations == []
        # At quiescence the gauges equal the statements exactly.
        dump = service.metrics(format="json")
        for statement in service.budgets():
            labels = {
                "principal": statement.principal, "table": statement.table,
            }
            assert metric_value(
                dump, "repro_ledger_epsilon_spent", **labels
            ) == statement.spent[0]
            assert metric_value(
                dump, "repro_ledger_epsilon_reserved", **labels
            ) == statement.reserved[0]
        assert metric_value(dump, "repro_ledger_commits_total") == sum(
            1 for r in service.loop.finished
            if r.status is JobStatus.COMPLETED and r.receipt is not None
        )

    def test_wal_metrics_and_dump_file(self, tmp_path):
        service = make_service(
            state_dir=tmp_path / "state",
            metrics_file=tmp_path / "metrics.json",
        )
        submit_one(service, seed=740)
        service.drain()
        dump = service.metrics(format="json")
        assert metric_value(dump, "repro_wal_syncs_total") == service.wal.syncs
        assert (
            metric_value(dump, "repro_wal_compactions_total")
            == service.wal.resets
        )
        (sync_sample,) = metric_samples(dump, "repro_wal_sync_seconds")
        assert sync_sample["count"] >= 1
        on_disk = json.loads((tmp_path / "metrics.json").read_text())
        assert on_disk["format"] == "repro-metrics/v1"
        # The dump is a point-in-time snapshot of the same registry.
        assert {m["name"] for m in on_disk["metrics"]} <= {
            m["name"] for m in dump["metrics"]
        }

    def test_prometheus_exposition_of_a_live_service_parses(self, tmp_path):
        service = make_service(state_dir=tmp_path / "state")
        submit_one(service, seed=750)
        service.drain()
        text = service.metrics()
        assert check_prometheus_text(text) > 20
        for required in (
            "repro_scan_duration_seconds",
            "repro_scan_pages_total",
            "repro_queue_wait_seconds",
            "repro_pool_page_reads",
            "repro_ledger_epsilon_spent",
            "repro_wal_sync_seconds",
            "repro_registry_jobs",
        ):
            assert f"# TYPE {required} " in text, f"missing {required}"
        with pytest.raises(ValueError):
            service.metrics(format="xml")

    def test_concurrent_dumps_never_trip_the_failure_latch(self, tmp_path):
        """Regression: two worker autosaves dumping at once raced on the
        shared tmp file — the losing os.replace hit ENOENT and latched
        _metrics_dump_failed, silently ending export for the service's
        lifetime. Dumps serialize on their own lock now."""
        service = make_service(metrics_file=tmp_path / "metrics.prom")
        submit_one(service, seed=770)
        service.drain()
        threads = [
            threading.Thread(target=service._dump_metrics) for _ in range(8)
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not caught
        assert not service._metrics_dump_failed
        text = (tmp_path / "metrics.prom").read_text()
        assert check_prometheus_text(text) > 0

    def test_elevator_boarding_counters(self):
        service = make_service(workers=2, elevator=True)
        for i in range(4):
            submit_one(service, seed=760 + i)
        service.drain()
        dump = service.metrics(format="json")
        completed = metric_value(dump, "repro_registry_jobs", status="completed")
        assert completed == 4
        assert metric_value(
            dump, "repro_elevator_boardings_total", table="t"
        ) == 4  # every elevator-mode job boards a flight exactly once
        riders = metric_samples(dump, "repro_elevator_riders")
        assert riders and riders[0]["count"] >= 1

    def test_stacked_riders_counter_counts_cohort_members(self):
        # One window, one flight: three same-shape jobs stack as one
        # cohort; the odd batch size and the odd pass count ride alone.
        service = make_service()
        for seed, kwargs in (
            (780, {}), (781, {}), (782, {}),
            (783, {"batch_size": 7}), (784, {"passes": 2}),
        ):
            submit_one(service, seed=seed, **kwargs)
        service.drain()
        dump = service.metrics(format="json")
        assert metric_value(dump, "repro_registry_jobs", status="completed") == 5
        assert metric_value(dump, "repro_elevator_boardings_total", table="t") == 5
        assert metric_value(
            dump, "repro_elevator_stacked_riders_total", table="t"
        ) == 3


# -- satellites ------------------------------------------------------------------


class TestDispatchErrorWindow:
    def test_error_log_is_bounded_and_counted(self):
        from repro.service.worker import _DISPATCH_ERROR_WINDOW

        service = make_service()
        for index in range(_DISPATCH_ERROR_WINDOW + 44):
            service.loop._log_dispatch_error(f"error {index}")
        assert len(service.loop.dispatch_errors) == _DISPATCH_ERROR_WINDOW
        assert service.loop.dispatch_errors[0] == "error 44"
        counter = service.metrics_registry.get(
            "repro_worker_dispatch_errors_total"
        )
        assert counter.value() == _DISPATCH_ERROR_WINDOW + 44


class TestRegistryRetention:
    def test_oldest_terminal_weights_evict_first(self):
        service = make_service(max_terminal_records=2)
        records = [submit_one(service, seed=800 + i) for i in range(4)]
        service.drain()
        assert [r.weights_evicted for r in records] == [
            True, True, False, False,
        ]
        for record in records[:2]:
            assert record.model is None
            with pytest.raises(KeyError, match="retention"):
                service.model(record.job_id)
            # The metadata survives eviction — only the weights drop.
            assert record.receipt is not None
            assert record.trace.names()[-1] == "commit"
        for record in records[2:]:
            assert service.model(record.job_id) is not None
        assert service.registry.weights_evicted_total == 2
        dump = service.metrics(format="json")
        assert metric_value(dump, "repro_registry_weights_evicted_total") == 2

    def test_eviction_patches_the_snapshot_payload(self, tmp_path):
        state = tmp_path / "state"
        service = make_service(max_terminal_records=1, state_dir=state)
        records = [submit_one(service, seed=810 + i) for i in range(2)]
        service.drain()
        service.save_state()

        resumed = TrainingService(scan_seed=7)
        resumed.register_table("t", X, Y)
        resumed.load_state(state)
        evicted = resumed.result(records[0].job_id)
        assert evicted.weights_evicted and evicted.model is None
        with pytest.raises(KeyError, match="retention"):
            resumed.model(records[0].job_id)
        assert resumed.model(records[1].job_id) is not None

    def test_invalid_cap_raises(self):
        with pytest.raises(ValueError):
            TrainingService(max_terminal_records=0)


class TestServeSummary:
    def test_summary_lines_render_from_the_registry(self):
        service = make_service()
        submit_one(service, seed=820)
        service.drain()
        lines = serve_summary_lines(service, table_names=("t",))
        text = "\n".join(lines)
        assert "job statuses    : completed=1" in text
        assert "scans per table : t=1" in text
        assert "scan groups     : 1" in text
        assert "spent eps 0.050 of 10.000" in text
