"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--epsilon", "0.5"])
        assert args.dataset == "protein"
        assert args.epsilon == 0.5
        assert args.delta == "0"

    def test_reproduce_choices(self):
        args = build_parser().parse_args(["reproduce", "table3"])
        assert args.artefact == "table3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTrainCommand:
    def test_trains_binary_dataset(self, capsys):
        code = main([
            "train", "--dataset", "protein", "--epsilon", "0.5",
            "--scale", "0.01", "--passes", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "privacy" in out
        assert "0.5-DP" in out
        assert "test accuracy" in out

    def test_auto_delta(self, capsys):
        code = main([
            "train", "--dataset", "protein", "--epsilon", "0.5",
            "--delta", "auto", "--scale", "0.01", "--passes", "2",
        ])
        assert code == 0
        assert "(0.5," in capsys.readouterr().out

    def test_convex_route_with_zero_regularization(self, capsys):
        code = main([
            "train", "--dataset", "protein", "--epsilon", "0.5",
            "--regularization", "0", "--scale", "0.01", "--passes", "2",
        ])
        assert code == 0
        assert "convex-constant" in capsys.readouterr().out

    def test_multiclass_rejected(self, capsys):
        code = main([
            "train", "--dataset", "mnist", "--epsilon", "4.0",
            "--scale", "0.005", "--passes", "1",
        ])
        assert code == 2
        assert "multiclass" in capsys.readouterr().err

    def test_huber_loss(self, capsys):
        code = main([
            "train", "--dataset", "protein", "--epsilon", "0.5",
            "--loss", "huber", "--scale", "0.01", "--passes", "2",
        ])
        assert code == 0


class TestReproduceCommand:
    @pytest.mark.parametrize("artefact", ["table2", "table3", "table4", "fig1"])
    def test_cheap_artefacts(self, artefact, capsys):
        assert main(["reproduce", artefact]) == 0
        assert capsys.readouterr().out.strip()

    def test_fig2(self, capsys):
        assert main(["reproduce", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out
        assert "scs13" in out


class TestServiceCommands:
    def test_submit_completes_and_prints_receipt(self, capsys):
        code = main([
            "submit", "--dataset", "protein", "--epsilon", "0.3",
            "--scale", "0.01", "--passes", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "status          : completed" in out
        assert "receipt" in out
        assert "pages charged" in out
        assert "budget" in out

    def test_submit_over_budget_is_rejected_exit_1(self, capsys):
        code = main([
            "submit", "--dataset", "protein", "--epsilon", "0.3",
            "--budget", "0.1", "--scale", "0.01",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "status          : rejected" in out
        assert "overflow" in out

    def test_serve_reports_fusion_and_budgets(self, capsys):
        code = main([
            "serve", "--jobs", "6", "--tenants", "2", "--rows", "200",
            "--dim", "6", "--passes", "1", "--tables", "1", "--workers", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "dispatch mode   : one scan flight per window" in out
        assert "scan groups     : 1" in out
        assert "tenant-0" in out and "tenant-1" in out

    def test_serve_multi_table_reports_overlap(self, capsys):
        code = main([
            "serve", "--jobs", "8", "--tenants", "2", "--rows", "200",
            "--dim", "6", "--passes", "1", "--workers", "2", "--tables", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "scan overlap    : peak" in captured.out
        assert "scans per table : shared_0=" in captured.out
        assert "shared_1=" in captured.out
        # 2 workers over 2 tables with work: the fleet fits, no warning.
        assert "warning" not in captured.err

    def test_serve_with_no_jobs_exits_0(self, capsys):
        # The long-lived form (``--jobs 0 --http PORT --hold``) submits
        # nothing from the demo: the summary has no submit latency to show.
        code = main(["serve", "--jobs", "0", "--rows", "200", "--dim", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload        : 0 jobs" in out
        assert "submit latency" not in out

    def test_serve_warns_when_workers_exceed_tables_with_work(self, capsys):
        code = main([
            "serve", "--jobs", "4", "--tenants", "2", "--rows", "150",
            "--dim", "5", "--passes", "1", "--workers", "4", "--tables", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0  # warned, not failed — and not silently serialized
        assert "warning: --workers 4 exceeds the 1 table(s)" in captured.err
        assert "scan overlap    : peak 1 of 1 possible" in captured.out


class TestServeTelemetry:
    def test_serve_exports_metrics_file(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "serve", "--jobs", "4", "--tenants", "2", "--rows", "150",
            "--dim", "5", "--passes", "1", "--tables", "1", "--workers", "1",
            "--metrics-file", str(metrics_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        # The workload under-budgets the last tenant on purpose: one of
        # its jobs trips admission control.
        assert "job statuses    : completed=3, rejected=1" in out
        text = metrics_path.read_text()
        assert "# TYPE repro_scan_duration_seconds histogram" in text
        assert "repro_scan_pages_total" in text

    def test_serve_json_metrics_dump(self, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        code = main([
            "serve", "--jobs", "3", "--tenants", "1", "--rows", "150",
            "--dim", "5", "--passes", "1", "--tables", "1", "--workers", "1",
            "--metrics-file", str(metrics_path),
        ])
        assert code == 0
        dump = json.loads(metrics_path.read_text())
        assert dump["format"] == "repro-metrics/v1"
        names = {metric["name"] for metric in dump["metrics"]}
        assert "repro_registry_jobs" in names


class TestTraceCommand:
    def run_serve(self, tmp_path):
        # 3 jobs over 2 tenants: every account's budget fits its share,
        # so all three jobs complete (and are durable for `repro trace`).
        return main([
            "serve", "--jobs", "3", "--tenants", "2", "--rows", "150",
            "--dim", "5", "--passes", "1", "--tables", "1", "--workers", "1",
            "--state-dir", str(tmp_path / "state"),
        ])

    def test_trace_prints_the_span_table(self, capsys, tmp_path):
        assert self.run_serve(tmp_path) == 0
        capsys.readouterr()
        code = main([
            "trace", "job-00001", "--state-dir", str(tmp_path / "state"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "job             : job-00001" in out
        assert "status          : completed" in out
        for span in ("admit", "queued", "claim", "scan", "epilogue", "commit"):
            assert f"\n  {span}" in out

    def test_trace_json_payload(self, capsys, tmp_path):
        import json

        assert self.run_serve(tmp_path) == 0
        capsys.readouterr()
        code = main([
            "trace", "job-00002", "--state-dir", str(tmp_path / "state"),
            "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["job_id"] == "job-00002"
        assert [s["name"] for s in payload["trace"]["spans"]][:2] == [
            "admit", "queued",
        ]

    def test_trace_over_http_reads_the_live_trace(self, capsys, tmp_path):
        import json

        from repro.api import ServiceApiServer
        from repro.optim.losses import LogisticLoss
        from repro.service import TrainingService
        from tests.conftest import make_binary_data

        X, Y = make_binary_data(150, 5, seed=3)
        service = TrainingService(scan_seed=1, state_dir=tmp_path / "state")
        service.register_table("t", X, Y)
        service.open_budget("alice", "t", 1.0)
        record = service.submit("alice", "t", LogisticLoss(1e-3), epsilon=0.1,
                                passes=1, batch_size=10, seed=1)
        service.drain()  # the dispatch loop appends wal_sync after the sync
        try:
            with ServiceApiServer(service, {"alice-token": "alice"}) as server:
                code = main([
                    "trace", record.job_id, "--url", server.url,
                    "--token", "alice-token", "--json",
                ])
        finally:
            service.stop()
        out = capsys.readouterr().out
        assert code == 0
        spans = json.loads(out)["trace"]["spans"]
        # The job body carries the durable trace, which stops at commit;
        # the trace route adds the live span.
        assert [span["name"] for span in spans][-2:] == ["commit", "wal_sync"]
        assert spans == record.trace.payload()["spans"]

    def test_trace_unknown_job_exits_2(self, capsys, tmp_path):
        assert self.run_serve(tmp_path) == 0
        capsys.readouterr()
        code = main([
            "trace", "job-99999", "--state-dir", str(tmp_path / "state"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "no job 'job-99999'" in captured.err

    def test_trace_missing_state_dir_exits_2(self, capsys, tmp_path):
        code = main([
            "trace", "job-00001", "--state-dir", str(tmp_path / "void"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
