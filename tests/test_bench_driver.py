"""The bench gate driver: every selected scenario runs and is recorded,
and a failed check decides the exit status only under ``--gate``.

Stub scenarios stand in for the training ones, so nothing trains here;
``BENCH_hotloops.json`` and the report live in the test's tmp dir.
"""

from __future__ import annotations

import json
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def driver(monkeypatch, tmp_path):
    """``bench_service.main`` over two stubs: the always-run gate fails
    one of its two checks, and ``--async`` runs a gate that passes.
    Returns (main, the scenarios that ran, the BENCH_hotloops.json path)."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_hotloops
    import bench_service

    # --smoke rebinds the shape globals; put them back afterwards.
    for name in ("JOBS", "M", "D", "PAR_M", "PAR_PAGE_LATENCY"):
        monkeypatch.setattr(bench_service, name, getattr(bench_service, name))
    results = tmp_path / "BENCH_hotloops.json"
    monkeypatch.setattr(bench_hotloops, "RESULTS_PATH", results)
    ran = []

    def failing(smoke):
        ran.append("failing")
        return [bench_hotloops.Gate(
            "stub_floor", "stub ratio", 1.0, 2.0, {"m": 1},
            checks=[(True, "FAIL: stub below 2x"), (False, "FAIL: stub diverged")],
            results={"stub_floor": {"ratio": 1.0}},
        )]

    def passing(smoke):
        ran.append("passing")
        return [bench_hotloops.Gate(
            "stub_ok", "stub ratio", 3.0, 2.0, {"m": 1},
            checks=[(False, "FAIL: stub never")],
            extra={"bitwise_equal": True},
            results={"stub_ok": {"ratio": 3.0}},
        )]

    monkeypatch.setattr(bench_service, "bench_service", failing)
    monkeypatch.setattr(bench_service, "MODES", (("--async", passing, "stub"),))
    return bench_service.main, ran, results


def test_a_failed_check_exits_1_under_gate_and_the_next_scenario_still_runs(
    driver, tmp_path, capsys
):
    main, ran, results = driver
    report = tmp_path / "report.json"
    assert main(["--gate", "--async", "--smoke", "--report", str(report)]) == 1
    assert ran == ["failing", "passing"]
    out = capsys.readouterr().out
    assert "FAIL: stub below 2x" in out
    assert "FAIL: stub diverged" not in out and "FAIL: stub never" not in out
    gates = json.loads(report.read_text())["gates"]
    assert gates["stub_floor"] == {
        "metric": "stub ratio", "value": 1.0, "floor": 2.0,
        "passed": False, "shape": {"m": 1},
    }
    assert gates["stub_ok"]["passed"] is True
    assert gates["stub_ok"]["bitwise_equal"] is True
    assert not results.exists()  # the smoke shape never writes it


def test_without_gate_a_failed_check_still_prints_but_exits_0(driver, capsys):
    main, ran, results = driver
    assert main(["--async", "--smoke"]) == 0
    assert ran == ["failing", "passing"]
    assert "FAIL: stub below 2x" in capsys.readouterr().out
    assert not results.exists()


def test_the_full_shape_writes_every_scenario_results(driver):
    main, ran, results = driver
    assert main(["--async"]) == 0
    payload = json.loads(results.read_text())
    assert payload["stub_floor"] == {"ratio": 1.0}
    assert payload["stub_ok"] == {"ratio": 3.0}
