"""Self-tests of the benchmark itself (not of the package it measures).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They cover the percentile rule, that inputs are a pure function of the
seed, and a tiny-shape run of every workload, in which the output checks
pass on honest releases and catch a deliberately tampered one.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, TenantsHttp  # noqa: E402


class TestPercentileRule:
    def test_median_needs_twenty_samples(self):
        assert run.percentile(list(range(19)), 50) is None
        assert run.percentile(list(range(20)), 50) == pytest.approx(9.5)

    def test_p90_needs_a_hundred_samples(self):
        assert run.percentile(list(range(99)), 90) is None
        assert run.percentile(list(range(100)), 90) == pytest.approx(89.1)

    def test_unsupported_percentile_reads_none(self):
        metrics = run.end_to_end(
            _samples(job=[0.01] * 30, submit=[0.001] * 200), setup_s=0.1, scaled=False
        )
        assert metrics["job_p50_ms"] == pytest.approx(10.0)
        assert metrics["job_p75_ms"] is None
        assert metrics["submit_p75_ms"] == pytest.approx(1.0)


class TestReferenceClock:
    def test_a_host_twice_as_slow_halves_scaled_durations(self):
        samples = _samples(job=[0.01] * 50, submit=[0.001] * 200)
        samples.closed_loop = True
        samples.clock.ticks = [(0.0, 2 * reference.NOMINAL_S)] * 3
        raw = run.end_to_end(samples, setup_s=0.1, scaled=False)
        scaled = run.end_to_end(samples, setup_s=0.1)
        assert scaled["job_p50_ms"] == pytest.approx(raw["job_p50_ms"] / 2)
        assert scaled["jobs_per_s"] == pytest.approx(raw["jobs_per_s"] * 2)
        assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]

    def test_each_stretch_takes_the_speed_of_its_own_ticks(self):
        clock = reference.ReferenceClock()
        fast, slow = reference.NOMINAL_S, 2 * reference.NOMINAL_S
        clock.ticks = [(t, t + fast) for t in range(5)] + [
            (t, t + slow) for t in range(10, 15)
        ]
        assert clock.length(0.0, 2.0) == pytest.approx(2.0)
        assert clock.length(12.0, 14.0) == pytest.approx(1.0)


def _samples(job, submit):
    from workloads import Samples

    samples = Samples(
        job=[(0.0, latency) for latency in job],
        submit=[(0.0, latency) for latency in submit],
    )
    samples.completed = len(job)
    samples.start, samples.end = 0.0, 1.0
    return samples


class TestInputsFollowTheSeed:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_tables_repeat_for_a_seed_and_change_with_it(self, name):
        first, again, other = (WORKLOADS[name](seed, "tiny") for seed in (5, 5, 6))
        for workload in (first, again, other):
            workload.build_tables()
        for table, (features, labels) in first.tables.items():
            assert np.array_equal(features, again.tables[table][0])
            assert np.array_equal(labels, again.tables[table][1])
            assert not np.array_equal(features, other.tables[table][0])

    def test_open_loop_schedule_repeats_for_a_seed(self):
        first, again, other = (TenantsHttp(seed, "full") for seed in (5, 5, 6))
        arrivals, requests = first.schedule(10.0, phase=1)
        arrivals_again, requests_again = again.schedule(10.0, phase=1)
        assert np.array_equal(arrivals, arrivals_again)
        assert requests == requests_again
        assert other.schedule(10.0, phase=1)[1] != requests
        assert first.schedule(10.0, phase=2)[1] != requests

    def test_resubmissions_repeat_an_older_fresh_request(self):
        workload = TenantsHttp(9, "full")
        arrivals, requests = workload.schedule(10.0, phase=1)
        assert len(requests) == round(workload.shape["rate"] * 10.0)
        seen = {}
        repeats = 0
        for offset, request in zip(arrivals, requests):
            if request in seen:
                repeats += 1
                assert seen[request] <= offset - workload.resubmit_age_s
            else:
                seen[request] = offset
        eligible = int(np.sum(arrivals >= arrivals[0] + workload.resubmit_age_s))
        assert repeats == round(workload.resubmit_share * eligible)

    @pytest.mark.parametrize("name", ["grid_memory", "disk_scan"])
    def test_closed_loop_rounds_repeat_for_a_seed(self, name):
        first, again = WORKLOADS[name](5, "tiny"), WORKLOADS[name](5, "tiny")
        rng, rng_again = first.job_rng(1), again.job_rng(1)
        for index in range(3):
            principal = f"tuner-1-{index}"
            assert first.round_requests(rng, principal) == again.round_requests(
                rng_again, principal
            )
        assert first.round_requests(first.job_rng(2), "p") != first.round_requests(
            first.job_rng(1), "p"
        )


class TestTinyRuns:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_honest_releases_pass_the_checks(self, name):
        outcome = run.run(name, seed=3, seconds=1.5, trace=False, shape="tiny")
        assert outcome["errors"] == []
        result = outcome["result"]
        assert result["correct"] is True
        assert result["failed"] == 0
        assert set(result["metrics"]) == set(run.declared_metrics("end_to_end"))
        assert outcome["samples"]["checked_releases"] > 0

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_a_tampered_release_is_caught(self, name):
        outcome = run.run(name, seed=3, seconds=1.5, trace=False, shape="tiny", tamper=True)
        assert outcome["result"]["correct"] is False
        assert outcome["errors"]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_traced_run_reports_every_layer_metric(self, name):
        outcome = run.run(name, seed=4, seconds=1.5, trace=True, shape="tiny")
        assert outcome["result"]["correct"] is True
        metrics = outcome["result"]["metrics"]
        assert set(metrics) == set(run.declared_metrics("per_layer"))
        assert metrics["uda.fold_calls"]["value"] > 0
        assert metrics["session.scan_calls"]["value"] > 0


class TestCommandLine:
    def _run(self, cwd, *args):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=170,
        )

    def test_tampered_release_exits_nonzero_with_correct_false(self, monkeypatch, capsys):
        monkeypatch.setattr(run, "run", functools.partial(run.run, shape="tiny", tamper=True))
        code = run.main(
            ["--workload", "grid_memory", "--seed", "1", "--seconds", "1", "--trace", "0"]
        )
        assert code == 1
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(last)["correct"] is False

    def test_without_the_package_it_fails_and_prints_no_result(self):
        # A checkout holding only BENCHMARK.json and the benchmark's files.
        bare = run.RUNS / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(
                HERE, bare / "perfbench",
                ignore=shutil.ignore_patterns("_runs", "__pycache__"),
            )
            done = self._run(
                bare, "--workload", "grid_memory", "--seed", "1", "--seconds", "1",
                "--trace", "0",
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        assert done.returncode != 0
        assert done.stdout.strip() == ""
