"""Smoke tests for the examples and the remaining figure drivers."""

from __future__ import annotations

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

from repro.data.synthetic import linearly_separable_binary
from repro.data.dataset import TrainTestPair
from repro.evaluation.figures import (
    figure4_batch_size,
    figure4_passes,
    figure5_runtime_vs_batch,
    figure5_runtime_vs_epochs,
    figure10_minibatch,
)
from repro.evaluation.scenarios import Scenario

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


class TestExamples:
    def test_six_examples_exist(self):
        scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
        assert "quickstart.py" in scripts
        assert len(scripts) >= 6

    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in EXAMPLES_DIR.glob("*.py")),
    )
    def test_example_compiles_and_has_main(self, script):
        path = EXAMPLES_DIR / script
        py_compile.compile(str(path), doraise=True)
        source = path.read_text()
        assert "def main" in source
        assert '__main__' in source
        assert source.startswith("#!/usr/bin/env python")
        assert '"""' in source  # documented

    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in EXAMPLES_DIR.glob("*.py")),
    )
    def test_example_runs(self, script, tmp_path):
        """Each example runs to completion from a clean directory."""
        env = dict(os.environ, PYTHONPATH=str(EXAMPLES_DIR.parent / "src"))
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]


@pytest.fixture(scope="module")
def tiny_pair() -> TrainTestPair:
    return linearly_separable_binary(
        "tiny", 400, 200, 6, margin_noise=0.2, flip_fraction=0.02, random_state=0
    )


class TestFigureDrivers:
    def test_figure4_passes_driver(self, tiny_pair):
        fig = figure4_passes(
            tiny_pair, Scenario.CONVEX_PURE, epsilons=[1.0],
            passes_grid=(1, 2), batch_size=5,
        )
        assert set(fig["series"]) == {"1 pass", "2 passes"}
        assert fig["meta"]["scenario"] == "CONVEX_PURE"

    def test_figure4_batch_driver(self, tiny_pair):
        fig = figure4_batch_size(
            tiny_pair, epsilons=[1.0], batch_grid=(1, 5), passes=2,
        )
        assert set(fig["series"]) == {"mini-batch = 1", "mini-batch = 5"}

    def test_figure5_epochs_driver(self, tiny_pair):
        fig = figure5_runtime_vs_epochs(
            tiny_pair.train, epoch_grid=(1, 2), batch_size=5,
        )
        for name in ("noiseless", "ours", "scs13", "bst14"):
            assert len(fig["series"][name]) == 2
            assert all(v > 0 for v in fig["series"][name])

    def test_figure5_batch_driver(self, tiny_pair):
        fig = figure5_runtime_vs_batch(
            tiny_pair.train, batch_grid=(1, 50), epochs=1,
        )
        # white-box overhead shrinks with batch size even at tiny scale
        ratio_1 = fig["series"]["scs13"][0] / fig["series"]["ours"][0]
        ratio_50 = fig["series"]["scs13"][1] / fig["series"]["ours"][1]
        assert ratio_1 > ratio_50

    def test_figure5_batch_capped_at_dataset_size(self, tiny_pair):
        fig = figure5_runtime_vs_batch(
            tiny_pair.train, batch_grid=(10**6,), epochs=1,
        )
        assert len(fig["series"]["ours"]) == 1

    def test_figure10_driver(self, tiny_pair):
        results = figure10_minibatch(
            tiny_pair, epsilons=[1.0], batch_grid=(5, 10), passes=2,
        )
        assert len(results) == 2
        for sweep in results:
            assert sweep.scenario is Scenario.STRONGLY_CONVEX_APPROX
            assert set(sweep.series) == {"noiseless", "ours", "scs13", "bst14"}


class TestSeriesSanity:
    def test_all_accuracies_are_probabilities(self, tiny_pair):
        fig = figure4_passes(
            tiny_pair, Scenario.STRONGLY_CONVEX_PURE, epsilons=[0.5, 2.0],
            passes_grid=(1,), batch_size=5,
        )
        for values in fig["series"].values():
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_runtime_positive_and_increasing_in_epochs(self, tiny_pair):
        fig = figure5_runtime_vs_epochs(
            tiny_pair.train, epoch_grid=(1, 4), batch_size=5,
        )
        for values in fig["series"].values():
            assert values[1] > values[0] > 0
