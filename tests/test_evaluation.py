"""Tests for the evaluation harness: metrics, scenarios, sweeps, figures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import linearly_separable_binary
from repro.evaluation.figures import (
    epsilons_for,
    figure1_integration,
    figure2_scalability,
    load_experiment_dataset,
)
from repro.evaluation.harness import (
    BINARY_EPSILONS,
    MNIST_EPSILONS,
    accuracy_sweep,
    algorithms_for,
    private_tuning_sweep,
    public_tuning_sweep,
)
from repro.evaluation.metrics import (
    classification_accuracy,
    empirical_risk,
    excess_empirical_risk,
    reference_minimum_risk,
    zero_one_errors,
)
from repro.evaluation.reporting import format_series, format_table, series_summary
from repro.evaluation.scenarios import (
    Scenario,
    TrainSettings,
    make_loss,
    paper_delta,
    train,
)
from repro.evaluation.tables import table2_rows, table3, table4_rows
from repro.optim.losses import HuberSVMLoss, LogisticLoss
from repro.tuning.grid import ParameterGrid
from tests.conftest import make_binary_data


@pytest.fixture(scope="module")
def pair():
    return linearly_separable_binary(
        "eval", 1200, 600, 8, margin_noise=0.15, flip_fraction=0.01, random_state=0
    )


class TestMetrics:
    def test_accuracy_and_errors_consistent(self):
        X, y = make_binary_data(200, 5, seed=0)
        w = np.ones(5)
        loss = LogisticLoss()
        acc = classification_accuracy(w, loss, X, y)
        errors = zero_one_errors(w, loss, X, y)
        assert errors == pytest.approx((1 - acc) * 200)

    def test_empirical_risk_matches_loss(self):
        X, y = make_binary_data(50, 4, seed=1)
        w = np.zeros(4)
        assert empirical_risk(w, LogisticLoss(), X, y) == pytest.approx(np.log(2))

    def test_reference_minimum_below_any_candidate(self):
        X, y = make_binary_data(300, 5, seed=2)
        loss = LogisticLoss(regularization=0.1)
        reference = reference_minimum_risk(loss, X, y, passes=30)
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.normal(size=5)
            assert empirical_risk(w, loss, X, y) >= reference - 1e-6

    def test_excess_risk_nonnegative_for_random_models(self):
        X, y = make_binary_data(300, 5, seed=3)
        loss = LogisticLoss(regularization=0.1)
        reference = reference_minimum_risk(loss, X, y, passes=30)
        w = np.random.default_rng(1).normal(size=5) * 3
        assert excess_empirical_risk(w, loss, X, y, reference) > 0


class TestScenarios:
    def test_four_scenarios(self):
        assert len(Scenario) == 4
        assert Scenario.CONVEX_PURE.is_strongly_convex is False
        assert Scenario.STRONGLY_CONVEX_APPROX.is_strongly_convex
        assert Scenario.CONVEX_APPROX.is_approximate_dp

    def test_bst14_support(self):
        assert not Scenario.CONVEX_PURE.supports_bst14
        assert Scenario.CONVEX_APPROX.supports_bst14

    def test_paper_delta(self):
        assert paper_delta(1000) == pytest.approx(1e-6)
        with pytest.raises(ValueError):
            paper_delta(1)

    def test_make_loss_variants(self):
        assert make_loss(Scenario.CONVEX_PURE).regularization == 0.0
        assert make_loss(Scenario.STRONGLY_CONVEX_PURE, 0.01).regularization == 0.01
        assert isinstance(
            make_loss(Scenario.CONVEX_PURE, model="huber"), HuberSVMLoss
        )
        with pytest.raises(ValueError):
            make_loss(Scenario.CONVEX_PURE, model="svm")

    def test_settings_radius(self):
        sc = TrainSettings(Scenario.STRONGLY_CONVEX_PURE, epsilon=1.0,
                           regularization=0.01)
        assert sc.radius == pytest.approx(100.0)
        cv = TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0)
        assert cv.radius == 10.0  # the convex default for BST14

    @pytest.mark.parametrize(
        "scenario", [Scenario.STRONGLY_CONVEX_PURE, Scenario.STRONGLY_CONVEX_APPROX]
    )
    def test_strongly_convex_settings_refuse_zero_regularization(self, scenario):
        # Every algorithm trains from these settings, so the contradiction
        # is refused where they are made, before any of them runs.
        with pytest.raises(ValueError, match="strongly convex, which needs regularization > 0"):
            TrainSettings(scenario, epsilon=1.0, regularization=0.0)
        # A convex scenario ignores lambda (its loss is unregularized).
        convex = TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0, regularization=0.0)
        assert convex.radius == 10.0

    def test_settings_delta_resolution(self):
        approx = TrainSettings(Scenario.CONVEX_APPROX, epsilon=1.0)
        assert approx.resolve_delta(100) == pytest.approx(1e-4)
        pure = TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0)
        assert pure.resolve_delta(100) == 0.0

    def test_train_dispatch_all_algorithms(self, pair):
        settings = TrainSettings(
            Scenario.STRONGLY_CONVEX_APPROX, epsilon=1.0, passes=2, batch_size=20,
        )
        for algorithm in ("noiseless", "ours", "scs13", "bst14"):
            result = train(
                algorithm, pair.train.features, pair.train.labels, settings,
                random_state=0,
            )
            predictions = result.predict(pair.test.features)
            assert predictions.shape == (600,)

    def test_bst14_rejected_in_pure_scenarios(self, pair):
        settings = TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0, passes=1)
        with pytest.raises(ValueError, match="delta"):
            train("bst14", pair.train.features, pair.train.labels, settings)

    def test_unknown_algorithm(self, pair):
        settings = TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0)
        with pytest.raises(ValueError, match="unknown algorithm"):
            train("dpsgd", pair.train.features, pair.train.labels, settings)


class TestAlgorithmsFor:
    def test_panel_membership(self):
        assert algorithms_for(Scenario.CONVEX_PURE) == [
            "noiseless", "ours", "scs13",
        ]
        assert algorithms_for(Scenario.CONVEX_APPROX) == [
            "noiseless", "ours", "scs13", "bst14",
        ]

    def test_exclude_noiseless(self):
        names = algorithms_for(Scenario.CONVEX_PURE, include_noiseless=False)
        assert "noiseless" not in names


class TestAccuracySweep:
    def test_series_shape(self, pair):
        sweep = accuracy_sweep(
            pair.train, pair.test, Scenario.STRONGLY_CONVEX_APPROX, [0.1, 1.0],
            settings=TrainSettings(
                Scenario.STRONGLY_CONVEX_APPROX, epsilon=1.0, passes=2,
                batch_size=50,
            ),
            random_state=0,
        )
        assert set(sweep.series) == {"noiseless", "ours", "scs13", "bst14"}
        assert all(len(v) == 2 for v in sweep.series.values())
        assert all(0.0 <= a <= 1.0 for v in sweep.series.values() for a in v)

    def test_noiseless_flat_across_epsilon(self, pair):
        sweep = accuracy_sweep(
            pair.train, pair.test, Scenario.CONVEX_PURE, [0.1, 10.0],
            settings=TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0, passes=2,
                                   batch_size=50),
            random_state=0,
        )
        a, b = sweep.series["noiseless"]
        assert a == pytest.approx(b)

    def test_rows_format(self, pair):
        sweep = accuracy_sweep(
            pair.train, pair.test, Scenario.CONVEX_PURE, [0.5],
            algorithms=["ours"],
            settings=TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0, passes=1,
                                   batch_size=50),
            random_state=0,
        )
        rows = sweep.as_rows()
        assert rows[0]["algorithm"] == "ours"
        assert rows[0]["epsilon"] == 0.5

    def test_repeats_average(self, pair):
        sweep = accuracy_sweep(
            pair.train, pair.test, Scenario.CONVEX_PURE, [1.0],
            algorithms=["ours"], repeats=3,
            settings=TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0, passes=1,
                                   batch_size=50),
            random_state=0,
        )
        assert len(sweep.series["ours"]) == 1

    def test_multiclass_budget_split(self):
        from repro.data.synthetic import gaussian_clusters_multiclass

        mc = gaussian_clusters_multiclass("mc", 600, 200, 10, 3,
                                          cluster_spread=1.0, random_state=1)
        sweep = accuracy_sweep(
            mc.train, mc.test, Scenario.CONVEX_PURE, [50.0],
            algorithms=["ours"],
            settings=TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0, passes=2,
                                   batch_size=20),
            random_state=0,
        )
        assert sweep.series["ours"][0] > 0.4  # above 1/3 chance


class TestTuningSweeps:
    def test_private_tuning_sweep(self, pair):
        grid = ParameterGrid({"passes": [1, 2]})
        sweep = private_tuning_sweep(
            pair.train, pair.test, Scenario.STRONGLY_CONVEX_APPROX, [1.0],
            algorithms=["noiseless", "ours"], grid=grid,
            settings=TrainSettings(Scenario.STRONGLY_CONVEX_APPROX, epsilon=1.0,
                                   passes=2, batch_size=50),
            random_state=0,
        )
        assert sweep.tuning_mode == "private"
        assert set(sweep.series) == {"noiseless", "ours"}

    def test_public_tuning_sweep(self, pair):
        public = linearly_separable_binary(
            "public", 600, 1, 8, margin_noise=0.15, flip_fraction=0.01,
            random_state=99,
        ).train
        grid = ParameterGrid({"passes": [1, 2]})
        sweep = public_tuning_sweep(
            pair.train, pair.test, public, Scenario.CONVEX_PURE, [1.0],
            algorithms=["ours"], grid=grid,
            settings=TrainSettings(Scenario.CONVEX_PURE, epsilon=1.0, passes=2,
                                   batch_size=50),
            random_state=0,
        )
        assert sweep.tuning_mode == "public"
        assert len(sweep.series["ours"]) == 1


class TestFigures:
    def test_figure1(self):
        fig = figure1_integration()
        loc = fig["series"]["integration_loc"]
        assert loc[0] < loc[1]

    def test_figure2_linear_and_ordered(self):
        fig = figure2_scalability(sizes=(5_000_000, 10_000_000))
        series = fig["series"]
        # linear scaling
        for values in series.values():
            assert values[1] / values[0] == pytest.approx(2.0, rel=0.05)
        # white-box slower than bolt-on at b=1
        assert series["scs13"][0] > series["bolton"][0]
        assert series["bolton"][0] == pytest.approx(series["noiseless"][0], rel=0.01)

    def test_figure2_disk_regime_io_dominated(self):
        fig = figure2_scalability(
            sizes=(200_000_000,), buffer_pool_pages=1000,
            algorithms=("noiseless", "scs13"),
        )
        assert fig["meta"]["in_memory"] == [False]
        # I/O dominates: algorithms within 2x of each other (Figure 2b).
        noiseless, scs13 = fig["series"]["noiseless"][0], fig["series"]["scs13"][0]
        assert scs13 / noiseless < 2.0

    def test_epsilons_for(self):
        assert tuple(epsilons_for("mnist")) == MNIST_EPSILONS
        assert tuple(epsilons_for("protein")) == BINARY_EPSILONS

    def test_load_experiment_dataset_projects_mnist(self):
        pair = load_experiment_dataset("mnist", scale=0.005, seed=0)
        assert pair.train.dimension == 50
        assert pair.test.dimension == 50

    def test_load_experiment_dataset_binary_passthrough(self):
        pair = load_experiment_dataset("protein", scale=0.005, seed=0)
        assert pair.train.dimension == 74


class TestTables:
    def test_table2_advantages_grow_with_m(self):
        rows = table2_rows(sizes=(1000, 1_000_000))
        assert rows[1]["convex_advantage"] > rows[0]["convex_advantage"]
        assert rows[1]["sc_advantage"] > rows[0]["sc_advantage"]
        for row in rows:
            assert row["convex_advantage"] == pytest.approx(
                row["expected_convex_advantage"]
            )

    def test_table3_has_paper_values(self):
        rows = table3()
        assert {r["dataset"] for r in rows} == {"MNIST", "Protein", "Forest"}

    def test_table4_rows(self):
        props = LogisticLoss(regularization=0.01).properties(radius=100.0)
        rows = table4_rows(10000, props)
        assert len(rows) == 4
        assert "min(1/beta" in rows[2]["ours"]
        convex_only = table4_rows(10000, LogisticLoss().properties())
        assert len(convex_only) == 2


class TestReporting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}])
        assert "a" in text and "0.5000" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_series(self):
        text = format_series("demo", "eps", [0.1, 0.2], {"ours": [0.9, 0.95]})
        assert "== demo ==" in text
        assert "ours" in text

    def test_series_summary(self):
        summary = series_summary({"a": [0.0, 1.0]})
        assert summary["a"] == 0.5
