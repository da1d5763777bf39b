"""Epsilon-sweep harness — the engine behind the accuracy figures.

One call produces the accuracy-vs-ε series of a figure row: for each ε on
the grid, train every requested algorithm (averaging over repeats) and
record test accuracy. Binary and multiclass (one-vs-rest with budget
splitting, the MNIST setup) datasets are both supported, as are the three
tuning modes of Section 4.5:

* ``fixed`` — the Figure 3 setting (k = 10, λ = 1e-4, b = 50);
* ``private`` — Algorithm 3 over the paper's grid (Figure 6);
* ``public`` — grid search on a public split (Figures 3/8 narrative).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.evaluation.scenarios import ALGORITHMS, Scenario, TrainSettings, train
from repro.multiclass.ovr import train_one_vs_rest
from repro.tuning.grid import ParameterGrid, paper_grid
from repro.tuning.private import privately_tuned_sgd
from repro.tuning.public import tune_on_public_data
from repro.utils.rng import RandomState, spawn_generators

#: MNIST's paper epsilon grid and the binary datasets' grid (Section 4.3).
MNIST_EPSILONS = (0.1, 0.2, 0.5, 1.0, 2.0, 4.0)
BINARY_EPSILONS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.4)


@dataclass
class SweepResult:
    """Accuracy series per algorithm over an epsilon grid."""

    dataset: str
    scenario: Scenario
    epsilons: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)
    tuning_mode: str = "fixed"

    def as_rows(self) -> List[dict]:
        """Long-format rows for printing or assertion."""
        rows = []
        for algorithm, accuracies in self.series.items():
            for eps, acc in zip(self.epsilons, accuracies):
                rows.append(
                    {
                        "dataset": self.dataset,
                        "scenario": self.scenario.name,
                        "algorithm": algorithm,
                        "epsilon": eps,
                        "accuracy": acc,
                    }
                )
        return rows


def algorithms_for(scenario: Scenario, include_noiseless: bool = True) -> List[str]:
    """Figure 3/6 panel membership: BST14 only in the (ε,δ) tests."""
    names = ["noiseless", "ours", "scs13"] if include_noiseless else ["ours", "scs13"]
    if scenario.supports_bst14:
        names.append("bst14")
    return names


def _train_once(
    algorithm: str,
    train_ds: Dataset,
    settings: TrainSettings,
    rng: np.random.Generator,
):
    """Train binary or (budget-split) one-vs-rest as the dataset demands."""
    if train_ds.num_classes == 2:
        return train(algorithm, train_ds.features, train_ds.labels, settings, rng)

    # Multiclass: split the budget across the one-vs-rest sub-models for the
    # private algorithms; the noiseless baseline has nothing to split.
    if algorithm == "noiseless":
        sub_epsilon = settings.epsilon
        sub_delta = settings.resolve_delta(train_ds.size)
    else:
        classes = train_ds.num_classes
        sub_epsilon = settings.epsilon / classes
        sub_delta = settings.resolve_delta(train_ds.size) / classes

    def binary_trainer(X, y, epsilon, delta, random_state):
        sub_settings = replace(settings, epsilon=epsilon, delta=delta)
        return train(algorithm, X, y, sub_settings, random_state)

    return train_one_vs_rest(
        train_ds.features,
        train_ds.labels,
        lambda X, y, epsilon, delta, random_state: binary_trainer(
            X, y, sub_epsilon, sub_delta, random_state
        ),
        # the OVR helper re-splits; hand it the full budget and let the
        # explicit per-model values above override its even split
        epsilon=settings.epsilon,
        delta=settings.resolve_delta(train_ds.size),
        random_state=rng,
    )


def accuracy_sweep(
    train_ds: Dataset,
    test_ds: Dataset,
    scenario: Scenario,
    epsilons: Sequence[float],
    *,
    algorithms: Optional[Sequence[str]] = None,
    settings: Optional[TrainSettings] = None,
    repeats: int = 1,
    random_state: RandomState = 0,
) -> SweepResult:
    """The Figure 3/8 fixed-parameter sweep."""
    if algorithms is None:
        algorithms = algorithms_for(scenario)
    base = settings if settings is not None else TrainSettings(scenario, epsilon=1.0)

    result = SweepResult(
        dataset=train_ds.name,
        scenario=scenario,
        epsilons=[float(e) for e in epsilons],
        tuning_mode="fixed",
    )
    rngs = spawn_generators(random_state, len(algorithms) * len(result.epsilons) * repeats)
    rng_iter = iter(rngs)

    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        accuracies: List[float] = []
        for eps in result.epsilons:
            runs = []
            for _ in range(repeats):
                rng = next(rng_iter)
                trained = _train_once(
                    algorithm, train_ds, replace(base, scenario=scenario, epsilon=eps), rng
                )
                runs.append(
                    float(
                        np.mean(trained.predict(test_ds.features) == test_ds.labels)
                    )
                )
            accuracies.append(float(np.mean(runs)))
        result.series[algorithm] = accuracies
    return result


def private_tuning_sweep(
    train_ds: Dataset,
    test_ds: Dataset,
    scenario: Scenario,
    epsilons: Sequence[float],
    *,
    algorithms: Optional[Sequence[str]] = None,
    grid: Optional[ParameterGrid] = None,
    settings: Optional[TrainSettings] = None,
    random_state: RandomState = 0,
) -> SweepResult:
    """The Figure 6/7/9 sweep: every private point tuned via Algorithm 3.

    The noiseless baseline keeps fixed parameters (it has no privacy noise
    to tune against). Multiclass datasets are handled by tuning the binary
    sub-problem parameters jointly through the OVR wrapper.
    """

    def tune(algorithm, current, grid, rng):
        return privately_tuned_sgd(
            train_ds.features,
            train_ds.labels,
            _trainer_factory(algorithm, current, train_ds.num_classes),
            grid,
            current.epsilon,
            delta=current.resolve_delta(train_ds.size),
            random_state=rng,
        )

    return _tuned_sweep(
        "private", tune, train_ds, test_ds, scenario, epsilons,
        algorithms, grid, settings, random_state,
    )


def public_tuning_sweep(
    train_ds: Dataset,
    test_ds: Dataset,
    public_ds: Dataset,
    scenario: Scenario,
    epsilons: Sequence[float],
    *,
    algorithms: Optional[Sequence[str]] = None,
    grid: Optional[ParameterGrid] = None,
    settings: Optional[TrainSettings] = None,
    random_state: RandomState = 0,
) -> SweepResult:
    """Tuning using public data: pick parameters on ``public_ds``, then
    train privately on ``train_ds`` with them."""
    public_train, public_val = public_ds.split(test_fraction=0.3, random_state=7)

    def tune(algorithm, current, grid, rng):
        tuned = tune_on_public_data(
            public_train.features,
            public_train.labels,
            public_val.features,
            public_val.labels,
            _trainer_factory(algorithm, current, train_ds.num_classes),
            grid,
            current.epsilon,
            delta=current.resolve_delta(train_ds.size),
            random_state=rng,
        )
        final_settings = replace(
            current,
            passes=tuned.best_parameters.get("passes", current.passes),
            regularization=tuned.best_parameters.get(
                "regularization", current.regularization
            ),
        )
        return _train_once(algorithm, train_ds, final_settings, rng)

    return _tuned_sweep(
        "public", tune, train_ds, test_ds, scenario, epsilons,
        algorithms, grid, settings, random_state,
    )


def _tuned_sweep(
    mode: str,
    tune,
    train_ds: Dataset,
    test_ds: Dataset,
    scenario: Scenario,
    epsilons: Sequence[float],
    algorithms: Optional[Sequence[str]],
    grid: Optional[ParameterGrid],
    settings: Optional[TrainSettings],
    random_state: RandomState,
) -> SweepResult:
    """The tuning sweeps' shared loop: at each ε, the noiseless baseline
    trains at fixed parameters and every private algorithm's model comes
    from ``tune(algorithm, settings at ε, grid, rng)``."""
    if algorithms is None:
        algorithms = algorithms_for(scenario)
    if grid is None:
        grid = paper_grid(include_regularization=scenario.is_strongly_convex)
    base = settings if settings is not None else TrainSettings(scenario, epsilon=1.0)

    result = SweepResult(
        dataset=train_ds.name,
        scenario=scenario,
        epsilons=[float(e) for e in epsilons],
        tuning_mode=mode,
    )
    rngs = spawn_generators(random_state, len(algorithms) * len(result.epsilons))
    rng_iter = iter(rngs)

    for algorithm in algorithms:
        accuracies: List[float] = []
        for eps in result.epsilons:
            rng = next(rng_iter)
            current = replace(base, scenario=scenario, epsilon=eps)
            if algorithm == "noiseless":
                trained = _train_once(algorithm, train_ds, current, rng)
            else:
                trained = tune(algorithm, current, grid, rng)
            accuracies.append(
                float(np.mean(trained.predict(test_ds.features) == test_ds.labels))
            )
        result.series[algorithm] = accuracies
    return result


def _trainer_factory(algorithm: str, settings: TrainSettings, num_classes: int):
    """The tuners' ``trainer_factory``: a grid point's ``passes`` and
    ``regularization`` override ``settings``, and each tuning subset
    trains as a dataset of ``num_classes`` classes."""

    def factory(theta: dict):
        def trainer(X, y, epsilon, delta, random_state):
            tuned = replace(
                settings,
                epsilon=epsilon,
                delta=delta if delta > 0 else None,
                passes=theta.get("passes", settings.passes),
                regularization=theta.get("regularization", settings.regularization),
            )
            sub = Dataset(name="tuning", features=X, labels=y,
                          num_classes=max(2, num_classes))
            return _train_once(algorithm, sub, tuned, random_state)

        return trainer

    return factory
