"""Per-figure experiment drivers.

Each ``figure*`` function regenerates the data behind one figure of the
paper and returns ``{"x": ..., "series": {...}, "meta": {...}}`` ready for
:func:`repro.evaluation.reporting.format_series`. Sizes and grids default
to laptop-fast settings; every function takes the paper's parameters
explicitly so a patient caller can push them to full scale.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.bolton import BoltOnCandidate
from repro.data.dataset import Dataset, TrainTestPair
from repro.data.projection import project_dataset
from repro.data.registry import get_spec
from repro.evaluation.harness import (
    BINARY_EPSILONS,
    MNIST_EPSILONS,
    SweepResult,
    accuracy_sweep,
    private_tuning_sweep,
)
from repro.evaluation.scenarios import Scenario, TrainSettings
from repro.optim.losses import LogisticLoss
from repro.rdbms.bismarck import BismarckSession, integration_report
from repro.rdbms.cost_model import CostModel
from repro.rdbms.synthesizer import analytic_counters, dataset_size_gb
from repro.utils.rng import RandomState


def load_experiment_dataset(
    name: str,
    scale: Optional[float] = None,
    seed: int = 0,
) -> TrainTestPair:
    """Load a registry dataset, applying the MNIST 784→50 projection."""
    spec = get_spec(name)
    pair = spec.load(scale=scale, seed=seed)
    if spec.projected_dimension is not None:
        train, projection = project_dataset(
            pair.train, spec.projected_dimension, random_state=seed
        )
        test, _ = project_dataset(
            pair.test, spec.projected_dimension, projection=projection
        )
        return TrainTestPair(train=train, test=test)
    return pair


def epsilons_for(name: str) -> Sequence[float]:
    """The paper's per-dataset ε grid (MNIST is 10-class, so larger ε)."""
    return MNIST_EPSILONS if name.lower() == "mnist" else BINARY_EPSILONS


# ---------------------------------------------------------------------------
# Figure 1 / Section 4.2 — integration effort
# ---------------------------------------------------------------------------


def figure1_integration() -> dict:
    """The integration-effort comparison as measured on our substrate."""
    report = integration_report()
    return {
        "x": ["bolton", "whitebox"],
        "series": {
            "integration_loc": [
                report["bolton_integration_loc"],
                report["whitebox_integration_loc"],
            ]
        },
        "meta": report,
    }


# ---------------------------------------------------------------------------
# Figure 2 — scalability
# ---------------------------------------------------------------------------


def figure2_scalability(
    sizes: Sequence[int] = (10_000_000, 20_000_000, 30_000_000, 40_000_000, 50_000_000),
    dimension: int = 50,
    batch_size: int = 1,
    epochs: int = 1,
    buffer_pool_pages: int = 8_000_000,
    algorithms: Sequence[str] = ("noiseless", "bolton", "scs13", "bst14"),
) -> dict:
    """Per-epoch simulated runtime vs dataset size.

    Defaults reproduce panel (a) (in-memory: pool of 8M pages ≈ 64 GB).
    For panel (b) pass disk-scale ``sizes`` (e.g. 2e8..1.2e9) and a small
    pool so every epoch re-reads from disk.
    """
    model = CostModel()
    series: Dict[str, List[float]] = {a: [] for a in algorithms}
    for size in sizes:
        for algorithm in algorithms:
            work = analytic_counters(
                size,
                dimension,
                epochs,
                batch_size,
                algorithm,
                buffer_pool_pages=buffer_pool_pages,
            )
            series[algorithm].append(model.charge(work).total / 60.0)
    return {
        "x": [s / 1e6 for s in sizes],
        "series": series,
        "meta": {
            "x_label": "examples (millions)",
            "y_label": "simulated runtime (minutes)",
            "sizes_gb": [dataset_size_gb(s, dimension) for s in sizes],
            "in_memory": [
                dataset_size_gb(s, dimension) * 1e9 / 8192 <= buffer_pool_pages
                for s in sizes
            ],
        },
    }


# ---------------------------------------------------------------------------
# Figure 4 — effect of passes and batch size on accuracy (MNIST)
# ---------------------------------------------------------------------------


def figure4_passes(
    pair: TrainTestPair,
    scenario: Scenario,
    epsilons: Sequence[float] = MNIST_EPSILONS,
    passes_grid: Sequence[int] = (1, 10, 20),
    batch_size: int = 1,
    regularization: float = 1e-4,
    random_state: RandomState = 0,
) -> dict:
    """Panels (a)/(b): "ours" accuracy vs ε for 1/10/20 passes.

    Panel (a) is Test 1 (convex, b = 1): more passes ⇒ more noise ⇒ worse.
    Panel (b) is Test 3 (strongly convex, b = 50): more passes ⇒ better.
    """
    series: Dict[str, List[float]] = {}
    for passes in passes_grid:
        settings = TrainSettings(
            scenario,
            epsilon=1.0,
            passes=passes,
            batch_size=batch_size,
            regularization=regularization,
        )
        sweep = accuracy_sweep(
            pair.train,
            pair.test,
            scenario,
            epsilons,
            algorithms=["ours"],
            settings=settings,
            random_state=random_state,
        )
        label = f"{passes} pass" + ("es" if passes > 1 else "")
        series[label] = sweep.series["ours"]
    return {
        "x": list(epsilons),
        "series": series,
        "meta": {"scenario": scenario.name, "batch_size": batch_size},
    }


def figure4_batch_size(
    pair: TrainTestPair,
    epsilons: Sequence[float] = MNIST_EPSILONS,
    batch_grid: Sequence[int] = (1, 10, 50),
    passes: int = 20,
    random_state: RandomState = 0,
) -> dict:
    """Panel (c): Test 1 at 20 passes, batch size in {1, 10, 50}."""
    series: Dict[str, List[float]] = {}
    for batch in batch_grid:
        settings = TrainSettings(
            Scenario.CONVEX_PURE, epsilon=1.0, passes=passes, batch_size=batch
        )
        sweep = accuracy_sweep(
            pair.train,
            pair.test,
            Scenario.CONVEX_PURE,
            epsilons,
            algorithms=["ours"],
            settings=settings,
            random_state=random_state,
        )
        series[f"mini-batch = {batch}"] = sweep.series["ours"]
    return {
        "x": list(epsilons),
        "series": series,
        "meta": {"passes": passes},
    }


# ---------------------------------------------------------------------------
# Figure 5 — runtime vs epochs and vs batch size (executed, simulated cost)
# ---------------------------------------------------------------------------


def figure5_runtime_vs_epochs(
    dataset: Dataset,
    epoch_grid: Sequence[int] = (1, 5, 10, 20),
    batch_size: int = 10,
    epsilon: float = 0.1,
    regularization: float = 1e-4,
    random_state: RandomState = 0,
) -> dict:
    """Row 1 of Figure 5: strongly convex (ε,δ)-DP runtime vs epochs."""
    runs = [(epochs, batch_size) for epochs in epoch_grid]
    return {
        "x": list(epoch_grid),
        "series": _figure5_series(dataset, runs, epsilon, regularization, random_state),
        "meta": {"batch_size": batch_size, "dataset": dataset.name},
    }


def figure5_runtime_vs_batch(
    dataset: Dataset,
    batch_grid: Sequence[int] = (1, 10, 100, 500, 1000),
    epochs: int = 1,
    epsilon: float = 0.1,
    regularization: float = 1e-4,
    random_state: RandomState = 0,
) -> dict:
    """Row 2 of Figure 5: runtime vs mini-batch size for one epoch."""
    runs = [(epochs, min(batch, dataset.size)) for batch in batch_grid]
    return {
        "x": list(batch_grid),
        "series": _figure5_series(dataset, runs, epsilon, regularization, random_state),
        "meta": {"epochs": epochs, "dataset": dataset.name},
    }


def _figure5_series(
    dataset: Dataset,
    runs: Sequence[tuple],
    epsilon: float,
    regularization: float,
    random_state: RandomState,
) -> Dict[str, List[float]]:
    """Figure 5's four simulated-runtime series, one point per
    ``(epochs, batch size)`` run, each on a fresh warm session.

    The strongly convex loss takes Algorithm 2's schedule and L2 ball
    from the bolt-on rule; the noiseless run and the white-box baselines
    train in that same ball.
    """
    loss = LogisticLoss(regularization=regularization)
    schedule, projection, _ = BoltOnCandidate(loss).resolve(dataset.size)
    delta = 1.0 / dataset.size**2
    series: Dict[str, List[float]] = {
        "noiseless": [],
        "ours": [],
        "scs13": [],
        "bst14": [],
    }
    for epochs, batch_size in runs:
        session = BismarckSession(buffer_pool_pages=1 << 20)
        session.load_table("t", dataset.features, dataset.labels)
        session.warm_cache("t")
        run = dict(epochs=epochs, batch_size=batch_size, random_state=random_state)
        reports = {
            "noiseless": session.run_noiseless(
                "t", loss, schedule, projection=projection, **run
            ),
            "ours": session.run_bolton_private("t", loss, epsilon, delta=delta, **run),
            "scs13": session.run_scs13(
                "t", loss, epsilon, delta=delta, radius=projection.radius, **run
            ),
            "bst14": session.run_bst14(
                "t", loss, epsilon, delta, radius=projection.radius, **run
            ),
        }
        for name, report in reports.items():
            series[name].append(report.simulated_seconds)
    return series


# ---------------------------------------------------------------------------
# Figure 10 — accuracy vs mini-batch size (50..200)
# ---------------------------------------------------------------------------


def figure10_minibatch(
    pair: TrainTestPair,
    epsilons: Sequence[float] = MNIST_EPSILONS,
    batch_grid: Sequence[int] = (50, 100, 150, 200),
    passes: int = 10,
    regularization: float = 1e-4,
    random_state: RandomState = 0,
) -> List[SweepResult]:
    """One Test-4 sweep per batch size, all four algorithms."""
    results = []
    scenario = Scenario.STRONGLY_CONVEX_APPROX
    for batch in batch_grid:
        settings = TrainSettings(
            scenario,
            epsilon=1.0,
            passes=passes,
            batch_size=batch,
            regularization=regularization,
        )
        results.append(
            accuracy_sweep(
                pair.train,
                pair.test,
                scenario,
                epsilons,
                settings=settings,
                random_state=random_state,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Figures 3 / 6 / 7 / 8 / 9 — thin wrappers over the harness
# ---------------------------------------------------------------------------


def accuracy_figure_row(
    dataset_name: str,
    *,
    tuning: str = "fixed",
    scale: Optional[float] = None,
    scenarios: Sequence[Scenario] = tuple(Scenario),
    epsilons: Optional[Sequence[float]] = None,
    model: str = "logistic",
    passes: int = 10,
    batch_size: int = 50,
    regularization: float = 1e-4,
    grid=None,
    seed: int = 0,
) -> List[SweepResult]:
    """One figure row: the four scenario panels for one dataset.

    ``tuning='fixed'`` reproduces Figure 3's setting (and Figure 8);
    ``tuning='private'`` reproduces Figures 6/7/9. ``model='huber'``
    switches to the Huber SVM of Figure 7.
    """
    pair = load_experiment_dataset(dataset_name, scale=scale, seed=seed)
    eps = list(epsilons) if epsilons is not None else list(epsilons_for(dataset_name))
    results = []
    for scenario in scenarios:
        settings = TrainSettings(
            scenario,
            epsilon=1.0,
            passes=passes,
            batch_size=batch_size,
            regularization=regularization,
            model=model,
        )
        if tuning == "fixed":
            results.append(
                accuracy_sweep(
                    pair.train, pair.test, scenario, eps,
                    settings=settings, random_state=seed,
                )
            )
        elif tuning == "private":
            results.append(
                private_tuning_sweep(
                    pair.train, pair.test, scenario, eps,
                    settings=settings, grid=grid, random_state=seed,
                )
            )
        else:
            raise ValueError(f"unknown tuning mode {tuning!r}")
    return results
