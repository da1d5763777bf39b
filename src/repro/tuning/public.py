"""Tuning using public data (Section 4.1, first variant).

When a public dataset drawn from the same distribution is available, no
privacy needs to be spent on tuning: train each candidate on the public
training split, score on the public validation split, and use the best
parameters when training the *private* model on the private data. This is
the setting behind Figure 3 (and Figure 8).

All candidates read the same public training split, which makes this the
textbook fused workload: with a structural factory (one exposing
``candidate(theta)``, e.g. :class:`repro.core.bolton.BoltOnTrainerFactory`)
the whole grid trains in **one data scan** through
:func:`repro.core.bolton.private_psgd_fleet` — the default whenever the
factory supports it. Opaque trainer callables keep the sequential
reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.tuning.grid import ParameterGrid
from repro.tuning.private import TrainerFactory
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import check_matrix_labels


@dataclass
class PublicTuningOutcome:
    """Best parameters found on public data, with the full score table."""

    best_parameters: Dict
    best_accuracy: float
    scores: List[tuple[Dict, float]]


def tune_on_public_data(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    trainer_factory: TrainerFactory,
    grid: ParameterGrid,
    epsilon: float,
    *,
    delta: float = 0.0,
    random_state: RandomState = None,
) -> PublicTuningOutcome:
    """Exhaustive grid search on public data.

    Candidates are trained *with the same privacy parameters* the private
    run will use so the selected hyper-parameters account for the noise
    level they will face (matching the paper's methodology of evaluating
    each algorithm at each ε).

    The whole grid trains in one fused data scan whenever
    ``trainer_factory`` exposes ``candidate(theta)`` (the structural
    contract of :class:`repro.core.bolton.BoltOnTrainerFactory`); an
    opaque factory trains its candidates one after another.
    """
    X_train, y_train = check_matrix_labels(X_train, y_train)
    X_val, y_val = check_matrix_labels(X_val, y_val)
    candidates = grid.candidates()
    if hasattr(trainer_factory, "candidate"):
        from repro.core.bolton import private_psgd_fleet

        rngs = spawn_generators(random_state, len(candidates) + 1)
        results = private_psgd_fleet(
            X_train,
            y_train,
            [trainer_factory.candidate(theta) for theta in candidates],
            epsilon,
            delta=delta,
            random_states=rngs[:-1],
            scan_random_state=rngs[-1],
        )
    else:
        rngs = spawn_generators(random_state, len(candidates))
        results = [
            trainer_factory(theta)(
                X_train, y_train, epsilon=epsilon, delta=delta, random_state=rng
            )
            for theta, rng in zip(candidates, rngs)
        ]

    scores: List[tuple[Dict, float]] = []
    best_parameters: Dict = {}
    best_accuracy = -1.0
    for theta, result in zip(candidates, results):
        accuracy = float(np.mean(result.predict(X_val) == y_val))
        scores.append((theta, accuracy))
        if accuracy > best_accuracy:
            best_accuracy = accuracy
            best_parameters = theta
    return PublicTuningOutcome(
        best_parameters=best_parameters,
        best_accuracy=best_accuracy,
        scores=scores,
    )
