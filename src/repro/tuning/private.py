"""Algorithm 3 — private hyper-parameter tuning.

From Chaudhuri, Monteleoni and Sarwate [13], as adopted by the paper:

1. split the training set into ``l + 1`` equal disjoint portions
   ``S_1 ... S_{l+1}``;
2. train candidate ``i`` on ``S_i`` with parameters ``theta_i`` (any of the
   private trainers — each sees a disjoint slice, so training composes in
   parallel and costs ε once, not l times);
3. count the classification errors ``chi_i`` of candidate ``i`` on the
   held-out slice ``S_{l+1}``;
4. release candidate ``i`` with probability ``∝ exp(-eps * chi_i / 2)``
   (the exponential mechanism; the error count has sensitivity 1, so this
   selection is ε-DP).

The overall guarantee is (ε, δ)-DP: ε from training (parallel) plus... the
paper follows [13] in reporting the *same* ε for the end-to-end procedure
(training on disjoint data and selecting with the same ε each account for
ε under parallel/sequential composition of the two stages; we surface both
stages' spends through the optional accountant so users can apply their
preferred bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.accountant import PrivacyAccountant
from repro.core.mechanisms import PrivacyParameters
from repro.optim.losses import Loss
from repro.tuning.grid import ParameterGrid
from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.utils.validation import check_matrix_labels, check_positive

#: A trainer factory: parameters dict -> callable(X, y, epsilon, delta, rng)
#: returning an object with ``predict(X)``.
TrainerFactory = Callable[[Dict], Callable[..., object]]


@dataclass
class TuningOutcome:
    """The released model plus full (private-safe) diagnostics."""

    model_result: object
    chosen_parameters: Dict
    chosen_index: int
    privacy: PrivacyParameters
    #: Error counts chi_i on the validation slice (diagnostic; releasing
    #: them verbatim is NOT covered by the guarantee).
    unreleased_error_counts: List[int] = field(default_factory=list)
    #: Selection probabilities of the exponential mechanism (diagnostic).
    unreleased_probabilities: np.ndarray = field(default_factory=lambda: np.empty(0))
    candidates: List[Dict] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.model_result.predict(X)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        X, y = check_matrix_labels(X, y)
        return float(np.mean(self.predict(X) == y))


def exponential_mechanism_probabilities(
    error_counts: Sequence[int], epsilon: float
) -> np.ndarray:
    """``p_i = exp(-eps chi_i / 2) / sum_j exp(-eps chi_j / 2)`` (line 5).

    Computed with the max-shift trick for numerical stability.
    """
    check_positive(epsilon, "epsilon")
    chi = np.asarray(error_counts, dtype=np.float64)
    if chi.ndim != 1 or chi.size == 0:
        raise ValueError("error_counts must be a non-empty 1-D sequence")
    if np.any(chi < 0):
        raise ValueError("error counts must be non-negative")
    logits = -epsilon * chi / 2.0
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def batched_error_counts(
    results: Sequence[object], X_val: np.ndarray, y_val: np.ndarray
) -> Optional[List[int]]:
    """Line 3's ``chi_i`` for all candidates in one margin matrix, or None.

    When every candidate result exposes a linear ``model`` whose loss uses
    the standard sign-margin predictor, the l per-candidate prediction
    loops collapse into one ``(n, l)`` score GEMM against the stacked
    weight matrix — the same batching the fused training engine applies on
    the way *in*. Candidates with bespoke predictors return ``None`` and
    keep the generic per-result path.
    """
    models = []
    for result in results:
        model = getattr(result, "model", None)
        loss = getattr(result, "loss", None)
        if (
            model is None
            or loss is None
            or type(loss).predict is not Loss.predict
            or np.ndim(model) != 1
        ):
            return None
        models.append(np.asarray(model, dtype=np.float64))
    scores = np.asarray(X_val, dtype=np.float64) @ np.stack(models).T
    predictions = np.where(scores >= 0.0, 1.0, -1.0)
    mismatches = predictions != np.asarray(y_val, dtype=np.float64)[:, None]
    return [int(count) for count in np.sum(mismatches, axis=0)]


def partition_dataset(
    X: np.ndarray, y: np.ndarray, parts: int, rng: np.random.Generator
) -> List[tuple[np.ndarray, np.ndarray]]:
    """Split (X, y) into ``parts`` disjoint near-equal random portions."""
    X, y = check_matrix_labels(X, y)
    if parts < 2:
        raise ValueError(f"need at least 2 portions, got {parts}")
    m = X.shape[0]
    if m < parts:
        raise ValueError(f"cannot split {m} examples into {parts} portions")
    order = rng.permutation(m)
    chunks = np.array_split(order, parts)
    return [(X[idx], y[idx]) for idx in chunks]


def privately_tuned_sgd(
    X: np.ndarray,
    y: np.ndarray,
    trainer_factory: TrainerFactory,
    grid: ParameterGrid,
    epsilon: float,
    *,
    delta: float = 0.0,
    random_state: RandomState = None,
    accountant: Optional[PrivacyAccountant] = None,
) -> TuningOutcome:
    """Run Algorithm 3 end to end.

    ``trainer_factory(theta)`` must return a trainer callable with signature
    ``trainer(X_i, y_i, epsilon=..., delta=..., random_state=...)`` whose
    result exposes ``predict``. Each candidate trains on its own disjoint
    slice with the full (ε, δ) (parallel composition); selection uses the
    exponential mechanism at ε.

    A structural factory (one exposing ``candidate(theta)``, the
    :class:`repro.core.bolton.BoltOnTrainerFactory` contract) trains all
    partitions' models through the fused engine: the near-equal
    partitions are stacked into
    ``(K, m_i, d)`` tensors (one fused run per distinct partition size —
    ``array_split`` produces at most two) and every candidate keeps its
    own permutation and noise streams, so the fused result matches the
    sequential path bit for bit (the engines' equivalence contract). Opaque
    trainers keep the sequential reference path.
    """
    X, y = check_matrix_labels(X, y)
    privacy = PrivacyParameters(epsilon, delta)
    candidates = grid.candidates()
    l = len(candidates)
    master = as_generator(random_state)
    trainer_rngs = spawn_generators(master, l)
    selection_rng = as_generator(master)

    portions = partition_dataset(X, y, l + 1, master)
    X_val, y_val = portions[-1]

    if hasattr(trainer_factory, "candidate"):
        from repro.core.bolton import private_psgd_fleet

        specs = [trainer_factory.candidate(theta) for theta in candidates]
        by_size: dict[int, List[int]] = {}
        for index, (X_i, _) in enumerate(portions[:-1]):
            by_size.setdefault(X_i.shape[0], []).append(index)
        results: List = [None] * l
        for indices in by_size.values():
            fleet = private_psgd_fleet(
                np.stack([portions[i][0] for i in indices]),
                np.stack([portions[i][1] for i in indices]),
                [specs[i] for i in indices],
                epsilon,
                delta=delta,
                random_states=[trainer_rngs[i] for i in indices],
            )
            for i, result in zip(indices, fleet):
                results[i] = result
        if accountant is not None:
            for theta in candidates:
                accountant.spend_parallel(
                    privacy, group="tuning-train", label=str(theta)
                )
    else:
        results = []
        for theta, (X_i, y_i), rng in zip(candidates, portions[:-1], trainer_rngs):
            trainer = trainer_factory(theta)
            result = trainer(X_i, y_i, epsilon=epsilon, delta=delta, random_state=rng)
            if accountant is not None:
                accountant.spend_parallel(
                    privacy, group="tuning-train", label=str(theta)
                )
            results.append(result)

    error_counts = batched_error_counts(results, X_val, y_val)
    if error_counts is None:
        error_counts = [
            int(np.sum(result.predict(X_val) != y_val)) for result in results
        ]

    probabilities = exponential_mechanism_probabilities(error_counts, epsilon)
    chosen = int(selection_rng.choice(l, p=probabilities))
    if accountant is not None:
        accountant.spend(privacy, label="tuning-selection")

    return TuningOutcome(
        model_result=results[chosen],
        chosen_parameters=candidates[chosen],
        chosen_index=chosen,
        privacy=privacy,
        unreleased_error_counts=error_counts,
        unreleased_probabilities=probabilities,
        candidates=candidates,
    )
