"""One-vs-rest multiclass training with privacy-budget splitting.

The paper's MNIST experiment builds ten binary logistic models ("one for
each digit") and, because each model reads the whole training set, splits
the privacy budget evenly across them using basic sequential composition
(Section 4.3). This module packages that pattern for any trainer with the
library's common signature.

Every class's model reads the *same* feature rows — only the ±1
relabeling differs — which makes OvR a one-scan workload: pass a
structural :class:`repro.core.bolton.BoltOnCandidate` as the trainer and
all C classes train fused, with the per-class relabeling expressed as one
``(C, m)`` label matrix instead of C relabeled copies. Opaque trainer
callables keep the sequential per-class path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.core.accountant import PrivacyAccountant, split_evenly
from repro.core.bolton import BoltOnCandidate, private_psgd_fleet
from repro.core.mechanisms import PrivacyParameters
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import check_matrix_labels

#: A binary trainer: (X, y_pm1, epsilon, delta, rng) -> object with ``model``.
BinaryTrainer = Callable[..., object]


@dataclass
class OneVsRestResult:
    """Ten (or C) binary models plus argmax prediction."""

    models: List[np.ndarray]
    classes: List[int]
    privacy: PrivacyParameters
    per_model_privacy: PrivacyParameters
    sub_results: List[object] = field(repr=False, default_factory=list)

    @property
    def weight_matrix(self) -> np.ndarray:
        """The ``(C, d)`` stacked model matrix.

        Rebuilt from ``models`` on each access (stacking C small vectors
        is noise next to the score GEMM), so mutating ``models`` is
        always reflected — no stale cache.
        """
        return np.stack([np.asarray(w, dtype=np.float64) for w in self.models])

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        """Margin <w_c, x> per class; shape (n, C).

        One GEMM against the stacked ``(C, d)`` weight matrix — the same
        margin-matrix form the fused training engine uses — instead of a
        per-class loop of C matrix-vector products.
        """
        X = np.asarray(X, dtype=np.float64)
        return X @ self.weight_matrix.T

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class with the largest margin."""
        scores = self.decision_scores(X)
        return np.asarray(self.classes, dtype=np.float64)[np.argmax(scores, axis=1)]

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        X, y = check_matrix_labels(X, y)
        return float(np.mean(self.predict(X) == y))


def class_label_matrix(y: np.ndarray, classes: Sequence[int]) -> np.ndarray:
    """The ``(C, m)`` one-vs-rest relabeling: row c is ``±1`` for class c.

    One vectorized comparison instead of C relabeled copies — the form the
    fused engine consumes directly.
    """
    y = np.asarray(y, dtype=np.float64)
    class_column = np.asarray(list(classes), dtype=np.float64)[:, None]
    return np.where(y[None, :] == class_column, 1.0, -1.0)


def train_one_vs_rest(
    X: np.ndarray,
    y: np.ndarray,
    trainer: Union[BinaryTrainer, BoltOnCandidate],
    epsilon: float,
    *,
    delta: float = 0.0,
    classes: Optional[Sequence[int]] = None,
    random_state: RandomState = None,
    accountant: Optional[PrivacyAccountant] = None,
) -> OneVsRestResult:
    """Train one private binary model per class on an even budget split.

    ``trainer`` is either the classic callable — invoked as ``trainer(X,
    y_pm1, epsilon=eps_i, delta=delta_i, random_state=rng)``, returning an
    object exposing ``model`` (all of
    :func:`repro.core.private_convex_psgd`,
    :func:`repro.core.private_strongly_convex_psgd`,
    :func:`repro.baselines.scs13_train` qualify via a small lambda) — or a
    structural :class:`repro.core.bolton.BoltOnCandidate`.

    A candidate trains **all classes in one data scan**: the per-class
    relabelings become one ``(C, m)`` label matrix feeding the fused
    engine, each class keeps its own noise stream and its ε/C budget
    share, and the sensitivity/noise epilogue is per-class exactly as a
    solo bolt-on run's. A callable trains the classes one after another.

    When an ``accountant`` is supplied every sub-model's spend is recorded
    against it (and the call fails loudly if the budget would overflow).
    """
    X, y = check_matrix_labels(X, y)
    total = PrivacyParameters(epsilon, delta)
    if classes is None:
        classes = sorted(int(c) for c in np.unique(y))
    if len(classes) < 2:
        raise ValueError(f"need at least two classes, got {classes}")

    shares = split_evenly(total, len(classes))

    models: List[np.ndarray] = []
    sub_results: List[object] = []
    if isinstance(trainer, BoltOnCandidate):
        rngs = spawn_generators(random_state, len(classes) + 1)
        results = private_psgd_fleet(
            X,
            class_label_matrix(y, classes),
            [trainer] * len(classes),
            [share.epsilon for share in shares],
            delta=[share.delta for share in shares],
            random_states=rngs[:-1],
            scan_random_state=rngs[-1],
        )
        for cls, share, result in zip(classes, shares, results):
            if accountant is not None:
                accountant.spend(share, label=f"ovr-class-{cls}")
            models.append(np.asarray(result.model, dtype=np.float64))
            sub_results.append(result)
    else:
        rngs = spawn_generators(random_state, len(classes))
        for cls, share, rng in zip(classes, shares, rngs):
            y_binary = np.where(y == cls, 1.0, -1.0)
            result = trainer(
                X, y_binary, epsilon=share.epsilon, delta=share.delta,
                random_state=rng,
            )
            if accountant is not None:
                accountant.spend(share, label=f"ovr-class-{cls}")
            models.append(np.asarray(result.model, dtype=np.float64))
            sub_results.append(result)

    return OneVsRestResult(
        models=models,
        classes=list(classes),
        privacy=total,
        per_model_privacy=shares[0],
        sub_results=sub_results,
    )
