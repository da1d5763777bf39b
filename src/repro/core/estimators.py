"""Scikit-learn-style estimators wrapping the bolt-on algorithms.

The functional API (:mod:`repro.core.bolton`) mirrors the paper's
pseudo-code; these classes package it the way a downstream user expects to
consume a classifier: construct with hyper-parameters, ``fit``,
``predict`` / ``score``, introspect fitted attributes.

>>> clf = BoltOnPrivateClassifier(epsilon=0.5, regularization=1e-3)
>>> clf.fit(X_train, y_train, random_state=0)
>>> clf.score(X_test, y_test)

``BoltOnPrivateClassifier`` picks Algorithm 1 or 2 automatically from the
regularization setting; the guarantee (ε or (ε, δ)) follows from ``delta``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bolton import BoltOnCandidate, PrivateTrainingResult, train_bolt_on
from repro.core.mechanisms import PrivacyParameters
from repro.optim.losses import HuberSVMLoss, LogisticLoss, Loss
from repro.utils.rng import RandomState
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)


class BoltOnPrivateClassifier:
    """Differentially private linear classifier via bolt-on PSGD.

    Parameters
    ----------
    epsilon, delta:
        The privacy contract. ``delta = 0`` gives pure ε-DP (spherical
        Laplace noise); ``delta > 0`` gives (ε, δ)-DP (Gaussian noise).
    loss:
        ``"logistic"`` (default) or ``"huber"``, or any :class:`Loss`
        instance.
    regularization:
        L2 coefficient λ. ``0`` selects Algorithm 1 (convex, constant
        step); ``> 0`` selects Algorithm 2 (strongly convex,
        ``min(1/beta, 1/(gamma t))`` step, constraint radius ``1/λ``).
    passes, batch_size:
        k and b of Table 1.
    eta:
        Constant step size for the convex case (default ``1/sqrt(m)``).
    average:
        ``None``, ``"uniform"`` or ``"suffix"`` model averaging.

    Fitted attributes (after :meth:`fit`)
    -------------------------------------
    ``coef_`` — the released private model;
    ``privacy_`` — the :class:`PrivacyParameters` actually guaranteed;
    ``sensitivity_`` — the calibrated L2-sensitivity;
    ``noise_norm_`` — the norm of the drawn noise vector;
    ``result_`` — the full :class:`PrivateTrainingResult`.
    """

    def __init__(
        self,
        epsilon: float,
        delta: float = 0.0,
        loss: str | Loss = "logistic",
        regularization: float = 0.0,
        passes: int = 10,
        batch_size: int = 50,
        eta: Optional[float] = None,
        average: Optional[str] = None,
        huber_smoothing: float = 0.1,
    ):
        self.epsilon = check_positive(epsilon, "epsilon")
        self.delta = check_non_negative(delta, "delta")
        self.regularization = check_non_negative(regularization, "regularization")
        self.passes = check_positive_int(passes, "passes")
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.eta = eta
        self.average = average
        self.huber_smoothing = check_positive(huber_smoothing, "huber_smoothing")
        self.loss = self._resolve_loss(loss)
        self.result_: Optional[PrivateTrainingResult] = None

    def _resolve_loss(self, loss: str | Loss) -> Loss:
        if isinstance(loss, Loss):
            if loss.regularization != self.regularization:
                loss = loss.with_regularization(self.regularization)
            return loss
        if loss == "logistic":
            return LogisticLoss(regularization=self.regularization)
        if loss == "huber":
            return HuberSVMLoss(
                smoothing=self.huber_smoothing, regularization=self.regularization
            )
        raise ValueError(
            f"loss must be 'logistic', 'huber' or a Loss instance, got {loss!r}"
        )

    # -- estimator API -----------------------------------------------------------

    def fit(
        self, X: np.ndarray, y: np.ndarray, random_state: RandomState = None
    ) -> "BoltOnPrivateClassifier":
        """Train and privatize; refitting re-spends the privacy budget."""
        candidate = BoltOnCandidate(
            self.loss, passes=self.passes, batch_size=self.batch_size,
            eta=self.eta, average=self.average,
        )
        self.result_ = train_bolt_on(
            X, y, candidate, self.epsilon, delta=self.delta, random_state=random_state
        )
        return self

    @property
    def coef_(self) -> np.ndarray:
        """The released differentially private model."""
        return self._fitted().model

    @property
    def privacy_(self) -> PrivacyParameters:
        return self._fitted().privacy

    @property
    def sensitivity_(self) -> float:
        return self._fitted().sensitivity.value

    @property
    def noise_norm_(self) -> float:
        return self._fitted().noise_norm

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels in {-1, +1}."""
        return self._fitted().predict(X)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw margins ``<w, x>``."""
        X = np.asarray(X, dtype=np.float64)
        return X @ self.coef_

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return self._fitted().accuracy(X, y)

    def _fitted(self) -> PrivateTrainingResult:
        if self.result_ is None:
            raise RuntimeError("classifier is not fitted; call fit(X, y) first")
        return self.result_

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BoltOnPrivateClassifier(epsilon={self.epsilon!r}, "
            f"delta={self.delta!r}, regularization={self.regularization!r}, "
            f"passes={self.passes!r}, batch_size={self.batch_size!r})"
        )


class PrivateLogisticRegression(BoltOnPrivateClassifier):
    """L2-regularized private logistic regression (the paper's main model)."""

    def __init__(self, epsilon: float, delta: float = 0.0,
                 regularization: float = 1e-4, **kwargs):
        super().__init__(
            epsilon, delta=delta, loss="logistic",
            regularization=regularization, **kwargs,
        )


class PrivateHuberSVM(BoltOnPrivateClassifier):
    """Huber-smoothed private SVM (Appendix B's model)."""

    def __init__(self, epsilon: float, delta: float = 0.0,
                 regularization: float = 1e-4, huber_smoothing: float = 0.1,
                 **kwargs):
        super().__init__(
            epsilon, delta=delta, loss="huber",
            regularization=regularization, huber_smoothing=huber_smoothing,
            **kwargs,
        )
