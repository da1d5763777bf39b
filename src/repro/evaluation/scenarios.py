"""The four test scenarios of Section 4.3 and the algorithm dispatch.

"We consider four main scenarios to evaluate the algorithms: (1) Convex,
ε-differential privacy, (2) Convex, (ε,δ)-differential privacy, (3)
Strongly Convex, ε-differential privacy, and (4) Strongly Convex, (ε,δ)-
differential privacy. Note that BST14 only supports (ε,δ)-differential
privacy."

A scenario couples a loss family (plain vs L2-regularized), a privacy
flavour (δ = 0 vs δ = 1/m²), the step-size table (Table 4) and the
constraint convention (R = 1/λ for strongly convex). ``train`` dispatches
one (algorithm, scenario) cell to the right trainer with the right
parameters — the single choke point both the harness and the tuning
factories go through.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.bst14 import bst14_train
from repro.baselines.scs13 import scs13_train
from repro.core.bolton import BoltOnCandidate, noiseless_psgd, train_bolt_on
from repro.optim.losses import HuberSVMLoss, LogisticLoss, Loss
from repro.optim.projection import L2BallProjection
from repro.optim.schedules import ConstantSchedule, InverseTSchedule
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive


class Scenario(enum.Enum):
    """Test 1–4 of the paper."""

    CONVEX_PURE = "Test 1: Convex, eps-DP"
    CONVEX_APPROX = "Test 2: Convex, (eps,delta)-DP"
    STRONGLY_CONVEX_PURE = "Test 3: Strongly Convex, eps-DP"
    STRONGLY_CONVEX_APPROX = "Test 4: Strongly Convex, (eps,delta)-DP"

    @property
    def is_strongly_convex(self) -> bool:
        return self in (
            Scenario.STRONGLY_CONVEX_PURE,
            Scenario.STRONGLY_CONVEX_APPROX,
        )

    @property
    def is_approximate_dp(self) -> bool:
        return self in (Scenario.CONVEX_APPROX, Scenario.STRONGLY_CONVEX_APPROX)

    @property
    def supports_bst14(self) -> bool:
        """BST14 needs delta > 0."""
        return self.is_approximate_dp


ALGORITHMS = ("noiseless", "ours", "scs13", "bst14")


def paper_delta(m: int) -> float:
    """The paper's setting ``delta = 1/m^2`` (Section 4.3)."""
    if m <= 1:
        raise ValueError(f"m must be > 1, got {m}")
    return 1.0 / (m * m)


def make_loss(
    scenario: Scenario,
    regularization: float = 1e-4,
    model: str = "logistic",
    huber_smoothing: float = 0.1,
) -> Loss:
    """The scenario's loss: plain for convex tests, L2-regularized for
    strongly convex tests; logistic regression by default, Huber SVM for
    the Appendix B experiments."""
    lam = regularization if scenario.is_strongly_convex else 0.0
    if model == "logistic":
        return LogisticLoss(regularization=lam)
    if model == "huber":
        return HuberSVMLoss(smoothing=huber_smoothing, regularization=lam)
    raise ValueError(f"unknown model {model!r}; expected 'logistic' or 'huber'")


@dataclass
class TrainSettings:
    """Everything one (algorithm, scenario) training call needs."""

    scenario: Scenario
    epsilon: float
    passes: int = 10
    batch_size: int = 50
    regularization: float = 1e-4
    model: str = "logistic"
    huber_smoothing: float = 0.1
    delta: Optional[float] = None  # None -> paper default (0 or 1/m^2)
    #: Radius for algorithms that need a constraint set in convex mode
    #: (BST14's step size depends on R even when unregularized).
    convex_radius: float = 10.0

    def __post_init__(self) -> None:
        if self.scenario.is_strongly_convex and not self.regularization > 0.0:
            raise ValueError(
                f"scenario {self.scenario.name} is strongly convex, which needs "
                f"regularization > 0 (its loss is lambda-strongly convex and its "
                f"radius is R = 1/lambda); got regularization={self.regularization}"
            )

    def resolve_delta(self, m: int) -> float:
        if self.delta is not None:
            return self.delta
        return paper_delta(m) if self.scenario.is_approximate_dp else 0.0

    @property
    def radius(self) -> float:
        """R = 1/lambda in the strongly convex scenarios (Section 4.3)."""
        if self.scenario.is_strongly_convex:
            return 1.0 / self.regularization
        return self.convex_radius


def train(
    algorithm: str,
    X: np.ndarray,
    y: np.ndarray,
    settings: TrainSettings,
    random_state: RandomState = None,
):
    """Train one algorithm under one scenario; returns an object exposing
    ``model`` and ``predict``.

    Step sizes follow Table 4: noiseless uses ``1/sqrt(m)`` (convex) or
    ``1/(gamma t)`` (strongly convex); ours trains the scenario's loss
    through :func:`~repro.core.bolton.train_bolt_on`, whose rule gives
    the regularized (strongly convex) loss Algorithm 2's capped
    ``1/(gamma t)`` in the ball ``R = 1/lambda`` and the plain one
    Algorithm 1's ``1/sqrt(m)``; SCS13 uses ``1/sqrt(t)``; BST14 uses its
    own Algorithm 4/5 schedules internally.
    """
    algorithm = algorithm.lower()
    check_positive(settings.epsilon, "epsilon")
    m = np.asarray(X).shape[0]
    delta = settings.resolve_delta(m)
    loss = make_loss(
        settings.scenario,
        settings.regularization,
        settings.model,
        settings.huber_smoothing,
    )

    if algorithm == "noiseless":
        return _train_noiseless(X, y, loss, settings, random_state)
    if algorithm == "ours":
        candidate = BoltOnCandidate(
            loss, passes=settings.passes, batch_size=settings.batch_size
        )
        return train_bolt_on(
            X, y, candidate, settings.epsilon, delta=delta, random_state=random_state
        )
    if algorithm == "scs13":
        return scs13_train(
            X,
            y,
            loss,
            settings.epsilon,
            delta=delta,
            passes=settings.passes,
            batch_size=settings.batch_size,
            radius=settings.radius if settings.scenario.is_strongly_convex else None,
            random_state=random_state,
        )
    if algorithm == "bst14":
        if not settings.scenario.supports_bst14:
            raise ValueError(
                f"BST14 supports (eps,delta)-DP only; scenario "
                f"{settings.scenario.name} has delta = 0"
            )
        return bst14_train(
            X,
            y,
            loss,
            settings.epsilon,
            delta,
            passes=settings.passes,
            batch_size=settings.batch_size,
            radius=settings.radius,
            random_state=random_state,
        )
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


class _NoiselessResult:
    """Adapter giving the noiseless baseline the common result surface."""

    def __init__(self, model: np.ndarray, loss: Loss):
        self.model = model
        self.loss = loss

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.loss.predict(self.model, X)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y, dtype=np.float64)))


def _train_noiseless(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    settings: TrainSettings,
    random_state: RandomState,
) -> _NoiselessResult:
    m = np.asarray(X).shape[0]
    if settings.scenario.is_strongly_convex:
        properties = loss.properties(radius=settings.radius)
        schedule = InverseTSchedule(properties.strong_convexity)
        projection = L2BallProjection(settings.radius)
    else:
        schedule = ConstantSchedule(1.0 / np.sqrt(m))
        projection = None
    result = noiseless_psgd(
        X,
        y,
        loss,
        schedule,
        passes=settings.passes,
        batch_size=settings.batch_size,
        projection=projection,
        random_state=random_state,
    )
    return _NoiselessResult(result.model, loss)
