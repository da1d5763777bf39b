"""SCS13 — Song, Chaudhuri and Sarwate, "Stochastic gradient descent with
differentially private updates" (GlobalSIP 2013).

The white-box baseline: noise is added to *every* (mini-batch) gradient
update, calibrated so each iterate is differentially private. Following the
paper's experimental setup (Section 4.1):

* step size ``eta_t = 1 / sqrt(t)`` (Table 4, all four scenarios);
* mini-batches of size b reduce the per-update gradient sensitivity from
  ``2L`` to ``2L/b``;
* SCS13 originally covers one pass; the paper "modif[ies it] to support
  multi-passes over the data", which we implement by sequential
  composition across passes — each pass receives an ``eps/k`` (and
  ``delta/k``) share, while updates *within* a pass touch disjoint batches
  and compose in parallel;
* pure ε-DP uses per-update spherical Laplace noise, (ε,δ)-DP uses
  per-update Gaussian noise.

This module owns SCS13's parameter rule (:func:`scs13_rule`), which
:func:`scs13_train` and ``BismarckSession.run_scs13`` — the modified UDA
``transition`` function of the paper's integration study — build on.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.common import BaselineResult, WhiteBoxRule, run_rule
from repro.core.mechanisms import PrivacyParameters, mechanism_for
from repro.optim.losses import Loss
from repro.optim.projection import IdentityProjection, L2BallProjection
from repro.optim.schedules import InverseSqrtTSchedule
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import (
    check_matrix_labels,
    check_positive,
    check_positive_int,
    check_unit_ball,
)


def scs13_noise_scale(
    lipschitz: float, epsilon_per_pass: float, batch_size: int
) -> float:
    """Per-update Laplace scale: sensitivity ``2L/b`` at budget ε_pass.

    The per-update gradient difference between neighbouring datasets is at
    most ``2L`` (both gradients have norm <= L), shrunk by mini-batch
    averaging.
    """
    check_positive(lipschitz, "lipschitz")
    check_positive(epsilon_per_pass, "epsilon_per_pass")
    check_positive_int(batch_size, "batch_size")
    return (2.0 * lipschitz / batch_size) / epsilon_per_pass


def scs13_gaussian_sigma(
    lipschitz: float,
    epsilon_per_pass: float,
    delta_per_pass: float,
    batch_size: int,
) -> float:
    """Per-update Gaussian sigma for the (ε,δ) variant (Theorem 3 form)."""
    check_positive(delta_per_pass, "delta_per_pass")
    sensitivity = 2.0 * lipschitz / batch_size
    c = math.sqrt(2.0 * math.log(1.25 / delta_per_pass))
    return c * sensitivity / epsilon_per_pass


def scs13_rule(
    loss: Loss,
    epsilon: float,
    delta: float = 0.0,
    *,
    passes: int = 1,
    batch_size: int = 1,
    radius: Optional[float] = None,
) -> WhiteBoxRule:
    """SCS13's parameters, as the module docstring gives them, in the L2
    ball of ``radius`` when one is given and unconstrained otherwise. A
    loss whose Lipschitz constant is unbounded there is refused."""
    check_positive_int(passes, "passes")
    check_positive_int(batch_size, "batch_size")
    privacy = PrivacyParameters(epsilon, delta)
    per_pass = privacy.split(passes)
    projection = L2BallProjection(radius) if radius is not None else IdentityProjection()
    lipschitz = loss.properties(radius=radius).lipschitz
    if not np.isfinite(lipschitz):
        raise ValueError("SCS13 requires a finite Lipschitz constant")

    sensitivity = 2.0 * lipschitz / batch_size
    mechanism = mechanism_for(privacy)
    if privacy.is_pure:
        scale = scs13_noise_scale(lipschitz, per_pass.epsilon, batch_size)
    else:
        scale = scs13_gaussian_sigma(lipschitz, per_pass.epsilon, per_pass.delta, batch_size)
    return WhiteBoxRule(
        privacy=privacy,
        schedule=InverseSqrtTSchedule(),
        projection=projection,
        noise_scale=scale,
        draw=lambda count, d, rng: mechanism.sample_batch(
            count, d, sensitivity, per_pass, rng
        ),
    )


def scs13_train(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    epsilon: float,
    *,
    delta: float = 0.0,
    passes: int = 1,
    batch_size: int = 1,
    radius: Optional[float] = None,
    random_state: RandomState = None,
) -> BaselineResult:
    """Train with SCS13's per-update noise, drawn from PSGD's own generator.

    Parameters
    ----------
    epsilon, delta:
        The *total* guarantee; the per-pass share is ``epsilon/passes``
        (and ``delta/passes``), with parallel composition inside a pass.
    radius:
        Optional L2-ball constraint; the paper's strongly convex runs use
        ``R = 1/lambda``.
    """
    X, y = check_matrix_labels(X, y)
    check_unit_ball(X)
    rule = scs13_rule(
        loss, epsilon, delta, passes=passes, batch_size=batch_size, radius=radius
    )
    return run_rule(
        X, y, loss, rule, "SCS13", passes=passes, batch_size=batch_size,
        random_state=as_generator(random_state),
    )
