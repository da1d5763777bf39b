"""BST14 — Bassily, Smith and Thakurta, "Private empirical risk
minimization" (FOCS 2014), in the paper's constant-epoch extension
(Algorithms 4 and 5 of Appendix F).

The original BST14 runs ``O(m^2)`` noisy SGD iterations. The paper extends
it to ``T = k m`` iterations for a constant k and recalibrates the noise
via the advanced-composition equation (line 5 of Algorithm 4):

    eps = T * eps1 * (e^{eps1} - 1) + sqrt(2 T ln(1/delta1)) * eps1,

solved for the per-iteration budget ``eps1`` (we use bisection — the
left-hand side is strictly increasing in eps1), then amplified by
subsampling: ``eps2 = min(1, m * eps1 / 2)``, and finally
``sigma^2 = 2 ln(1.25/delta1) / eps2^2`` with ``delta1 = delta/(k m)``.

Iterations sample ``i_t ~ [m]`` uniformly (with replacement), add
``z ~ N(0, sigma^2 iota I_d)`` to the gradient, and use steps

* convex (Algorithm 4): ``eta_t = 2R / (G sqrt(t))``,
  ``G = sqrt(d sigma^2 + b^2 L^2)``;
* strongly convex (Algorithm 5): ``eta_t = 1 / (gamma t)``.

``iota`` localizes the per-iteration L2-sensitivity (1 for logistic
regression per the paper's note on line 11; generally ``(2L/b)^2`` for a
mini-batch of size b — we use the general form and reproduce the paper's
``iota = 1`` when ``2L/b = 1``... see :func:`per_iteration_sensitivity`).

BST14 supports (ε,δ)-DP only (it relies on advanced composition); asking
for δ = 0 raises.

This module owns BST14's parameter rule (:func:`bst14_rule`), which
:func:`bst14_train` and ``BismarckSession.run_bst14`` both build on.

The ``naive_noise_for_m_passes`` flag reproduces the ablation discussed in
Section 4.1: keep the *original* paper's noise (calibrated for m passes,
i.e. ``T_noise = m^2``) while running only km iterations — the
configuration the extended algorithm is shown to beat.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.common import BaselineResult, WhiteBoxRule, run_rule
from repro.core.mechanisms import PrivacyParameters
from repro.optim.losses import Loss
from repro.optim.projection import L2BallProjection
from repro.optim.schedules import BST14Schedule, InverseTSchedule, StepSizeSchedule
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import (
    check_matrix_labels,
    check_positive,
    check_positive_int,
    check_unit_ball,
)


def solve_composition_epsilon(epsilon: float, steps: int, delta1: float) -> float:
    """Solve ``eps = T e1 (e^{e1} - 1) + sqrt(2 T ln(1/delta1)) e1`` for e1.

    Line 5 of Algorithms 4/5. The LHS is continuous, strictly increasing,
    0 at ``e1 = 0`` and unbounded, so bisection on ``[0, hi]`` converges.
    """
    check_positive(epsilon, "epsilon")
    check_positive_int(steps, "steps")
    check_positive(delta1, "delta1")
    if delta1 >= 1.0:
        raise ValueError(f"delta1 must be < 1, got {delta1}")

    log_term = math.sqrt(2.0 * steps * math.log(1.0 / delta1))

    def consumed(e1: float) -> float:
        return steps * e1 * (math.expm1(e1)) + log_term * e1

    hi = 1.0
    while consumed(hi) < epsilon:
        hi *= 2.0
        if hi > 1e6:  # pragma: no cover - defensive
            raise RuntimeError("failed to bracket the composition solution")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if consumed(mid) < epsilon:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_iteration_sensitivity(lipschitz: float, batch_size: int) -> float:
    """The per-iteration sensitivity factor iota of Algorithm 4, line 11.

    The paper's annotation: "iota = 1 for logistic regression, and in
    general is the L2-sensitivity localized to an iteration". For a
    mini-batch mean gradient that localized sensitivity is ``2L/b`` —
    which reproduces the paper's iota = 1 at its stated setting
    (L = 1, b = 1 gives 2, within the factor-2 slack of their norm-bound
    localization; ``iota_override=1.0`` restores the exact paper value).

    Following the algorithm literally, iota multiplies the *variance*:
    ``z ~ N(0, sigma^2 * iota * I_d)``, and the step-size bound G of line
    12 uses the raw ``sigma``.
    """
    check_positive(lipschitz, "lipschitz")
    check_positive_int(batch_size, "batch_size")
    return 2.0 * lipschitz / batch_size


def bst14_noise_sigma(
    epsilon: float,
    delta: float,
    m: int,
    passes: int,
    batch_size: int = 1,
    noise_steps: Optional[int] = None,
) -> tuple[float, int]:
    """Calibrate BST14's per-iteration Gaussian sigma.

    Returns ``(sigma, T)`` where T is the number of SGD iterations
    (``ceil(k m / b)``). ``noise_steps`` overrides the T used for *noise
    calibration only* (the naive-m-passes ablation passes ``m * m``).
    """
    check_positive_int(m, "m")
    check_positive_int(passes, "passes")
    check_positive_int(batch_size, "batch_size")
    steps = int(math.ceil(passes * m / batch_size))
    calibration_steps = noise_steps if noise_steps is not None else steps
    check_positive_int(calibration_steps, "noise_steps")
    delta1 = delta / calibration_steps
    eps1 = solve_composition_epsilon(epsilon, calibration_steps, delta1)
    eps2 = min(1.0, m * eps1 / 2.0)
    sigma_squared = 2.0 * math.log(1.25 / delta1) / eps2**2
    return math.sqrt(sigma_squared), steps


def bst14_rule(
    loss: Loss,
    epsilon: float,
    delta: float,
    m: int,
    d: int,
    *,
    passes: int = 1,
    batch_size: int = 1,
    radius: float = 1.0,
    strongly_convex: Optional[bool] = None,
    iota_override: Optional[float] = None,
    naive_noise_for_m_passes: bool = False,
) -> WhiteBoxRule:
    """BST14's parameters for ``passes`` passes over m rows of dimension d,
    as the module docstring gives them: Algorithm 5 when
    ``strongly_convex`` (by default, when the loss is), Algorithm 4
    otherwise. Refused: ``delta = 0``, and Algorithm 5 for a loss that is
    not strongly convex."""
    check_positive(epsilon, "epsilon")
    check_positive_int(passes, "passes")
    check_positive_int(batch_size, "batch_size")
    check_positive(radius, "radius")
    if delta <= 0.0:
        raise ValueError(
            "BST14 provides (eps, delta)-DP only (advanced composition "
            "requires delta > 0); use SCS13 or the bolt-on algorithms for "
            "pure eps-DP"
        )
    privacy = PrivacyParameters(epsilon, delta)
    properties = loss.properties(radius=radius)
    if strongly_convex is None:
        strongly_convex = properties.is_strongly_convex
    if strongly_convex and not properties.is_strongly_convex:
        raise ValueError("Algorithm 5 requires a strongly convex loss")
    lipschitz = properties.lipschitz

    # Original BST14 runs m^2 iterations; calibrating for that many while
    # executing km is the "naive stop" ablation of Section 4.1.
    noise_steps = m * m if naive_noise_for_m_passes else None
    sigma, _ = bst14_noise_sigma(epsilon, delta, m, passes, batch_size, noise_steps)
    iota = iota_override
    if iota is None:
        iota = per_iteration_sensitivity(lipschitz, batch_size)
    # Line 11: z ~ N(0, sigma^2 * iota * I_d) — iota scales the variance.
    effective_sigma = sigma * math.sqrt(iota)

    if strongly_convex:
        schedule: StepSizeSchedule = InverseTSchedule(properties.strong_convexity)
    else:
        # Line 12, literally: G = sqrt(d sigma^2 + b^2 L^2) with the raw
        # sigma. This pessimistic bound is what throttles BST14's step
        # size in the paper's convex experiments.
        gradient_bound = math.sqrt(d * sigma**2 + batch_size**2 * lipschitz**2)
        schedule = BST14Schedule(radius=radius, gradient_bound=gradient_bound)
    return WhiteBoxRule(
        privacy=privacy,
        schedule=schedule,
        projection=L2BallProjection(radius),
        noise_scale=effective_sigma,
        draw=lambda count, dim, rng: rng.normal(0.0, effective_sigma, size=(count, dim)),
    )


def bst14_train(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    epsilon: float,
    delta: float,
    *,
    passes: int = 1,
    batch_size: int = 1,
    radius: float = 1.0,
    strongly_convex: Optional[bool] = None,
    iota_override: Optional[float] = None,
    naive_noise_for_m_passes: bool = False,
    random_state: RandomState = None,
) -> BaselineResult:
    """Train with the constant-epoch BST14 (Algorithm 4 or 5).

    ``strongly_convex`` picks Algorithm 5 (``1/(gamma t)`` steps); ``None``
    auto-detects from the loss properties. ``radius`` is the constraint-set
    radius R (BST14 is inherently constrained; its convex step size depends
    on R). Batches are sampled from the first of two streams spawned from
    ``random_state``, the noise from the second.
    """
    X, y = check_matrix_labels(X, y)
    check_unit_ball(X)
    m, d = X.shape
    rule = bst14_rule(
        loss, epsilon, delta, m, d, passes=passes, batch_size=batch_size,
        radius=radius, strongly_convex=strongly_convex, iota_override=iota_override,
        naive_noise_for_m_passes=naive_noise_for_m_passes,
    )
    sgd_rng, noise_rng = spawn_generators(random_state, 2)

    def example_sampler(t: int, size: int, rng: np.random.Generator) -> np.ndarray:
        # BST14 samples uniformly with replacement (line 10 of Algorithm 4).
        return rng.integers(0, size, size=batch_size)

    return run_rule(
        X, y, loss, rule, "BST14", passes=passes, batch_size=batch_size,
        random_state=sgd_rng, noise_rng=noise_rng, example_sampler=example_sampler,
    )
