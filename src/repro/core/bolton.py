"""The bolt-on private PSGD algorithms (Algorithms 1 and 2).

The algorithms are *instantiations of output perturbation*: run unmodified
PSGD (the black box, :class:`repro.optim.PSGD`), compute the L2-sensitivity
from the paper's analysis (:mod:`repro.core.sensitivity`), sample one noise
vector (:mod:`repro.core.mechanisms`), and release ``w + kappa``.

* :func:`private_convex_psgd` — Algorithm 1. Constant step ``eta <= 2/beta``
  (default ``1/sqrt(m)``), ``Delta_2 = 2 k L eta / b``. ε-DP via spherical
  Laplace noise (Theorem 4) or (ε,δ)-DP via Gaussian noise (Theorem 6).
* :func:`private_strongly_convex_psgd` — Algorithm 2. Step
  ``min(1/beta, 1/(gamma t))``, ``Delta_2 = 2 L / (gamma m b)`` —
  independent of the number of passes (Theorems 5 and 7).
* :func:`private_psgd` — the generic entry point covering the additional
  step-size regimes of Corollaries 2–3.

Each algorithm's parameter rule (its step size, its radius and its
refusals) is written once in this module, and so is the release: one
body runs the sensitivity bound, the PSGD run and the noise draw for all
three trainers and :func:`train_bolt_on`, and the fused fleet finishes
each candidate with the same epilogue. :meth:`BoltOnCandidate.resolve`
picks a rule for every other trainer (the service, the in-RDBMS
controller, the estimators and the evaluation harness).

All three return a :class:`PrivateTrainingResult` whose ``model`` is the
differentially private release. The noiseless model is retained on the
result under a deliberately loud name (``unreleased_noiseless_model``)
because the experiment harness needs it for utility accounting — releasing
it would void the guarantee, and the docstring says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.mechanisms import (
    NoiseMechanism,
    PrivacyParameters,
    mechanism_for,
)
from repro.core.sensitivity import SensitivityBound, sensitivity_for_schedule
from repro.optim.losses import Loss, LossProperties
from repro.optim.projection import IdentityProjection, L2BallProjection, Projection
from repro.optim.psgd import (
    PSGD,
    ModelSpec,
    MultiModelPSGD,
    PSGDConfig,
    PSGDResult,
)
from repro.optim.schedules import (
    CappedInverseTSchedule,
    ConstantSchedule,
    StepSizeSchedule,
)
from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.utils.validation import (
    check_matrix_labels,
    check_positive,
    check_positive_int,
    check_unit_ball,
)


@dataclass
class PrivateTrainingResult:
    """The outcome of one bolt-on private training run.

    ``model`` is the (ε, δ)-differentially private vector that may be
    published. ``unreleased_noiseless_model`` is the pre-noise iterate kept
    for experiment accounting only — **publishing it breaks the privacy
    guarantee**.
    """

    model: np.ndarray
    privacy: PrivacyParameters
    sensitivity: SensitivityBound
    noise_norm: float
    unreleased_noiseless_model: np.ndarray
    psgd: PSGDResult = field(repr=False)
    loss: Loss = field(repr=False)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Sign predictions of the *private* model."""
        return self.loss.predict(self.model, X)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        """Test accuracy of the private model."""
        X, y = check_matrix_labels(X, y)
        return float(np.mean(self.predict(X) == y))

    def noiseless_accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of the unreleased noiseless model (diagnostics only)."""
        X, y = check_matrix_labels(X, y)
        return float(np.mean(self.loss.predict(self.unreleased_noiseless_model, X) == y))


def output_perturbation(
    noiseless: np.ndarray,
    sensitivity: SensitivityBound,
    privacy: PrivacyParameters,
    noise_rng: np.random.Generator,
    mechanism: Optional[NoiseMechanism] = None,
) -> tuple[np.ndarray, float]:
    """The release ``noiseless + kappa`` and ``||kappa||``: one draw
    ``kappa`` of ``mechanism`` (default: the one ``privacy`` calls for)
    at ``sensitivity``, from ``noise_rng``. Every bolt-on release — each
    trainer here, the fused fleet and the training service — is this."""
    mech = mechanism if mechanism is not None else mechanism_for(privacy)
    noise = mech.sample(noiseless.shape[0], sensitivity.value, privacy, noise_rng)
    return noiseless + noise, float(np.linalg.norm(noise))


def _finish(
    loss: Loss,
    psgd_result: PSGDResult,
    sensitivity: SensitivityBound,
    privacy: PrivacyParameters,
    mechanism: Optional[NoiseMechanism],
    noise_rng: np.random.Generator,
) -> PrivateTrainingResult:
    """The output-perturbation step shared by every algorithm variant."""
    noiseless = psgd_result.model
    model, noise_norm = output_perturbation(
        noiseless, sensitivity, privacy, noise_rng, mechanism
    )
    return PrivateTrainingResult(
        model=model,
        privacy=privacy,
        sensitivity=sensitivity,
        noise_norm=noise_norm,
        unreleased_noiseless_model=noiseless,
        psgd=psgd_result,
        loss=loss,
    )


#: What a parameter rule resolves for a dataset of m rows.
_Resolved = tuple[StepSizeSchedule, Projection, LossProperties]


def _constrained(
    loss: Loss, projection: Optional[Projection]
) -> tuple[Projection, LossProperties]:
    """``projection`` (default unconstrained) and the loss's constants over it."""
    proj = projection if projection is not None else IdentityProjection()
    return proj, loss.properties(radius=proj.radius if math.isfinite(proj.radius) else None)


def _convex_rule(
    loss: Loss, m: int, eta: Optional[float], projection: Optional[Projection]
) -> _Resolved:
    """Algorithm 1's parameters: the constant step ``eta`` (default
    ``1/sqrt(m)``, Table 4) under ``projection`` (default unconstrained).
    A strongly convex loss is refused: Algorithm 2 applies to it."""
    proj, properties = _constrained(loss, projection)
    if properties.is_strongly_convex:
        raise ValueError(
            "private_convex_psgd is Algorithm 1 (convex case); the supplied "
            "loss is strongly convex — use private_strongly_convex_psgd "
            "(Algorithm 2), whose sensitivity is smaller"
        )
    step = eta if eta is not None else 1.0 / np.sqrt(m)
    return ConstantSchedule(step), proj, properties


def _strongly_convex_rule(loss: Loss, radius: Optional[float]) -> _Resolved:
    """Algorithm 2's parameters: the L2 ball of ``radius`` (default
    ``R = 1/lambda``, the paper's practice) and the step
    ``min(1/beta, 1/(gamma t))``. A loss with ``gamma = 0`` is refused:
    Algorithm 1 applies to it."""
    if radius is None:
        if loss.regularization <= 0.0:
            raise ValueError(
                "a strongly convex loss requires regularization > 0; supply a "
                "regularized loss or an explicit radius"
            )
        radius = 1.0 / loss.regularization
    projection = L2BallProjection(radius)
    properties = loss.properties(radius=radius)
    if not properties.is_strongly_convex:
        raise ValueError(
            "private_strongly_convex_psgd is Algorithm 2 (strongly convex "
            "case); the supplied loss has gamma = 0 — use private_convex_psgd"
        )
    schedule = CappedInverseTSchedule(
        beta=properties.smoothness, gamma=properties.strong_convexity
    )
    return schedule, projection, properties


def _private_run(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    epsilon: float,
    rule: Callable[[int], _Resolved],
    *,
    delta: float,
    passes: int,
    batch_size: int,
    average: Optional[str],
    random_state: RandomState,
    permutation: Optional[Sequence[int]],
    mechanism: Optional[NoiseMechanism] = None,
    fresh_permutation_each_pass: bool = False,
    convergence_tolerance: Optional[float] = None,
) -> PrivateTrainingResult:
    """The bolt-on release every sequential trainer shares.

    ``rule(m)`` fixes the run's schedule, projection and loss constants;
    then one sensitivity bound, black-box PSGD on the first of two
    streams spawned from ``random_state`` and one draw from the second.
    """
    X, y = check_matrix_labels(X, y)
    check_unit_ball(X)
    m = X.shape[0]
    check_positive(epsilon, "epsilon")
    check_positive_int(passes, "passes")
    privacy = PrivacyParameters(epsilon, delta)
    schedule, projection, properties = rule(m)
    sensitivity = sensitivity_for_schedule(properties, schedule, m, passes, batch_size)
    perm_rng, noise_rng = spawn_generators(random_state, 2)
    config = PSGDConfig(
        schedule=schedule,
        passes=passes,
        batch_size=batch_size,
        projection=projection,
        average=average,
        fresh_permutation_each_pass=fresh_permutation_each_pass,
        convergence_tolerance=convergence_tolerance,
    )
    result = PSGD(loss, config).run(
        X, y, random_state=perm_rng, permutation=permutation
    )
    return _finish(loss, result, sensitivity, privacy, mechanism, noise_rng)


def private_convex_psgd(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    epsilon: float,
    *,
    delta: float = 0.0,
    passes: int = 1,
    eta: Optional[float] = None,
    batch_size: int = 1,
    projection: Optional[Projection] = None,
    average: Optional[str] = None,
    fresh_permutation_each_pass: bool = False,
    mechanism: Optional[NoiseMechanism] = None,
    random_state: RandomState = None,
    permutation: Optional[Sequence[int]] = None,
) -> PrivateTrainingResult:
    """Algorithm 1 — Private Convex Permutation-based SGD.

    Requires a convex (not strongly convex) loss whose derived properties
    give ``gamma = 0``, and a constant step ``eta <= 2/beta``; the default
    ``eta = 1/sqrt(m)`` matches Table 4. The release is ε-DP when
    ``delta == 0`` (Theorem 4) and (ε,δ)-DP otherwise (Theorem 6).

    Parameters mirror the paper's Table 1; ``projection`` defaults to
    unconstrained optimization (the paper's convex experiments).
    ``fresh_permutation_each_pass`` re-shuffles every pass — the paper's
    analysis "extends verbatim" to this variant (Section 3.2.3), so the
    sensitivity is unchanged.
    """
    return _private_run(
        X, y, loss, epsilon, lambda m: _convex_rule(loss, m, eta, projection),
        delta=delta, passes=passes, batch_size=batch_size, average=average,
        fresh_permutation_each_pass=fresh_permutation_each_pass,
        mechanism=mechanism, random_state=random_state, permutation=permutation,
    )


def private_strongly_convex_psgd(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    epsilon: float,
    *,
    delta: float = 0.0,
    passes: int = 1,
    batch_size: int = 1,
    radius: Optional[float] = None,
    average: Optional[str] = None,
    fresh_permutation_each_pass: bool = False,
    convergence_tolerance: Optional[float] = None,
    mechanism: Optional[NoiseMechanism] = None,
    random_state: RandomState = None,
    permutation: Optional[Sequence[int]] = None,
) -> PrivateTrainingResult:
    """Algorithm 2 — Private Strongly Convex Permutation-based SGD.

    Uses the schedule ``eta_t = min(1/beta, 1/(gamma t))`` and the
    pass-independent sensitivity ``2L/(gamma m b)`` (Lemma 8). ε-DP when
    ``delta == 0`` (Theorem 5), (ε,δ)-DP otherwise (Theorem 7).

    ``radius`` bounds the hypothesis space (projection onto the L2 ball of
    that radius); following the paper's practice we default to
    ``R = 1/lambda`` where lambda is the loss's regularization constant.

    ``convergence_tolerance`` enables the "k is oblivious" strategy of
    Section 4.3: because the noise does not depend on k, PSGD may stop as
    soon as the training loss plateaus, with ``passes`` acting as the cap K.
    """
    return _private_run(
        X, y, loss, epsilon, lambda m: _strongly_convex_rule(loss, radius),
        delta=delta, passes=passes, batch_size=batch_size, average=average,
        fresh_permutation_each_pass=fresh_permutation_each_pass,
        convergence_tolerance=convergence_tolerance, mechanism=mechanism,
        random_state=random_state, permutation=permutation,
    )


def private_psgd(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    epsilon: float,
    schedule: StepSizeSchedule,
    *,
    delta: float = 0.0,
    passes: int = 1,
    batch_size: int = 1,
    projection: Optional[Projection] = None,
    average: Optional[str] = None,
    mechanism: Optional[NoiseMechanism] = None,
    random_state: RandomState = None,
    permutation: Optional[Sequence[int]] = None,
) -> PrivateTrainingResult:
    """Generic bolt-on private PSGD for any analysed step-size schedule.

    Covers the decreasing (Corollary 2) and square-root (Corollary 3)
    regimes in addition to the two main algorithms. The sensitivity is
    resolved by :func:`repro.core.sensitivity.sensitivity_for_schedule`,
    which refuses schedules without a known bound.
    """
    return _private_run(
        X, y, loss, epsilon, lambda m: (schedule, *_constrained(loss, projection)),
        delta=delta, passes=passes, batch_size=batch_size, average=average,
        mechanism=mechanism, random_state=random_state, permutation=permutation,
    )


def noiseless_psgd(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    schedule: StepSizeSchedule,
    *,
    passes: int = 1,
    batch_size: int = 1,
    projection: Optional[Projection] = None,
    average: Optional[str] = None,
    random_state: RandomState = None,
) -> PSGDResult:
    """The non-private baseline used throughout the evaluation section."""
    X, y = check_matrix_labels(X, y)
    config = PSGDConfig(
        schedule=schedule,
        passes=passes,
        batch_size=batch_size,
        projection=projection if projection is not None else IdentityProjection(),
        average=average,
    )
    return PSGD(loss, config).run(X, y, random_state=random_state)


# -- fused multi-model bolt-on training ---------------------------------------


@dataclass
class BoltOnCandidate:
    """Structural description of one bolt-on private PSGD training run.

    The opaque-callable trainer contract (`trainer(X, y, epsilon=...,
    ...)`) cannot be fused — the engine must see *inside* a candidate to
    share its data scan with the others. This dataclass is that view: the
    per-candidate knobs of Algorithms 1/2, resolved by the algorithms' own
    rules (a regularized loss gets Algorithm 2's capped 1/(gamma t)
    schedule and ``R = 1/lambda``; an unregularized one Algorithm 1's
    constant ``eta = 1/sqrt(m)`` step). It is accepted directly by
    :func:`train_bolt_on` (sequential reference), :func:`private_psgd_fleet`
    (fused), and the fused paths of the tuning and one-vs-rest consumers.
    """

    loss: Loss
    passes: int = 1
    batch_size: int = 1
    eta: Optional[float] = None
    radius: Optional[float] = None
    average: Optional[str] = None

    def resolve(self, m: int) -> tuple[StepSizeSchedule, Projection, LossProperties]:
        """Algorithm 1/2 parameter resolution for a dataset of m rows:
        Algorithm 2's for a regularized loss, Algorithm 1's otherwise."""
        if self.loss.regularization > 0.0:
            return _strongly_convex_rule(self.loss, self.radius)
        projection = L2BallProjection(self.radius) if self.radius is not None else None
        return _convex_rule(self.loss, m, self.eta, projection)


def train_bolt_on(
    X: np.ndarray,
    y: np.ndarray,
    candidate: BoltOnCandidate,
    epsilon: float,
    *,
    delta: float = 0.0,
    random_state: RandomState = None,
    permutation: Optional[Sequence[int]] = None,
) -> PrivateTrainingResult:
    """Train one :class:`BoltOnCandidate` sequentially (the reference path).

    Algorithm 2 when the candidate's loss is regularized (strongly
    convex) and Algorithm 1 otherwise, resolved by
    :meth:`BoltOnCandidate.resolve` — the resolution the fused fleet and
    the service apply, so a candidate means the same thing on every path.
    """
    return _private_run(
        X, y, candidate.loss, epsilon, candidate.resolve, delta=delta,
        passes=candidate.passes, batch_size=candidate.batch_size,
        average=candidate.average, random_state=random_state,
        permutation=permutation,
    )


def private_psgd_fleet(
    X: np.ndarray,
    y: np.ndarray,
    candidates: Sequence[BoltOnCandidate],
    epsilon,
    *,
    delta=0.0,
    random_states: Optional[Sequence[RandomState]] = None,
    scan_random_state: RandomState = None,
    permutation: Optional[np.ndarray] = None,
) -> List[PrivateTrainingResult]:
    """Train K bolt-on private models in **one data scan** (per batch size).

    The fused form of K :func:`train_bolt_on` calls. Two data layouts:

    * shared — ``X`` is ``(m, d)``; every candidate reads the same rows
      (``y`` may be a ``(K, m)`` per-candidate label matrix — one-vs-rest).
      Candidates sharing a batch size ride one
      :class:`~repro.optim.psgd.MultiModelPSGD` scan under one shared
      permutation drawn from ``scan_random_state``.
    * stacked — ``X`` is ``(K, m, d)`` with ``y`` ``(K, m)``: per-candidate
      datasets (disjoint tuning partitions). Permutations are then
      per-candidate, drawn exactly as each candidate's standalone run
      would have drawn them, so the fused results match sequential
      training bit for bit (the engines' equivalence contract).

    ``permutation`` fixes the scan order instead of drawing it: one
    ``(m,)`` order, shared by every candidate, for either layout, or —
    stacked data only — a ``(K, m)`` matrix holding one order per
    candidate. Shared ``(m, d)`` data has one scan, so it takes one order
    and refuses a matrix.

    ``epsilon``/``delta`` may be scalars (every candidate gets the full
    budget — parallel composition over disjoint data, or a shared public
    set) or per-candidate sequences (the one-vs-rest budget split).
    ``random_states`` supplies one stream per candidate; each is consumed
    exactly as :func:`train_bolt_on` would (spawn permutation stream, then
    noise stream), so per-candidate noise draws are bit-identical to the
    standalone trainers'.

    The PSGD phase is unchanged-black-box; everything privacy-specific is
    still the bolt-on epilogue: one sensitivity bound and one mechanism
    draw per candidate.
    """
    candidates = list(candidates)
    K = len(candidates)
    if K == 0:
        raise ValueError("at least one candidate is required")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    stacked = X.ndim == 3
    # The same fail-loud preconditions every sequential trainer applies:
    # valid shapes, finite values, and rows inside the unit ball.
    if stacked:
        if X.shape[0] != K or y.shape != X.shape[:2]:
            raise ValueError(
                f"stacked fleet data must be X ({K}, m, d) with y ({K}, m); "
                f"got {X.shape} and {y.shape}"
            )
        for Xk, yk in zip(X, y):
            check_matrix_labels(Xk, yk)
            check_unit_ball(Xk)
    else:
        if y.ndim == 2:
            if X.ndim != 2 or y.shape != (K, X.shape[0]):
                raise ValueError(
                    f"per-candidate labels must have shape ({K}, m); "
                    f"got X {X.shape} and y {y.shape}"
                )
            for yk in y:
                check_matrix_labels(X, yk)
        else:
            X, y = check_matrix_labels(X, y)
        check_unit_ball(X)
    m = X.shape[1] if stacked else X.shape[0]

    epsilons = list(epsilon) if np.ndim(epsilon) else [float(epsilon)] * K
    deltas = list(delta) if np.ndim(delta) else [float(delta)] * K
    if len(epsilons) != K or len(deltas) != K:
        raise ValueError("per-candidate epsilon/delta lists must have K entries")
    privacies = [PrivacyParameters(e, dl) for e, dl in zip(epsilons, deltas)]

    master = as_generator(scan_random_state)
    if random_states is None:
        random_states = spawn_generators(master, K)
    elif len(random_states) != K:
        raise ValueError(f"random_states must have {K} entries, got {len(random_states)}")
    # Consume each candidate's stream exactly as train_bolt_on would:
    # (permutation stream, noise stream).
    perm_rngs = []
    noise_rngs = []
    for state in random_states:
        perm_rng, noise_rng = spawn_generators(state, 2)
        perm_rngs.append(perm_rng)
        noise_rngs.append(noise_rng)

    resolved = [candidate.resolve(m) for candidate in candidates]
    sensitivities = [
        sensitivity_for_schedule(
            properties, schedule, m, candidates[k].passes, candidates[k].batch_size
        )
        for k, (schedule, projection, properties) in enumerate(resolved)
    ]

    # One fused engine run per distinct batch size (batch boundaries define
    # the shared scan; a homogeneous grid is a single run).
    by_batch: Dict[int, List[int]] = {}
    for k, candidate in enumerate(candidates):
        by_batch.setdefault(candidate.batch_size, []).append(k)

    results: List[Optional[PrivateTrainingResult]] = [None] * K
    for batch_size, indices in by_batch.items():
        specs = [
            ModelSpec(
                loss=candidates[k].loss,
                schedule=resolved[k][0],
                projection=resolved[k][1],
                passes=candidates[k].passes,
                average=candidates[k].average,
            )
            for k in indices
        ]
        engine = MultiModelPSGD(specs, batch_size=batch_size)
        if stacked:
            group_X = X[indices]
            group_y = y[indices]
            if permutation is None:
                group_perm = np.stack([perm_rngs[k].permutation(m) for k in indices])
            else:
                # A (K, m) matrix holds one order per candidate; one (m,)
                # order is shared, and the engine broadcasts it.
                group_perm = np.asarray(permutation)
                if group_perm.ndim == 2:
                    group_perm = group_perm[indices]
        else:
            group_X = X
            group_y = y if y.ndim == 1 else y[indices]
            group_perm = master.permutation(m) if permutation is None else permutation
        fused = engine.run(group_X, group_y, permutation=group_perm)
        for position, k in enumerate(indices):
            psgd_view = PSGDResult(
                model=fused.models[position],
                final_iterate=fused.final_iterates[position],
                updates=int(fused.updates_per_model[position]),
                passes_completed=candidates[k].passes,
            )
            results[k] = _finish(
                candidates[k].loss, psgd_view, sensitivities[k], privacies[k],
                None, noise_rngs[k],
            )
    assert all(result is not None for result in results)
    return results


class BoltOnTrainerFactory:
    """A ``TrainerFactory`` whose candidates the fused engine can fuse.

    Calling the factory with a grid point returns the classic sequential
    trainer closure (so it drops into any code expecting the opaque
    contract), while :meth:`candidate` exposes the structural
    :class:`BoltOnCandidate` the fused tuning paths consume. Grid keys
    ``passes``, ``regularization`` (via ``loss_builder``), ``batch_size``
    and ``eta`` are honoured; everything else is fixed at construction.

    >>> factory = BoltOnTrainerFactory(
    ...     lambda theta: LogisticLoss(theta.get("regularization", 0.0)))
    """

    def __init__(
        self,
        loss_builder: Callable[[Dict], Loss],
        *,
        batch_size: int = 50,
        default_passes: int = 1,
        eta: Optional[float] = None,
        radius: Optional[float] = None,
        average: Optional[str] = None,
    ):
        self.loss_builder = loss_builder
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.default_passes = check_positive_int(default_passes, "default_passes")
        self.eta = eta
        self.radius = radius
        self.average = average

    def candidate(self, theta: Dict) -> BoltOnCandidate:
        """The structural description of one grid point."""
        return BoltOnCandidate(
            loss=self.loss_builder(theta),
            passes=check_positive_int(
                theta.get("passes", self.default_passes), "passes"
            ),
            batch_size=check_positive_int(
                theta.get("batch_size", self.batch_size), "batch_size"
            ),
            eta=theta.get("eta", self.eta),
            radius=self.radius,
            average=self.average,
        )

    def __call__(self, theta: Dict) -> Callable[..., PrivateTrainingResult]:
        candidate = self.candidate(theta)

        def trainer(
            X: np.ndarray,
            y: np.ndarray,
            epsilon: float,
            delta: float = 0.0,
            random_state: RandomState = None,
        ) -> PrivateTrainingResult:
            return train_bolt_on(
                X, y, candidate, epsilon, delta=delta, random_state=random_state
            )

        return trainer
