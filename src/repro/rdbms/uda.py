"""The User-Defined Aggregate (UDA) contract (Section 4.2).

PostgreSQL-style UDAs are defined by three functions over an *aggregation
state*:

* ``initialize`` — create the state (for SGD: the model ``w`` handed in
  by the front-end controller);
* ``transition`` — fold input into the state (for SGD: accumulate the
  gradient, stepping ``w`` whenever a mini-batch completes). The engine
  scans in chunks, so the transition here is ``transition_batch``, which
  folds one ``(X_block, y_block)`` chunk;
* ``terminate`` — produce the aggregate's value (for SGD: the epoch's
  final ``w``).

:class:`SGDUDA` is the Bismarck epoch, :class:`MultiSGDUDA` the fused
K-model epoch, and :class:`ElevatorMultiSGDUDA` the rides of the shared
scan loop the training service flies; the private-baseline variant
(noise inside the transition) lives in :mod:`repro.rdbms.bismarck`
because it is precisely the "deep code change" being measured.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.optim.losses import Loss, MarginLoss
from repro.optim.projection import IdentityProjection, Projection
from repro.optim.psgd import FusedStep
from repro.optim.schedules import StepSizeSchedule
from repro.utils.validation import check_positive_int


class UDA(abc.ABC):
    """The three-function aggregate contract, over the engine's chunked
    stream: ``transition_batch`` receives the ``(X_block, y_block)``
    chunks of ``scan_chunks``."""

    @abc.abstractmethod
    def initialize(self, **kwargs: Any) -> Any:
        """Create a fresh aggregation state."""

    @abc.abstractmethod
    def transition_batch(
        self, state: Any, features: np.ndarray, labels: np.ndarray
    ) -> Any:
        """Fold a block of tuples into the state; returns the updated state."""

    @abc.abstractmethod
    def terminate(self, state: Any) -> Any:
        """Finish the aggregate and return its value."""


@dataclass
class SGDState:
    """The SGD aggregation state (Section 4.2's description, verbatim).

    Holds the model, a temporary accumulated gradient, and counters for
    examples and mini-batches seen — when a mini-batch completes, the
    transition function applies the accumulated gradient at the proper
    step size.
    """

    model: np.ndarray
    accumulated_gradient: np.ndarray
    examples_in_batch: int
    batches_completed: int
    global_step_offset: int

    @property
    def next_step_index(self) -> int:
        """1-based global index of the *next* mini-batch update."""
        return self.global_step_offset + self.batches_completed + 1


class SGDUDA(UDA):
    """One SGD epoch as a UDA — the heart of Bismarck.

    The front-end controller passes the previous epoch's model to
    ``initialize`` and a global step offset so decreasing schedules continue
    across epochs. ``terminate`` flushes a trailing partial mini-batch
    (matching Bismarck's behaviour of not losing the tail tuples).
    """

    def __init__(
        self,
        loss: Loss,
        schedule: StepSizeSchedule,
        batch_size: int = 1,
        projection: Optional[Projection] = None,
    ):
        self.loss = loss
        self.schedule = schedule
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.projection = projection if projection is not None else IdentityProjection()
        #: Gradient updates applied during the lifetime of this UDA object;
        #: the cost model charges per-update work through this counter.
        self.updates_applied = 0
        # Cached schedule.rates vector as Python floats, grown
        # geometrically: the streaming UDA does not know its total step
        # count up front, but rates(n)[t-1] == rate(t) exactly (schedule
        # property tests), so serving steps from the cache instead of a
        # per-step rate(t) call is a pure speedup.
        self._rates_cache: list = []

    def initialize(
        self, model: Optional[np.ndarray] = None, dimension: Optional[int] = None,
        global_step_offset: int = 0, **kwargs: Any,
    ) -> SGDState:
        if model is None:
            if dimension is None:
                raise ValueError("initialize needs either a model or a dimension")
            model = np.zeros(int(dimension), dtype=np.float64)
        model = np.array(model, dtype=np.float64, copy=True)
        return SGDState(
            model=self.projection(model),
            accumulated_gradient=np.zeros_like(model),
            examples_in_batch=0,
            batches_completed=0,
            global_step_offset=int(global_step_offset),
        )

    def transition_batch(
        self, state: SGDState, features: np.ndarray, labels: np.ndarray
    ) -> SGDState:
        """Fold a tuple block in mini-batch-sized vectorized steps.

        Each segment stops at the next mini-batch boundary, so the model is
        stepped at exactly the tuple positions of PSGD's scalar loop,
        whatever the chunk size, and every step runs through
        ``_apply_batch``/``_adjust_gradient`` (the noisy-UDA hook). A
        segment's gradient sum is one ``Loss.batch_gradient`` contraction,
        which agrees with PSGD's per-example accumulation
        (``execution="scalar"``) to floating-point rounding.
        """
        # This loop runs once per rider per chunk in every scan flight:
        # lookups are hoisted, the arithmetic is exactly the per-segment
        # sequence described above.
        batch_gradient = self.loss.batch_gradient
        batch_size = self.batch_size
        n = features.shape[0]
        start = 0
        while start < n:
            stop = min(start + batch_size - state.examples_in_batch, n)
            take = stop - start
            mean = batch_gradient(
                state.model, features[start:stop], labels[start:stop]
            )
            state.accumulated_gradient += mean * take
            state.examples_in_batch += take
            start = stop
            if state.examples_in_batch >= batch_size:
                self._apply_batch(state)
        return state

    def terminate(self, state: SGDState) -> np.ndarray:
        if state.examples_in_batch > 0:
            self._apply_batch(state)
        return state.model

    # -- internals ------------------------------------------------------------

    def _rates(self, count: int) -> list:
        """The cached step sizes, grown to hold at least ``count``:
        entry ``t - 1`` is ``rate(t)``."""
        total = max(count, 64, 2 * len(self._rates_cache))
        self._rates_cache = self.schedule.rates(total).tolist()
        return self._rates_cache

    def _apply_batch(self, state: SGDState) -> None:
        # Update t = next_step_index steps at rates[t - 1].
        index = state.global_step_offset + state.batches_completed
        rates = self._rates_cache
        if index >= len(rates):
            rates = self._rates(index + 1)
        mean_gradient = self._adjust_gradient(
            state, state.accumulated_gradient / state.examples_in_batch
        )
        state.model = self.projection(state.model - rates[index] * mean_gradient)
        state.accumulated_gradient.fill(0.0)
        state.examples_in_batch = 0
        state.batches_completed += 1
        self.updates_applied += 1

    def _adjust_gradient(self, state: SGDState, gradient: np.ndarray) -> np.ndarray:
        """Hook for subclasses; the noisy baselines override this.

        This one method is the entire integration surface the white-box
        algorithms need to modify — see Figure 1 (C) and
        :class:`repro.rdbms.bismarck.NoisySGDUDA`.
        """
        return gradient


class MultiSGDUDA(UDA):
    """K SGD epochs as ONE aggregate — the Bismarck shared-scan trick.

    Classic in-RDBMS analytics amortizes table scans by evaluating many
    aggregates over one tuple stream; this UDA does the same for SGD
    models: a single ``SELECT multi_sgd_agg(...)`` trains a whole
    hyper-parameter grid, paying the scan (and its page requests) once
    instead of K times. Per-model heterogeneity mirrors
    :class:`repro.optim.psgd.ModelSpec`: each model has its own loss
    (regularization), step-size schedule and projection. The batch size
    is shared — it defines the lockstep mini-batch boundaries of the
    scan — so the state is an :class:`SGDState` whose ``model`` is the
    ``(K, d)`` matrix, with scalar batch counters.

    Each segment's K gradients and each mini-batch step go through one
    :class:`~repro.optim.psgd.FusedStep`, the update the in-memory
    :class:`~repro.optim.psgd.MultiModelPSGD` takes too, so every model
    ends bitwise equal to its own :class:`SGDUDA` epoch over the same
    shuffled stream — which is what lets the training service fold riders
    that board together as one of these (:class:`ElevatorMultiSGDUDA`).
    Per-step noise is not fused: the white-box baselines step one model
    at a time through :class:`repro.rdbms.bismarck.NoisySGDUDA`.

    The fold writes into arrays it owns: a segment's mean gradient is
    scaled by its tuple count in place and added into the state's
    accumulator, and a completed mini-batch's mean (the accumulator
    divided into one fresh array) is consumed by the step, which returns
    it as the new model. No array is recycled across steps, so a model a
    caller took from the state earlier (a terminated epoch's, a landed
    rider's) is never written again.
    """

    def __init__(
        self,
        losses: Sequence[Loss],
        schedules: Sequence[StepSizeSchedule],
        batch_size: int = 1,
        projections: Optional[Sequence[Optional[Projection]]] = None,
    ):
        self.batch_size = check_positive_int(batch_size, "batch_size")
        #: Scan-level mini-batch updates applied (each steps all K models).
        self.updates_applied = 0
        self._step = FusedStep(losses, schedules, projections)

    @property
    def num_models(self) -> int:
        return len(self._step.losses)

    # -- the three-function contract -------------------------------------------

    def initialize(
        self,
        models: Optional[np.ndarray] = None,
        dimension: Optional[int] = None,
        global_step_offset: int = 0,
        **kwargs: Any,
    ) -> SGDState:
        K = self.num_models
        if models is None:
            if dimension is None:
                raise ValueError("initialize needs either models or a dimension")
            models = np.zeros((K, int(dimension)), dtype=np.float64)
        models = np.array(models, dtype=np.float64, copy=True)
        if models.ndim != 2 or models.shape[0] != K:
            raise ValueError(
                f"models must have shape ({K}, d), got {models.shape}"
            )
        return SGDState(
            model=self._step.project(models),
            accumulated_gradient=np.zeros_like(models),
            examples_in_batch=0,
            batches_completed=0,
            global_step_offset=int(global_step_offset),
        )

    def transition_batch(
        self, state: SGDState, features: np.ndarray, labels: np.ndarray
    ) -> SGDState:
        """Fold a tuple block in mini-batch-sized *fused* steps.

        Same segment discipline as :meth:`SGDUDA.transition_batch` — every
        model steps at the same tuple positions as its own
        :class:`SGDUDA` — but each segment's K gradients are one
        :meth:`FusedStep.gradient <repro.optim.psgd.FusedStep.gradient>`.
        """
        # Runs once per cohort per chunk in a scan flight: lookups are
        # hoisted, the arithmetic is SGDUDA's per-segment sequence per row,
        # written into the fresh mean and the accumulator.
        batch_size = self.batch_size
        gradient = self._step.gradient
        n = features.shape[0]
        start = 0
        while start < n:
            stop = min(start + batch_size - state.examples_in_batch, n)
            take = stop - start
            mean = gradient(state.model, features[start:stop], labels[start:stop])
            mean *= take
            state.accumulated_gradient += mean
            state.examples_in_batch += take
            start = stop
            if state.examples_in_batch >= batch_size:
                self._apply_batch(state)
        return state

    def terminate(self, state: SGDState) -> np.ndarray:
        if state.examples_in_batch > 0:
            self._apply_batch(state)
        return state.model

    def _apply_batch(self, state: SGDState) -> None:
        # The step consumes the fresh mean and returns it as the model.
        state.model = self._step.step(
            state.model,
            state.accumulated_gradient / state.examples_in_batch,
            state.next_step_index,
        )
        state.accumulated_gradient.fill(0.0)
        state.examples_in_batch = 0
        state.batches_completed += 1
        self.updates_applied += 1


class ElevatorRider:
    """One job aboard a shared scan cursor — the handle ``admit`` returns.

    The rider boards at ``boarding_offset`` (a canonical chunk boundary)
    with its own :class:`SGDUDA` (or noisy subclass), rides ``passes``
    full cursor loops and lands back at its boarding chunk. Its model is
    folded by a ride (:class:`_Ride`): its own, over its own UDA, or its
    cohort's, as one row of a :class:`MultiSGDUDA` stack. The ride sets
    ``epochs_completed`` as epochs close and, once the rider is
    ``done``, ``model`` — the released weights, bitwise those of a solo
    ``run_sgd(..., start_offset=boarding_offset)`` either way.
    """

    def __init__(self, uda: SGDUDA, *, passes: int, boarding_offset: int):
        self.uda = uda
        self.passes = check_positive_int(passes, "passes")
        self.boarding_offset = int(boarding_offset)
        self.epochs_completed = 0
        #: Set when the last epoch terminates; the released weights.
        self.model: Optional[np.ndarray] = None

    @property
    def done(self) -> bool:
        return self.epochs_completed >= self.passes


class _Ride:
    """One UDA riding the cursor for the riders that boarded it together.

    The UDA is a lone rider's own :class:`SGDUDA` or a cohort's
    :class:`MultiSGDUDA` (row ``k`` = ``riders[k]``). Both take the model
    as ``initialize``'s first positional argument and return it from
    ``terminate``, so the front-end controller's epoch discipline is
    written once, *relative to the boarding point*: fold every canonical
    chunk the cursor delivers, and after exactly ``num_tuples`` tuples —
    which, because boarding happens on the chunk grid, lands precisely
    back at the boarding chunk — terminate the epoch (flushing a trailing
    partial mini-batch), advance the global step offset by ``ceil(m /
    b)`` and re-initialize from the epoch's model: the literal calls
    ``BismarckSession.run_sgd`` makes for each epoch. A ride
    that boarded at offset ``p`` therefore executes, per model, the same
    floating-point operations as a solo ``run_sgd(..., start_offset=p)``
    over the same rotated chunks, and its noise/schedule streams consume
    exactly what that solo run would.
    """

    def __init__(
        self,
        uda: UDA,
        riders: list[ElevatorRider],
        *,
        num_tuples: int,
        dimension: int,
    ):
        self.uda = uda
        self.riders = riders
        self.stacked = isinstance(uda, MultiSGDUDA)
        self.num_tuples = num_tuples
        self.passes = riders[0].passes
        # ceil(m / b) updates per epoch, exactly run_sgd's advance.
        self.updates_per_epoch = -(-num_tuples // uda.batch_size)
        if self.stacked:
            # The cohort's rates for the whole ride, built once.
            uda._step.reserve_rates(self.passes * self.updates_per_epoch)
        self.epochs_completed = 0
        self.tuples_into_epoch = 0
        self.global_step_offset = 0
        self.state = uda.initialize(dimension=dimension, global_step_offset=0)

    @property
    def done(self) -> bool:
        return self.epochs_completed >= self.passes

    def fold(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Fold one canonical chunk; close the epoch if it completes it."""
        take = labels.shape[0]
        if self.tuples_into_epoch + take > self.num_tuples:
            raise RuntimeError(
                "chunk spans the rider's epoch boundary — riders must "
                "board on the canonical chunk grid"
            )
        self.state = self.uda.transition_batch(self.state, features, labels)
        self.tuples_into_epoch += take
        if self.tuples_into_epoch < self.num_tuples:
            return
        model = self.uda.terminate(self.state)
        self.epochs_completed += 1
        self.tuples_into_epoch = 0
        self.global_step_offset += self.updates_per_epoch
        for rider in self.riders:
            rider.epochs_completed = self.epochs_completed
        if not self.done:
            self.state = self.uda.initialize(
                model, global_step_offset=self.global_step_offset
            )
        elif self.stacked:
            for rider, row in zip(self.riders, model):
                rider.model = row.copy()
        else:
            self.riders[0].model = model


def _cohort_key(rider: ElevatorRider) -> Optional[tuple]:
    """What riders boarding together must share to fold as one
    :class:`MultiSGDUDA`, or ``None`` for a rider that rides alone.

    A cohort folds through ``MarginLoss.batch_gradient_multi``, whose row
    ``k`` is bitwise ``MarginLoss.batch_gradient`` — so only a plain
    :class:`SGDUDA` over a :class:`MarginLoss` that overrides neither
    kernel, with a fusion key, may stack. A noisy UDA (its per-step hook
    stays its own) or a custom loss rides alone.
    """
    uda = rider.uda
    loss = uda.loss
    if type(uda) is not SGDUDA or not isinstance(loss, MarginLoss):
        return None
    kind = type(loss)
    if (
        kind.batch_gradient is not MarginLoss.batch_gradient
        or kind.batch_gradient_multi is not MarginLoss.batch_gradient_multi
    ):
        return None
    fusion_key = loss.fusion_key()
    if fusion_key is None:
        return None
    return (uda.batch_size, rider.passes, fusion_key)


class ElevatorMultiSGDUDA:
    """Independent SGD rides over ONE continuous cursor loop.

    The shared-cursor ("elevator") counterpart of :class:`MultiSGDUDA`.
    The fused aggregate scans in *lockstep*: one shared batch size, one
    shared epoch phase. The elevator drops the lockstep between rides:
    each ride carries its own batch phase, boarding offset and epoch
    counter, so **any** jobs on the table — whatever their batch sizes
    and pass counts — share one cursor, and a late job can board it
    mid-flight.

    Within a ride the lockstep comes back where it is free. Riders
    admitted between the same two folds that share a batch size, a pass
    count and a loss fusion key (see :func:`_cohort_key`) fold as ONE
    cohort, stepped by one :class:`MultiSGDUDA`; every other rider —
    one with no partner, a noisy UDA, a custom loss — rides its own
    :class:`SGDUDA`. Either way every rider is bitwise its solo
    :class:`SGDUDA` run, which is why the training service's scheduler
    runs every claimed window this way.

    Drive it with a :class:`~repro.rdbms.executor.ScanCursor`: admit
    riders between chunks, fold each delivered chunk, collect completed
    riders. The scan (and its page requests) is paid once per cursor
    loop regardless of how many riders are aboard.
    """

    def __init__(self, *, num_tuples: int, dimension: int):
        self.num_tuples = check_positive_int(num_tuples, "num_tuples")
        self.dimension = check_positive_int(dimension, "dimension")
        #: Riders aboard, in admission order.
        self.riders: list[ElevatorRider] = []
        #: Riders admitted over the aggregate's lifetime.
        self.riders_admitted = 0
        #: Riders that folded in a cohort of two or more.
        self.riders_stacked = 0
        self._rides: list[_Ride] = []
        self._boarding: list[ElevatorRider] = []

    @property
    def active(self) -> bool:
        return bool(self.riders)

    def admit(
        self, uda: SGDUDA, *, passes: int, boarding_offset: int
    ) -> ElevatorRider:
        """Board a new model at the cursor's current grid position; it is
        seated — alone or in a cohort — when the next chunk folds."""
        rider = ElevatorRider(uda, passes=passes, boarding_offset=boarding_offset)
        self.riders.append(rider)
        self._boarding.append(rider)
        self.riders_admitted += 1
        return rider

    def fold_chunk(
        self, features: np.ndarray, labels: np.ndarray
    ) -> list[ElevatorRider]:
        """Fold one canonical chunk into every ride; return the riders
        that completed their last epoch on this chunk (admission order)."""
        if self._boarding:
            self._seat(self._boarding)
            self._boarding = []
        landed = False
        for ride in self._rides:
            ride.fold(features, labels)
            landed = landed or ride.done
        if not landed:
            return []
        completed = [rider for rider in self.riders if rider.done]
        self.riders = [rider for rider in self.riders if not rider.done]
        self._rides = [ride for ride in self._rides if not ride.done]
        return completed

    def _seat(self, boarders: list[ElevatorRider]) -> None:
        """Seat riders that boarded at the same position: cohorts of two
        or more share one :class:`MultiSGDUDA`, the rest ride alone."""
        seats: dict = {}
        for rider in boarders:
            key = _cohort_key(rider)
            seats.setdefault(rider if key is None else key, []).append(rider)
        for members in seats.values():
            if len(members) == 1:
                uda: UDA = members[0].uda
            else:
                udas = [member.uda for member in members]
                uda = MultiSGDUDA(
                    [u.loss for u in udas],
                    [u.schedule for u in udas],
                    udas[0].batch_size,
                    [u.projection for u in udas],
                )
                self.riders_stacked += len(members)
            self._rides.append(
                _Ride(uda, members, num_tuples=self.num_tuples, dimension=self.dimension)
            )
