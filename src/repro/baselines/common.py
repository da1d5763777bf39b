"""What the white-box baselines share: the rule a run is built from, its
in-memory run, the per-epoch noise buffer and the result type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.mechanisms import PrivacyParameters
from repro.optim.losses import Loss
from repro.optim.projection import Projection
from repro.optim.psgd import PSGD, ExampleSampler, PSGDConfig, PSGDResult
from repro.optim.schedules import StepSizeSchedule
from repro.utils.rng import RandomState
from repro.utils.validation import check_matrix_labels, check_positive_int


@dataclass(frozen=True)
class WhiteBoxRule:
    """What a white-box algorithm's rule fixes for one run: the guarantee,
    the step schedule, the projection and the per-update noise. Every
    SCS13 and BST14 trainer, in memory and in the engine, is built from
    :func:`~repro.baselines.scs13.scs13_rule` or
    :func:`~repro.baselines.bst14.bst14_rule` and serves its noise from
    :meth:`noise`."""

    privacy: PrivacyParameters
    schedule: StepSizeSchedule
    projection: Projection
    #: Per-update noise standard deviation (Gaussian) or scale (Laplace).
    noise_scale: float
    #: ``draw(count, d, rng) -> (count, d)``: ``count`` per-update noise
    #: vectors, drawn from ``rng`` exactly as ``count`` one-row draws are.
    draw: Callable[[int, int, np.random.Generator], np.ndarray]

    def noise(self, m: int, d: int, batch_size: int) -> "EpochNoiseBuffer":
        """The run's per-update noise rows over m rows of dimension d,
        drawn an epoch (``ceil(m/b)`` updates) at a time."""
        return EpochNoiseBuffer(
            lambda count, rng: self.draw(count, d, rng), steps_per_epoch=-(-m // batch_size)
        )


class EpochNoiseBuffer:
    """Serve per-update noise rows out of per-epoch blocked draws.

    The white-box algorithms pay one "sophisticated distribution" draw per
    mini-batch; drawing them one Python call at a time is pure overhead.
    This buffer pre-draws an epoch's worth (``steps_per_epoch`` rows) via
    a block sampler and hands out rows on demand. Every block sampler
    used with it honours the :meth:`NoiseMechanism.sample_batch` contract:
    the blocked draw consumes *its* generator identically to per-step
    draws from that same generator, so buffering changes no released
    model (regression-tested).

    ``draw_block(count, rng) -> (count, d) array``; ``next(rng)`` returns
    the next row, refilling at epoch boundaries.
    """

    def __init__(
        self,
        draw_block: Callable[[int, np.random.Generator], np.ndarray],
        steps_per_epoch: int,
    ):
        self._draw_block = draw_block
        self._steps = check_positive_int(steps_per_epoch, "steps_per_epoch")
        self._buffer: Optional[np.ndarray] = None
        self._position = 0
        #: Rows handed out — the per-update draw count the cost model sees.
        self.rows_served = 0

    def next(self, rng: np.random.Generator) -> np.ndarray:
        if self._buffer is None or self._position == self._buffer.shape[0]:
            self._buffer = np.asarray(self._draw_block(self._steps, rng))
            if self._buffer.ndim != 2 or self._buffer.shape[0] != self._steps:
                raise ValueError(
                    f"draw_block must return ({self._steps}, d), "
                    f"got {self._buffer.shape}"
                )
            self._position = 0
        row = self._buffer[self._position]
        self._position += 1
        self.rows_served += 1
        return row


@dataclass
class BaselineResult:
    """Outcome of one SCS13 / BST14 training run.

    Unlike the bolt-on algorithms there is no single released noise vector:
    noise enters every gradient update, so the model itself is the private
    object and there is no meaningful noiseless twin.
    """

    model: np.ndarray
    privacy: PrivacyParameters
    algorithm: str
    psgd: PSGDResult = field(repr=False)
    loss: Loss = field(repr=False)
    #: Per-update noise standard deviation (Gaussian) or scale (Laplace),
    #: recorded for the runtime/overhead accounting.
    per_step_noise_scale: Optional[float] = None
    #: Number of noise samples drawn (== number of gradient updates).
    noise_draws: int = 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.loss.predict(self.model, X)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        X, y = check_matrix_labels(X, y)
        return float(np.mean(self.predict(X) == y))


def run_rule(
    X: np.ndarray,
    y: np.ndarray,
    loss: Loss,
    rule: WhiteBoxRule,
    algorithm: str,
    *,
    passes: int,
    batch_size: int,
    random_state: RandomState,
    noise_rng: Optional[np.random.Generator] = None,
    example_sampler: Optional[ExampleSampler] = None,
) -> BaselineResult:
    """PSGD under ``rule``, one row of its noise added to every update;
    the rows are drawn an epoch at a time from ``noise_rng`` (default:
    PSGD's own generator)."""
    m, d = X.shape
    buffer = rule.noise(m, d, batch_size)

    def gradient_noise(t: int, dimension: int, rng: np.random.Generator) -> np.ndarray:
        return buffer.next(rng if noise_rng is None else noise_rng)

    config = PSGDConfig(
        schedule=rule.schedule, passes=passes, batch_size=batch_size, projection=rule.projection
    )
    result = PSGD(
        loss, config, gradient_noise=gradient_noise, example_sampler=example_sampler
    ).run(X, y, random_state=random_state)
    return BaselineResult(
        model=result.model, privacy=rule.privacy, algorithm=algorithm, psgd=result, loss=loss,
        per_step_noise_scale=rule.noise_scale, noise_draws=buffer.rows_served,
    )
