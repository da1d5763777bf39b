"""Permutation-based stochastic gradient descent (PSGD).

This is the black-box optimizer the paper's bolt-on algorithms wrap: the
standard ``PSGD(S)`` invoked at line 2 of Algorithms 1 and 2. It supports
every extension the analysis covers (Section 3.2.3):

* k passes over the data, cycling through a random permutation;
* mini-batching by partitioning the permuted data into chunks of size b;
* projected updates onto a convex constraint set (equation (7));
* model averaging, uniform or over a suffix of the iterates (Lemma 10;
  :func:`repro.optim.growth.averaged_divergence_bound` bounds arbitrary
  averaging coefficients, which the engine does not run);
* a fresh permutation per pass (optional);
* convergence-tolerance early stopping (the "k is oblivious" strategy of
  Section 4.3 for the strongly convex case).

Two hooks exist specifically so that the *white-box* baselines (SCS13 and
BST14) can be expressed on top of the same engine:

* ``gradient_noise`` — called once per mini-batch update; returns a vector
  added to the gradient before the step (SCS13/BST14 per-iteration noise);
* ``example_sampler`` — replaces permutation order with i.i.d. sampling
  (BST14 samples ``i_t ~ [m]`` uniformly at each step).

The engine is deliberately *deterministic given its generator*: the paper's
privacy proof (Lemma 5) fixes the randomness sequence r and compares runs on
neighbouring datasets, and our sensitivity tests do exactly that by passing
an explicit permutation.

Two execution paths
-------------------

``PSGDConfig.execution`` selects how each mini-batch gradient is computed:

* ``"vectorized"`` (default) — the permuted dataset is materialized once
  per pass as contiguous ``(X[order], y[order])`` blocks; each update
  slices one mini-batch matrix out of it and takes a single
  ``Loss.batch_gradient`` step. This is the block-at-a-time discipline that
  makes an epoch run at NumPy speed instead of interpreter speed.
* ``"scalar"`` — the per-example reference semantics: every gradient is an
  individual ``Loss.gradient`` call, accumulated and averaged per batch.
  This path exists so the equivalence test suite can pin the fast path to
  the semantics the privacy proof reasons about.

**Determinism contract**: both paths consume the generator identically
(permutations first, then one optional ``example_sampler`` and one optional
``gradient_noise`` call per update, in update order), visit examples in the
same permutation order, and average each mini-batch before stepping. Given
the same randomness the two paths therefore produce the same iterate
sequence up to floating-point rounding of the batch sum, which
``tests/test_vectorized_equivalence.py`` bounds at ``atol=1e-12``. Run
``python benchmarks/bench_hotloops.py --compare-paths`` for the measured
speedup (and the regression gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.optim.losses import Loss, fusion_groups
from repro.optim.projection import IdentityProjection, Projection, rows_projector
from repro.optim.schedules import StepSizeSchedule
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_matrix_labels, check_positive_int

#: Signature of the per-update noise hook: (t, dimension, rng) -> noise vector.
GradientNoise = Callable[[int, int, np.random.Generator], np.ndarray]

#: Signature of the index sampler hook: (t, m, rng) -> array of row indices.
ExampleSampler = Callable[[int, int, np.random.Generator], np.ndarray]


@dataclass
class PSGDResult:
    """Everything a caller may want to know about one PSGD run."""

    #: Final iterate w_T (after projection), or the averaged model if
    #: averaging was requested.
    model: np.ndarray
    #: Final iterate w_T regardless of averaging.
    final_iterate: np.ndarray
    #: Number of gradient updates performed.
    updates: int
    #: Number of completed passes (may be < k under early stopping).
    passes_completed: int
    #: Training loss after each pass (empty unless track_loss).
    pass_losses: List[float] = field(default_factory=list)
    #: True when the convergence tolerance stopped the run early.
    converged_early: bool = False
    #: All iterates, recorded only when ``record_iterates`` was set.
    iterates: Optional[List[np.ndarray]] = None


@dataclass
class PSGDConfig:
    """Hyper-parameters of a PSGD run (Table 1 of the paper).

    ``passes`` is k, ``batch_size`` is b. ``average`` selects model
    averaging: ``None`` returns the last iterate, ``"uniform"`` returns
    ``(1/T) sum_t w_t``, ``"suffix"`` averages the last ``ceil(log2 T)``
    iterates (the paper's two examples in Lemma 10).
    """

    schedule: StepSizeSchedule
    passes: int = 1
    batch_size: int = 1
    projection: Projection = field(default_factory=IdentityProjection)
    average: Optional[str] = None
    fresh_permutation_each_pass: bool = False
    #: Early-stop when the relative decrease of the pass loss falls below
    #: this tolerance (None disables; implies track_loss).
    convergence_tolerance: Optional[float] = None
    track_loss: bool = False
    record_iterates: bool = False
    #: "vectorized" takes one matrix step per mini-batch; "scalar" replays
    #: the per-example reference semantics (see module docstring).
    execution: str = "vectorized"

    def __post_init__(self) -> None:
        check_positive_int(self.passes, "passes")
        check_positive_int(self.batch_size, "batch_size")
        if self.average not in (None, "uniform", "suffix"):
            raise ValueError(
                f"average must be None, 'uniform' or 'suffix', got {self.average!r}"
            )
        if self.execution not in ("vectorized", "scalar"):
            raise ValueError(
                f"execution must be 'vectorized' or 'scalar', got {self.execution!r}"
            )
        if self.convergence_tolerance is not None:
            if self.convergence_tolerance <= 0:
                raise ValueError("convergence_tolerance must be positive")


def minibatch_slices(m: int, batch_size: int) -> List[slice]:
    """Partition ``range(m)`` into consecutive chunks of size ``batch_size``.

    The final chunk may be smaller when b does not divide m; the paper
    assumes divisibility "for simplicity". Note a short tail batch weights
    each of its examples by ``1/(m mod b)`` — *more* than ``1/b`` — so the
    mini-batch sensitivity refinement must divide by the worst-case
    ``min(b, m mod b)``; :func:`repro.core.sensitivity.
    effective_minibatch_divisor` is the single source of truth for that
    divisor.
    """
    check_positive_int(m, "m")
    check_positive_int(batch_size, "batch_size")
    return [slice(start, min(start + batch_size, m)) for start in range(0, m, batch_size)]


class PSGD:
    """The permutation-based SGD engine.

    Parameters
    ----------
    loss:
        Per-example loss providing gradients.
    config:
        Run hyper-parameters.
    gradient_noise / example_sampler:
        Baseline hooks; see module docstring. Leaving both ``None`` gives
        the plain PSGD of the paper (the black box of Algorithms 1–2).
    """

    def __init__(
        self,
        loss: Loss,
        config: PSGDConfig,
        gradient_noise: Optional[GradientNoise] = None,
        example_sampler: Optional[ExampleSampler] = None,
    ):
        self.loss = loss
        self.config = config
        self.gradient_noise = gradient_noise
        self.example_sampler = example_sampler

    # -- public API -----------------------------------------------------------

    def run(
        self,
        X: np.ndarray,
        y: np.ndarray,
        initial: Optional[np.ndarray] = None,
        random_state: RandomState = None,
        permutation: Optional[Sequence[int]] = None,
    ) -> PSGDResult:
        """Run PSGD and return the resulting model.

        ``permutation`` overrides the internally sampled permutation — used
        by the sensitivity tests, which must replay identical randomness on
        neighbouring datasets. When ``fresh_permutation_each_pass`` is set
        and a fixed permutation is supplied, the same fixed permutation is
        used every pass (fixing randomness trumps refreshing it).
        """
        X, y = check_matrix_labels(X, y)
        m, d = X.shape
        rng = as_generator(random_state)
        cfg = self.config

        w = self._initial_hypothesis(initial, d)
        slices = minibatch_slices(m, cfg.batch_size)
        total_updates = cfg.passes * len(slices)
        # One vectorized schedule evaluation per run instead of a Python
        # rate(t) call per step; rates(n)[t-1] == rate(t) exactly (the
        # schedule property tests pin that), so this is a pure speedup.
        rates = cfg.schedule.rates(total_updates)

        averager = _ModelAverager(cfg.average, total_updates)
        iterates: Optional[List[np.ndarray]] = [] if cfg.record_iterates else None
        pass_losses: List[float] = []
        track_loss = cfg.track_loss or cfg.convergence_tolerance is not None

        t = 0
        converged_early = False
        passes_completed = 0
        order = self._resolve_permutation(permutation, m, rng)

        # The vectorized path gathers the permuted dataset into contiguous
        # blocks once per permutation, so every mini-batch below is a cheap
        # slice view instead of a fancy-indexed copy. (With an
        # example_sampler the batch rows are unknowable up front, so the
        # gather happens per update in _batch_arrays instead.)
        use_blocks = cfg.execution == "vectorized" and self.example_sampler is None
        Xp = X[order] if use_blocks else None
        yp = y[order] if use_blocks else None

        for pass_index in range(cfg.passes):
            if cfg.fresh_permutation_each_pass and permutation is None and pass_index > 0:
                order = rng.permutation(m)
                if use_blocks:
                    Xp, yp = X[order], y[order]
            for sl in slices:
                t += 1
                batch_X, batch_y = self._batch_arrays(X, y, Xp, yp, order, sl, t, rng)
                w = self._update(w, batch_X, batch_y, t, float(rates[t - 1]), rng)
                averager.observe(t, w)
                if iterates is not None:
                    iterates.append(w.copy())
            passes_completed += 1
            if track_loss:
                pass_losses.append(self.loss.batch_value(w, X, y))
                if self._should_stop(pass_losses, cfg.convergence_tolerance):
                    converged_early = True
                    break

        final = w
        model = averager.result() if cfg.average else final
        return PSGDResult(
            model=model,
            final_iterate=final,
            updates=t,
            passes_completed=passes_completed,
            pass_losses=pass_losses,
            converged_early=converged_early,
            iterates=iterates,
        )

    # -- internals --------------------------------------------------------------

    def _initial_hypothesis(self, initial: Optional[np.ndarray], d: int) -> np.ndarray:
        if initial is None:
            w = np.zeros(d, dtype=np.float64)
        else:
            w = np.array(initial, dtype=np.float64, copy=True)
            if w.shape != (d,):
                raise ValueError(
                    f"initial hypothesis has shape {w.shape}, expected ({d},)"
                )
        return self.config.projection(w)

    def _resolve_permutation(
        self, permutation: Optional[Sequence[int]], m: int, rng: np.random.Generator
    ) -> np.ndarray:
        if permutation is None:
            return rng.permutation(m)
        order = np.asarray(permutation, dtype=np.int64)
        if order.shape != (m,) or sorted(order.tolist()) != list(range(m)):
            raise ValueError("permutation must be a rearrangement of range(m)")
        return order

    def _batch_arrays(
        self,
        X: np.ndarray,
        y: np.ndarray,
        Xp: Optional[np.ndarray],
        yp: Optional[np.ndarray],
        order: np.ndarray,
        sl: slice,
        t: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the mini-batch for update ``t``.

        All three sources yield identical row values, so the execution paths
        see the same batch: the sampler hook (one rng call, both paths),
        contiguous slices of the pre-permuted blocks (vectorized), or a
        per-batch gather through the permutation (scalar reference).
        """
        if self.example_sampler is not None:
            batch_indices = np.atleast_1d(
                np.asarray(self.example_sampler(t, X.shape[0], rng), dtype=np.int64)
            )
            return X[batch_indices], y[batch_indices]
        if Xp is not None:
            assert yp is not None
            return Xp[sl], yp[sl]
        batch_indices = order[sl]
        return X[batch_indices], y[batch_indices]

    def _update(
        self,
        w: np.ndarray,
        batch_X: np.ndarray,
        batch_y: np.ndarray,
        t: int,
        eta: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        gradient = self._batch_gradient(w, batch_X, batch_y)
        if self.gradient_noise is not None:
            gradient = gradient + self.gradient_noise(t, w.shape[0], rng)
        return self.config.projection(w - eta * gradient)

    def _batch_gradient(
        self, w: np.ndarray, batch_X: np.ndarray, batch_y: np.ndarray
    ) -> np.ndarray:
        if self.config.execution == "vectorized":
            return self.loss.batch_gradient(w, batch_X, batch_y)
        # Scalar reference: the Loss base-class row loop (one gradient call
        # per example, accumulated then averaged — the semantics Lemma 5's
        # proof walks through), bypassing any vectorized override.
        return Loss.batch_gradient(self.loss, w, batch_X, batch_y)

    @staticmethod
    def _should_stop(pass_losses: List[float], tolerance: Optional[float]) -> bool:
        if tolerance is None or len(pass_losses) < 2:
            return False
        previous, current = pass_losses[-2], pass_losses[-1]
        scale = max(abs(previous), 1e-12)
        return (previous - current) / scale < tolerance


class _ModelAverager:
    """Streaming model averaging for the three supported modes."""

    def __init__(self, mode: Optional[str], total_updates: int):
        self.mode = mode
        self._sum: Optional[np.ndarray] = None
        self._count = 0
        # "suffix": average the last ceil(log2(T)) iterates (>= 1).
        self._suffix_start = (
            total_updates - max(1, int(np.ceil(np.log2(max(2, total_updates)))))
            if mode == "suffix"
            else 0
        )

    def observe(self, t: int, w: np.ndarray) -> None:
        if self.mode is None:
            return
        if self.mode == "suffix" and t <= self._suffix_start:
            return
        if self._sum is None:
            self._sum = w.astype(np.float64, copy=True)
        else:
            self._sum += w
        self._count += 1

    def result(self) -> np.ndarray:
        if self._sum is None or self._count == 0:
            raise RuntimeError("no iterates observed; cannot average")
        return self._sum / self._count


class FusedStep:
    """One mini-batch update of K models: the fused engines' only step.

    :class:`MultiModelPSGD` (in memory) and
    :class:`~repro.rdbms.uda.MultiSGDUDA` (in the scan) compute every
    gradient and take every step through this object, so the argument
    that row ``k`` is model ``k``'s own run is written once, here:

    * models whose losses share a :meth:`~repro.optim.losses.Loss.fusion_key`
      form one fusion group, evaluated by one ``batch_gradient_multi`` call
      with a per-model lambda vector; ``MarginLoss``'s kernel runs the
      single-model product once per row, so row ``k`` is bitwise model
      ``k``'s own ``batch_gradient`` (a ``None`` key keeps a model in a
      group of its own, served by its loss's row-loop fallback);
    * the step ``W - rate_k(t) * G`` is elementwise, and the rate matrix
      holds each schedule's exact ``rates`` vector — ``rates(n)[t - 1] ==
      rate(t)`` for every ``n``, so its length (set once by
      :meth:`reserve_rates`, or grown on demand) moves no entry;
    * the row projector takes each row's own norm, and its row-loop path
      calls the model's own projection.

    Every operation treats rows independently, so stepping all active rows
    at once equals stepping each group, or each model, in turn.

    The step consumes its gradient: when every model is active, ``rate *
    G``, ``W - rate * G`` and the projection are written into ``G``, which
    is returned as the new weights. A caller passes a gradient nothing
    else holds — :meth:`gradient`'s result (a fresh kernel result, as the
    loss kernels' NumPy arithmetic returns) or a mean it just divided —
    and keeps no reference to the weights it replaces.
    """

    def __init__(
        self,
        losses: Sequence[Loss],
        schedules: Sequence[StepSizeSchedule],
        projections: Optional[Sequence[Optional[Projection]]] = None,
    ):
        self.losses = list(losses)
        self.schedules = list(schedules)
        K = len(self.losses)
        if K == 0:
            raise ValueError("at least one model is required")
        if len(self.schedules) != K:
            raise ValueError(f"got {K} losses but {len(self.schedules)} schedules")
        if projections is None:
            projections = [None] * K
        if len(projections) != K:
            raise ValueError(f"projections must have {K} entries")
        self.projections = [
            p if p is not None else IdentityProjection() for p in projections
        ]
        #: (T, K, 1): entry [t - 1] is the rate column of update t.
        self._rates = np.empty((0, K, 1), dtype=np.float64)
        self.restrict(np.arange(K))

    def reserve_rates(self, updates: int) -> None:
        """Build the rate matrix for updates ``1..updates`` in one go: a
        caller that knows its run's length saves :meth:`step` the
        on-demand regrowths."""
        self._rates = np.stack(
            [schedule.rates(updates) for schedule in self.schedules], axis=1
        )[:, :, None]

    def restrict(self, rows: np.ndarray) -> None:
        """Step only the models at ``rows`` from now on; the others freeze.

        Plans the fusion groups and the row projector over those models.
        When one group holds every model its rows are a full slice, so the
        kernel reads ``W`` and the data as given, and its result is the
        gradient with no copy.
        """
        rows = np.asarray(rows, dtype=np.int64)
        every = rows.size == len(self.losses)
        groups = [
            (rep, rows[relative], lams)
            for rep, relative, lams in fusion_groups([self.losses[k] for k in rows])
        ]
        if len(groups) == 1 and every:
            groups = [(groups[0][0], slice(None), groups[0][2])]
        self._groups = groups
        self._rows = slice(None) if every else rows
        self._projector = rows_projector([self.projections[k] for k in rows])

    def project(self, W: np.ndarray) -> np.ndarray:
        """Project every active row of ``W`` onto its model's set, in place."""
        if self._projector is not None:
            W[self._rows] = self._projector(W[self._rows])
        return W

    def gradient(self, W: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The ``(K, d)`` mean gradients of the active models on one batch.

        ``X`` is one shared ``(n, d)`` batch or a ``(K, n, d)`` per-model
        stack, and ``Y`` is shared ``(n,)`` or per-model ``(K, n)``. Rows
        of frozen models are zero.
        """
        groups = self._groups
        if isinstance(groups[0][1], slice):
            # A full-slice group is the only group: its result is the
            # gradient, computed on the arrays as given.
            rep, _, lams = groups[0]
            return rep.batch_gradient_multi(W, X, Y, regularization=lams)
        G = np.zeros_like(W)
        for rep, rows, lams in groups:
            G[rows] = rep.batch_gradient_multi(
                W[rows],
                X[rows] if X.ndim == 3 else X,
                Y[rows] if Y.ndim == 2 else Y,
                regularization=lams,
            )
        return G

    def step(self, W: np.ndarray, G: np.ndarray, t: int) -> np.ndarray:
        """Update ``t``: ``W - rate_k(t) * G`` on every active row, each then
        projected onto its model's set. With every model active the new
        weights are written into ``G`` and ``G`` is returned; with frozen
        rows, the active ones are written into ``W``, which is returned."""
        rates = self._rates
        if t > rates.shape[0]:
            self.reserve_rates(max(t, 64, 2 * rates.shape[0]))
            rates = self._rates
        rows = self._rows
        if isinstance(rows, slice):
            np.multiply(rates[t - 1], G, out=G)
            np.subtract(W, G, out=G)
            if self._projector is not None:
                self._projector(G)
            return G
        stepped = W[rows] - rates[t - 1, rows] * G[rows]
        if self._projector is not None:
            stepped = self._projector(stepped)
        W[rows] = stepped
        return W


@dataclass
class ModelSpec:
    """One model of a fused multi-model run (its *per-model* knobs).

    The fused engine shares the scan (permutation order, mini-batch
    boundaries, pass count cap) across models; everything that may vary
    per model lives here. ``passes`` may undercut the engine's scan passes
    (a k-grid trains k=5 and k=10 candidates in one 10-pass scan: the k=5
    rows simply freeze after their fifth pass).
    """

    loss: Loss
    schedule: StepSizeSchedule
    projection: Projection = field(default_factory=IdentityProjection)
    passes: Optional[int] = None
    average: Optional[str] = None


@dataclass
class MultiModelResult:
    """Everything a caller may want to know about one fused run."""

    #: Released models, one row per spec (averaged where requested).
    models: np.ndarray
    #: Final iterates regardless of averaging; shape (K, d).
    final_iterates: np.ndarray
    #: Gradient updates each model performed (differs when passes do).
    updates_per_model: np.ndarray
    #: Scan-level update steps (the max over models).
    updates: int
    #: Scan passes completed.
    passes_completed: int

    def __len__(self) -> int:
        return self.models.shape[0]


class MultiModelPSGD:
    """Train K models in **one data scan** — the fused execution engine.

    The paper's workloads are inherently many-model (hyper-parameter
    grids, per-partition private tuning, one-vs-rest multiclass), yet each
    model classically pays for its own pass over the data. This engine
    carries a ``(K, d)`` weight matrix instead: one scan feeds every
    model, and each mini-batch is one :class:`FusedStep` gradient (one
    ``Loss.batch_gradient_multi`` call per fusion group) and one step,
    rather than K small per-model calls — K scans turn into 1 scan, and
    the K per-model matrix-vector products of a step are issued from one
    stacked ``np.matmul`` instead of K Python-level calls.

    Two data layouts are supported:

    * **shared** — ``X`` is ``(m, d)`` and every model reads the same rows
      (labels may still differ per model via a ``(K, m)`` matrix — the OvR
      relabeling). All models follow one shared permutation.
    * **stacked** — ``X`` is ``(K, m, d)``: per-model datasets of equal
      size (disjoint tuning partitions). Permutations are per-model.

    **Determinism contract.** Given the same permutation(s), the fused
    run reproduces K independent vectorized PSGD runs bit for bit: the
    :class:`FusedStep` argument covers the gradients, rates and
    projections, and averaging is per model.
    ``tests/test_multimodel_equivalence.py`` pins fused == sequential with
    ``np.array_equal`` across losses × schedules × heterogeneous per-model
    hyper-parameters.

    Unsupported (use per-model :class:`PSGD`, the reference oracle):
    per-step gradient noise and ``example_sampler`` (the white-box
    baselines train one model at a time), a fresh permutation per pass,
    convergence-tolerance early stopping, loss tracking, and per-model
    batch sizes (batch boundaries define the shared scan).
    """

    def __init__(
        self,
        specs: Sequence[ModelSpec],
        passes: Optional[int] = None,
        batch_size: int = 1,
    ):
        if len(specs) == 0:
            raise ValueError("at least one ModelSpec is required")
        self.specs = list(specs)
        declared = [spec.passes for spec in self.specs if spec.passes is not None]
        for value in declared:
            check_positive_int(value, "ModelSpec.passes")
        if passes is None:
            passes = max(declared) if declared else 1
        self.passes = check_positive_int(passes, "passes")
        if any(value > self.passes for value in declared):
            raise ValueError(
                "a ModelSpec.passes exceeds the engine's scan passes "
                f"({self.passes}); raise the engine passes"
            )
        self.batch_size = check_positive_int(batch_size, "batch_size")
        for spec in self.specs:
            if spec.average not in (None, "uniform", "suffix"):
                raise ValueError(
                    f"average must be None, 'uniform' or 'suffix', got {spec.average!r}"
                )

    # -- public API -----------------------------------------------------------

    def run(self, X: np.ndarray, y: np.ndarray, permutation: np.ndarray) -> MultiModelResult:
        """Run the fused scan and return all K models.

        ``permutation`` is the scan order: a single ``(m,)`` arrangement
        (the only form for shared ``X``; a stack broadcasts it) or a
        ``(K, m)`` matrix of per-model arrangements for stacked ``X``.
        """
        X, Y, stacked, m, d = self._canonicalize_data(X, y)
        K = len(self.specs)
        step = FusedStep(
            [spec.loss for spec in self.specs],
            [spec.schedule for spec in self.specs],
            [spec.projection for spec in self.specs],
        )
        W = step.project(np.zeros((K, d), dtype=np.float64))
        slices = minibatch_slices(m, self.batch_size)
        step.reserve_rates(self.passes * len(slices))
        passes_per_model = np.array(
            [spec.passes if spec.passes is not None else self.passes for spec in self.specs],
            dtype=np.int64,
        )
        updates_per_model = passes_per_model * len(slices)
        averagers = [
            _ModelAverager(spec.average, int(updates_per_model[k]))
            for k, spec in enumerate(self.specs)
        ]
        # Only models that actually average need the per-step observe call;
        # the common average=None fleet skips the loop entirely.
        averaging_models = np.array(
            [k for k, spec in enumerate(self.specs) if spec.average is not None],
            dtype=np.int64,
        )

        orders = self._resolve_permutations(permutation, m, K, stacked)
        Xp, Yp = self._gather(X, Y, stacked, orders)

        t = 0
        passes_completed = 0
        for pass_index in range(self.passes):
            active = np.flatnonzero(passes_per_model > pass_index)
            if active.size == 0:
                break
            if active.size < K:
                step.restrict(active)
            observing = np.intersect1d(averaging_models, active).tolist()
            for sl in slices:
                t += 1
                # [..., sl, :] cuts the batch from a shared (m, d) block
                # and a (K, m, d) stack alike; [..., sl] from either label
                # layout. The step consumes the gradient and returns it as W.
                W = step.step(W, step.gradient(W, Xp[..., sl, :], Yp[..., sl]), t)
                for k in observing:
                    averagers[k].observe(t, W[k])
            passes_completed += 1

        final = W.copy()
        models = np.stack(
            [
                averagers[k].result() if spec.average else final[k]
                for k, spec in enumerate(self.specs)
            ]
        )
        return MultiModelResult(
            models=models,
            final_iterates=final,
            updates_per_model=updates_per_model,
            updates=t,
            passes_completed=passes_completed,
        )

    # -- internals ------------------------------------------------------------

    def _canonicalize_data(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        K = len(self.specs)
        if X.ndim == 2:
            m, d = X.shape
            if y.shape not in ((m,), (K, m)):
                raise ValueError(
                    f"labels must have shape ({m},) or per-model ({K}, {m}), "
                    f"got {y.shape}"
                )
            return X, y, False, m, d
        if X.ndim == 3:
            if X.shape[0] != K:
                raise ValueError(
                    f"stacked features must have shape ({K}, m, d), got {X.shape}"
                )
            m, d = X.shape[1], X.shape[2]
            if y.shape != (K, m):
                raise ValueError(
                    f"stacked labels must have shape ({K}, {m}), got {y.shape}"
                )
            return X, y, True, m, d
        raise ValueError(f"X must be (m, d) or (K, m, d), got shape {X.shape}")

    def _resolve_permutations(
        self, permutation: np.ndarray, m: int, K: int, stacked: bool
    ) -> np.ndarray:
        """Validate the scan order: (m,) shared, or (K, m) when stacked."""
        order = np.asarray(permutation, dtype=np.int64)
        expected = list(range(m))
        if stacked and order.ndim == 2:
            if order.shape != (K, m):
                raise ValueError(f"permutation matrix must be ({K}, {m}), got {order.shape}")
            for row in order:
                if sorted(row.tolist()) != expected:
                    raise ValueError("each permutation row must rearrange range(m)")
            return order
        if not stacked and order.ndim == 2:
            raise ValueError(
                f"shared ({m}, d) data takes one ({m},) permutation, got a "
                f"{order.shape} matrix; one order per model needs stacked "
                "(K, m, d) data"
            )
        if order.shape != (m,) or sorted(order.tolist()) != expected:
            raise ValueError("permutation must be a rearrangement of range(m)")
        if stacked:
            return np.broadcast_to(order, (K, m))
        return order

    def _gather(self, X, Y, stacked, orders):
        """Materialize permuted contiguous blocks, once per run."""
        if stacked:
            return (
                np.take_along_axis(X, orders[:, :, None], axis=1),
                np.take_along_axis(Y, orders, axis=1),
            )
        return X[orders], Y[..., orders]


def run_psgd(
    loss: Loss,
    X: np.ndarray,
    y: np.ndarray,
    schedule: StepSizeSchedule,
    passes: int = 1,
    batch_size: int = 1,
    projection: Optional[Projection] = None,
    average: Optional[str] = None,
    random_state: RandomState = None,
    permutation: Optional[Sequence[int]] = None,
    execution: str = "vectorized",
) -> PSGDResult:
    """Convenience function: one-call PSGD with the common options."""
    config = PSGDConfig(
        schedule=schedule,
        passes=passes,
        batch_size=batch_size,
        projection=projection if projection is not None else IdentityProjection(),
        average=average,
        execution=execution,
    )
    return PSGD(loss, config).run(
        X, y, random_state=random_state, permutation=permutation
    )
